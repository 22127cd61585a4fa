import json
import random
from collections.abc import Sequence
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterhodge.counts import consistency_suite, point_count_poly, small_weight_entries
from clusterhodge.errors import ConsistencyError, NotAcyclic, NotPrincipal
from clusterhodge.exchange import (
    is_principal,
    principal_from_graph,
    principal_matrix,
    underlying_graph,
    validate,
)
from clusterhodge.filtration import (
    FilteredComplexQ,
    SparseMatrix,
    SpectralSequencePage,
    _e1_summands,
    _reduction_pairs,
    build_filtered,
    e1_page,
    graded_pieces,
    observed_collapse_page,
    spectral_sequence,
)
from clusterhodge.graphs import (
    Graph,
    _InducedComplexes,
    all_graphs,
    connected_graphs,
    cycle_graph,
    path_graph,
    star_graph,
)
from clusterhodge.gysin import CochainComplexQ, GysinBuilder, build_gysin_complex, hodge_table
from clusterhodge.io import load_matrix
from clusterhodge.linalg import Echelon, nullspace, rank, solve_in_span

from conftest import (
    CohomologyClasses,
    Quotient,
    corpus,
    dense_from_nonzeros,
    e1_summands_full_walk,
    mat_mul,
    pages_by_full_scan,
    rank_relative,
    rows_at,
    seeded_orientation,
)

TRIANGLE = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


@pytest.mark.parametrize("build", [build_gysin_complex, build_filtered, graded_pieces, e1_page])
def test_weighted_entry_points_refuse_a_weight_outside_0_d(build, monkeypatch):
    # the same check and message, before a builder or an induced complex
    # is made
    import clusterhodge.filtration as filtration
    import clusterhodge.gysin as gysin

    def unbuilt(*args, **kwargs):
        raise AssertionError("built before the weight was checked")

    for owner, name in ((gysin, "GysinBuilder"), (filtration, "GysinBuilder"),
                        (filtration, "_InducedComplexes")):
        monkeypatch.setattr(owner, name, unbuilt)
    m = principal_from_graph(path_graph(3))
    for s in (-1, m.d + 1):
        with pytest.raises(ValueError) as caught:
            build(m, s)
        assert str(caught.value) == f"weight s={s} outside [0, {m.d}]"


# the Markov quiver (2, 2, 2): an oriented 3-cycle that no mutation makes
# acyclic, of rank 2, so with m = 0 it is neither principal nor full rank
MARKOV = [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]
BARE = validate(MARKOV, 3, 0)
PRINCIPAL = principal_matrix(MARKOV)
NEEDS_PRINCIPAL = "the filtration needs principal coefficients"
CYCLE = "the quiver has an oriented cycle"


@pytest.mark.parametrize(
    "call, args, error, message",
    [
        (build_filtered, (BARE, 1), NotPrincipal, NEEDS_PRINCIPAL),
        (graded_pieces, (BARE, 1), NotPrincipal, NEEDS_PRINCIPAL),
        (e1_page, (BARE, 1), NotPrincipal, NEEDS_PRINCIPAL),
        (hodge_table, (BARE,), NotAcyclic, CYCLE),
        (consistency_suite, (BARE,), NotAcyclic, CYCLE),
        (build_gysin_complex, (BARE, 1), NotAcyclic, CYCLE),
        (build_gysin_complex, (BARE, BARE.d + 1), NotAcyclic, CYCLE),
        (point_count_poly, (BARE,), NotAcyclic, "point counts need an acyclic quiver"),
        (build_filtered, (PRINCIPAL, -1), NotAcyclic, CYCLE),
        (graded_pieces, (PRINCIPAL, -1), NotAcyclic, CYCLE),
        (e1_page, (PRINCIPAL, -1), NotAcyclic, CYCLE),
        (build_filtered, (PRINCIPAL, PRINCIPAL.d + 1), NotAcyclic, CYCLE),
        (graded_pieces, (PRINCIPAL, PRINCIPAL.d + 1), NotAcyclic, CYCLE),
        (e1_page, (PRINCIPAL, PRINCIPAL.d + 1), NotAcyclic, CYCLE),
    ],
    ids=[
        "build_filtered-bare",
        "graded_pieces-bare",
        "e1_page-bare",
        "hodge_table-bare",
        "consistency_suite-bare",
        "build_gysin_complex-bare",
        "build_gysin_complex-bare-d+1",
        "point_count_poly-bare",
        "build_filtered-principal--1",
        "graded_pieces-principal--1",
        "e1_page-principal--1",
        "build_filtered-principal-d+1",
        "graded_pieces-principal-d+1",
        "e1_page-principal-d+1",
    ],
)
def test_entry_points_refuse_in_their_order(call, args, error, message):
    # inputs that fail two checks at once: each entry point names the
    # first check of its family's order, with its own message
    with pytest.raises(error) as caught:
        call(*args)
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_levels_and_monotonicity():
    m = principal_from_graph(path_graph(2))
    fc = build_filtered(m, 2)
    for pos, labels in enumerate(fc.complex.labels):
        for idx, lab in enumerate(labels):
            i_mask, a_mask = lab
            expected = (a_mask & 0b11).bit_count() + i_mask.bit_count()
            assert fc.levels[pos][idx] == expected
    fc.verify_levels()  # differential never lowers the level
    with pytest.raises(NotPrincipal):
        build_filtered(validate([[0], [2]], 1, 1), 1)


def test_filtration_contains_edge_class_at_level_two():
    m = principal_from_graph(path_graph(2))
    fc = build_filtered(m, 2)
    # theta({a}, empty, {b}) = label (I={1}, A={0}) has level 2
    lab = (0b10, 0b01)
    pos1 = fc.complex.labels[1]
    assert lab in pos1
    assert fc.levels[1][pos1.index(lab)] == 2


def test_graded_pieces_match_independence_complexes():
    # graded_pieces raises on any mismatch; run it over several graphs
    for graph in [path_graph(3), TRIANGLE, star_graph(4)]:
        m = principal_from_graph(graph)
        for s in range(m.d + 1):
            pieces = graded_pieces(m, s)
            for piece in pieces:
                piece.complex.verify_d2()


def test_graded_pieces_are_the_level_preserving_entries():
    # each piece holds exactly the entries of the filtered complex between
    # its own labels that keep the level, and together they hold them all
    for graph in [path_graph(3), TRIANGLE, star_graph(4), cycle_graph(4)]:
        m = principal_from_graph(graph)
        for s in range(m.d + 1):
            fc = build_filtered(m, s)
            cx = fc.complex
            want = {}
            for p, cols in enumerate(cx.columns):
                for c, col in enumerate(cols):
                    for r, v in col.items():
                        if fc.levels[p + 1][r] == fc.levels[p][c]:
                            want[(cx.labels[p][c], cx.labels[p + 1][r])] = v
            got = {}
            for piece in graded_pieces(m, s):
                pc = piece.complex
                for p, cols in enumerate(pc.columns):
                    for c, col in enumerate(cols):
                        for r, v in col.items():
                            key = (pc.labels[p][c], pc.labels[p + 1][r])
                            assert key not in got
                            got[key] = v
            assert got == want, (sorted(graph.edges), s)


def test_graded_pieces_refuse_a_wrong_differential(monkeypatch):
    # a residue writer that writes nothing leaves d^2 = 0 and the levels
    # intact, but the graded cohomology no longer matches the graph
    m = principal_from_graph(path_graph(3))
    monkeypatch.setattr(GysinBuilder, "_rho_into", lambda self, *args: [])
    build_filtered(m, 2)
    with pytest.raises(ConsistencyError, match="independence complex"):
        graded_pieces(m, 2)


def test_graded_pieces_examples():
    m = principal_from_graph(path_graph(3))
    pieces = {(p.d_set, p.e_set): p for p in graded_pieces(m, 2)}
    # (D, E) = ({i}, {i}): single theta(empty, {i}, empty), H^0 = 1
    piece = pieces[((0,), (0,))]
    assert piece.cohomology_dims() == {0: 1}
    # (D, E) = (empty, {a, b}) with (a, b) an edge: H^1 = 1
    piece = pieces[((), (0, 1))]
    assert piece.cohomology_dims() == {1: 1}
    # E minus D containing an isolated vertex: everything dies
    piece = pieces[((), (0, 2))]
    assert piece.cohomology_dims() == {}


def test_graded_pieces_assemble_page_zero():
    m = principal_from_graph(TRIANGLE)
    for s in range(m.d + 1):
        fc = build_filtered(m, s)
        pages = spectral_sequence(fc, max_page=0)
        page0 = pages[0]
        assembled: dict[tuple[int, int], int] = {}
        for piece in graded_pieces(m, s):
            e = len(piece.e_set)
            for p in range(piece.complex.positions):
                d = piece.complex.dim(p)
                if d:
                    assembled[(e, p - e)] = assembled.get((e, p - e), 0) + d
        assert assembled == page0.entries


def _toy_filtered() -> FilteredComplexQ:
    # 0 -> Q^2 -> Q^2 -> 0 with a level-raising differential component
    labels = [[(0, 0), (0, 1)], [(1, 0), (1, 1)]]
    columns = [[{0: 1, 1: 1}, {1: 1}]]
    cx = CochainComplexQ(labels, columns)
    return FilteredComplexQ(cx, [[0, 1], [0, 1]])


def test_engine_on_toy_filtration():
    fc = _toy_filtered()
    fc.verify_levels()
    pages = spectral_sequence(fc)
    # E_0: columns x -> d x truncated to the same level
    assert pages[0].entries == {(0, 0): 1, (1, -1): 1, (0, 1): 1, (1, 0): 1}
    # d_0 kills (0,0) against (0,1) and (1,-1) against (1,0)
    assert pages[1].entries == {}
    assert observed_collapse_page(pages) <= 1


def test_reduction_refuses_a_non_complex_and_a_lowering_entry():
    one = [[0], [1], [2]]
    not_square_zero = CochainComplexQ(one, [[{0: 1}], [{0: 1}]])
    with pytest.raises(ConsistencyError, match="square to zero"):
        spectral_sequence(FilteredComplexQ(not_square_zero, [[0], [0], [0]]))
    lowering = CochainComplexQ(one[:2], [[{0: 1}]])
    with pytest.raises(ConsistencyError, match="lowers the level"):
        spectral_sequence(FilteredComplexQ(lowering, [[1], [0]]))


# a barcode: bars (k, e, None) are single cells of level e at position k;
# bars (k, e, g) are a cell of level e at position k mapped onto one of
# level e + g at position k + 1
bars = st.lists(
    st.tuples(
        st.integers(0, 2), st.integers(0, 3), st.one_of(st.none(), st.integers(0, 3))
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=80, deadline=None)
@given(bars, st.randoms(use_true_random=False))
def test_reduction_reads_a_scrambled_barcode(barcode, rnd):
    levels: list[list[int]] = [[] for _ in range(4)]
    arrows = []
    for k, e, g in barcode:
        levels[k].append(e)
        if g is not None:
            levels[k + 1].append(e + g)
            arrows.append((k, len(levels[k]) - 1, len(levels[k + 1]) - 1))
    columns = [[{} for _ in levels[k]] for k in range(3)]
    for k, c, t in arrows:
        columns[k][c][t] = 1
    # shuffle the cells of every position
    for k in range(4):
        perm = list(range(len(levels[k])))
        rnd.shuffle(perm)
        levels[k] = [levels[k][perm.index(i)] for i in range(len(perm))]
        if k < 3:
            columns[k] = [columns[k][perm.index(i)] for i in range(len(perm))]
        if k > 0:
            columns[k - 1] = [{perm[t]: v for t, v in col.items()} for col in columns[k - 1]]
    # level-respecting unitriangular change of basis: v_i += a v_j with
    # level(j) >= level(i), acting on the columns out of position k and on
    # the rows of the columns into it
    for k in range(4):
        for _ in range(3 * len(levels[k])):
            i, j = rnd.randrange(len(levels[k])), rnd.randrange(len(levels[k]))
            if i == j or levels[k][j] < levels[k][i]:
                continue
            a = rnd.choice((-2, -1, 1, 2))
            if k < 3:
                col = columns[k][i]
                for t, v in columns[k][j].items():
                    col[t] = col.get(t, 0) + a * v
                    if not col[t]:
                        del col[t]
            if k > 0:
                for col in columns[k - 1]:
                    if i in col:
                        col[j] = col.get(j, 0) - a * col[i]
                        if not col[j]:
                            del col[j]
    cx = CochainComplexQ([list(range(len(lv))) for lv in levels], columns)
    fc = FilteredComplexQ(cx, levels)
    fc.verify_levels()
    pages = spectral_sequence(fc)
    for page in pages:
        entries: dict[tuple[int, int], int] = {}
        ranks: dict[tuple[int, int], int] = {}
        for k, e, g in barcode:
            if g is None or g >= page.r:
                entries[(e, k - e)] = entries.get((e, k - e), 0) + 1
                if g is not None:
                    spot = (e + g, k - e + 1 - g)
                    entries[spot] = entries.get(spot, 0) + 1
            if g == page.r:
                ranks[(e, k - e)] = ranks.get((e, k - e), 0) + 1
        assert page.entries == entries
        got = {spot: _rank(mat) for spot, mat in page.differentials.items()}
        assert got == ranks


def test_one_term_filtration_gives_cohomology():
    m = principal_from_graph(path_graph(2))
    builder = GysinBuilder(m)
    for s in range(m.d + 1):
        cx = builder.complex_for_s(s)
        flat = FilteredComplexQ(cx, [[0] * cx.dim(p) for p in range(cx.positions)])
        pages = spectral_sequence(flat)
        assert len(pages) == 2  # E_0 and the stabilized E_1
        h = cx.cohomology_dims()
        expected = {(0, p): v for p, v in h.items()}
        assert pages[1].entries == expected


def test_page_property_next_page_is_cohomology():
    # dim E_{r+1} = dim E_r - rank(out) - rank(in), at every spot
    m = principal_from_graph(star_graph(4))
    for s in (2, 3, 4):
        fc = build_filtered(m, s)
        pages = spectral_sequence(fc)
        for r in range(len(pages) - 1):
            page, nxt = pages[r], pages[r + 1]
            spots = set(page.entries) | set(nxt.entries)
            for e, f in spots:
                out_mat = page.differentials.get((e, f))
                in_mat = page.differentials.get((e - r, f + r - 1))
                rank_out = rank([dict(enumerate(row)) for row in out_mat]) if out_mat else 0
                rank_in = rank([dict(enumerate(row)) for row in in_mat]) if in_mat else 0
                assert nxt.entry(e, f) == page.entry(e, f) - rank_out - rank_in


def test_e1_double_computation_small():
    rng = random.Random(11)
    graphs = [path_graph(3), TRIANGLE, star_graph(4), cycle_graph(4)]
    for graph in graphs:
        orientation, weights = seeded_orientation(graph, rng, magnitudes=(1, 2, 3))
        m = principal_from_graph(graph, orientation, weights)
        table = hodge_table(m)
        for s in range(m.d + 1):
            fc = build_filtered(m, s)
            pages = spectral_sequence(fc)
            engine_e1 = pages[1].entries
            independent = {
                k: v for k, v in e1_page(m, s).entries.items() if v
            }
            assert engine_e1 == independent, (graph.edges, s)
            einf = pages[-1].entries
            for p in range(m.n + 1):
                total = sum(v for (e, f), v in einf.items() if e + f == p)
                assert total == table.dim(p + s, s)


def _xy_mul(a, b):
    out = {}
    for (i, j), c in a.items():
        for (k, l), d in b.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + c * d
    return {k: v for k, v in out.items() if v}


def _xy_pow(p, n):
    out = {(0, 0): 1}
    for _ in range(n):
        out = _xy_mul(out, p)
    return out


def test_star_e1_generating_functions():
    # sum dim E1^{e(-e),s} x^s y^e = (1 + x + x^2 y)^n and the e+f=1 analogue
    base = {(0, 0): 1, (1, 0): 1, (2, 1): 1}
    for n in (3, 4, 5):
        m = principal_from_graph(star_graph(n))
        got0, got1 = {}, {}
        for s in range(m.d + 1):
            for (e, f), v in e1_page(m, s).entries.items():
                if not v:
                    continue
                if e + f == 0:
                    got0[(s, e)] = got0.get((s, e), 0) + v
                elif e + f == 1:
                    got1[(s, e)] = got1.get((s, e), 0) + v
        assert got0 == _xy_pow(base, n)
        first = _xy_mul(
            {(1, 1): 1},
            _xy_mul(
                _xy_pow({(0, 0): 1, (1, 0): 1}, n - 1),
                _xy_pow({(0, 0): 1, (1, 1): 1}, n - 1),
            ),
        )
        second = _xy_mul({(1, 1): 1}, _xy_pow(base, n - 1))
        want1 = {
            k: first.get(k, 0) - second.get(k, 0)
            for k in set(first) | set(second)
        }
        assert got1 == {k: v for k, v in want1.items() if v}


def test_e1_differential_squares_to_zero_and_matches_engine_ranks():
    # the assembled page-one differential is a differential of Fractions, and
    # it has the same rank as the engine's at every spot (basis changes
    # cannot hide a rank difference); P_3 and C_4 with one arrow doubled
    # scale their blocks by +-2 as well as by +-1
    from clusterhodge.linalg import rank

    graphs = [TRIANGLE, star_graph(4), cycle_graph(4), path_graph(4),
              Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])]
    doubled = [principal_from_graph(path_graph(3), weights={(0, 1): 2}),
               principal_from_graph(cycle_graph(4), weights={(1, 2): 2})]
    for m in [principal_from_graph(g) for g in graphs] + doubled:
        builder = GysinBuilder(m)
        values = set()
        for s in range(m.d + 1):
            ind = e1_page(m, s)
            for mat in ind.differentials.values():
                for row in mat:
                    assert all(type(v) is Fraction for v in row)
                    values.update(row)
            for (e, f), mat in ind.differentials.items():
                nxt = ind.differentials.get((e + 1, f))
                if nxt is None:
                    continue
                width = len(mat[0]) if mat else 0
                for i in range(len(nxt)):
                    for j in range(width):
                        assert (
                            sum(nxt[i][k] * mat[k][j] for k in range(len(mat))) == 0
                        )
            fc = build_filtered(m, s, builder)
            pages = spectral_sequence(fc, max_page=1)
            engine_d1 = pages[1].differentials if len(pages) > 1 else {}
            for spot in set(engine_d1) | set(ind.differentials):
                mat_a = engine_d1.get(spot)
                mat_b = ind.differentials.get(spot)
                rank_a = rank([dict(enumerate(r)) for r in mat_a]) if mat_a else 0
                rank_b = rank([dict(enumerate(r)) for r in mat_b]) if mat_b else 0
                assert rank_a == rank_b, (m.rows, s, spot)
        assert ({2, -2} <= values) == (m in doubled)


def test_e1_entries_at_00_are_2_to_n():
    m = principal_from_graph(star_graph(4))
    total = 0
    for s in range(m.d + 1):
        total += e1_page(m, s).entries.get((0, 0), 0)
    assert total == 2**m.n


def test_e00_all_pages():
    m = principal_from_graph(TRIANGLE)
    for r in range(0, 4):
        total = 0
        for s in range(m.d + 1):
            fc = build_filtered(m, s)
            pages = spectral_sequence(fc)
            # E_r is the last page once r passes stabilization
            total += pages[min(r, len(pages) - 1)].entry(0, 0)
        assert total == 2**m.n


def test_page_one_support():
    # E_1^{ef} = 0 unless e/2 <= -f <= e
    for graph in [TRIANGLE, star_graph(4), path_graph(4)]:
        m = principal_from_graph(graph)
        for s in range(m.d + 1):
            for (e, f), v in e1_page(m, s).entries.items():
                if v:
                    assert e / 2 <= -f <= e


def test_e2_report_examples():
    # E_2 at weight 2 and E_3 at weight 3 against the closed graph formulas
    def page(m, s):
        computed = spectral_sequence(build_filtered(m, s))[s].entries
        assert computed == small_weight_entries(m)[s]
        return computed

    assert page(principal_from_graph(TRIANGLE), 2)[(2, -1)] == 1
    assert (2, -1) not in page(principal_from_graph(path_graph(4)), 2)
    assert page(principal_from_graph(star_graph(4)), 3)[(3, -2)] == 1


def test_principal_normalize():
    # B_prin of a really-full-rank matrix with exponents a = max(n - m, 0)
    # and b = max(m - n, 0) satisfies P_source (1+xy)^a = P_principal (1+xy)^b
    def normalize(m):
        return principal_matrix(m.top_block()), max(m.n - m.m, 0), max(m.m - m.n, 0)

    m = validate([[0], [1], [2]], 1, 2)
    principal, a, b = normalize(m)
    assert principal.rows == ((0,), (1,))
    assert (a, b) == (0, 1)
    def xy(table):
        return {k: v for k, v in table.dims.items() if v}

    def mul_1xy(poly, times):
        out = dict(poly)
        for _ in range(times):
            new = {}
            for (k, s), v in out.items():
                new[(k, s)] = new.get((k, s), 0) + v
                new[(k + 1, s + 1)] = new.get((k + 1, s + 1), 0) + v
            out = {key: v for key, v in new.items() if v}
        return out

    src = xy(hodge_table(m))
    prin = xy(hodge_table(principal))
    assert mul_1xy(src, a) == mul_1xy(prin, b)

    already = principal_from_graph(path_graph(2))
    principal2, a2, b2 = normalize(already)
    assert (a2, b2) == (0, 0)
    assert principal2.rows == already.rows


def test_engine_converges_for_capped_filtrations():
    # capping a monotone level function keeps it monotone; E_infinity totals
    # must still recover the unfiltered cohomology
    m = principal_from_graph(star_graph(4))
    builder = GysinBuilder(m)
    for s in (2, 3, 4):
        cx = builder.complex_for_s(s)
        h = cx.cohomology_dims()
        base = build_filtered(m, s, builder)
        for cap in (0, 1, 2):
            levels = [[min(l, cap) for l in pos] for pos in base.levels]
            fc = FilteredComplexQ(cx, levels)
            fc.verify_levels()
            pages = spectral_sequence(fc)
            for p in range(cx.positions):
                total = sum(
                    v for (e, f), v in pages[-1].entries.items() if e + f == p
                )
                assert total == h.get(p, 0)


def test_spectral_sequence_differential_degree():
    # differentials recorded on page r map (e, f) to (e + r, f + 1 - r)
    m = principal_from_graph(TRIANGLE)
    fc = build_filtered(m, 2)
    pages = spectral_sequence(fc)
    for page in pages:
        for (e, f), mat in page.differentials.items():
            target = (e + page.r, f + 1 - page.r)
            rows = len(mat)
            assert rows == page.entries.get(target, rows)


# ---------------------------------------------------------------------------
# test oracles: the subquotient engine, and a reference solved afresh per query


def _integer_nullspace(rows: list[dict], ncols: int) -> list[tuple[dict, int]]:
    """``linalg.nullspace`` before its last division: each kernel vector as
    the primitive integer vector its echelon made, paired with the lead
    entry that ``nullspace`` divides it by.

    A zero column c gives the unit vector of c at once: it is in the kernel,
    and no other kernel vector, nor any pivot, ever has a marker at c.
    """
    shift = len(rows)
    cols: list[dict] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for c, v in row.items():
            if v and c < ncols:
                cols[c][i] = v
    ech = Echelon()
    kernel = []
    for c, vec in enumerate(cols):
        if not vec:
            kernel.append(({c: 1}, 1))
            continue
        vec[shift + c] = 1
        red = ech.add(vec)
        if red is not None and (lead := min(red)) >= shift:
            kernel.append(({k - shift: v for k, v in red.items()}, red[lead]))
    return kernel


class _Engine:
    """Pages of one filtered complex, each entry E_r^{e, k-e} modulo F^{e+1}.

    The subquotient formula, solved by exact linear algebra with explicit
    coset representatives:

        E_r^{e,f} = Z_r / (F^{e+1} + d F^{e-r+1})  meet  Z_r,
        Z_r = {x in F^e : d x in F^{e+r}}.

    The entry's ``Quotient`` reduces the projected d(F^{e-r+1} V_{k-1}) once,
    picks the projected Z_r vectors independent modulo it (representatives
    are their unprojected originals) and gives the coefficients of every
    projected d z landing in the entry.  Z_r vectors are kept as integer
    multiples z * lead of ``nullspace``'s vectors z, and each differential
    entry is scaled back.  Work is shared across pages: an entry depends on
    r only through min(e + r, hi + 1) and max(e - r + 1, lo), and one that
    is zero stays zero on every later page.
    """

    def __init__(self, fc: FilteredComplexQ):
        self.cx = fc.complex
        self.levels = fc.levels
        self.lo, self.hi = fc.level_range()
        self._rows = [rows_at(self.cx, p) for p in range(self.cx.positions)]
        self._z_cache: dict[tuple[int, int, int], list[tuple[dict, int]]] = {}
        self._entries: dict[tuple, tuple[list, Quotient | None]] = {}
        self._zero_from: dict[tuple[int, int], int] = {}  # first page where it is 0

    def _z_basis(self, e: int, k: int, cap: int) -> list[tuple[dict, int]]:
        """{x in F^e V_k : d x in F^{cap}} over the V_k basis, as pairs
        (integer vector z * lead, lead)."""
        key = (e, k, cap)
        cached = self._z_cache.get(key)
        if cached is not None:
            return cached
        allowed = [i for i in range(self.cx.dim(k)) if self.levels[k][i] >= e]
        pos = {i: c for c, i in enumerate(allowed)}
        rows = []
        for ridx, row in enumerate(self._rows[k] if k < len(self._rows) else []):
            if self.levels[k + 1][ridx] >= cap:
                continue
            filtered = {pos[c]: v for c, v in row.items() if c in pos}
            if filtered:
                rows.append(filtered)
        out = [
            ({allowed[c]: v for c, v in vec.items()}, lead)
            for vec, lead in _integer_nullspace(rows, len(allowed))
        ]
        self._z_cache[key] = out
        return out

    def _below(self, k: int, e: int, vec: dict) -> dict:
        """vec modulo F^e: the coordinates of level below e."""
        lv = self.levels[k]
        return {i: v for i, v in vec.items() if lv[i] < e}

    def entry_data(self, e: int, k: int, r: int) -> tuple[list, Quotient | None]:
        """Representatives of E_r^{e, k-e}, as (z * lead, lead) pairs, and the
        quotient echelon that chose them (None when there are none)."""
        if self._zero_from.get((e, k), r + 1) <= r:
            return [], None
        cap, floor = min(e + r, self.hi + 1), max(e - r + 1, self.lo)
        key = (e, k, cap, floor)
        cached = self._entries.get(key)
        if cached is not None:
            return cached
        z = self._z_basis(e, k, cap)
        # candidates in F^{e+1} are zero modulo it and never chosen
        projected = [
            (i, p) for i, (v, _) in enumerate(z) if (p := self._below(k, e + 1, v))
        ]
        reps, quot = [], None
        if projected:
            incoming = self.cx.columns[k - 1] if 0 < k <= len(self.cx.columns) else []
            base = [
                self._below(k, e + 1, col)
                for c, col in enumerate(incoming)
                if self.levels[k - 1][c] >= floor
            ]
            quot = Quotient(base, [p for _, p in projected])
            reps = [z[projected[i][0]] for i in quot.chosen]
        if not reps:
            self._zero_from[(e, k)] = r
        self._entries[key] = reps, quot
        return reps, quot

    def apply_d(self, k: int, vec: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        if k < len(self.cx.columns):
            for c, coeff in vec.items():
                for rr, v in self.cx.columns[k][c].items():
                    w = out.get(rr, 0) + coeff * v
                    if w:
                        out[rr] = w
                    else:
                        out.pop(rr, None)
        return out

    def page(self, r: int) -> SpectralSequencePage:
        entries: dict[tuple[int, int], int] = {}
        at: dict[tuple[int, int], tuple[list, Quotient | None]] = {}
        for k in range(self.cx.positions):
            for e in sorted(set(self.levels[k])):
                reps, _ = at[(e, k)] = self.entry_data(e, k, r)
                if reps:
                    entries[(e, k - e)] = len(reps)
        diffs: dict[tuple[int, int], list[list[Fraction]]] = {}
        for (e, k), (reps, _) in list(at.items()):
            if not reps:
                continue
            te, tk = e + r, k + 1
            if (te, tk) not in at:
                at[(te, tk)] = self.entry_data(te, tk, r)
            treps, target = at[(te, tk)]
            if not treps:
                continue
            mat = [[Fraction(0)] * len(reps) for _ in range(len(treps))]
            for cidx, (z, lead) in enumerate(reps):
                dz = self._below(tk, te + 1, self.apply_d(k, z))
                coeffs = target.coordinates(dz)
                assert coeffs is not None, "dz must land in the target entry"
                # d(z / lead) is sum_i c_i tlead_i / lead times treps_i / tlead_i
                for ridx, c in enumerate(coeffs):
                    if c:
                        mat[ridx][cidx] = c * treps[ridx][1] / lead
            if any(map(any, mat)):
                diffs[(e, k - e)] = mat
        return SpectralSequencePage(r, entries, diffs)


def _oracle_pages(fc: FilteredComplexQ) -> list[SpectralSequencePage]:
    engine = _Engine(fc)
    return [engine.page(r) for r in range(engine.hi - engine.lo + 2)]


def _reference_pages(fc: FilteredComplexQ):
    """Every page from the subquotient formula, solved afresh per query.

    Representatives come from ``rank_relative`` over the unit vectors of
    F^{e+1} followed by d(F^{e-r+1}); each differential column is one
    ``solve_in_span`` against representatives plus that spanning set.
    """
    cx, levels = fc.complex, fc.levels
    lo, hi = fc.level_range()

    def z_basis(e, k, r):
        allowed = [i for i in range(cx.dim(k)) if levels[k][i] >= e]
        pos = {i: c for c, i in enumerate(allowed)}
        rows = []
        for ridx, row in enumerate(rows_at(cx, k)):
            if levels[k + 1][ridx] < e + r:
                kept = {pos[c]: v for c, v in row.items() if c in pos}
                if kept:
                    rows.append(kept)
        kernel = nullspace(rows, len(allowed))
        return [{allowed[c]: v for c, v in vec.items()} for vec in kernel]

    def entry(e, k, r):
        z = z_basis(e, k, r)
        den = [{i: 1} for i in range(cx.dim(k)) if levels[k][i] > e]
        if 0 < k <= len(cx.columns):
            den += [
                col
                for c, col in enumerate(cx.columns[k - 1])
                if col and levels[k - 1][c] >= e - r + 1
            ]
        _, grew = rank_relative(den, z)
        return [z[i] for i in grew], den

    def apply_d(k, vec):
        out = {}
        if k < len(cx.columns):
            for c, coeff in vec.items():
                for row, v in cx.columns[k][c].items():
                    out[row] = out.get(row, 0) + coeff * v
        return {row: v for row, v in out.items() if v}

    pages = []
    for r in range(hi - lo + 2):
        data = {
            (e, k): entry(e, k, r)
            for k in range(cx.positions)
            for e in sorted(set(levels[k]))
        }
        entries = {(e, k - e): len(reps) for (e, k), (reps, _) in data.items() if reps}
        diffs = {}
        for (e, k), (reps, _) in data.items():
            if not reps:
                continue
            treps, tden = data.get((e + r, k + 1)) or entry(e + r, k + 1, r)
            if not treps:
                continue
            mat = [[Fraction(0)] * len(reps) for _ in treps]
            for cidx, z in enumerate(reps):
                dz = apply_d(k, z)
                if dz:
                    coeffs = solve_in_span(treps + tden, dz)
                    for ridx in range(len(treps)):
                        mat[ridx][cidx] = coeffs[ridx]
            if any(any(row) for row in mat):
                diffs[(e, k - e)] = mat
        pages.append((entries, diffs))
    return pages


def test_engine_matches_reference_subquotients():
    # every page of every weight of every connected graph on at most four
    # vertices: entries, and differential matrices entry for entry
    cases = 0
    for v in range(1, 5):
        for graph in connected_graphs(v):
            m = principal_from_graph(graph)
            builder = GysinBuilder(m)
            for s in range(m.d + 1):
                fc = build_filtered(m, s, builder)
                got = _oracle_pages(fc)
                want = _reference_pages(fc)
                assert len(got) == len(want)
                for page, (entries, diffs) in zip(got, want):
                    assert page.entries == entries, (sorted(graph.edges), s, page.r)
                    assert page.differentials == diffs, (sorted(graph.edges), s, page.r)
                    for mat in page.differentials.values():
                        assert all(type(x) is Fraction for row in mat for x in row)
                cases += 1
    assert cases == 76


def _rank(mat) -> int:
    return rank([dict(enumerate(row)) for row in mat]) if mat else 0


def test_reduction_matches_subquotient_oracle():
    # every page of every weight of all 52 graphs on at most five vertices:
    # equal entries and equal ranks of every d_r, which over a field fix
    # every page and every differential up to isomorphism
    graphs = cases = 0
    for v in range(1, 6):
        for graph in all_graphs(v):
            graphs += 1
            m = principal_from_graph(graph)
            builder = GysinBuilder(m)
            for s in range(m.d + 1):
                fc = build_filtered(m, s, builder)
                got, want = spectral_sequence(fc), _oracle_pages(fc)
                assert [p.r for p in got] == [p.r for p in want]
                for page, ref in zip(got, want):
                    where = (v, sorted(graph.edges), s, page.r)
                    assert page.entries == ref.entries, where
                    for spot in set(page.differentials) | set(ref.differentials):
                        assert _rank(page.differentials.get(spot)) == _rank(
                            ref.differentials.get(spot)
                        ), (where, spot)
                cases += 1
    assert graphs == 52


def test_e1_summands_equal_the_full_walk():
    # the walk visits only the E whose E minus D has cohomology, sized from
    # one table; entries and positions, insertion order included, equal the
    # full walk's over every summand, on the principal quivers of every
    # graph with <= 5 vertices, the principal corpus matrices, and P_7 and
    # C_7, at every weight; an induced memo shared between the weights gives
    # the same
    inputs = [principal_from_graph(g) for v in range(1, 6) for g in all_graphs(v)]
    inputs += [m for m in corpus() if is_principal(m)]
    inputs += [principal_from_graph(path_graph(7)), principal_from_graph(cycle_graph(7))]
    weights = 0
    for m in inputs:
        shared = _InducedComplexes(underlying_graph(m))
        for s in range(m.d + 1):
            want = e1_summands_full_walk(m, s)
            for induced in (None, shared):
                _, entries, positions = _e1_summands(m, s, induced)
                assert list(entries.items()) == list(want[0].items()), (m.rows, s)
                assert list(positions.items()) == list(want[1].items()), (m.rows, s)
            weights += 1
    assert weights == 514 + 22 + 30
    with pytest.raises(ValueError):
        _e1_summands(principal_from_graph(path_graph(3)), 2, _InducedComplexes(TRIANGLE))


def test_e1_page_with_one_memo_equals_fresh_complexes(monkeypatch):
    # e1_page shares one set of induced complexes between its dims and every
    # mv_delta call; the page must equal, entry for entry, the one whose
    # mv_delta calls each build their own complexes
    import clusterhodge.filtration as filtration
    import clusterhodge.graphs as graphs

    inputs = [principal_from_graph(g) for v in range(1, 6) for g in connected_graphs(v)]
    inputs.append(principal_from_graph(Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])))
    shared = [e1_page(m, s) for m in inputs for s in range(m.d + 1)]
    monkeypatch.setattr(
        filtration,
        "mv_delta",
        lambda graph, x_mask, a, b, *, memo: graphs.mv_delta(graph, x_mask, a, b),
    )
    fresh = [e1_page(m, s) for m in inputs for s in range(m.d + 1)]
    assert shared == fresh
    assert all(
        type(v) is Fraction
        for page in shared
        for mat in page.differentials.values()
        for row in mat
        for v in row
    )


E1_PIN = Path(__file__).parent / "data" / "e1_pin"
E1_PIN_MATRICES = {
    "p3": "../ss_pin/p3.mat",
    "z4": "../ss_pin/z4.mat",
    "c5": "c5.mat",
    "k3k2": "k3k2.mat",
}


def test_e1_differentials_change_with_the_bases_only(monkeypatch):
    # on the pinned matrices, every d_1 block built on the new classes is
    # T_dst . old . T_src^-1, where old is the block built on the
    # nullspace-and-quotient reference classes and column i of each
    # summand's T holds the new coordinates of the reference's
    # representative i: the pages differ by a change of basis of each
    # summand and by nothing else
    blocks = 0
    for rel in E1_PIN_MATRICES.values():
        m = load_matrix(str(E1_PIN / rel))
        for s in range(m.d + 1):
            new = e1_page(m, s).differentials
            with monkeypatch.context() as patch:
                patch.setattr(
                    _InducedComplexes,
                    "classes",
                    lambda self, mask, p: CohomologyClasses(self.complex(mask), p),
                )
                old = e1_page(m, s).differentials
            induced, entries, positions = _e1_summands(m, s)
            change = {
                spot: [[Fraction(0)] * size for _ in range(size)] for spot, size in entries.items()
            }
            for (d_mask, e_mask, e, f), (offset, _) in positions.items():
                x_mask = e_mask & ~d_mask
                ref = CohomologyClasses(induced.complex(x_mask), e + f)
                basis = induced.classes(x_mask, e + f)
                for i, rep in enumerate(ref.representatives):
                    for k, c in enumerate(basis.coordinates(rep)):
                        change[(e, f)][offset + k][offset + i] = c
            for spot, t in change.items():
                assert rank([dict(enumerate(row)) for row in t]) == len(t)
            assert new.keys() == old.keys()
            for (e, f), mat in new.items():
                t_src, t_dst = change[(e, f)], change[(e + 1, f)]
                assert mat_mul(mat, t_src) == mat_mul(t_dst, old[(e, f)]), (m.rows, s, e, f)
                blocks += 1
    assert blocks == 34


def test_e1_differentials_are_pinned():
    # every Fraction of the E_1 differentials, at every weight, as the
    # summing write made them before blocks were written by assignment
    # (scripts/make_pins.py); a second block for one pair of summands
    # would be overwritten, not added, and change an entry here
    pinned = json.loads((E1_PIN / "differentials.json").read_text())
    for name, rel in E1_PIN_MATRICES.items():
        m = load_matrix(str(E1_PIN / rel))
        got = []
        for s in range(m.d + 1):
            for (e, f), mat in sorted(e1_page(m, s).differentials.items()):
                assert all(type(v) is Fraction for row in mat for v in row)
                nonzero = [
                    [i, j, str(v)] for i, row in enumerate(mat) for j, v in enumerate(row) if v
                ]
                got.append(
                    {"s": s, "e": e, "f": f, "shape": [len(mat), len(mat[0])], "nonzero": nonzero}
                )
        assert got == pinned[name], name


def test_spectral_sequence_walks_d2_once_after_build_filtered(monkeypatch):
    # build_filtered checks no d^2 = 0; the Morse reducer under
    # spectral_sequence squares each adjacent pair of positions of the full
    # complex once, as they arrive, then the Morse complex's pairs once
    from clusterhodge import filtration, linalg

    squared = []
    check_square = linalg._check_square

    def counting(cols, nxt, pushed=None):
        squared.append((id(cols), id(nxt)))
        check_square(cols, nxt, pushed)

    reduced = []
    reduce = filtration.morse_reduce

    def keeping(cx):
        out = reduce(cx)
        reduced.append(out[0])
        return out

    monkeypatch.setattr(linalg, "_check_square", counting)
    monkeypatch.setattr(filtration, "morse_reduce", keeping)
    fc = build_filtered(principal_from_graph(path_graph(3)), 3)
    assert squared == []
    spectral_sequence(fc)
    [morse] = reduced

    def pairs(cx):
        return [(id(cols), id(nxt)) for cols, nxt in zip(cx.columns, cx.columns[1:])]

    assert pairs(fc.complex) and pairs(morse)
    assert squared == pairs(fc.complex) + pairs(morse)


def test_morse_and_identity_reductions_give_the_same_pages():
    # each weight of every connected graph on at most five vertices, reduced
    # along its element matching and, in a copy with the matching emptied,
    # with every cell critical: the same pages, entries and d_r ranks; and
    # every matched pair enters d_0 with gap 0
    cases = 0
    for v in range(1, 6):
        for graph in connected_graphs(v):
            m = principal_from_graph(graph)
            builder = GysinBuilder(m)
            for s in range(m.d + 1):
                fc = build_filtered(m, s, builder)
                cx = fc.complex
                emptied = CochainComplexQ(cx.labels, cx.columns)  # no matching
                plain = FilteredComplexQ(emptied, fc.levels)
                got, want = spectral_sequence(fc), spectral_sequence(plain)
                assert [p.r for p in got] == [p.r for p in want]
                for page, ref in zip(got, want):
                    where = (v, sorted(graph.edges), s, page.r)
                    assert page.entries == ref.entries, where
                    for spot in set(page.differentials) | set(ref.differentials):
                        assert _rank(page.differentials.get(spot)) == _rank(
                            ref.differentials.get(spot)
                        ), (where, spot)
                # a cell's place in its E_0 entry: among the cells of its
                # level at its position, in index order
                place = []
                for levels in fc.levels:
                    seen: dict[int, int] = {}
                    place.append([])
                    for e in levels:
                        place[-1].append(seen.get(e, 0))
                        seen[e] = place[-1][-1] + 1
                d0 = got[0].differentials
                for k, matched in enumerate(cx.matching):
                    for c, t in matched.items():
                        e = fc.levels[k][c]
                        assert fc.levels[k + 1][t] == e
                        assert d0[(e, k - e)][place[k + 1][t]][place[k][c]] == 1
                cases += 1
    assert cases == 3 + 5 + 2 * 7 + 6 * 9 + 21 * 11  # 31 graphs, weights 0..2v


def test_reduction_refuses_a_matched_pair_across_levels():
    cx = CochainComplexQ([["x"], ["t"]], [[{0: 1}]], [{0: 0}])
    with pytest.raises(ConsistencyError, match="matched pair changes the level"):
        spectral_sequence(FilteredComplexQ(cx, [[0], [1]]))


# ---------------------------------------------------------------------------
# pages from one bucketing of the pairs, and their sparse matrices


def _assert_pages_equal(got, want, where):
    assert [(p.r, p.entries) for p in got] == [(r, entries) for r, entries, _ in want], where
    for page, (r, _, diffs) in zip(got, want):
        assert list(page.differentials) == list(diffs), (where, r)
        for spot, dense in diffs.items():
            mat = page.differentials[spot]
            assert mat == dense and dense == mat, (where, r, spot)
            assert list(mat) == dense and mat.shape == (len(dense), len(dense[0]))
            assert all(type(v) is Fraction for row in mat for v in row)


def test_pages_equal_the_per_page_full_scan():
    # every page of every weight of the principal quivers of the connected
    # graphs on at most four vertices and of the principal corpus matrices,
    # whole and cut by max_page, and of the one-term filtration: the same
    # entries and every d_r, read densely, as a fresh scan of all cells per
    # page over the same pairs
    inputs = [principal_from_graph(g) for v in range(1, 5) for g in connected_graphs(v)]
    inputs += [m for m in corpus() if is_principal(m)]
    weights = 0
    for m in inputs:
        builder = GysinBuilder(m)
        for s in range(m.d + 1):
            fc = build_filtered(m, s, builder)
            cx = fc.complex
            flat = FilteredComplexQ(cx, [[0] * cx.dim(p) for p in range(cx.positions)])
            for filtered in (fc, flat):
                pairs = _reduction_pairs(filtered)
                lo, hi = filtered.level_range()
                for max_page in (None, 0, 1, 2):
                    last = hi - lo + 1 if max_page is None else min(max_page, hi - lo + 1)
                    _assert_pages_equal(
                        spectral_sequence(filtered, max_page),
                        pages_by_full_scan(filtered, pairs, last),
                        (m.rows, s, filtered is flat, max_page),
                    )
            weights += 1
    assert weights == 76 + 22


def test_sparse_matrix_reads_as_its_dense_rows():
    third = Fraction(-2, 3)
    mat = SparseMatrix((3, 2), {0: {1: Fraction(1)}, 2: {0: third}})
    dense = [[0, 1], [0, 0], [third, 0]]
    assert isinstance(mat, Sequence)
    assert len(mat) == 3 and mat.shape == (3, 2)
    assert mat[0] == [0, 1] and mat[-1] == [third, 0] and mat[-3] == mat[0]
    assert mat[1:] == dense[1:] and mat[::-2] == dense[::-2] and mat[5:] == []
    for bad in (3, -4):
        with pytest.raises(IndexError):
            mat[bad]
    assert mat == dense and dense == mat and not mat != dense
    assert list(mat) == dense and [row for row in mat] == dense
    assert all(type(v) is Fraction for row in mat for v in row)
    assert mat != dense[:2] and mat != [[0, 1], [0, 0], [0, 0]] and mat != "abc"
    assert mat == SparseMatrix((3, 2), {2: {0: third}, 0: {1: 1}})
    assert mat != SparseMatrix((3, 3), {0: {1: Fraction(1)}, 2: {0: third}})
    # a row is built afresh on each read: writing to it leaves the matrix
    mat[0][1] = 5
    assert mat[0] == [0, 1]
    assert eval(repr(mat), {"SparseMatrix": SparseMatrix, "Fraction": Fraction}) == mat


def test_page_matrices_store_their_nonzeros_only():
    # every d_r of ss and every d_1 of e1_page, at every weight of a few
    # principal quivers: rows equal to a dense copy made from ``nonzeros``,
    # and no zero, empty row or place outside the shape stored
    mats = []
    for graph in (path_graph(4), TRIANGLE, star_graph(4), cycle_graph(4)):
        m = principal_from_graph(graph)
        for s in range(m.d + 1):
            mats += e1_page(m, s).differentials.values()
            for page in spectral_sequence(build_filtered(m, s)):
                mats += page.differentials.values()
    assert len(mats) > 100
    for mat in mats:
        assert list(mat) == dense_from_nonzeros(mat)
        rows, cols = mat.shape
        for i, row in mat.nonzeros.items():
            assert 0 <= i < rows and row
            assert all(0 <= j < cols and v for j, v in row.items())


def test_each_page_stores_one_nonzero_per_pair_of_its_gap():
    # principal P_6 at s = 6: d_r is the partial identity on the pairs of
    # gap r, so it stores one 1 per such pair, at most one per row and
    # column, and the page after it has two cells fewer per pair
    fc = build_filtered(principal_from_graph(path_graph(6)), 6)
    pairs = _reduction_pairs(fc)
    pages = spectral_sequence(fc)
    assert pages[1].r == 1 and len(pages) == 8
    for page, nxt in zip(pages, pages[1:] + [None]):
        gapped = sum(1 for *_, gap in pairs if gap == page.r)
        stored = [
            (spot, i, j, v)
            for spot, mat in page.differentials.items()
            for i, row in mat.nonzeros.items()
            for j, v in row.items()
        ]
        assert len(stored) == gapped, page.r
        assert all(type(v) is Fraction and v == 1 for *_, v in stored)
        assert len({(spot, j) for spot, _, j, _ in stored}) == gapped
        assert all(
            len(row) == 1 for mat in page.differentials.values() for row in mat.nonzeros.values()
        )
        if nxt is not None:
            assert sum(page.entries.values()) - sum(nxt.entries.values()) == 2 * gapped
    assert sum(1 for *_, gap in pairs if gap == 0) > 0 and not pages[-1].differentials
