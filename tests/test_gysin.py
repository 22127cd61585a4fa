import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import clusterhodge
from clusterhodge.cli import main
from clusterhodge.counts import consistency_suite, point_count_poly
from clusterhodge.errors import (
    ColumnsDependent,
    ConsistencyError,
    NotAcyclic,
    NotConnected,
    NotFullRank,
    NotPrincipal,
    NotReallyFullRank,
    TooLarge,
)
from clusterhodge.exchange import (
    CharacterGroup,
    RankClass,
    RationalExchangeMatrix,
    ZeroComplex,
    is_acyclic,
    mutate,
    principal_from_graph,
    principal_matrix,
    rank_class,
    reduce_character,
    underlying_graph,
    validate,
)
from clusterhodge.exterior import bits, mask_of
from clusterhodge.filtration import build_filtered, e1_page, spectral_sequence
from clusterhodge.graphs import (
    Graph,
    anticliques,
    complete_graph,
    connected_graphs,
    cycle_graph,
    path_graph,
    star_graph,
)
from clusterhodge.gysin import (
    GYSIN_CELL_GUARD,
    GysinBuilder,
    HodgeTable,
    build_gysin_complex,
    hodge_table,
)
from clusterhodge.io import render_matrix_text
from clusterhodge.linalg import (
    CochainComplexQ,
    Echelon,
    identity,
    morse_reduce,
    morse_reduce_positions,
    rank,
)
from clusterhodge.poly import IntPolynomial
from clusterhodge.reference import (
    ExteriorForm,
    alpha,
    edge_class_cochain,
    graded_pieces,
    gsv_form,
    standard_poincare,
    wedge_sign,
)

from conftest import (
    CYCLIC_12,
    ISOLATED_2_6,
    STAR4_2_3_4_6,
    CohomologyClasses,
    Quotient,
    assembly_corpus,
    corpus,
    full_rank_corpus,
    greedy_record,
    j_major_matching,
    lefschetz_by_grid_scan,
    mat_mul,
    matching_is_acyclic,
    random_acyclic_matrix,
    source_major_rho_columns,
    source_major_stream,
    stream_indexing_every_level,
    submasks,
)

M01 = validate([[0], [1]], 1, 1)
M22 = validate([[0, 2], [-2, 0]], 2, 0)
EDGE = principal_from_graph(path_graph(2))
WHY = validate(
    [[0, 0, 0], [0, 0, 0], [0, 0, 0], [1, 1, 0], [1, 1, 1], [0, 1, 1]], 3, 3
)


def test_alpha_examples():
    assert alpha(M01, 0) == ExteriorForm.generator(1)
    # principal edge: alpha_0 = -dlog x_2 + dlog y_1, the vector (0,-1,1,0)
    assert alpha(EDGE, 0).terms == {1 << 1: -1, 1 << 2: 1}
    zero_col = validate([[0, 0], [0, 0], [1, 0]], 2, 1)
    assert not alpha(zero_col, 1)
    # ... and basing G^I on the zero column fails downstream
    with pytest.raises(ColumnsDependent):
        GysinBuilder(zero_col).basis(0b10)


@pytest.mark.parametrize("j", [-1, 3])
def test_alpha_refuses_an_index_outside_the_mutable_range(j):
    with pytest.raises(ValueError, match=rf"j={j} outside \[0, 3\)"):
        alpha(principal_from_graph(path_graph(3)), j)


P3_BUILDER = "GysinBuilder(principal_from_graph(path_graph(3)))"


@pytest.mark.parametrize(
    "call, refusal",
    [
        ("bits(-1)", "ValueError: negative mask -1"),
        ("path_graph(3).is_independent(-1)", "ValueError: negative mask -1"),
        ("path_graph(3).induced(-1)", "ValueError: negative mask -1"),
        (f"{P3_BUILDER}.basis(-1)", "NotAnticlique: mask -1 is outside [0, 2^3)"),
        (f"{P3_BUILDER}.rho_columns(-1, 0, 1)", "NotAnticlique: mask -1 is outside [0, 2^3)"),
        (f"{P3_BUILDER}.basis(8)", "NotAnticlique: mask 8 is outside [0, 2^3)"),
    ],
    ids=["bits", "is_independent", "induced", "basis", "rho_columns", "basis-past-n"],
)
def test_a_mask_outside_the_vertex_set_is_refused(call, refusal):
    # the lowest-bit walk over a negative mask never ends, so each call runs
    # in a fresh interpreter that the timeout stops if it does not return
    src = str(Path(clusterhodge.__file__).parents[1])
    code = (
        "from clusterhodge import GysinBuilder, principal_from_graph\n"
        "from clusterhodge.exterior import bits\n"
        "from clusterhodge.graphs import path_graph\n"
        "try:\n"
        f"    {call}\n"
        "except Exception as exc:\n"
        "    print(f'{type(exc).__name__}: {exc}')\n"
    )
    ran = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=20,
    )
    assert (ran.returncode, ran.stdout, ran.stderr) == (0, refusal + "\n", "")


def test_choose_n_principal_is_identity_rows():
    for graph in [path_graph(3), star_graph(4)]:
        m = principal_from_graph(graph)
        builder = GysinBuilder(m)
        for level in builder.family.by_cardinality:
            for i_mask in level:
                expected = tuple(i + m.n for i in bits(i_mask))
                assert builder.basis(i_mask).row_selection == expected


def test_choose_n_why_principal_good():
    builder = GysinBuilder(WHY)
    builder.require_anticlique(0b011)
    assert builder.basis(0b011).row_selection == (3, 5)
    # determinant check: rows {3,4} fail
    sub = [[WHY.rows[3][0], WHY.rows[3][1]], [WHY.rows[4][0], WHY.rows[4][1]]]
    assert sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0] == 0
    assert builder.basis(0).row_selection == ()


def test_choose_n_minimality_exhaustive():
    # no valid row set uses fewer mutable rows, for every corpus anticlique
    for m in full_rank_corpus():
        if m.d > 7:
            continue
        builder = GysinBuilder(m)
        for level in builder.family.by_cardinality:
            for i_mask in level:
                cols = bits(i_mask)
                chosen = builder.basis(i_mask).row_selection
                best = None
                for rows in itertools.combinations(range(m.d), len(cols)):
                    ech = Echelon()
                    ok = all(
                        ech.add({c: m.rows[r][j] for c, j in enumerate(cols)})
                        is not None
                        for r in rows
                    )
                    if ok:
                        mutable = sum(1 for r in rows if r < m.n)
                        best = mutable if best is None else min(best, mutable)
                assert sum(1 for r in chosen if r < m.n) == best


def test_choose_n_grows_by_one_row():
    # the residue writer substitutes at most the one row N(I u j) adds
    for m in assembly_corpus() + full_rank_corpus():
        builder = GysinBuilder(m)
        for i_mask in builder.family.all_masks():
            for j in range(m.n):
                j_mask = i_mask | (1 << j)
                if j_mask != i_mask and builder.graph.is_independent(j_mask):
                    added = set(builder.basis(j_mask).row_selection) - set(
                        builder.basis(i_mask).row_selection
                    )
                    assert len(added) == 1, (m.rows, i_mask, j)


def test_choose_n_columns_dependent():
    bad = validate([[0, 0], [0, 0], [1, 1]], 2, 1)
    builder = GysinBuilder(bad)
    builder.require_anticlique(0b11)
    with pytest.raises(ColumnsDependent):
        builder.basis(0b11)


def test_basis_dimensions():
    builder = GysinBuilder(M01)
    assert builder.basis(0).dimension == 4  # full exterior algebra
    b = builder.basis(0b1)
    assert b.allowed == 0 and b.masks_of_degree(1) == [0]
    for m in full_rank_corpus():
        builder = GysinBuilder(m)
        for k, level in enumerate(builder.family.by_cardinality):
            for i_mask in level:
                basis = builder.basis(i_mask)
                full = (1 << m.d) - 1
                assert basis.allowed == full & ~(i_mask | mask_of(basis.row_selection))
                assert basis.dimension == 2 ** (m.d - 2 * k)
                # the weights' masks, each ascending, make up every submask
                by_degree = [basis.masks_of_degree(s) for s in range(m.d + 1)]
                for s, masks in enumerate(by_degree):
                    assert masks == sorted(set(masks)), (m.rows, i_mask, s)
                    assert all(a.bit_count() == s - k for a in masks)
                union = sorted(a for masks in by_degree for a in masks)
                assert union == sorted(submasks(basis.allowed)), (m.rows, i_mask)


def test_rho_examples():
    # rho on [[0],[1]]: dlog x_1 -> theta(empty, {0}) = alpha_0; dlog y_1 -> 0
    src, dst, cols = GysinBuilder(M01).rho_columns(0, 0, 1)
    assert src == [1 << 0, 1 << 1] and dst == [0]
    assert cols == [{0: 1}, {}]


def test_rho_zero_without_j_and_canonical_with_principal():
    m = principal_from_graph(path_graph(3))
    builder = GysinBuilder(m)
    src, dst, cols = builder.rho_columns(0, 2, 2)
    for a_mask, col in zip(src, cols):
        if not (a_mask >> 2 & 1):
            assert col == {}
        elif not (a_mask >> (2 + m.n) & 1):
            # nu(j) not in A: the image is a single basis vector
            assert len(col) == 1 and abs(list(col.values())[0]) == 1


def test_build_complex_examples():
    cx = build_gysin_complex(M01, 1)
    assert [cx.dim(p) for p in range(cx.positions)] == [2, 1]
    assert cx.columns[0] == [{0: 1}, {}]
    assert cx.cohomology_dims() == {0: 1}

    cx0 = build_gysin_complex(M01, 0)
    assert cx0.dim(0) == 1 and cx0.cohomology_dims() == {0: 1}

    top = build_gysin_complex(M01, M01.d)
    assert top.dim(0) == 1 and top.cohomology_dims() == {0: 1}

    with pytest.raises(NotReallyFullRank):
        build_gysin_complex(M22, 1)
    cyc = validate([[0, 1, -1], [-1, 0, 1], [1, -1, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], 3, 3)
    with pytest.raises(NotAcyclic):
        build_gysin_complex(cyc, 1)


def test_d_squared_zero_small_seeded():
    rng = random.Random(7)
    for _ in range(15):
        m = random_acyclic_matrix(rng, n_max=4, m_max=3)
        builder = GysinBuilder(m)
        for s in range(m.d + 1):
            builder.complex_for_s(s).verify_d2()


def test_hodge_examples():
    assert hodge_table(M01).dims == {(0, 0): 1, (1, 1): 1, (2, 2): 1}
    z4 = hodge_table(principal_from_graph(star_graph(4)))
    assert z4.offdiagonal_polynomial() == IntPolynomial.from_coeffs(
        [0, 0, 0, 1, 2, 1]
    )
    for n in (2, 3):
        t = hodge_table(principal_from_graph(path_graph(n)))
        assert all(k == s for (k, s) in t.dims)


def test_hodge_full_rank_character_sum():
    assert hodge_table(M22).dims == {(0, 0): 1, (2, 1): 2, (2, 2): 1}


def _restricted(cx, j_mask):
    """The subcomplex of cx on the cells whose anticlique contains j_mask.

    The differential only adds vertices, so it maps these cells among
    themselves (an image outside them raises KeyError).
    """
    keep = [
        {c: k for k, c in enumerate(c for c, (i, _) in enumerate(pos) if i & j_mask == j_mask)}
        for pos in cx.labels
    ]
    labels = [[pos[c] for c in kept] for pos, kept in zip(cx.labels, keep)]
    columns = [
        [{keep[p + 1][r]: v for r, v in cols[c].items()} for c in keep[p]]
        for p, cols in enumerate(cx.columns)
    ]
    return CochainComplexQ(labels, columns)


def _character_sum_reference(m):
    """The Hodge table from its definition: for each character chi whose
    support J is an anticlique, the weight-s complex restricted to the
    anticliques containing J, ranked as it is (no Morse reduction, no
    support reduction), its H^p in dims(p + s, s)."""
    builder = GysinBuilder(m)
    group = CharacterGroup(m)
    supports = [mask_of(group.support(chi)) for chi in group.elements()]
    dims = {}
    for s in range(m.d + 1):
        cx = builder.complex_for_s(s)
        restricted = {}  # H^* of each support's restriction, ranked once
        for j_mask in supports:
            if not builder.graph.is_independent(j_mask):
                continue
            if j_mask not in restricted:
                restricted[j_mask] = _restricted(cx, j_mask).cohomology_dims()
            for p, h in restricted[j_mask].items():
                dims[(p + s, s)] = dims.get((p + s, s), 0) + h
    return {k: v for k, v in dims.items() if v}


def test_character_complex_matches_direct_decomposition():
    # hodge_table ranks each character support's reduced matrix; the
    # reference restricts the input's own complexes, on the full-rank corpus,
    # the full-rank members of the assembly corpus and Z_6 with frozen 2I
    z6 = principal_from_graph(star_graph(6)).top_block()
    frozen_2i = [[2 * (i == j) for j in range(6)] for i in range(6)]
    cases = full_rank_corpus() + [
        m
        for m in assembly_corpus()
        if not isinstance(m, RationalExchangeMatrix)
        and rank_class(m) is RankClass.FULL_RANK
    ]
    cases.append(validate(z6 + frozen_2i, 6, 6))
    cases += [ISOLATED_2_6, STAR4_2_3_4_6, CYCLIC_12]
    for m in cases:
        assert hodge_table(m).dims == _character_sum_reference(m), m.rows


def test_character_path_enumerates_no_character(monkeypatch):
    # the table, the point count and the suite read each |X*(I)| off a
    # Smith normal form; none of them lists the group or solves a support
    from clusterhodge.exchange import CharacterSubgroup

    cases = [
        validate(principal_from_graph(star_graph(6)).top_block()
                 + [[2 * (i == j) for j in range(6)] for i in range(6)], 6, 6),
        CYCLIC_12,
    ]
    want = [(hodge_table(m), point_count_poly(m), consistency_suite(m)) for m in cases]

    def enumerates(*args, **kwargs):
        raise AssertionError("the character group was enumerated")

    monkeypatch.setattr(CharacterGroup, "elements", enumerates)
    monkeypatch.setattr(CharacterGroup, "support", enumerates)
    monkeypatch.setattr(CharacterSubgroup, "elements", property(enumerates))
    got = [(hodge_table(m), point_count_poly(m), consistency_suite(m)) for m in cases]
    assert got == want


def test_subgroup_order_counts_the_characters_supported_in_it():
    # the Moebius passes of hodge_table rest on X*(S) being exactly the
    # characters with J(chi) in S, for every anticlique S
    cases = [m for m in full_rank_corpus() if rank_class(m) is RankClass.FULL_RANK]
    for m in cases + [ISOLATED_2_6, STAR4_2_3_4_6, CYCLIC_12]:
        group = CharacterGroup(m)
        graph = underlying_graph(m)
        supports = {chi.coords: mask_of(group.support(chi)) for chi in group.elements()}
        for s in anticliques(graph).all_masks():
            sub = group.subgroup(bits(s))
            inside = {c for c, j in supports.items() if j & s == j}
            assert sub.elements == inside and sub.order == len(inside), (m.rows, s)


def test_character_complex_identity_matches_plain_complex():
    for m in corpus():
        identity = next(CharacterGroup(m).elements())
        reduced = reduce_character(m, identity)
        assert reduced.kappa == 0
        builder = GysinBuilder(reduced.matrix)
        for s in range(m.d + 1):
            got = builder.complex_for_s(s).cohomology_dims()
            assert got == build_gysin_complex(m, s).cohomology_dims()


def test_character_complex_zero_and_shift():
    group = CharacterGroup(M22)
    chi11 = group.character_from_lift((1, 1))
    assert isinstance(reduce_character(M22, chi11), ZeroComplex)
    reduced = reduce_character(M22, group.character_from_lift((0, 1)))
    assert reduced.kappa == 1
    assert reduced.matrix.n == 0
    # weight 1 of M22 is weight 1 - kappa of the reduced matrix
    cx = GysinBuilder(reduced.matrix).complex_for_s(0)
    assert cx.cohomology_dims() == {0: 1}  # lands in dims(2, 1)


def test_standard_poincare():
    assert standard_poincare(EDGE) == IntPolynomial.from_coeffs([1, 2, 2, 2, 1])
    single = principal_matrix([[0]])
    assert standard_poincare(single) == IntPolynomial.from_coeffs([1, 1, 1])
    x = IntPolynomial.x()
    one = IntPolynomial.one()
    for n in range(2, 7):
        star_poly = (one + x) ** (n - 1) * IntPolynomial.from_coeffs([1] * (n + 2))
        assert standard_poincare(principal_from_graph(star_graph(n))) == star_poly
    with pytest.raises(NotConnected):
        standard_poincare(principal_from_graph(Graph.from_edges(2, [])))
    with pytest.raises(NotPrincipal):
        standard_poincare(validate([[0, 1], [-1, 0], [1, 1]], 2, 1))


def test_diagonal_matches_standard_basis_on_connected_principal():
    for graph in [path_graph(4), star_graph(4), Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])]:
        m = principal_from_graph(graph)
        assert hodge_table(m).diagonal_polynomial() == standard_poincare(m)


def _is_cocycle(cx, p, vector) -> bool:
    image = {}
    if p < len(cx.columns):
        for idx, c in vector.items():
            for r, v in cx.columns[p][idx].items():
                image[r] = image.get(r, 0) + c * v
    return all(v == 0 for v in image.values())


def test_gsv_form_examples():
    g = gsv_form(M01, [0])
    assert g.terms in ({0b11: -1}, {0b11: 1})  # +- dlog x_1 ^ dlog y_1
    builder = GysinBuilder(M01)
    cx = builder.complex_for_s(2)
    index = {lab: i for i, lab in enumerate(cx.labels[0])}
    vec = {index[(0, mask)]: c for mask, c in g.terms.items()}
    assert _is_cocycle(cx, 0, vec)
    with pytest.raises(NotConnected):
        gsv_form(EDGE, [0])  # {0} is not a full component of the edge graph


def test_gsv_cocycle_on_components():
    graph = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    m = principal_from_graph(graph)
    builder = GysinBuilder(m)
    cx = builder.complex_for_s(2)
    index = {lab: i for i, lab in enumerate(cx.labels[0])}
    for comp in ([0, 1, 2], [3, 4]):
        g = gsv_form(m, comp)
        vec = {index[(0, mask)]: c for mask, c in g.terms.items()}
        assert _is_cocycle(cx, 0, vec)


def test_edge_classes_span_h1():
    cases = [
        (Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]), 1),
        (path_graph(4), 0),
        (Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), 1),
        (Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]), 2),
    ]
    for graph, h1 in cases:
        m = principal_from_graph(graph)
        builder = GysinBuilder(m)
        cx = builder.complex_for_s(2)
        classes = CohomologyClasses(cx, 1)
        assert classes.dim == h1
        ech = Echelon()
        span = 0
        for a, b in sorted(graph.edges):
            vector = edge_class_cochain(m, a, b, builder)
            assert _is_cocycle(cx, 1, vector)
            coords = classes.coordinates(vector)
            if ech.add({i: v for i, v in enumerate(coords) if v}) is not None:
                span += 1
        assert span == h1


def test_frozen_row_tensor_law_really_full_rank():
    # r added frozen rows that keep the matrix really full rank send each dim
    # at (k, s) to (k + i, s + i), C(r, i) times: one row on the corpus, and
    # at d = 16 the n rows of principal P_8 and of the corona of C_4 (a leaf
    # on each vertex of a 4-cycle) over B alone, which is unimodular because
    # both graphs have a unique perfect matching
    cases = []
    for m in corpus():
        extra = [((i * 7) % 5) - 2 for i in range(m.n)]
        bigger = validate([list(r) for r in m.rows] + [extra], m.n, m.m + 1)
        cases.append((m, bigger, 1))
    corona = Graph.from_edges(
        8, [(i, (i + 1) % 4) for i in range(4)] + [(i, i + 4) for i in range(4)]
    )
    for graph in (path_graph(8), corona):
        m = principal_from_graph(graph)
        cases.append((validate(m.top_block(), m.n, 0), m, m.n))
    for small, bigger, r in cases:
        want = {}
        for (k, s), v in hodge_table(small).dims.items():
            for i in range(r + 1):
                want[(k + i, s + i)] = want.get((k + i, s + i), 0) + comb(r, i) * v
        assert {k: v for k, v in want.items() if v} == hodge_table(bigger).dims


def test_frozen_row_tensor_law_plain_complex_full_rank():
    # for non-really-full-rank input the law concerns the plain complex
    base = M22
    bigger = validate([[0, 2], [-2, 0], [1, 1]], 2, 1)
    b0, b1 = GysinBuilder(base), GysinBuilder(bigger)
    for s in range(bigger.d + 1):
        h1 = b1.complex_for_s(s).cohomology_dims()
        h0a = b0.complex_for_s(s).cohomology_dims() if s <= base.d else {}
        h0b = b0.complex_for_s(s - 1).cohomology_dims() if 0 <= s - 1 <= base.d else {}
        want = {}
        for p, v in h0a.items():
            want[p] = want.get(p, 0) + v
        for p, v in h0b.items():
            want[p] = want.get(p, 0) + v
        assert {p: v for p, v in want.items() if v} == h1


def test_rational_matrix_frozen_rescale_preserves_complex():
    # a rational frozen-row rescale is an allowed change of basis
    from fractions import Fraction

    from clusterhodge.exchange import validate_rational

    integral = validate([[0, 1], [-1, 0], [2, 0], [0, 1]], 2, 2)
    rational = validate_rational(
        [[0, 1], [-1, 0], [Fraction(1, 2), 0], [0, Fraction(1, 3)]], 2, 2
    )
    b0, b1 = GysinBuilder(integral), GysinBuilder(rational)
    for s in range(integral.d + 1):
        assert (
            b0.complex_for_s(s).cohomology_dims()
            == b1.complex_for_s(s).cohomology_dims()
        )


def test_substitution_table_writes_n_rows_over_free_rows_modulo_alphas():
    # pi[t] = dlog x_t modulo the alpha_i of J, written over the free rows
    from fractions import Fraction

    from clusterhodge.exchange import validate_rational

    z4 = principal_from_graph(star_graph(4))
    frozen_2i = [[2 if i == j else 0 for j in range(4)] for i in range(4)]
    cases = [
        validate_rational(
            [[0, 1], [-1, 0], [Fraction(1, 2), 0], [0, Fraction(1, 3)]], 2, 2
        ),
        validate(z4.top_block() + frozen_2i, 4, 4),
    ]
    rng = random.Random(515)
    cases += [random_acyclic_matrix(rng, 4, 4) for _ in range(40)]
    for m in cases:
        builder = GysinBuilder(m)
        for j_mask in builder.family.all_masks():
            basis = builder.basis(j_mask)
            alphas = [
                {r: m.rows[r][i] for r in range(m.d) if m.rows[r][i]}
                for i in basis.anticlique
            ]
            pi = basis.substitution
            assert sorted(pi) == list(basis.row_selection)
            for t, terms in pi.items():
                residual = {t: 1}
                for mask, c in terms.items():
                    (r,) = bits(mask)
                    assert not j_mask >> r & 1 and r not in basis.row_selection
                    assert type(c) is int or c.denominator != 1, (m.rows, j_mask, t)
                    residual[r] = -c
                assert rank(alphas + [residual]) == rank(alphas), (m.rows, j_mask, t)


def _quotient_pi_table(builder: GysinBuilder, j_mask: int) -> dict[int, dict]:
    """The substitution table as one ``Quotient`` writes it, the alphas as
    base and the free units as candidates: a reference for
    ``GModuleBasis.substitution``."""
    basis = builder.basis(j_mask)
    rows, d = builder.matrix.rows, builder.matrix.d
    free = [r for r in range(d) if not ((j_mask | basis.row_mask) >> r & 1)]
    alphas = [
        {r: rows[r][i] for r in range(d) if rows[r][i]} for i in basis.anticlique
    ]
    quot = Quotient(alphas, [{r: 1} for r in free])
    table = {}
    for t in basis.row_selection:
        coeffs = quot.coordinates({t: 1})
        assert coeffs is not None, "N(J) must complete the alphas to a basis"
        table[t] = {
            1 << free[quot.chosen[k]]: c.numerator if c.denominator == 1 else c
            for k, c in enumerate(coeffs)
            if c
        }
    return table


def test_pi_table_matches_the_quotient_reference():
    # equal tables with equal keys, in the same order, and the same int or
    # Fraction type for every coefficient; the stars with frozen block 2I
    # give Fraction coefficients
    cases = full_rank_corpus() + assembly_corpus()
    for graph in (star_graph(4), star_graph(6)):
        top = principal_from_graph(graph).top_block()
        n = len(top)
        frozen_2i = [[2 * (i == j) for j in range(n)] for i in range(n)]
        cases.append(validate(top + frozen_2i, n, n))
    fractions = 0
    for m in cases:
        builder = GysinBuilder(m)
        for j_mask in builder.family.all_masks():
            got = builder.basis(j_mask).substitution
            want = _quotient_pi_table(builder, j_mask)
            assert list(got) == list(want), (m.rows, j_mask)
            for t, terms in got.items():
                assert type(terms) is dict
                typed = [(mask, c, type(c)) for mask, c in terms.items()]
                assert typed == [(mask, c, type(c)) for mask, c in want[t].items()]
                fractions += sum(type(c) is Fraction for c in terms.values())
    assert fractions > 0


def _typed_table(record):
    """A record's table with each coefficient's type, in key order."""
    return [
        (t, [(mask, c, type(c)) for mask, c in terms.items()])
        for t, terms in record.substitution.items()
    ]


def test_records_equal_the_greedy_reference():
    # each record, made from its parent's by one elimination step, equals the
    # one a greedy rank test and a Gauss-Jordan inverse make from scratch: in
    # every field, the table's key order and each coefficient's int or
    # Fraction type; a rank-deficient draw raises the same ColumnsDependent
    from clusterhodge.exchange import validate_rational

    cases = full_rank_corpus() + assembly_corpus() + corpus()
    for graph in (star_graph(4), star_graph(6)):
        top = principal_from_graph(graph).top_block()
        n = len(top)
        cases.append(validate(top + [[2 * (i == j) for j in range(n)] for i in range(n)], n, n))
    cases.append(
        validate_rational([[0, 1], [-1, 0], [Fraction(1, 2), 0], [0, Fraction(1, 3)]], 2, 2)
    )
    rng = random.Random(2022)
    cases += [random_acyclic_matrix(rng, full_rank=k % 3 != 0) for k in range(300)]
    records = dependent = fractions = 0
    for m in cases:
        builder = GysinBuilder(m)
        for i_mask in builder.family.all_masks():
            try:
                want = greedy_record(m, i_mask)
            except ColumnsDependent as exc:
                with pytest.raises(ColumnsDependent) as got:
                    builder.basis(i_mask)
                assert str(got.value) == str(exc), (m.rows, i_mask)
                dependent += 1
                continue
            got = builder.basis(i_mask)
            assert got == want, (m.rows, i_mask)
            assert _typed_table(got) == _typed_table(want), (m.rows, i_mask)
            records += 1
            fractions += sum(
                type(c) is Fraction for terms in got.substitution.values() for c in terms.values()
            )
    assert records > 2000 and dependent > 0 and fractions > 0


def test_principal_complexes_have_integer_entries():
    for graph in [path_graph(4), star_graph(4), cycle_graph(4)]:
        m = principal_from_graph(graph)
        builder = GysinBuilder(m)
        for s in range(m.d + 1):
            for cols in builder.complex_for_s(s).columns:
                for col in cols:
                    assert all(type(v) is int for v in col.values()), (graph, s)


def test_frozen_block_change_of_basis_invariance():
    # U = [[Id, 0], [P, Q]] with det Q = +-1 leaves the table unchanged
    m = validate([[0, 1], [-1, 0], [1, 0], [0, 1]], 2, 2)
    u = [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [3, -1, 1, 1],
        [2, 5, 0, -1],
    ]
    transformed = mat_mul(u, [list(r) for r in m.rows])
    m2 = validate(transformed, 2, 2)
    assert hodge_table(m).dims == hodge_table(m2).dims


def test_frozen_change_of_basis_keeps_the_table_at_d_8_to_10():
    # a frozen block multiplied by a unimodular Q (unit upper triangular,
    # entries in [-2, 2], rows shuffled) is a monomial change of the frozen
    # coordinates: still really full rank, the same table; non-unit Schur
    # leads give Fraction coefficients in the substitution tables
    rng = random.Random(8)
    fractions = 0
    for n, kind in itertools.product((4, 5), (path_graph, star_graph, cycle_graph)):
        m = principal_from_graph(kind(n))
        q = [[0] * i + [1] + [rng.randint(-2, 2) for _ in range(n - 1 - i)] for i in range(n)]
        rng.shuffle(q)
        changed = validate(m.top_block() + mat_mul(q, [list(r) for r in m.rows[n:]]), n, n)
        assert rank_class(changed) is RankClass.REALLY_FULL_RANK
        assert hodge_table(changed).dims == hodge_table(m).dims, (kind.__name__, n)
        builder = GysinBuilder(changed)
        fractions += sum(
            type(c) is Fraction
            for i_mask in builder.family.all_masks()
            for terms in builder.basis(i_mask).substitution.values()
            for c in terms.values()
        )
    assert fractions > 0


def test_frozen_change_of_basis_keeps_the_table_at_d_12_to_14():
    # the check above on principal P_6 and P_7, on the rational path of
    # Echelon: Q unit upper triangular, entries in [-2, 2], rows shuffled
    rng = random.Random(4)
    for n in (6, 7):
        m = principal_from_graph(path_graph(n))
        q = [[0] * i + [1] + [rng.randint(-2, 2) for _ in range(n - 1 - i)] for i in range(n)]
        rng.shuffle(q)
        changed = validate(m.top_block() + mat_mul(q, [list(r) for r in m.rows[n:]]), n, n)
        assert rank_class(changed) is RankClass.REALLY_FULL_RANK
        builder = GysinBuilder(changed)
        assert any(
            type(c) is Fraction
            for i_mask in builder.family.all_masks()
            for terms in builder.basis(i_mask).substitution.values()
            for c in terms.values()
        )
        assert hodge_table(changed).dims == hodge_table(m).dims, n


def test_mutation_between_acyclic_seeds_keeps_the_table():
    rng = random.Random(2021)
    cases = 0
    while cases < 60:
        m = random_acyclic_matrix(rng, n_max=4, m_max=4)
        for k in range(m.n):
            m2 = mutate(m, k)
            if is_acyclic(m2):
                assert hodge_table(m).dims == hodge_table(m2).dims, (m.rows, k)
                cases += 1


def test_mutation_keeps_the_table_at_d_16():
    # principal P_8 mutated at vertex 0: still acyclic and really full rank,
    # with a frozen block that is no longer the identity, and the same table
    m = principal_from_graph(path_graph(8))
    mutated = mutate(m, 0)
    assert is_acyclic(mutated)
    assert rank_class(mutated) is RankClass.REALLY_FULL_RANK
    assert [list(r) for r in mutated.rows[m.n :]] != identity(m.n)
    assert hodge_table(mutated).dims == hodge_table(m).dims


def test_disjoint_union_table_is_kunneth_product():
    # principal coefficients: the variety of G + H is the product of theirs
    cases = [
        (path_graph(2), path_graph(1)),
        (path_graph(3), path_graph(2)),
        (star_graph(3), cycle_graph(3)),
        (path_graph(2), path_graph(2)),
    ]
    for g, h in cases:
        shift = g.n_vertices
        union = Graph.from_edges(
            shift + h.n_vertices,
            list(g.edges) + [(u + shift, v + shift) for u, v in h.edges],
        )
        tg = hodge_table(principal_from_graph(g)).dims
        th = hodge_table(principal_from_graph(h)).dims
        product: dict[tuple[int, int], int] = {}
        for (k1, s1), a in tg.items():
            for (k2, s2), b in th.items():
                key = (k1 + k2, s1 + s2)
                product[key] = product.get(key, 0) + a * b
        assert hodge_table(principal_from_graph(union)).dims == product


def test_isolated_vertex_shift():
    # the sub-complex over anticliques containing the isolated vertex equals
    # the deleted-vertex complex shifted by (1, 1) in (position, weight),
    # i.e. by (2, 1) in (cohomological degree, weight)
    graph = Graph.from_edges(4, [(1, 2), (2, 3)])  # vertex 0 isolated
    m = principal_from_graph(graph)
    builder = GysinBuilder(m)
    sub = {}
    for s in range(m.d + 1):
        cx = _restricted(builder.complex_for_s(s), 1)
        for p, h in cx.cohomology_dims().items():
            sub[(p + s, s)] = sub.get((p + s, s), 0) + h
    smaller = hodge_table(principal_from_graph(path_graph(3))).dims
    assert sub == {(k + 2, s + 1): v for (k, s), v in smaller.items()}


def test_hodge_validations_run():
    table = hodge_table(principal_from_graph(star_graph(3)))
    table.check_lefschetz()
    table.check_support_bounds()
    table.check_top_class()


def _lefschetz_verdict(check, table):
    try:
        check(table)
    except ConsistencyError as exc:
        return str(exc)
    return None


def test_check_lefschetz_names_the_grid_scans_first_failure():
    # each table whole, then with one entry changed, zeroed or added, at its
    # entries and at seeded spots in and around the grid: the same pass, or
    # the same first failing (k, s), as the scan of the whole grid
    rng = random.Random(2911)
    tables = [hodge_table(m) for m in full_rank_corpus()]
    tables += [hodge_table(principal_from_graph(g)) for g in (path_graph(4), cycle_graph(4))]
    verdicts = {True: 0, False: 0}
    for table in tables:
        d = table.d
        spots = list(table.dims)
        spots += [(rng.randint(-2, 2 * d + 3), rng.randint(-1, d + 1)) for _ in range(24)]
        for spot in [None, *spots]:
            dims = dict(table.dims)
            if spot is not None:
                v = dims.get(spot, 0)
                dims[spot] = rng.choice((0, v + 1)) if v else rng.randint(1, 3)
            corrupted = HodgeTable(table.n, table.m, dims)
            want = _lefschetz_verdict(lefschetz_by_grid_scan, corrupted)
            assert _lefschetz_verdict(HodgeTable.check_lefschetz, corrupted) == want, (dims, spot)
            verdicts[want is None] += 1
    assert verdicts[True] > 150 and verdicts[False] > 200, verdicts


def test_position_labels_read_negative_indices_as_a_list_does():
    # principal P_3 at weight 2: position 1 holds 12 labels, the last (4, 16)
    builder = GysinBuilder(principal_from_graph(path_graph(3)))
    labels = [pos for pos, _, _ in builder.stream_for_s(2)][1]
    assert len(labels) == 12 and labels[-1] == (4, 16) and labels[-12] == labels[0]
    positions = 0
    for m in [*full_rank_corpus(), principal_from_graph(path_graph(3))]:
        builder = GysinBuilder(m)
        for s in range(m.d + 1):
            for labels, _, _ in builder.stream_for_s(s):
                listed = list(labels)
                size = len(listed)
                assert [labels[c] for c in range(-size, size)] == listed + listed
                for c in (-size - 1, size):
                    with pytest.raises(IndexError):
                        labels[c]
                positions += 1
    assert positions > 100


def test_position_labels_slice_as_a_list_does():
    # principal P_3 at weight 2, position 1: 12 labels
    builder = GysinBuilder(principal_from_graph(path_graph(3)))
    labels = [pos for pos, _, _ in builder.stream_for_s(2)][1]
    listed = list(labels)
    assert labels[0:2] == listed[:2] == [(1, 2), (1, 4)]
    for cut in [
        slice(None), slice(3, 9), slice(-5, None), slice(None, -7), slice(-9, -2),
        slice(1, None, 3), slice(None, None, -1), slice(-2, 1, -4), slice(8, 3),
        slice(-100, 100, 5), slice(20, None),
    ]:
        assert labels[cut] == listed[cut], cut


def test_hodge_rejects_bad_input():
    with pytest.raises(NotFullRank):
        hodge_table(validate([[0]], 1, 0))


def test_cell_guard_admits_z10_and_refuses_before_building(monkeypatch):
    # sized without building: Z_10's largest weight fits the budget; P_11's
    # largest (weight 11, 6,266,624 cells) does not and is refused before any
    # basis is built, and hodge_table stops at its first weight past it
    z10 = GysinBuilder(principal_from_graph(star_graph(10)))
    assert max(z10.cells(s) for s in range(21)) == 1_577_396 <= GYSIN_CELL_GUARD
    p11 = GysinBuilder(principal_from_graph(path_graph(11)))
    assert max(p11.cells(s) for s in range(23)) == p11.cells(11) == 6_266_624

    def no_basis(self, i_mask):
        raise AssertionError("a basis was built past the guard")

    monkeypatch.setattr(GysinBuilder, "basis", no_basis)
    with pytest.raises(TooLarge, match="weight-11 Gysin complex would have 6266624"):
        p11.complex_for_s(11)
    with pytest.raises(TooLarge, match="weight-8 Gysin complex would have 2449517"):
        hodge_table(p11.matrix)


def test_build_gysin_complex_sizes_before_the_smith_normal_form(monkeypatch):
    # principal K_12 (d = 24): weight 8 has 2,781,999 cells, refused before
    # the rank class is read off a Smith normal form
    import clusterhodge.exchange as exchange

    calls = []
    snf = exchange.smith_normal_form
    monkeypatch.setattr(
        exchange, "smith_normal_form", lambda mat: calls.append(mat) or snf(mat)
    )
    with pytest.raises(TooLarge, match="weight-8 Gysin complex would have 2781999"):
        build_gysin_complex(principal_from_graph(complete_graph(12)), 8)
    assert calls == []


def test_degenerate_shapes():
    # a point and a bare torus
    point = validate([], 0, 0)
    assert hodge_table(point).dims == {(0, 0): 1}
    torus = validate([[], []], 0, 2)
    assert hodge_table(torus).dims == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    assert build_gysin_complex(torus, 1).cohomology_dims() == {0: 2}


# ---------------------------------------------------------------------------
# reference assembly: the residue blocks as ExteriorForm products


def _reference_rho_columns(builder, i_mask, j, s):
    """rho from the degree-s slice of G^I to G^{I u j}, one ExteriorForm per column."""
    j_mask_new = i_mask | (1 << j)
    src = builder.basis(i_mask).masks_of_degree(s)
    target = builder.basis(j_mask_new)
    dst = target.masks_of_degree(s)
    dst_index = {a: r for r, a in enumerate(dst)}
    k = i_mask.bit_count()
    pi = {t: ExteriorForm(terms) for t, terms in target.substitution.items()}
    n_mask_new = target.row_mask
    cols = []
    for a_mask in src:
        col = {}
        if a_mask >> j & 1:
            above_in_a = (a_mask >> (j + 1)).bit_count()
            above_in_i = (i_mask >> (j + 1)).bit_count()
            sign = -1 if (k + above_in_a + above_in_i) & 1 else 1
            a0 = a_mask & ~(1 << j)
            subs = a0 & n_mask_new
            if not subs:
                col[dst_index[a0]] = sign
            else:
                sign *= wedge_sign(a0 & ~subs, subs)
                form = ExteriorForm.monomial(a0 & ~subs, sign)
                for t in bits(subs):
                    form = form.wedge(pi[t])
                for mask, coeff in form.terms.items():
                    col[dst_index[mask]] = coeff
        cols.append(col)
    return src, dst, cols


def _reference_columns(builder, s):
    """The differentials of the weight-s complex, blocks accumulated one by one."""
    levels = builder.family.by_cardinality
    members = set(builder.family.all_masks())
    offsets = []
    for level in levels:
        offset, size = {}, 0
        for i_mask in sorted(level):
            offset[i_mask] = size
            size += len(builder.basis(i_mask).masks_of_degree(s))
        offsets.append((offset, size))
    columns = []
    for p in range(len(levels) - 1):
        cols = [dict() for _ in range(offsets[p][1])]
        for i_mask in levels[p]:
            src_off = offsets[p][0][i_mask]
            for j in range(builder.matrix.n):
                new_mask = i_mask | (1 << j)
                if new_mask == i_mask or new_mask not in members:
                    continue
                eps = -1 if (i_mask & ((1 << j) - 1)).bit_count() & 1 else 1
                dst_off = offsets[p + 1][0][new_mask]
                _, _, block = _reference_rho_columns(builder, i_mask, j, s)
                for c, col in enumerate(block):
                    target = cols[src_off + c]
                    for r, v in col.items():
                        w = target.get(dst_off + r, 0) + eps * v
                        if w:
                            target[dst_off + r] = w
                        else:
                            target.pop(dst_off + r, None)
        columns.append(cols)
    return columns


def _typed(columns):
    """Columns with each entry paired with its type, so int 1 != Fraction(1)."""
    return [[{r: (type(v), v) for r, v in col.items()} for col in cols] for cols in columns]


def _built_matrices(m):
    """m, and when m is of full but not really full rank, the reduced matrix
    of each character support that hodge_table builds.  The rational frozen
    rescale is not classified: only GysinBuilder accepts it."""
    out = [m]
    if not isinstance(m, RationalExchangeMatrix) and rank_class(m) is RankClass.FULL_RANK:
        group = CharacterGroup(m)
        reps = {group.support(chi): chi for chi in group.elements()}
        for chi in reps.values():
            reduced = reduce_character(m, chi)
            if not isinstance(reduced, ZeroComplex):
                out.append(reduced.matrix)
    return out


def test_assembly_matches_exterior_form_reference():
    for m in [mm for m in assembly_corpus() for mm in _built_matrices(m)]:
        builder = GysinBuilder(m)
        for s in range(m.d + 1):
            cx = builder.complex_for_s(s)
            assert builder.cells(s) == sum(map(len, cx.labels))
            want = _reference_columns(builder, s)
            assert _typed(cx.columns) == _typed(want), (m.rows, s)
            labels = [
                [(i, a) for i in level for a in builder.basis(i).masks_of_degree(s)]
                for level in builder.family.by_cardinality
            ]
            assert cx.labels == labels, (m.rows, s)
            for i_mask in builder.family.all_masks():
                for j in range(m.n):
                    j_mask = i_mask | (1 << j)
                    if j_mask == i_mask or not builder.graph.is_independent(j_mask):
                        continue
                    got = builder.rho_columns(i_mask, j, s)
                    want = _reference_rho_columns(builder, i_mask, j, s)
                    assert got[:2] == want[:2], (m.rows, i_mask, j, s)
                    assert _typed([got[2]]) == _typed([want[2]]), (m.rows, i_mask, j, s)


def test_weight_order_does_not_change_a_complex():
    # one builder builds every weight ascending, then descending; each
    # complex must equal a fresh builder's, and the builder keeps nothing
    # but its per-anticlique records and two tables of the matrix alone:
    # each column's nonzeros and each level's block list
    for m in [mm for m in assembly_corpus() + full_rank_corpus() for mm in _built_matrices(m)]:
        builder = GysinBuilder(m)
        weights = list(range(m.d + 1))
        for s in weights + weights[::-1]:
            got = builder.complex_for_s(s)
            want = GysinBuilder(m).complex_for_s(s)
            assert got.labels == want.labels, (m.rows, s)
            assert _typed(got.columns) == _typed(want.columns), (m.rows, s)
            assert got.matching == want.matching, (m.rows, s)
        assert set(vars(builder)) == {"matrix", "graph", "family", "_basis", "_column", "_blocks"}


def _ordered(columns):
    """Columns as lists of (row, type, value) in key order."""
    return [[[(r, type(v), v) for r, v in col.items()] for col in cols] for cols in columns]


def _writer_corpus():
    """The full-rank corpus, principal paths, stars and cycles on 3 to 6
    vertices, the stars Z_4 and Z_6 with frozen block 2I, principal P_5
    under a seeded frozen change of basis (Fraction substitution
    coefficients), and 12 seeded random acyclic matrices."""
    out = full_rank_corpus()
    out += [
        principal_from_graph(kind(v))
        for v in range(3, 7)
        for kind in (path_graph, star_graph, cycle_graph)
    ]
    for v in (4, 6):
        top = principal_from_graph(star_graph(v)).top_block()
        out.append(validate(top + [[2 * (i == j) for j in range(v)] for i in range(v)], v, v))
    rng = random.Random(24)
    m = principal_from_graph(path_graph(5))
    q = [[0] * i + [1] + [rng.randint(-2, 2) for _ in range(4 - i)] for i in range(5)]
    rng.shuffle(q)
    out.append(validate(m.top_block() + mat_mul(q, [list(r) for r in m.rows[5:]]), 5, 5))
    out += [random_acyclic_matrix(rng, 5, 4) for _ in range(12)]
    return out


def test_target_major_writer_equals_the_source_major_one():
    # the writer walks each block's targets; the reference in conftest walks
    # its sources, as the package did before: the same entries, types, key
    # order and matchings, position by position, stored, and block by block
    fractions = 0
    for m in [mm for m in _writer_corpus() for mm in _built_matrices(m)]:
        builder = GysinBuilder(m)
        for s in range(m.d + 1):
            got = list(builder.stream_for_s(s))
            want = list(source_major_stream(builder, s))
            assert len(got) == len(want), (m.rows, s)
            for (labels, cols, up), (w_labels, w_cols, w_up) in zip(got, want):
                assert list(labels) == list(w_labels), (m.rows, s)
                assert (cols is None) == (w_cols is None), (m.rows, s)
                if cols is not None:
                    assert _ordered([cols]) == _ordered([w_cols]), (m.rows, s)
                assert list(up.items()) == list(w_up.items()), (m.rows, s)
            cx = builder.complex_for_s(s)
            assert cx.labels == [list(labels) for labels, _, _ in want], (m.rows, s)
            assert _ordered(cx.columns) == _ordered([c for _, c, _ in want[:-1]]), (m.rows, s)
            assert [list(up.items()) for up in cx.matching] == [
                list(up.items()) for _, _, up in want[:-1]
            ], (m.rows, s)
            fractions += sum(
                type(v) is Fraction for cols in cx.columns for col in cols for v in col.values()
            )
            for i_mask in builder.family.all_masks():
                for j in range(m.n):
                    j_mask = i_mask | (1 << j)
                    if j_mask == i_mask or not builder.graph.is_independent(j_mask):
                        continue
                    got_block = builder.rho_columns(i_mask, j, s)
                    want_block = source_major_rho_columns(builder, i_mask, j, s)
                    where = (m.rows, i_mask, j, s)
                    assert got_block[:2] == want_block[:2], where
                    assert _ordered([got_block[2]]) == _ordered([want_block[2]]), where
    assert fractions > 0


def test_the_writer_leaves_the_positions_without_cells_alone():
    # at every weight of the assembly corpus the writer gives the complex
    # of the one that indexes every level, entries, types, key order and
    # matching included, and a fresh builder holds records only for the
    # anticliques that carry cells, |I| <= min(s, d - s)
    for m in assembly_corpus():
        for s in range(m.d + 1):
            builder = GysinBuilder(m)
            got = list(builder.stream_for_s(s))
            want = list(stream_indexing_every_level(GysinBuilder(m), s))
            assert [list(pos[0]) for pos in got] == [list(pos[0]) for pos in want], (m.rows, s)
            assert got[-1][1] is None and want[-1][1] is None, (m.rows, s)
            assert _ordered([pos[1] for pos in got[:-1]]) == _ordered(
                [pos[1] for pos in want[:-1]]
            ), (m.rows, s)
            assert [list(pos[2].items()) for pos in got] == [
                list(pos[2].items()) for pos in want
            ], (m.rows, s)
            top = min(s, m.d - s)
            assert set(builder._basis) == {
                i for i in builder.family.all_masks() if i.bit_count() <= top
            }, (m.rows, s)
            cx = builder.complex_for_s(s)
            assert cx.labels == [list(labels) for labels, _, _ in want], (m.rows, s)
            assert _ordered(cx.columns) == _ordered([c for _, c, _ in want[:-1]]), (m.rows, s)
            assert cx.matching == [up for _, _, up in want[:-1]], (m.rows, s)


RANK_DEFICIENT = [
    ([[0, 0], [0, 0], [1, 0]], 2, 1),  # column 1 is zero
    ([[0, 0], [0, 0], [1, 1]], 2, 1),  # {0, 1} is dependent but has no cell
    ([[0, 0], [0, 0], [1, 2], [2, 4]], 2, 2),  # {0, 1} is dependent
    ([[0, 0, 0], [0, 0, 0], [0, 0, 0], [1, 1, 0]], 3, 1),
    ([[0, 0, 0], [0, 0, 0], [0, 0, 0], [1, 0, 1], [0, 1, 1]], 3, 2),  # only {0, 1, 2}
]


def test_a_rank_deficient_builder_raises_where_a_dependent_anticlique_has_cells():
    # an anticlique I with dependent columns has no record; its cells would
    # lie at the weights |I| <= s <= d - |I|, and exactly there the writer
    # raises ColumnsDependent
    proper = 0
    for rows, n, m_ in RANK_DEFICIENT:
        m = validate(rows, n, m_)
        family = GysinBuilder(m).family.all_masks()
        columns = [{r: row[v] for r, row in enumerate(m.rows) if row[v]} for v in range(n)]
        dependent = [i for i in family if rank([columns[v] for v in bits(i)]) < i.bit_count()]
        want = {
            s for i in dependent for s in range(m.d + 1) if i.bit_count() <= s <= m.d - i.bit_count()
        }
        got = set()
        for s in range(m.d + 1):
            try:
                GysinBuilder(m).complex_for_s(s)
            except ColumnsDependent:
                got.add(s)
        assert dependent and got == want, (rows, got, want)
        proper += 0 < len(want) < m.d + 1
    assert proper >= 3


def _morse_corpus():
    """Principal matrices of every connected graph with at most 5 vertices, 40
    random acyclic matrices, and the star Z_6 with frozen block 2I, whose
    character supports give reduced matrices."""
    out = [principal_from_graph(g) for v in range(1, 6) for g in connected_graphs(v)]
    rng = random.Random(1212)
    out += [random_acyclic_matrix(rng, 5, 5) for _ in range(40)]
    z6 = principal_from_graph(star_graph(6))
    frozen_2i = [[2 if i == j else 0 for j in range(6)] for i in range(6)]
    out.append(validate(z6.top_block() + frozen_2i, 6, 6))
    return out


def _morse_cases(streamed=False):
    """(m, s, complex_for_s(s)) for every weight of every matrix built from
    _morse_corpus(); with ``streamed``, each with the Morse complex and kept
    cells that morse_reduce_positions makes of stream_for_s(s)."""
    for m in [mm for m in _morse_corpus() for mm in _built_matrices(m)]:
        builder = GysinBuilder(m)
        for s in range(m.d + 1):
            if streamed:
                yield m, s, builder.complex_for_s(s), morse_reduce_positions(
                    builder.stream_for_s(s)
                )
            else:
                yield m, s, builder.complex_for_s(s)


def test_streamed_morse_complex_equals_the_stored_one():
    # hodge_table reduces each weight position by position; the complex
    # stored whole and reduced by morse_reduce gives the same Morse complex
    for m, s, cx, (got, got_kept) in _morse_cases(streamed=True):
        want, want_kept = morse_reduce(cx)
        assert got.labels == want.labels, (m.rows, s)
        assert _typed(got.columns) == _typed(want.columns), (m.rows, s)
        assert got_kept == want_kept, (m.rows, s)


def test_position_major_matching_equals_the_j_major_one():
    for m, s, cx in _morse_cases():
        assert cx.matching == j_major_matching(cx, m.n), (m.rows, s)


def test_element_matching_is_acyclic():
    for m, s, cx in _morse_cases():
        matched_down: set = set()  # cells of position p matched with one below
        for p, matched in enumerate(cx.matching):
            assert matched_down.isdisjoint(matched)
            matched_down = set(matched.values())
            assert len(matched_down) == len(matched)
            assert all(cx.columns[p][c][t] in (1, -1) for c, t in matched.items())
        assert matching_is_acyclic(cx), (m.rows, s)


def test_morse_path_dims_match_the_full_complex():
    for m, s, cx in _morse_cases():
        morse, _ = morse_reduce(cx)
        morse.verify_d2()
        assert morse.euler_characteristic == cx.euler_characteristic
        assert morse.cohomology_dims() == cx.cohomology_dims(), (m.rows, s)


@pytest.mark.parametrize("graph", [path_graph(6), star_graph(6)], ids=["P6", "Z6"])
def test_critical_cells_equal_e1_totals(graph):
    m = principal_from_graph(graph)
    builder = GysinBuilder(m)
    for s in range(m.d + 1):
        critical = sum(map(len, morse_reduce(builder.complex_for_s(s))[0].labels))
        assert critical == sum(e1_page(m, s).entries.values()), s


def test_hodge_table_verifies_d2(monkeypatch):
    # dropping the block sign (-1)^{#{i in I : i < j}} breaks d^2 = 0: the
    # block is written with the Koszul sign alone
    m = principal_from_graph(path_graph(3))
    original = GysinBuilder._rho_into

    def unsigned(self, cols, i_mask, j, src_cols, dst_masks, dst_off, eps, *matching):
        eps *= -1 if (i_mask.bit_count() + (i_mask >> (j + 1)).bit_count()) & 1 else 1
        return original(self, cols, i_mask, j, src_cols, dst_masks, dst_off, eps, *matching)

    monkeypatch.setattr(GysinBuilder, "_rho_into", unsigned)
    with pytest.raises(ConsistencyError, match="square to zero"):
        hodge_table(m)


def _cli_ss(m, s, tmp_path, capsys):
    """``clusterhodge ss`` at weight s must exit 1 with empty stdout; the
    detail of its JSON diagnostic is raised again as ConsistencyError."""
    path = tmp_path / "input.mat"
    path.write_text(render_matrix_text(m))
    assert main(["ss", "--input", str(path), "--s", str(s)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ConsistencyError"
    raise ConsistencyError(err["detail"])


@pytest.mark.parametrize(
    "consume",
    [
        lambda m, s, *_: build_gysin_complex(m, s),
        lambda m, s, *_: spectral_sequence(build_filtered(m, s)),
        lambda m, s, *_: graded_pieces(m, s),
        _cli_ss,
    ],
    ids=["build_gysin_complex", "spectral_sequence", "graded_pieces", "cli-ss"],
)
def test_each_consumer_verifies_d2(monkeypatch, tmp_path, capsys, consume):
    # the unsigned writer of test_hodge_table_verifies_d2: no builder
    # checks d^2 = 0, so every consumer of a slice must catch it
    m = principal_from_graph(path_graph(3))
    original = GysinBuilder._rho_into

    def unsigned(self, cols, i_mask, j, src_cols, dst_masks, dst_off, eps, *matching):
        eps *= -1 if (i_mask.bit_count() + (i_mask >> (j + 1)).bit_count()) & 1 else 1
        return original(self, cols, i_mask, j, src_cols, dst_masks, dst_off, eps, *matching)

    monkeypatch.setattr(GysinBuilder, "_rho_into", unsigned)
    with pytest.raises(ConsistencyError, match="differential does not square to zero"):
        consume(m, 3, tmp_path, capsys)


def _top_level(builder, s):
    """The highest position of the weight-s slice that holds a cell."""
    return max(
        p
        for p, level in enumerate(builder.family.by_cardinality)
        if any(builder.basis(i).masks_of_degree(s) for i in level)
    )


def test_hodge_table_checks_d2_at_the_last_pair_of_positions(monkeypatch):
    # one block out of the highest nonempty level below the top of weight 6
    # of P_5 changes sign: only the composite through the last two positions
    # fails to square to zero
    m = principal_from_graph(path_graph(5))
    builder = GysinBuilder(m)
    s, top = 6, _top_level(builder, 6)
    assert top == 3
    i_mask = builder.family.by_cardinality[top - 1][0]
    j = min(j for j in range(m.n) if (i_mask | 1 << j) in builder.family.by_cardinality[top])
    original = GysinBuilder._rho_into
    flipped = []

    def flip(self, cols, i, jj, src_cols, dst_masks, dst_off, eps, *matching):
        # a target A mask of I u j at weight s has s - |I| - 1 members
        weight = i.bit_count() + 1 + dst_masks[0].bit_count() if dst_masks else None
        if (i, jj) == (i_mask, j) and weight == s:
            eps = -eps
            flipped.append(i)
        return original(self, cols, i, jj, src_cols, dst_masks, dst_off, eps, *matching)

    monkeypatch.setattr(GysinBuilder, "_rho_into", flip)
    with pytest.raises(ConsistencyError, match="square to zero"):
        hodge_table(m)
    assert flipped == [i_mask]


def test_hodge_table_checks_the_matching_at_the_last_pair_of_positions(monkeypatch):
    # at weight 5 of C_5 the writer's matching between the last two
    # positions gains a pair of unmatched cells that no entry joins
    m = principal_from_graph(cycle_graph(5))
    original = GysinBuilder.stream_for_s
    corrupted = []

    def corrupt(self, s):
        positions = list(original(self, s))
        top = max(p for p, (labels, _, _) in enumerate(positions) if len(labels))
        if s == 5:
            assert top == 2
            _, cols, up = positions[top - 1]
            below = set(positions[top - 2][2].values())
            c, r = next(
                (c, r)
                for c in range(len(cols))
                for r in range(len(positions[top][0]))
                if c not in up and c not in below and r not in up.values() and r not in cols[c]
            )
            up[c] = r
            corrupted.append((c, r))
        yield from positions

    monkeypatch.setattr(GysinBuilder, "stream_for_s", corrupt)
    with pytest.raises(ConsistencyError, match="not a unit"):
        hodge_table(m)
    assert len(corrupted) == 1


# ---------------------------------------------------------------------------
# the committed table digest


DIGEST = Path(__file__).parent / "data" / "table_digest.tsv"


def test_hodge_tables_match_the_digest():
    """Every table in tests/data/table_digest.tsv (scripts/make_pins.py:
    principal matrices of the 112 connected 6-vertex graphs and 40 random
    acyclic matrices, each line cross-checked when written) is recomputed."""
    lines = DIGEST.read_text().splitlines()
    assert len(lines) == 152
    for line in lines:
        key, want = line.split("\t")
        shape, *rows = key.split(" ")
        n, m = map(int, shape.split("x"))
        matrix = validate([list(map(int, row.split(","))) for row in rows], n, m)
        dims = sorted(hodge_table(matrix).dims.items())
        assert " ".join(f"{k},{s}:{v}" for (k, s), v in dims) == want, key
