import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterhodge import linalg
from clusterhodge.errors import ConsistencyError
from clusterhodge.graphs import all_graphs, anticliques, augmented_cochain_complex
from clusterhodge.gysin import GysinBuilder
from clusterhodge.linalg import (
    CochainComplexQ,
    CohomologyBasis,
    Echelon,
    identity,
    morse_reduce,
    nullspace,
    rank,
    smith_normal_form,
    solve_in_span,
)

from conftest import (
    Quotient,
    ReferenceEchelon,
    _inverse,
    assembly_corpus,
    check_square_by_accumulation,
    clearing_offering_every_column,
    mat_mul,
    matching_is_acyclic,
    morse_reduce_pushing_every_column,
    rank_relative,
)

small_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)

# rational entries, zeros drawn often: a kernel that truncated Fractions or
# mishandled explicit zeros would disagree with the integer SNF below
entries = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)
rational_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(entries, min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def _cleared(row):
    """The row times the lcm of its denominators, as ints."""
    denom = lcm(*(Fraction(v).denominator for v in row))
    return [int(Fraction(v) * denom) for v in row]


@given(small_matrices)
@settings(max_examples=120, deadline=None)
def test_snf_reconstructs_and_is_unimodular(mat):
    snf = smith_normal_form(mat)
    assert mat_mul(snf.p, snf.pinv) == identity(len(mat))
    # Q is unimodular: its inverse over Q is integral
    assert all(v == int(v) for row in _inverse(snf.q) for v in row)
    s = mat_mul(mat_mul(snf.p, mat), snf.q)
    for i, row in enumerate(s):
        for j, v in enumerate(row):
            if i == j and i < len(snf.diag):
                assert v == snf.diag[i]
            else:
                assert v == 0
    for a, b in zip(snf.diag, snf.diag[1:]):
        assert a > 0 and b % a == 0


@given(rational_matrices)
@settings(max_examples=80, deadline=None)
def test_snf_rank_matches_elimination(mat):
    snf = smith_normal_form([_cleared(r) for r in mat])
    rows = [dict(enumerate(r)) for r in mat]
    assert snf.rank == rank(rows)
    ech = Echelon()
    for r in rows:
        ech.add(r)
    assert ech.rank == snf.rank
    for c, piv in ech.pivots.items():
        assert min(piv) == c and piv[c] > 0
        assert all(type(v) is int and v for v in piv.values())
        assert gcd(*piv.values()) == 1



def test_snf_refuses_entries_that_are_not_integers():
    # int() would truncate 1/2 to 0 and read this rational matrix as
    # [[0, 1], [-1, 0], [0, 0]], of really full rank
    from clusterhodge.exchange import rank_class, validate_rational

    half = Fraction(1, 2)
    with pytest.raises(ValueError, match="integer entries"):
        smith_normal_form([[0, 1], [-1, 0], [half, half]])
    with pytest.raises(ValueError, match="integer entries"):
        rank_class(validate_rational([[0, 1], [-1, 0], [half, half]], 2, 1))
    with pytest.raises(ValueError, match="integer entries"):
        smith_normal_form([[2.5]])
    # integral values of another type are read exactly
    assert smith_normal_form([[Fraction(4), 0], [0, Fraction(6)]]).diag == (2, 12)

def test_rank_examples():
    assert rank([]) == 0
    assert rank([{0: 0}]) == 0
    assert rank([{0: 2, 1: 4}, {0: 1, 1: 2}]) == 1
    assert rank([{0: Fraction(1, 2)}, {1: 3}]) == 2


@given(rational_matrices)
@settings(max_examples=60, deadline=None)
def test_nullspace_vectors_annihilate(mat):
    rows = [dict(enumerate(r)) for r in mat]
    ncols = len(mat[0])
    kernel = nullspace(rows, ncols)
    for vec in kernel:
        for row in rows:
            assert sum(row.get(c, 0) * v for c, v in vec.items()) == 0
    assert len(kernel) == ncols - rank(rows)


def test_solve_in_span_round_trip():
    vectors = [{0: 1, 1: 2}, {1: 1, 2: 3}]
    target = {0: 2, 1: 5, 2: 3}
    coeffs = solve_in_span(vectors, target)
    assert coeffs == [2, 1]
    assert solve_in_span(vectors, {2: 1}) is None


@given(rational_matrices, st.lists(entries, min_size=5, max_size=5))
@settings(max_examples=60, deadline=None)
def test_solve_in_span_round_trip_random(mat, weights):
    vectors = [{c: v for c, v in enumerate(r) if v} for r in mat]
    ncols = len(mat[0])
    target = {}
    for w, vec in zip(weights, vectors):
        for c, v in vec.items():
            target[c] = target.get(c, 0) + w * v
    coeffs = solve_in_span(vectors, target)
    assert coeffs is not None and len(coeffs) == len(vectors)
    for c in range(ncols):
        got = sum(k * vec.get(c, 0) for k, vec in zip(coeffs, vectors))
        assert got == target.get(c, 0)
    assert solve_in_span(vectors, {ncols: 1}) is None


def test_rank_relative_tracks_new_rows():
    base = [{0: 1}]
    extra = [{0: 3}, {1: 1}, {0: 1, 1: 1}]
    grew, idx = rank_relative(base, extra)
    assert grew == 1
    assert idx == [1]


def test_echelon_rank():
    ech = Echelon()
    assert ech.add({0: 1, 1: 1}) is not None
    assert ech.add({0: 2, 1: 2}) is None
    assert ech.rank == 1


def _ordered(pivots):
    """Pivots as nested item lists, so that key order counts in ==."""
    return [(c, list(row.items())) for c, row in pivots.items()]


def _echelon_rows(rng, width):
    """Seeded rows over ``width`` columns: int rows leading with 1 or not,
    rows with Fraction entries, explicit zeros, empty rows, and rows that
    are combinations of rows drawn before them."""
    rows = []
    for _ in range(rng.randint(1, 10)):
        kind = rng.randrange(6)
        cols = rng.sample(range(width), rng.randint(1, width))
        if kind == 0:  # int, unit lead
            row = {c: rng.randint(-4, 4) for c in cols}
            row[min(cols)] = rng.choice((1, -1))
        elif kind == 1:  # int, non-unit lead and a content
            k = rng.randint(1, 3)
            row = {c: k * rng.choice((-6, -4, -3, -2, 2, 3, 4, 6, 1)) for c in cols}
        elif kind == 2:  # Fraction entries
            row = {c: Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for c in cols}
        elif kind == 3:  # explicit zeros among ints
            row = {c: rng.choice((0, 0, 1, -1, 2, 5)) for c in cols}
        elif kind == 4 or not rows:  # empty, or all zeros
            row = {c: 0 for c in cols[: rng.randint(0, 1)]}
        else:  # dependent on earlier rows
            row = {}
            for other in rng.sample(rows, min(len(rows), rng.randint(1, 3))):
                w = rng.choice((1, -1, 2, Fraction(1, 2), -3))
                for c, v in other.items():
                    row[c] = row.get(c, 0) + w * v
        rows.append(row)
    return rows


def test_echelon_equals_the_rational_path_reference():
    rng = random.Random(2323)
    added = dependent = fractions = 0
    for _ in range(300):
        width = rng.randint(1, 8)
        ech, ref = Echelon(), ReferenceEchelon()
        for row in _echelon_rows(rng, width):
            before = list(row.items())
            got, want = ech.add(row), ref.add(row)
            assert list(row.items()) == before
            assert got == want and (got is None or list(got.items()) == list(want.items()))
            assert _ordered(ech.pivots) == _ordered(ref.pivots)
            added += 1
            dependent += got is None
            fractions += any(type(v) is Fraction for v in row.values())
        for probe in _echelon_rows(rng, width):
            assert list(ech.reduce(probe).items()) == list(ref.reduce(probe).items())
    assert added > 1000 and dependent > 100 and fractions > 100


def test_clearing_and_classes_equal_the_reference_kernels(monkeypatch):
    # every induced complex of every graph with at most 5 vertices, reduced
    # by Echelon and by the rational-path reference
    def reduced(cx):
        clearing = cx.clearing()
        bases = [CohomologyBasis(cx, p, clearing) for p in range(cx.positions)]
        return (
            [_ordered(pivots) for pivots in clearing],
            [[list(rep.items()) for rep in b.representatives] for b in bases],
            [_ordered(b._ech.pivots) for b in bases],
        )

    checked = 0
    for v in range(1, 6):
        for graph in all_graphs(v):
            for mask in range(1 << v):
                cx = augmented_cochain_complex(anticliques(graph, mask))
                got = reduced(cx)
                with monkeypatch.context() as patch:
                    patch.setattr(linalg, "Echelon", ReferenceEchelon)
                    want = reduced(cx)
                assert got == want, (graph.edges, mask)
                checked += 1
    assert checked == 2 + 2 * 4 + 4 * 8 + 11 * 16 + 34 * 32


def _combine(pairs):
    """sum of w * vec over (w, vec) pairs, as a sparse row."""
    out = {}
    for w, vec in pairs:
        for c, v in vec.items():
            out[c] = out.get(c, 0) + w * v
    return {c: v for c, v in out.items() if v}


@st.composite
def quotient_problems(draw):
    """(base, candidates, weights) over a common width, explicit zeros kept.

    Candidates past the drawn ones are combinations of earlier candidates and
    base rows: they reduce to nothing but markers, so an independence test
    that only asks for a nonempty reduced row would choose them.
    """
    ncols = draw(st.integers(1, 5))
    row = st.lists(entries, min_size=ncols, max_size=ncols).map(
        lambda r: dict(enumerate(r))
    )
    base = draw(st.lists(row, max_size=3))
    cands = draw(st.lists(row, min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, 3))):
        # a combination of members before its own position and base rows
        pos = draw(st.integers(0, len(cands)))
        pool = cands[:pos] + base
        if pool:
            picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
            weights = draw(st.lists(entries, min_size=len(picks), max_size=len(picks)))
            cands.insert(pos, _combine(zip(weights, picks)))
    weights = draw(st.lists(entries, min_size=len(cands) + len(base),
                            max_size=len(cands) + len(base)))
    return ncols, base, cands, weights


@given(quotient_problems())
@settings(max_examples=150, deadline=None)
def test_quotient_chooses_a_basis_modulo_the_base(problem):
    ncols, base, cands, _ = problem
    quot = Quotient(base, cands)
    chosen = [cands[i] for i in quot.chosen]
    assert quot.chosen == sorted(set(quot.chosen))
    assert rank(base + chosen) == rank(base) + len(chosen)
    for i, cand in enumerate(cands):
        if i not in quot.chosen:
            assert rank(base + chosen + [cand]) == rank(base + chosen)
    # greedy: a candidate is chosen exactly when it grows the earlier span
    for i in quot.chosen:
        assert rank(base + cands[: i + 1]) > rank(base + cands[:i])


@given(quotient_problems())
@settings(max_examples=150, deadline=None)
def test_quotient_coordinates_round_trip(problem):
    ncols, base, cands, weights = problem
    quot = Quotient(base, cands)
    target = _combine(zip(weights, cands + base))
    coeffs = quot.coordinates(target)
    assert coeffs is not None and len(coeffs) == len(quot.chosen)
    assert all(type(c) is Fraction for c in coeffs)
    rest = _combine([(1, target)] + [(-c, cands[i]) for c, i in zip(coeffs, quot.chosen)])
    assert rank(base + [rest]) == rank(base)
    # outside the span: a unit vector that grows it, or a column past them all
    span = base + cands
    for c in range(ncols):
        if rank(span + [{c: 1}]) > rank(span):
            assert quot.coordinates({**target, c: target.get(c, 0) + 1}) is None
    assert quot.coordinates({ncols: 1}) is None


def test_quotient_examples():
    # the second candidate reduces to marker entries only: not chosen
    quot = Quotient([{0: 1}], [{0: 2, 1: 1}, {0: 1, 1: 3}, {1: 2}, {2: 1}])
    assert quot.chosen == [0, 3]
    assert quot.coordinates({0: 5, 1: 4, 2: -1}) == [4, -1]
    assert quot.coordinates({0: 1}) == [0, 0]
    assert Quotient([], []).coordinates({}) == []


# ---------------------------------------------------------------------------
# cohomology with clearing against plain ranks


def _plain_dims(cx):
    """dim H^p as dim - rank(d_p) - rank(d_{p-1}), every rank taken in full."""
    ranks = [rank(cols) for cols in cx.columns]
    ranks += [0] * (cx.positions - len(ranks))
    out = {}
    for p in range(cx.positions):
        h = cx.dim(p) - ranks[p] - (ranks[p - 1] if p else 0)
        if h:
            out[p] = h
    return out


def test_clearing_matches_plain_ranks_on_gysin_complexes():
    for m in assembly_corpus():
        builder = GysinBuilder(m)
        for s in range(m.d + 1):
            cx = builder.complex_for_s(s)
            assert cx.cohomology_dims() == _plain_dims(cx), (m.rows, s)


def test_clearing_matches_plain_ranks_on_independence_complexes():
    for v in range(1, 6):
        for graph in all_graphs(v):
            cx = augmented_cochain_complex(anticliques(graph))
            assert cx.cohomology_dims() == _plain_dims(cx), graph.edges


@st.composite
def cochain_complexes(draw):
    """A random rational complex with d^2 = 0, and its cohomology dimensions.

    Position p is the sum of h_p copies of Q with zero differential and the
    two ends of b_{p-1} and b_p copies of Q -> Q, in a basis scrambled by
    random row operations T_p; d_p becomes T_{p+1} d_p T_p^{-1}.  Every
    ordered pair of rows gets an operation, so scrambled rows are dense.
    """
    positions = draw(st.integers(1, 4))
    h = draw(st.lists(st.integers(0, 2), min_size=positions, max_size=positions))
    b = draw(st.lists(st.integers(0, 3), min_size=positions - 1, max_size=positions - 1))
    b.append(0)
    rnd = draw(st.randoms(use_true_random=False))

    def nonzero():
        return Fraction(rnd.choice([-1, 1]) * rnd.randint(1, 9), rnd.randint(1, 7))

    dims = [h[p] + (b[p - 1] if p else 0) + b[p] for p in range(positions)]
    scrambles = []
    for dim in dims:
        t = [[Fraction(v) for v in row] for row in identity(dim)]
        t_inv = [row[:] for row in t]
        for i, j in itertools.permutations(range(dim), 2):
            # row i of t plus c row j, column j of t_inv minus c column i
            c = nonzero()
            t[i] = [v + c * w for v, w in zip(t[i], t[j])]
            for row in t_inv:
                row[j] -= c * row[i]
        for i in range(dim):
            # row i of t times c, column i of t_inv over c
            c = nonzero()
            t[i] = [v * c for v in t[i]]
            for row in t_inv:
                row[i] /= c
        scrambles.append((t, t_inv))
    columns = []
    for p in range(positions - 1):
        d = [[Fraction(0)] * dims[p] for _ in range(dims[p + 1])]
        for k in range(b[p]):
            src = h[p] + (b[p - 1] if p else 0) + k
            d[h[p + 1] + k][src] = nonzero()
        d = mat_mul(scrambles[p + 1][0], mat_mul(d, scrambles[p][1]))
        columns.append(
            [{r: d[r][c] for r in range(dims[p + 1]) if d[r][c]} for c in range(dims[p])]
        )
    cx = CochainComplexQ([list(range(dim)) for dim in dims], columns)
    return cx, {p: v for p, v in enumerate(h) if v}


@given(cochain_complexes())
@settings(max_examples=150, deadline=None)
def test_clearing_matches_plain_ranks_on_random_complexes(drawn):
    cx, want = drawn
    cx.verify_d2()
    assert cx.cohomology_dims() == _plain_dims(cx) == want


def test_verify_d2_raises_on_every_call():
    # a failed check is not remembered as a pass
    cx = CochainComplexQ([[0], [1], [2]], [[{0: 1}], [{0: 1}]])
    for _ in range(3):
        with pytest.raises(ConsistencyError, match="square to zero"):
            cx.verify_d2()


def test_verify_d2_checks_replaced_columns_again():
    # a pass is remembered for the columns that passed, not for the complex
    cx = CochainComplexQ([[0], [1], [2]], [[{0: 1}], [{}]])
    cx.verify_d2()
    cx.columns = [[{0: 1}], [{0: 1}]]
    with pytest.raises(ConsistencyError, match="square to zero"):
        cx.verify_d2()


KEYS_OUTSIDE = {
    "past-next": ([["x"], ["y"], ["z"]], [[{5: 1}], [{0: 1}]]),
    "top-differential": ([["x"], ["y"]], [[{3: 1}]]),
    "negative": ([["x"], ["y"], ["z"]], [[{-1: 1}], [{0: 1}]]),
    "past-top": ([["x"], ["y"]], [[{0: 1}], [{0: 1}]]),  # out of the top position
}


@pytest.mark.parametrize("labels, columns", KEYS_OUTSIDE.values(), ids=KEYS_OUTSIDE)
def test_verify_d2_refuses_a_key_outside_the_next_position(labels, columns):
    with pytest.raises(ConsistencyError, match="has an entry outside position"):
        CochainComplexQ(labels, columns).verify_d2()


@pytest.mark.parametrize(
    "labels, columns",
    # the last key, read from the end, would be w, whose column is empty
    [*KEYS_OUTSIDE.values(), ([["x"], ["y", "w"], ["z"]], [[{-1: 1}], [{0: 1}, {}]])],
    ids=[*KEYS_OUTSIDE, "negative-onto-an-empty-column"],
)
def test_morse_reduce_refuses_a_key_outside_the_next_position(labels, columns):
    with pytest.raises(ConsistencyError):
        morse_reduce(CochainComplexQ(labels, columns))


def test_cohomology_dims_refuses_a_negative_dimension():
    # d_0 hits a cell past position 1, so the ranks outgrow dim C^1
    cx = CochainComplexQ([["x"], ["y"], ["z"]], [[{5: 1}], [{0: 1}]])
    with pytest.raises(ConsistencyError, match=r"dim H\^1 = -1 is negative"):
        cx.cohomology_dims()


def _verdict(check, cols, nxt):
    try:
        check(cols, nxt)
    except ConsistencyError as exc:
        return str(exc)
    return None


def _square_cases(rng):
    """A seeded differential nxt and columns pushed through it, each drawn
    as one kind: empty, one entry on an empty or a nonempty next column,
    one stored zero, a pair of paths that cancel, a pair of Fraction paths
    that cancel, and a random column (ints, Fractions and stored zeros)."""
    width = rng.randint(1, 5)

    def value():
        return rng.choice((1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)))

    nxt = []
    for _ in range(rng.randint(2, 7)):
        kind = rng.randrange(4)
        if kind == 0 or not nxt:
            nxt.append({} if kind == 0 else {rng.randrange(width): value()})
        elif kind == 1:  # another column scaled: its paths can cancel
            other = rng.choice(nxt)
            scale = value()
            nxt.append({r: scale * v for r, v in other.items()})
        else:
            nxt.append({r: value() for r in rng.sample(range(width), rng.randint(1, width))})
    empty = [m for m, col in enumerate(nxt) if not col]
    full = [m for m, col in enumerate(nxt) if col]
    cases = []
    for _ in range(12):
        kind = rng.randrange(7)
        if kind == 0:
            col, kind_name = {}, "empty"
        elif kind == 1 and empty:
            col, kind_name = {rng.choice(empty): value()}, "one on empty"
        elif kind == 2 and full:
            col, kind_name = {rng.choice(full): value()}, "one on nonempty"
        elif kind == 3:
            col, kind_name = {rng.randrange(len(nxt)): 0}, "stored zero"
        elif kind in (4, 5) and len(full) > 1:
            # m1 and m2 with proportional next columns, weighted to cancel
            m1 = rng.choice(full)
            rows = list(nxt[m1])
            pairs = [
                m2 for m2 in full
                if m2 != m1 and list(nxt[m2]) == rows
                and len({Fraction(nxt[m2][r]) / nxt[m1][r] for r in rows}) == 1
            ]
            if not pairs:
                continue
            m2 = rng.choice(pairs)
            ratio = Fraction(nxt[m2][rows[0]]) / nxt[m1][rows[0]]
            w = Fraction(1, 3) if kind == 5 else rng.choice((1, -2))
            col, kind_name = {m1: w * ratio, m2: -w}, "cancelling pair"
            if kind == 5:
                kind_name = "cancelling Fraction pair"
        else:
            col = {
                m: rng.choice((0, 1, -1, 3, Fraction(3, 4)))
                for m in rng.sample(range(len(nxt)), rng.randint(1, len(nxt)))
            }
            kind_name = "random"
        cases.append((kind_name, col))
    return nxt, cases


def test_check_square_equals_the_full_accumulation():
    # each column alone, then all of them together: the same verdict and
    # message as the reference that accumulates every column
    rng = random.Random(2929)
    seen: dict = {}
    for _ in range(400):
        nxt, cases = _square_cases(rng)
        for kind, col in cases:
            want = _verdict(check_square_by_accumulation, [col], nxt)
            assert _verdict(linalg._check_square, [col], nxt) == want, (col, nxt)
            seen.setdefault(kind, set()).add(want is None)
        cols = [col for _, col in cases]
        want = _verdict(check_square_by_accumulation, cols, nxt)
        assert _verdict(linalg._check_square, cols, nxt) == want
    # each kind was met, with the verdicts it must have; stored zeros and
    # random columns both raised and passed
    assert seen["empty"] == {True}
    assert seen["one on empty"] == {True}
    assert seen["one on nonempty"] == {False}
    assert seen["stored zero"] == {True, False}
    assert seen["cancelling pair"] == {True}
    assert seen["cancelling Fraction pair"] == {True}
    assert seen["random"] == {True, False}


def test_check_square_reads_a_stored_zero_as_the_accumulation_does():
    # the accumulation stores the product 0 * 1 and finds the push nonzero
    nxt = [{0: 1}, {}]
    for col, raises in (({0: 0}, True), ({1: 0}, False), ({0: 0, 1: 5}, True)):
        assert (_verdict(check_square_by_accumulation, [col], nxt) is not None) == raises
        assert (_verdict(linalg._check_square, [col], nxt) is not None) == raises
    with pytest.raises(IndexError):
        linalg._check_square([{2: 1}], nxt)


def test_clearing_offers_no_empty_column_and_keeps_the_pivots():
    # Gysin slices and their Morse complexes, which hold many empty columns:
    # the same pivots, key order included, as offering every column
    empty = 0
    for m in assembly_corpus()[::3]:
        builder = GysinBuilder(m)
        for s in range(m.d + 1):
            cx = builder.complex_for_s(s)
            for complex_ in (cx, morse_reduce(cx)[0]):
                got = complex_.clearing()
                want = clearing_offering_every_column(complex_)
                assert [_ordered(p) for p in got] == [_ordered(p) for p in want]
                empty += sum(not col for cols in complex_.columns for col in cols)
    assert empty > 1000


def test_echelon_takes_no_gcd_for_a_row_that_no_pivot_leads(monkeypatch):
    # a row that leads past every pivot is the primitive row as it entered
    calls = []
    real_gcd = linalg.gcd

    def counting(*args):
        calls.append(args)
        return real_gcd(*args)

    ech = Echelon()
    ech.add({0: 2, 3: 4})
    monkeypatch.setattr(linalg, "gcd", counting)
    assert list(ech.reduce({1: 6, 2: -9}).items()) == [(1, 2), (2, -3)]
    assert calls == [(6, -9)]
    # a step on a pivot that leads with 1 leaves the content to be taken again
    calls.clear()
    assert list(ech.reduce({0: 1, 1: 3, 3: 2}).items()) == [(1, 1)]
    assert calls == [(1, 3, 2), (3,)]


# ---------------------------------------------------------------------------
# Morse reduction


def test_morse_reduce_collapses_a_simplex_to_its_cohomology():
    # the augmented cochain complex of a full simplex on 3 vertices is exact;
    # matching every face without vertex 0 to its cone leaves no cell
    graph = all_graphs(3)[0]  # no edges: every subset is independent
    faces = augmented_cochain_complex(anticliques(graph))
    index = [{f: c for c, f in enumerate(pos)} for pos in faces.labels]
    cones = [
        {c: index[p + 1][f | 1] for f, c in index[p].items() if not f & 1}
        for p in range(faces.positions - 1)
    ]
    cx = CochainComplexQ(faces.labels, faces.columns, cones)
    morse, kept = morse_reduce(cx)
    assert [len(pos) for pos in morse.labels] == [0, 0, 0, 0] == list(map(len, kept))
    assert cx.cohomology_dims() == {} == morse.cohomology_dims()


def test_morse_reduce_sums_zig_zag_paths():
    # c -> t1 <- x1 -> c' with d(c) = 2 t1, d(x1) = t1 - 3 c': the one path
    # gives d(c) = 2 * (-1/1) * (-3) c' = 6 c'
    cx = CochainComplexQ(
        [["c", "x1"], ["t1", "c'"]], [[{0: 2}, {0: 1, 1: -3}]], [{1: 0}]
    )
    morse, kept = morse_reduce(cx)
    assert morse.labels == [["c"], ["c'"]] and kept == [[0], [1]]
    assert morse.columns == [[{0: 6}]]


def test_morse_reduce_of_an_empty_matching_is_the_complex():
    cx = CochainComplexQ([["a", "b"], ["t"]], [[{0: 2}, {0: Fraction(1, 3)}]])
    morse, kept = morse_reduce(cx)
    assert (morse.labels, morse.columns, kept) == (cx.labels, cx.columns, [[0, 1], [0]])


@pytest.mark.parametrize("reached", [True, False])
def test_morse_reduce_raises_on_a_cyclic_matching(reached):
    # d(x1) = d(x2) = t1 + t2 with x1-t1 and x2-t2 matched: t1 -> t2 -> t1.
    # Unreached, the cycle would still be wrong: the Morse complex would be
    # the critical c alone, while H has dims {0: 2, 1: 1}.
    d_c = {0: 1} if reached else {}
    cx = CochainComplexQ(
        [["c", "x1", "x2"], ["t1", "t2"]],
        [[d_c, {0: 1, 1: 1}, {0: 1, 1: 1}]],
        [{1: 0, 2: 1}],
    )
    assert not matching_is_acyclic(cx)
    with pytest.raises(ConsistencyError, match="cycle"):
        morse_reduce(cx)


def test_morse_reduce_rejects_what_is_not_a_unit_matching():
    cx = CochainComplexQ([["x"], ["t"], ["u"]], [[{0: 2}], [{}]], [{0: 0}])
    with pytest.raises(ConsistencyError, match="unit"):
        morse_reduce(cx)
    # d(t) = 0, so d^2 = 0 holds and only the matching is at fault
    cx = CochainComplexQ([["x"], ["t"], ["u"]], [[{0: 1}], [{}]], [{0: 0}, {0: 0}])
    with pytest.raises(ConsistencyError, match="twice"):
        morse_reduce(cx)
    # a target past the position it lands in has no entry in its column
    cx = CochainComplexQ([["x"], ["t"]], [[{0: 1}]], [{0: 1}])
    with pytest.raises(ConsistencyError, match="unit"):
        morse_reduce(cx)


@pytest.mark.parametrize(
    "matchings",
    [[{-1: 0}], [{-2: 0}], [{5: 0}], [{0: 5}], [{0: -1}], [{}, {0: 0}], [{}, {0: 5}]],
    ids=[
        "cell-minus-1",
        "cell-minus-2",
        "cell-past",
        "target-past",
        "target-minus-1",
        "top-target-0",
        "top-target-5",
    ],
)
def test_morse_reduce_refuses_a_matched_cell_outside_its_position(matchings):
    # a negative cell is not read from the end, a cell past the position
    # raises no bare IndexError, and a matching given at the top position,
    # whose targets lie in no position, is refused by the same message
    cx = CochainComplexQ([["x", "y"], ["t"]], [[{0: 1}, {0: 1}]], matchings)
    with pytest.raises(ConsistencyError, match="a matched entry is not a unit"):
        morse_reduce(cx)


# an entry into a position without cells, and the refusal it met before the
# reducer passed such positions straight through
EMPTY_POSITION_ENTRIES = {
    "inner-critical": (
        [["x"], [], ["z"]], [[{0: 1}], []], [], "d_0 has an entry outside position 1"
    ),
    "inner-pushed": (
        [["x", "y"], [], ["z"]], [[{0: 1}, {}], []], [{0: 0}],
        "d_0 has an entry outside position 1",
    ),
    "inner-target": (
        [["s"], ["t"], [], ["z"]], [[{0: 1}], [{0: 1}], []], [{0: 0}],
        "differential does not square to zero",
    ),
    "inner-after-a-gap": (
        [["w"], [], ["x"], [], ["z"]], [[{}], [], [{0: 1}], []], [],
        "d_2 has an entry outside position 3",
    ),
    "top-critical": (
        [["x"], []], [[{0: 1}]], [], "a differential has an entry outside the next position"
    ),
    "top-pushed": ([["x"], []], [[{0: 1}]], [{0: 0}], "a matched entry is not a unit"),
    "top-target": (
        [["s"], ["t"], []], [[{0: 1}], [{0: 1}]], [{0: 0}],
        "differential does not square to zero",
    ),
    "top-target-cancelled": (
        [["s"], ["t", "u"], []], [[{0: 1, 1: 1}], [{0: 1}, {0: -1}]], [{0: 0}],
        "a differential has an entry outside the next position",
    ),
}


@pytest.mark.parametrize(
    "labels, columns, matching, message",
    EMPTY_POSITION_ENTRIES.values(),
    ids=EMPTY_POSITION_ENTRIES,
)
def test_morse_reduce_refuses_an_entry_into_a_position_without_cells(
    labels, columns, matching, message
):
    # a critical column, a column matched up (pushed, no Morse image) and a
    # matched target's column (read by its partner's push), each with an
    # entry into an empty inner or top position: a nonempty column below an
    # empty position takes the path that checks it
    with pytest.raises(ConsistencyError, match=f"^{message}$"):
        morse_reduce(CochainComplexQ(labels, columns, matching))
    with pytest.raises(ConsistencyError, match=f"^{message}$"):
        morse_reduce_pushing_every_column(CochainComplexQ(labels, columns, matching))


def test_morse_reduce_passes_positions_without_cells_through():
    # empty positions between and above cells: each critical cell below
    # one gets the empty Morse image, and the cells past it are reduced as
    # the complex without the gap reduces them
    cx = CochainComplexQ([["x"], [], ["y", "w"], ["z"], [], []], [[{}], [], [{0: 2}, {}], [{}], []])
    morse, kept = morse_reduce(cx)
    assert morse.labels == [["x"], [], ["y", "w"], ["z"], [], []]
    assert morse.columns == [[{}], [], [{0: 2}, {}], [{}], []]
    assert kept == [[0], [], [0, 1], [0], [], []]
    assert morse.cohomology_dims() == cx.cohomology_dims() == {0: 1, 2: 1}
    matched = CochainComplexQ([["x"], ["y"], [], []], [[{0: 1}], [{}], []], [{0: 0}])
    morse, kept = morse_reduce(matched)
    assert (morse.labels, morse.columns, kept) == ([[], [], [], []], [[], [], []], [[], [], [], []])


def test_morse_reduce_on_random_matchings_of_independence_complexes():
    # a random greedy matching of the +-1 entries: acyclic ones (by the
    # test's own search) keep the cohomology, cyclic ones are refused
    rnd = random.Random(7)
    outcomes = {True: 0, False: 0}
    for v in range(1, 6):
        for graph in all_graphs(v):
            faces = augmented_cochain_complex(anticliques(graph))
            entries = [
                (p, c, r)
                for p, cols in enumerate(faces.columns)
                for c, col in enumerate(cols)
                for r in col
            ]
            for _ in range(6):
                rnd.shuffle(entries)
                taken = set()
                matching = [{} for _ in faces.columns]
                for p, c, r in entries:
                    if (p, c) not in taken and (p + 1, r) not in taken:
                        matching[p][c] = r
                        taken |= {(p, c), (p + 1, r)}
                cx = CochainComplexQ(faces.labels, faces.columns, matching)
                acyclic = matching_is_acyclic(cx)
                outcomes[acyclic] += 1
                if acyclic:
                    morse, kept = morse_reduce(cx)
                    places = enumerate(kept)
                    assert morse.labels == [[faces.labels[p][c] for c in cs] for p, cs in places]
                    morse.verify_d2()
                    assert morse.euler_characteristic == cx.euler_characteristic
                    assert morse.cohomology_dims() == cx.cohomology_dims(), graph.edges
                else:
                    with pytest.raises(ConsistencyError, match="cycle"):
                        morse_reduce(cx)
    assert outcomes[True] > 100 and outcomes[False] > 10, outcomes


def test_morse_reduce_leaves_out_matched_targets_with_the_same_outcome():
    # Gysin slices and independence complexes under a random greedy matching
    # of +-1 entries, one entry changed (half the time in a matched target's
    # column): the reducer, which pushes d^2 on every column but the matched
    # targets, gives the reference's Morse complex and kept cells, or its
    # ConsistencyError message
    rng = random.Random(3232)
    complexes = []
    for m in assembly_corpus():
        builder = GysinBuilder(m)
        complexes += [builder.complex_for_s(s) for s in range(m.d + 1)]
    for v in range(1, 5):
        complexes += [augmented_cochain_complex(anticliques(g)) for g in all_graphs(v)]

    def outcome(reduce, cx):
        try:
            morse, kept = reduce(cx)
        except ConsistencyError as exc:
            return str(exc)
        return morse.labels, morse.columns, kept

    seen: dict = {}
    for cx in complexes:
        units = [
            (p, c, r)
            for p, cols in enumerate(cx.columns)
            for c, col in enumerate(cols)
            for r, v in col.items()
            if v in (1, -1)
        ]
        for _ in range(5):
            rng.shuffle(units)
            taken = set()
            matching = [{} for _ in cx.columns]
            for p, c, r in units:
                if (p, c) not in taken and (p + 1, r) not in taken:
                    matching[p][c] = r
                    taken |= {(p, c), (p + 1, r)}
            targets = [
                (p + 1, t)
                for p, up in enumerate(matching[:-1])
                for t in up.values()
            ]
            if targets and rng.random() < 0.5:
                p, c = rng.choice(targets)
            else:
                p = rng.randrange(len(cx.columns)) if cx.columns else 0
                if not cx.dim(p):
                    continue
                c = rng.randrange(cx.dim(p))
            if not cx.dim(p + 1):
                continue
            r = rng.randrange(cx.dim(p + 1))
            columns = [list(cols) for cols in cx.columns]
            columns[p][c] = dict(columns[p][c])
            columns[p][c][r] = columns[p][c].get(r, 0) + rng.choice((1, -1, 2, Fraction(1, 2)))
            changed = CochainComplexQ(cx.labels, columns, matching)
            want = outcome(morse_reduce_pushing_every_column, changed)
            assert outcome(morse_reduce, changed) == want
            in_target = p > 0 and c in matching[p - 1].values()
            verdict = want if isinstance(want, str) else "reduced"
            seen[in_target, verdict] = seen.get((in_target, verdict), 0) + 1
    # the reduction, and each refusal the change can bring, were met; and a
    # change in a matched target's column, which d^2 is not pushed on, still
    # raised
    assert {verdict for _, verdict in seen} == {
        "reduced",
        "differential does not square to zero",
        "a matched entry is not a unit",
        "the matching has a cycle",
    }
    assert seen[True, "differential does not square to zero"] > 100, seen
