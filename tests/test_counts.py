import itertools
import random

import pytest

from clusterhodge.errors import InputError, NotAcyclic, NotPrincipal, TooLarge
from clusterhodge.counts import (
    ENUMERATION_GUARD,
    PRIME_TEST_BOUND,
    _is_prime,
    brute_force_count,
    closed_form_s_le_3,
    consistency_suite,
    graph_stats,
    point_count_poly,
)
from clusterhodge.exchange import principal_from_graph, validate
from clusterhodge.graphs import (
    Graph,
    anticliques,
    connected_graphs,
    cycle_graph,
    path_graph,
    star_graph,
)
from clusterhodge.gysin import hodge_table
from clusterhodge.poly import IntPolynomial

from conftest import (
    CYCLIC_12,
    ISOLATED_2_6,
    brute_force_by_row_scan,
    corpus,
    full_rank_corpus,
    interpolate_point_count,
    point_count_by_level_products,
    random_acyclic_matrix,
)

M01 = validate([[0], [1]], 1, 1)
M22 = validate([[0, 2], [-2, 0]], 2, 0)


def test_point_count_examples():
    pc = point_count_poly(M01)
    assert pc.polynomial == IntPolynomial.from_coeffs([1, -1, 1])
    assert pc.modulus == 1

    # edgeless principal on n vertices: ((q-1)^2 + q)^n
    for n in (1, 2, 3):
        m = principal_from_graph(Graph.from_edges(n, []))
        factor = IntPolynomial.from_coeffs([1, -1, 1])  # (q-1)^2 + q
        assert point_count_poly(m).polynomial == factor**n

    pc22 = point_count_poly(M22)
    assert pc22.polynomial == IntPolynomial.from_coeffs([1, 2, 1])
    assert pc22.modulus == 2


def test_point_count_degree_and_leading_coefficient():
    for m in corpus():
        poly = point_count_poly(m).polynomial
        assert poly.degree == m.d
        assert poly.coefficients[-1] == 1


def test_point_count_multiplicative_over_components():
    g1, g2 = path_graph(2), star_graph(3)
    pairs = [(u, v) for u, v in g1.edges]
    pairs += [(u + 2, v + 2) for u, v in g2.edges]
    both = Graph.from_edges(5, pairs)
    p_both = point_count_poly(principal_from_graph(both)).polynomial
    p1 = point_count_poly(principal_from_graph(g1)).polynomial
    p2 = point_count_poly(principal_from_graph(g2)).polynomial
    assert p_both == p1 * p2


def test_brute_force_examples():
    assert brute_force_count(M01, 3) == 7
    assert brute_force_count(M01, 5) == 21
    edge = principal_from_graph(path_graph(2))
    assert brute_force_count(edge, 3) == 40  # (3-1)^4 + 2*3*(3-1)^2
    assert point_count_poly(edge)(3) == 40


def _literal_count(matrix, q):
    """Walk every tuple of F_q^n x (F_q^*)^m and solve for the x'_j.

    A point with x_j nonzero has one x'_j; with x_j = 0 it has q when the
    right side of the exchange equation vanishes and none otherwise.
    """
    n, d = matrix.n, matrix.d
    pos_exp = [[max(matrix.rows[i][j], 0) for i in range(d)] for j in range(n)]
    neg_exp = [[max(-matrix.rows[i][j], 0) for i in range(d)] for j in range(n)]
    total = 0
    coords = [0] * d

    def rhs(j):
        a = b = 1
        for i in range(d):
            pe, ne = pos_exp[j][i], neg_exp[j][i]
            if pe:
                a = a * pow(coords[i], pe, q) % q
            if ne:
                b = b * pow(coords[i], ne, q) % q
        return (a + b) % q

    def recurse(i):
        nonlocal total
        if i == d:
            ways = 1
            for j in range(n):
                if coords[j]:
                    continue
                if rhs(j) == 0:
                    ways *= q
                else:
                    return
            total += ways
            return
        lo = 0 if i < n else 1
        for v in range(lo, q):
            coords[i] = v
            recurse(i + 1)
        coords[i] = 0

    recurse(0)
    return total


def _scaled_frozen(matrix, scale):
    rows = [list(r) for r in matrix.rows]
    for i in range(matrix.n, matrix.d):
        rows[i] = [scale * v for v in rows[i]]
    return validate(rows, matrix.n, matrix.m)


LITERAL_TUPLES_MAX = 60_000


def test_brute_force_matches_literal_enumeration():
    matrices = [
        principal_from_graph(g) for v in range(1, 5) for g in connected_graphs(v)
    ]
    matrices.append(_scaled_frozen(principal_from_graph(star_graph(4)), 2))
    rng = random.Random(6)
    matrices += [random_acyclic_matrix(rng, 4, 3) for _ in range(64)]
    compared = 0
    for matrix in matrices:
        for q in (2, 3, 5, 7):
            if q**matrix.n * (q - 1) ** matrix.m > LITERAL_TUPLES_MAX:
                continue
            assert brute_force_count(matrix, q) == _literal_count(matrix, q), (
                matrix.rows,
                q,
            )
            compared += 1
    for q in (5, 13):
        assert brute_force_count(M22, q) == _literal_count(M22, q)
    assert compared > 200


def test_brute_force_equals_the_row_scanning_count():
    # each equation's entries listed once per call, against the reference
    # that scans all d rows for every equation of every zero set
    compared = 0
    for matrix in [*full_rank_corpus(), M22, ISOLATED_2_6, CYCLIC_12]:
        for q in (3, 5, 7):
            assert brute_force_count(matrix, q) == brute_force_by_row_scan(matrix, q), (
                matrix.rows,
                q,
            )
            compared += 1
    assert compared == 3 * (len(full_rank_corpus()) + 3)


def _exchange_sides_cancel(rows, j, x, q) -> bool:
    """prod x_i^{[B~_ij]+} + prod x_i^{[-B~_ij]+} = 0 in F_q."""
    pos = neg = 1
    for i, row in enumerate(rows):
        if row[j] > 0:
            pos *= pow(x[i], row[j], q)
        elif row[j] < 0:
            neg *= pow(x[i], -row[j], q)
    return (pos + neg) % q == 0


def _factoring_cases(matrix, q) -> set[str]:
    """The cases of a count factored over independent equations that
    (matrix, q) reaches, read off the matrix entries: for each zero set Z,
    the equations j in Z, each reading the rows i outside Z with B~_ij
    nonzero, joined into groups while their read rows meet, and a group
    with no solution found by evaluating its equations on every tuple of
    nonzero values of its read rows, Z held at 0."""
    n, d, rows = matrix.n, matrix.d, matrix.rows
    cases = {"q = 2"} if q == 2 else set()
    for z_mask in range(1 << n):
        zeros = [j for j in range(n) if z_mask >> j & 1]
        outside = {j: {i for i in range(d) if rows[i][j] and not z_mask >> i & 1} for j in zeros}
        if any(not read for read in outside.values()):
            cases.add("an equation reads no coordinate outside Z")
        if any(abs(rows[i][j]) >= q for j in zeros for i in range(d)):
            cases.add("an exponent |b| >= q")
        if any(sum(1 for j in zeros if rows[i][j]) >= 2 for i in range(n, d)):
            cases.add("a frozen row read by two equations")
        groups: list[tuple[list[int], set[int]]] = []
        for j in zeros:
            joined, read = [j], set(outside[j])
            meeting = [g for g in groups if g[1] & read]
            if len(meeting) >= 2:
                cases.add("an equation joins two groups")
            for group in meeting:
                groups.remove(group)
                joined += group[0]
                read |= group[1]
            groups.append((joined, read))
        if len(groups) >= 2:
            cases.add("Z splits into two or more groups")
        for joined, read in groups:
            order = sorted(read)
            solved = False
            for values in itertools.product(range(1, q), repeat=len(order)):
                x = [0] * d
                for i, v in zip(order, values):
                    x[i] = v
                if all(_exchange_sides_cancel(rows, j, x, q) for j in joined):
                    solved = True
                    break
            if not solved:
                cases.add("a group with no solution")
    return cases


FACTORING_CASES = {
    "q = 2",
    "an equation reads no coordinate outside Z",
    "an exponent |b| >= q",
    "a frozen row read by two equations",
    "Z splits into two or more groups",
    "a group with no solution",
    "an equation joins two groups",
}

# edgeless, with frozen rows read by equations 0 and 2 and by 1 and 2: at
# Z = {0, 1, 2} equation 2 joins the groups of equations 0 and 1
BRIDGED = validate([[0, 0, 0], [0, 0, 0], [0, 0, 0], [1, 0, 1], [0, 1, 1]], 3, 2)


def test_brute_force_factored_matches_the_unfactored_count():
    # the count multiplies the solution counts of equations that share no
    # read coordinate; the row-scanning reference enumerates every read
    # coordinate of Z at once
    rng = random.Random(34)
    matrices = [random_acyclic_matrix(rng, 4, 3, 4, full_rank=False) for _ in range(40)]
    matrices += [M22, ISOLATED_2_6, BRIDGED]
    matrices.append(_scaled_frozen(principal_from_graph(star_graph(3)), 2))
    seen: set[str] = set()
    compared = 0
    for matrix in matrices:
        for q in (2, 3, 5, 7):
            if q**matrix.n * (q - 1) ** matrix.m > 20_000:
                continue
            assert brute_force_count(matrix, q) == brute_force_by_row_scan(matrix, q), (
                matrix.rows,
                q,
            )
            seen |= _factoring_cases(matrix, q)
            compared += 1
    assert seen == FACTORING_CASES
    assert compared > 100


def test_point_count_equals_the_level_products():
    # one coefficient list by the binomial theorem, against the sum of
    # IntPolynomial powers and products level by level
    matrices = [*full_rank_corpus(), M22, ISOLATED_2_6, CYCLIC_12]
    assert any(matrix.m == 0 for matrix in matrices)
    for matrix in matrices:
        pc = point_count_poly(matrix)
        assert (pc.polynomial, pc.modulus) == point_count_by_level_products(matrix), matrix.rows


def test_brute_force_weighted_congruence():
    # X* = Z/2 x Z/6 proves q = 13; Z/12 proves q = 73, not 13
    for m, primes in ((M22, (5, 13)), (ISOLATED_2_6, (13,)), (CYCLIC_12, (73,))):
        pc = point_count_poly(m)
        for q in primes:
            assert (q - 1) % (2 * pc.modulus) == 0
            assert brute_force_count(m, q) == pc(q)


def test_brute_force_guard_and_validation():
    big = principal_from_graph(star_graph(5))
    with pytest.raises(TooLarge):
        brute_force_count(big, 101)
    with pytest.raises(ValueError):
        brute_force_count(M01, 4)
    cyc = validate([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], 3, 0)
    with pytest.raises(NotAcyclic):
        brute_force_count(cyc, 3)


def test_brute_force_guard_boundary():
    p4 = principal_from_graph(path_graph(4))  # n = m = 4
    assert 5**8 * 4**4 == ENUMERATION_GUARD
    assert brute_force_count(p4, 5) == point_count_poly(p4)(5)
    with pytest.raises(TooLarge, match="q=7 exceeds the 100000000 tuple guard"):
        brute_force_count(p4, 7)


def test_is_prime_matches_trial_division():
    def trial(q):
        return q >= 2 and all(q % f for f in range(2, int(q**0.5) + 1))

    assert all(_is_prime(q) == trial(q) for q in range(-3, 10**5))
    # a Carmichael number and strong pseudoprimes to the bases up to 7, 11
    # and 37 (the last is psi_12 = 399165290221 * 798330580441)
    for q in (561, 3215031751, 2152302898747, 318665857834031151167461):
        assert not _is_prime(q)
    assert _is_prime(2**31 - 1) and _is_prime(2**61 - 1)
    assert not _is_prime((2**61 - 1) * (2**19 - 1))
    with pytest.raises(InputError):
        _is_prime(PRIME_TEST_BOUND)


def test_suite_brute_force_primes_for_p3():
    report = consistency_suite(principal_from_graph(path_graph(3)))
    checks = {c.name: c for c in report.checks}
    assert checks["brute-force point counts"].status == "PASS"
    assert checks["brute-force point counts"].detail == "q in [3, 5, 7]"


def test_interpolation_recovers_polynomial():
    assert interpolate_point_count(M01, 1) == IntPolynomial.from_coeffs([1, -1, 1])
    pc = point_count_poly(M22)
    assert interpolate_point_count(M22, pc.modulus) == pc.polynomial


def test_graph_stats_examples():
    st = graph_stats(star_graph(4))
    assert (st.components, st.isolated, st.triangles, st.h1) == (1, 0, 0, 0)
    assert st.degrees == (3, 1, 1, 1)
    assert st.e_increments == (2, 0, 0, 0)

    st =graph_stats(Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]))
    assert (st.components, st.triangles, st.h1) == (1, 1, 1)
    assert st.e_increments == (0, 0, 0)

    st = graph_stats(Graph.from_edges(2, []))
    assert (st.components, st.isolated) == (2, 2)
    assert st.e_increments == (-1, -1)


def test_closed_forms_examples():
    z4 = closed_form_s_le_3(principal_from_graph(star_graph(4)))
    assert z4[(4, 3)] == 1
    z5 = closed_form_s_le_3(principal_from_graph(star_graph(5)))
    assert z5[(4, 3)] == 3
    # trees with >= 2 vertices: (3,2) absent and (4,3) = sum C(d_i - 1, 2)
    for graph in [path_graph(4), star_graph(4), star_graph(5)]:
        formulas = closed_form_s_le_3(principal_from_graph(graph))
        assert (3, 2) not in formulas
        from math import comb

        expected = sum(comb(graph.degree(v) - 1, 2) for v in range(graph.n_vertices))
        assert formulas.get((4, 3), 0) == expected
    with pytest.raises(NotPrincipal):
        closed_form_s_le_3(M01 if M01.n != M01.m else validate([[0], [2]], 1, 1))


def test_closed_forms_match_hodge_table():
    graphs = [
        path_graph(1),
        path_graph(2),
        path_graph(3),
        star_graph(4),
        cycle_graph(4),
        Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]),
        Graph.from_edges(4, [(0, 1), (2, 3)]),
        Graph.from_edges(3, []),
    ]
    for graph in graphs:
        m = principal_from_graph(graph)
        table = hodge_table(m)
        closed = closed_form_s_le_3(m)
        slice_ = {(k, s): v for (k, s), v in table.dims.items() if s <= 3 and v}
        assert closed == slice_, graph.edges


def test_consistency_suite_on_random_matrices():
    import random

    from conftest import random_acyclic_matrix

    rng = random.Random(99)
    ran = 0
    while ran < 8:
        m = random_acyclic_matrix(rng, n_max=3, m_max=3)
        report = consistency_suite(m)
        assert not report.failed, report.render()
        ran += 1


def test_consistency_suite_pass_and_skips():
    report = consistency_suite(principal_from_graph(star_graph(4)))
    assert not report.failed
    assert all(c.status == "PASS" for c in report.checks)

    report = consistency_suite(M22)
    assert not report.failed
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["alternating point-count identity"] == "SKIP"
    assert statuses["curious Lefschetz symmetry"] == "PASS"
    assert statuses["brute-force point counts"] == "PASS"


def test_consistency_suite_computes_one_rank_class(monkeypatch):
    # the suite reads the rank class off hodge_table's one Smith normal form
    # and hands it to the point count: on principal P_3 that is the only
    # one, and on Z_4 with frozen block 2I, whose characters take Smith
    # normal forms of their own, the point count reuses the table's
    # anticlique subgroups too, so the suite takes hodge_table's forms and
    # none more, fewer than hodge_table and point_count_poly take apart
    import clusterhodge.exchange as exchange

    calls = []
    snf = exchange.smith_normal_form
    monkeypatch.setattr(
        exchange, "smith_normal_form", lambda mat: calls.append(mat) or snf(mat)
    )

    def count(fn, m):
        calls.clear()
        fn(m)
        return len(calls)

    p3 = principal_from_graph(path_graph(3))
    assert count(consistency_suite, p3) == 1
    z4 = validate(
        principal_from_graph(star_graph(4)).top_block()
        + [[2 * (i == j) for j in range(4)] for i in range(4)],
        4,
        4,
    )
    table = count(hodge_table, z4)
    separate = table + count(point_count_poly, z4)
    assert count(consistency_suite, z4) == table < separate - 1


def test_consistency_suite_takes_each_anticlique_subgroup_once(monkeypatch):
    # the table's Moebius counts and the point count share one group and its
    # subgroups: on Z_6 with frozen block 2I, one subgroup call for each of
    # the 33 anticliques, and the same report as when the point count takes
    # its own subgroups
    import clusterhodge.counts as counts
    from clusterhodge.exchange import CharacterGroup

    z6 = validate(
        principal_from_graph(star_graph(6)).top_block()
        + [[2 * (i == j) for j in range(6)] for i in range(6)],
        6,
        6,
    )
    calls = []
    subgroup = CharacterGroup.subgroup
    monkeypatch.setattr(
        CharacterGroup,
        "subgroup",
        lambda self, idx: calls.append(tuple(idx)) or subgroup(self, idx),
    )
    shared = consistency_suite(z6).render()
    assert len(calls) == len(set(calls)) == len(anticliques(star_graph(6)).all_masks()) == 33
    point_count = counts._point_count
    monkeypatch.setattr(counts, "_point_count", lambda m, rc, subgroups=None: point_count(m, rc))
    calls.clear()
    assert consistency_suite(z6).render() == shared
    assert len(calls) == 66
