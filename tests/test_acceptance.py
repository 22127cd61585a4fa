"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Every expected value is exact; tolerances are equality of integers and
polynomials.  The stated runtime caps are asserted where the criteria give
them (criterion 1: the 5-leaf star under 60 s; criterion 8: the closed-form
oracles under 10 s).
"""

import random
import time

from clusterhodge.counts import brute_force_count, closed_form_s_le_3, point_count_poly
from clusterhodge.errors import TooLarge
from clusterhodge.exchange import (
    CharacterGroup,
    RankClass,
    mutate,
    principal_from_graph,
    rank_class,
    validate,
)
from clusterhodge.filtration import build_filtered, e1_page, spectral_sequence
from clusterhodge.graphs import (
    all_graphs,
    anticliques,
    connected_graphs,
    cycle_graph,
    forests,
    closed_form_cycle,
    closed_form_path,
    forest_homotopy,
    path_graph,
    reduced_cohomology,
    star_graph,
)
from clusterhodge.gysin import GysinBuilder, hodge_table, standard_poincare
from clusterhodge.poly import IntPolynomial

from conftest import corpus, full_rank_corpus, seeded_orientation

SEED = 20240817


def _report(number: int, title: str, passed: bool, extra: str = ""):
    status = "PASS" if passed else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number} [{status}] {title}{tail}")
    assert passed, f"criterion {number}: {title}"


def test_criterion_1_star_generating_functions():
    t0 = time.time()
    expected_offdiag = {
        4: IntPolynomial.from_coeffs([0, 0, 0, 1, 2, 1]),
        5: IntPolynomial.from_coeffs([0, 0, 0, 3, 11, 16, 11, 3]),
    }
    ok = True
    x, one = IntPolynomial.x(), IntPolynomial.one()
    for n in (4, 5):
        table = hodge_table(principal_from_graph(star_graph(n)))
        diag_expected = (one + x) ** (n - 1) * IntPolynomial.from_coeffs(
            [1] * (n + 2)
        )
        ok &= table.offdiagonal_polynomial() == expected_offdiag[n]
        ok &= table.diagonal_polynomial() == diag_expected
        ok &= all(k in (s, s + 1) for (k, s) in table.dims)
    elapsed = time.time() - t0
    ok &= elapsed < 60
    _report(1, "star generating functions (Z4, Z5)", ok, f"{elapsed:.1f}s")


def test_criterion_2_path_purity():
    ok = True
    for n in range(2, 6):
        m = principal_from_graph(path_graph(n))
        table = hodge_table(m)
        ok &= all(k == s for (k, s) in table.dims)
        ok &= table.diagonal_polynomial() == standard_poincare(m)
    _report(2, "path purity A_2..A_5 with standard diagonal", ok)


def test_criterion_3_small_weight_closed_forms():
    t0 = time.time()
    graphs = [g for v in range(1, 6) for g in connected_graphs(v)]
    exactly_five = sum(1 for g in graphs if g.n_vertices == 5)
    assert exactly_five == 21
    bad = []
    for graph in graphs:
        m = principal_from_graph(graph)  # one fixed acyclic orientation
        table = hodge_table(m)
        closed = closed_form_s_le_3(m)
        slice_ = {(k, s): v for (k, s), v in table.dims.items() if s <= 3 and v}
        if closed != slice_:
            bad.append(sorted(graph.edges))
    _report(
        3,
        f"s <= 3 closed forms on {len(graphs)} connected graphs (<= 5 vertices)",
        not bad,
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_4_point_count_oracle():
    ok = True
    for m in corpus():
        pc = point_count_poly(m)
        assert pc.modulus == 1
        for q in (3, 5, 7):
            try:
                ok &= brute_force_count(m, q) == pc(q)
            except TooLarge:
                pass
    weighted = validate([[0, 2], [-2, 0]], 2, 0)
    pc = point_count_poly(weighted)
    assert pc.modulus == 2
    for q in (5, 13):
        ok &= (q - 1) % (2 * pc.modulus) == 0
        ok &= brute_force_count(weighted, q) == pc(q)
    _report(4, "brute-force point counts match the polynomial", ok)


def test_criterion_5_duality_and_lefschetz():
    # with the star Z_6 under frozen block 2I and 40 random matrices of full
    # but not really full rank, whose tables sum over character supports
    from conftest import random_acyclic_matrix

    ok = True
    z6 = principal_from_graph(star_graph(6)).top_block()
    frozen_2i = [[2 * (i == j) for j in range(6)] for i in range(6)]
    matrices = full_rank_corpus() + [
        principal_from_graph(g) for g in [star_graph(4), path_graph(4), cycle_graph(4)]
    ] + [validate(z6 + frozen_2i, 6, 6)]
    rng = random.Random(5)
    drawn = 0
    while drawn < 40:
        m = random_acyclic_matrix(rng, 5, 4, magnitude=4)
        if rank_class(m) is RankClass.FULL_RANK:
            matrices.append(m)
            drawn += 1
    for m in matrices:
        table = hodge_table(m)
        ok &= point_count_poly(m).polynomial == table.point_count_polynomial()
        d = m.d
        for (k, s), v in table.dims.items():
            ok &= v == table.dim(k + d - 2 * s, d - s)
    _report(5, "point-count identity and curious Lefschetz on the corpus", ok)


def test_criterion_6_vanishing_bounds():
    ok = True
    matrices = corpus() + [
        principal_from_graph(g)
        for v in range(1, 6)
        for g in connected_graphs(v)
    ]
    for m in matrices:
        table = hodge_table(m)
        d = m.d
        for (k, s), v in table.dims.items():
            if v:
                ok &= 0 <= k <= d and max(2 * k / 3, 2 * k - d) <= s <= k
    _report(6, "vanishing bounds over the really-full-rank corpus", ok)


def test_criterion_7_spectral_sequence_double_computation():
    t0 = time.time()
    rng = random.Random(SEED)
    graphs = [g for v in range(1, 6) for g in all_graphs(v)]
    bad = []
    for graph in graphs:
        orientation, _ = seeded_orientation(graph, rng)
        m = principal_from_graph(graph, orientation)
        builder = GysinBuilder(m)
        table = hodge_table(m)
        for s in range(m.d + 1):
            fc = build_filtered(m, s, builder)
            pages = spectral_sequence(fc)
            first, last = pages[1], pages[-1]
            independent = {k: v for k, v in e1_page(m, s).entries.items() if v}
            if first.entries != independent:
                bad.append((sorted(graph.edges), s, "E1"))
            for p in range(m.n + 1):
                total = sum(v for (e, f), v in last.entries.items() if e + f == p)
                if total != table.dim(p + s, s):
                    bad.append((sorted(graph.edges), s, "Einf"))
    _report(
        7,
        f"E1 double computation and convergence on {len(graphs)} graphs (<= 5 vertices)",
        not bad,
        f"{time.time() - t0:.1f}s",
    )
    assert not bad, bad[:3]


def test_criterion_8_independence_complex_oracles():
    t0 = time.time()
    ok = True
    # paths: a path with k edges has k+1 vertices
    for edges in range(1, 9):
        direct = reduced_cohomology(anticliques(path_graph(edges + 1)))
        ok &= closed_form_path(edges).cohomology().dims == direct.dims
    for m in range(3, 10):
        direct = reduced_cohomology(anticliques(cycle_graph(m)))
        ok &= closed_form_cycle(m).dims == direct.dims
    for forest in forests(9):
        direct = reduced_cohomology(anticliques(forest))
        ok &= forest_homotopy(forest).cohomology().dims == direct.dims
    elapsed = time.time() - t0
    ok &= elapsed < 10
    _report(8, "closed-form oracles vs direct cochains (<= 9 vertices)", ok, f"{elapsed:.1f}s")


def test_criterion_9_structural_invariants():
    from conftest import random_acyclic_matrix

    rng = random.Random(SEED)
    ok = True
    # d^2 = 0 on 100 seeded random acyclic matrices
    t0 = time.time()
    for _ in range(100):
        m = random_acyclic_matrix(rng, n_max=5, m_max=5)
        builder = GysinBuilder(m)
        for s in range(m.d + 1):
            builder.complex_for_s(s).verify_d2()  # raises if d^2 != 0
    # dim G^I = 2^{n+m-2|I|}
    for m in full_rank_corpus():
        builder = GysinBuilder(m)
        for k, level in enumerate(builder.family.by_cardinality):
            for i_mask in level:
                ok &= builder.basis(i_mask).dimension == 2 ** (m.d - 2 * k)
    # frozen-row tensor law on the really-full-rank corpus
    for m in corpus():
        extra = [((3 * j) % 7) - 3 for j in range(m.n)]
        bigger = validate([list(r) for r in m.rows] + [extra], m.n, m.m + 1)
        t_small = hodge_table(m).dims
        t_big = hodge_table(bigger).dims
        want: dict[tuple[int, int], int] = {}
        for (k, s), v in t_small.items():
            want[(k, s)] = want.get((k, s), 0) + v
            want[(k + 1, s + 1)] = want.get((k + 1, s + 1), 0) + v
        ok &= {key: v for key, v in want.items() if v} == t_big
    # mutation invariance of the cokernel invariant factors
    for _ in range(25):
        m = random_acyclic_matrix(rng, n_max=4, m_max=4)
        factors = CharacterGroup(m).group.invariant_factors
        for k in range(m.n):
            ok &= CharacterGroup(mutate(m, k)).group.invariant_factors == factors
    _report(9, "d^2 = 0, basis dimensions, tensor law, mutation invariance", ok,
            f"{time.time() - t0:.1f}s")
