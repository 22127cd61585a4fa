import itertools
import random
from fractions import Fraction

import pytest
from conftest import (
    CohomologyClasses,
    augmented_complex_by_bits,
    mv_delta_by_face_scan,
    submasks,
)

from clusterhodge.errors import CycleTooSmall, NotAForest, NotAnEdge, TooLarge, VertexInX
from clusterhodge.graphs import (
    ANTICLIQUE_GUARD,
    _InducedComplexes,
    CONTRACTIBLE,
    Graph,
    Sphere,
    all_graphs,
    anticliques,
    augmented_cochain_complex,
    closed_form_cycle,
    closed_form_path,
    complete_graph,
    connected_graphs,
    cycle_graph,
    forest_homotopy,
    forests,
    join,
    mv_delta,
    path_graph,
    reduced_cohomology,
    star_graph,
    trees,
)
from clusterhodge.linalg import CohomologyBasis, rank


def test_anticliques_examples():
    assert anticliques(path_graph(3)).sizes() == [1, 3, 1]
    assert anticliques(Graph.from_edges(4, [])).sizes() == [1, 4, 6, 4, 1]
    assert anticliques(complete_graph(4)).sizes() == [1, 4]


def test_anticliques_downward_closed():
    g = cycle_graph(5)
    fam = anticliques(g)
    members = set(fam.all_masks())
    for mask in members:
        sub = mask
        while sub:
            sub = (sub - 1) & mask
            assert sub in members


def test_anticliques_match_definition():
    # every submask of the vertex mask that is independent, grouped by size
    for v in range(6):
        for g in all_graphs(v):
            for mask in range(1 << v):
                levels = [[] for _ in range(mask.bit_count() + 1)]
                for sub in range(1 << v):
                    if sub & ~mask == 0 and g.is_independent(sub):
                        levels[sub.bit_count()].append(sub)
                expected = tuple(tuple(sorted(lv)) for lv in levels if lv)
                assert anticliques(g, mask).by_cardinality == expected, (g.edges, mask)
    # P_20 has Fibonacci F_22 independent sets
    assert sum(anticliques(path_graph(20)).sizes()) == 17711


def test_anticliques_guard():
    assert sum(anticliques(Graph.from_edges(18, [])).sizes()) == ANTICLIQUE_GUARD
    with pytest.raises(TooLarge):
        anticliques(Graph.from_edges(19, []))


def test_reduced_cohomology_conventions():
    # the complex {empty set} alone carries H~^{-1}
    assert reduced_cohomology(anticliques(Graph.from_edges(0, []))).dims == {-1: 1}
    # a single vertex is contractible
    assert reduced_cohomology(anticliques(path_graph(1))).dims == {}
    # I(P5 on 5 vertices) ~ S^1  (path of length 4 = 3*1+1)
    assert reduced_cohomology(anticliques(path_graph(5))).dims == {1: 1}
    # I(C6) ~ S^1 v S^1
    assert reduced_cohomology(anticliques(cycle_graph(6))).dims == {1: 2}


def test_closed_form_path_examples():
    assert closed_form_path(3) == CONTRACTIBLE
    assert closed_form_path(4) == Sphere(1)
    assert closed_form_path(0) == Sphere(-1)
    with pytest.raises(ValueError):
        closed_form_path(-1)


def test_closed_form_path_matches_direct():
    # a path with k edges has k+1 vertices
    for edges in range(1, 9):
        direct = reduced_cohomology(anticliques(path_graph(edges + 1)))
        assert closed_form_path(edges).cohomology().dims == direct.dims


def test_closed_form_cycle_examples():
    assert closed_form_cycle(3).dims == {0: 2}
    assert closed_form_cycle(4).dims == {0: 1}
    assert closed_form_cycle(6).dims == {1: 2}
    with pytest.raises(CycleTooSmall):
        closed_form_cycle(2)


def test_closed_form_cycle_matches_direct():
    for m in range(3, 10):
        direct = reduced_cohomology(anticliques(cycle_graph(m)))
        assert closed_form_cycle(m).dims == direct.dims


def test_forest_homotopy_examples():
    assert forest_homotopy(star_graph(4)) == Sphere(0)
    assert forest_homotopy(Graph.from_edges(4, [(0, 1), (2, 3)])) == Sphere(1)
    assert forest_homotopy(path_graph(5)) == Sphere(1)
    with pytest.raises(NotAForest):
        forest_homotopy(cycle_graph(3))


def test_forest_homotopy_matches_direct_up_to_9():
    for forest in forests(9):
        expected = reduced_cohomology(anticliques(forest)).dims
        assert forest_homotopy(forest).cohomology().dims == expected


def test_join_rule():
    assert join(Sphere(0), Sphere(0)) == Sphere(1)
    assert join(Sphere(-1), Sphere(2)) == Sphere(2)
    assert join(CONTRACTIBLE, Sphere(5)) == CONTRACTIBLE


def test_enumeration_counts():
    assert [len(all_graphs(v)) for v in range(1, 6)] == [1, 2, 4, 11, 34]
    assert [len(connected_graphs(v)) for v in range(1, 6)] == [1, 1, 2, 6, 21]
    assert [len(trees(v)) for v in range(1, 10)] == [1, 1, 1, 2, 3, 6, 11, 23, 47]


def test_vanishing_bound_exhaustive_m_le_6():
    # H~^r(I(G)) = 0 for r > m/2 - 1, over every labeled graph on <= 6 vertices
    for v in range(0, 7):
        pairs = list(itertools.combinations(range(v), 2))
        for edge_bits in range(1 << len(pairs)):
            g = Graph.from_edges(
                v, [p for k, p in enumerate(pairs) if edge_bits >> k & 1]
            )
            dims = reduced_cohomology(anticliques(g)).dims
            for r, h in dims.items():
                if h:
                    assert r <= v / 2 - 1 or (v == 0 and r == -1)


def test_join_additivity_poincare():
    # the independence complex of a disjoint union is the join of the parts':
    # H~^r(I(G1 u G2)) = sum over r1 + r2 + 1 = r of H~^r1 (x) H~^r2, checked
    # exactly on every pair of graphs with at most 3 vertices
    small = [g for v in range(4) for g in all_graphs(v)]
    for g1, g2 in itertools.product(small, repeat=2):
        shift = g1.n_vertices
        both = Graph.from_edges(
            shift + g2.n_vertices,
            list(g1.edges) + [(u + shift, v + shift) for u, v in g2.edges],
        )
        want: dict[int, int] = {}
        for r1, h1 in reduced_cohomology(anticliques(g1)).dims.items():
            for r2, h2 in reduced_cohomology(anticliques(g2)).dims.items():
                want[r1 + r2 + 1] = want.get(r1 + r2 + 1, 0) + h1 * h2
        assert reduced_cohomology(anticliques(both)).dims == want


def test_induced_dims_match_the_full_complex():
    # dims of a disconnected mask come from its components by the join rule;
    # on every mask of every graph with <= 5 vertices, and of K_3 u K_3 and
    # K_4 u K_3 (whose components have more than one class each), dims and
    # classes agree with the mask's own complex (the bowtie has two positions)
    k3k3 = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    k4k3 = list(itertools.combinations(range(4), 2)) + [(4, 5), (4, 6), (5, 6)]
    extra = [Graph.from_edges(6, k3k3), Graph.from_edges(7, k4k3)]
    for g in [g for v in range(1, 6) for g in all_graphs(v)] + extra:
        induced = _InducedComplexes(g)
        for mask in range(1 << g.n_vertices):
            full = augmented_cochain_complex(anticliques(g, mask)).cohomology_dims()
            assert induced.dims(mask) == full, (sorted(g.edges), mask)
            for p, h in full.items():
                classes = induced.classes(mask, p)
                assert (classes.p, classes.dim) == (p, h)
    # two disjoint edges: S^0 * S^0 = S^1, with no complex built for the union
    induced = _InducedComplexes(path_graph(6))
    assert induced.dims(0b110110) == {2: 1}
    assert 0b110110 not in induced._complexes


def test_induced_dims_by_lowest_component_up_to_6_vertices():
    # dims of a disconnected mask join the component of its lowest vertex
    # with the rest; on every mask of every graph with <= 6 vertices, and of
    # three disconnected graphs on 7 and 8 vertices, they equal the dims of
    # the mask's own complex, and that complex, with each face's bits walked
    # inline, equals the one built from bits() lists, entry for entry
    k3k3k2 = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (6, 7)]
    p3p2p2 = [(0, 1), (1, 2), (3, 4), (5, 6)]
    c4_edge_point = [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)]
    extra = [
        Graph.from_edges(8, k3k3k2),
        Graph.from_edges(7, p3p2p2),
        Graph.from_edges(7, c4_edge_point),
    ]
    masks = 0
    for g in [g for v in range(1, 7) for g in all_graphs(v)] + extra:
        induced = _InducedComplexes(g)
        for mask in range(1 << g.n_vertices):
            family = anticliques(g, mask)
            cx = augmented_cochain_complex(family)
            ref = augmented_complex_by_bits(family)
            assert (cx.labels, cx.columns) == (ref.labels, ref.columns)
            assert induced.dims(mask) == ref.cohomology_dims(), (sorted(g.edges), mask)
            masks += 1
        # a complex only for each connected nonempty mask whose dims were asked
        assert all(len(g.components(mask)) == 1 for mask in induced._complexes)
    assert masks == sum(len(all_graphs(v)) << v for v in range(1, 7)) + 256 + 128 + 128


def test_components_of_an_induced_subgraph():
    p6 = path_graph(6)
    assert p6.components() == [0b111111]
    assert p6.components(0b110110) == [0b000110, 0b110000]
    assert p6.components(0b101010) == [0b000010, 0b001000, 0b100000]
    assert p6.components(0) == []


def test_euler_characteristic():
    for g in all_graphs(5)[:12] + [cycle_graph(6), star_graph(5)]:
        cx = anticliques(g)
        dims = reduced_cohomology(cx).dims
        homological = sum((-1) ** r * h for r, h in dims.items())
        # include H~^{-1} of the empty complex through the dims themselves
        assert homological == cx.euler_characteristic_reduced()


def test_mv_delta_isomorphism_on_edge():
    g = Graph.from_edges(2, [(0, 1)])
    maps = mv_delta(g, 0, 0, 1)
    assert list(maps) == [-1]
    # H~^0 of the two points is represented by the face {1}, the cell that
    # the pivot {0} + {1} of d_0 leaves uncleared, and the image {0} of the
    # class of the empty face is -{1} modulo that coboundary
    assert maps[-1] == [[-1]]


def test_mv_delta_zero_for_deep_paths():
    # middle edge of a 6-path: both sides have pendant 2-paths
    p6 = path_graph(6)
    maps = mv_delta(p6, 0b110011, 2, 3)
    # H~^1 of I(2 disjoint edges) is 1-dim but H~^2 of I(P6) vanishes
    assert maps == {1: []}


def test_mv_delta_vanishing_domain():
    g = Graph.from_edges(3, [(1, 2)])
    assert mv_delta(g, 0b001, 1, 2) == {}


def test_mv_delta_validation():
    g = path_graph(3)
    with pytest.raises(NotAnEdge):
        mv_delta(g, 0, 0, 2)
    with pytest.raises(VertexInX):
        mv_delta(g, 0b001, 0, 1)
    with pytest.raises(ValueError, match="another graph"):
        mv_delta(g, 0, 0, 1, memo=_InducedComplexes(path_graph(3)))


def test_mv_delta_is_cochain_map_into_cocycles():
    # the produced classes are genuine: coordinates() would raise otherwise
    g = cycle_graph(5)
    x = 0b00110  # vertices 1, 2
    maps = mv_delta(g, x, 0, 4)
    assert maps  # at least one degree present


def _typed(maps):
    """Each entry with its type, so that int 1 != Fraction(1)."""
    return {r: [[(type(c), c) for c in row] for row in mat] for r, mat in maps.items()}


def test_mv_delta_equals_the_face_scan():
    # every connected graph with <= 5 vertices, every edge (a, b) in both
    # orders and every X that avoids a and b: the same values and types
    cases = 0
    for v in range(1, 6):
        for g in connected_graphs(v):
            for edge in sorted(g.edges):
                for a, b in (edge, edge[::-1]):
                    for x in submasks(((1 << v) - 1) & ~(1 << a | 1 << b)):
                        got = _typed(mv_delta(g, x, a, b))
                        assert got == _typed(mv_delta_by_face_scan(g, x, a, b)), (g, x, a, b)
                        kinds = {kind for mat in got.values() for row in mat for kind, _ in row}
                        assert kinds <= {Fraction}
                        cases += 1
    assert cases == 2302


def test_cohomology_basis_coordinates_roundtrip():
    cx = augmented_cochain_complex(anticliques(cycle_graph(6)))
    basis = CohomologyBasis(cx, 2, cx.clearing())  # H~^1 sits at position 2
    assert basis.dim == 2
    for i, rep in enumerate(basis.representatives):
        coords = basis.coordinates(rep)
        assert [int(c) for c in coords] == [1 if j == i else 0 for j in range(2)]


def _image(cols, vector):
    """sum over c of vector[c] * cols[c], as a sparse vector."""
    out = {}
    for c, v in vector.items():
        for r, w in cols[c].items():
            out[r] = out.get(r, 0) + v * w
    return {r: v for r, v in out.items() if v}


def test_cohomology_basis_matches_the_reference():
    # every mask of every graph with <= 5 vertices, of K_3 u K_3, K_4 u K_3,
    # P_6 and C_6: the classes read off the clearing reduction against the
    # nullspace-and-quotient reference, position by position
    k3k3 = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    k4k3 = list(itertools.combinations(range(4), 2)) + [(4, 5), (4, 6), (5, 6)]
    extra = [Graph.from_edges(6, k3k3), Graph.from_edges(7, k4k3), path_graph(6), cycle_graph(6)]
    rng = random.Random(2111)
    checked = 0
    for g in [g for v in range(1, 6) for g in all_graphs(v)] + extra:
        induced = _InducedComplexes(g)
        for mask in range(1 << g.n_vertices):
            cx = induced.complex(mask)
            refs = [CohomologyClasses(cx, p) for p in range(cx.positions)]
            assert induced.dims(mask) == {p: ref.dim for p, ref in enumerate(refs) if ref.dim}
            for p, ref in enumerate(refs):
                if not ref.dim:
                    continue
                basis = induced.classes(mask, p)
                reps = basis.representatives
                assert (basis.p, basis.dim) == (p, ref.dim)
                out = cx.columns[p] if p < len(cx.columns) else None
                assert out is None or not any(_image(out, rep) for rep in reps)
                # the change of basis between the reference and the new classes
                change = [dict(enumerate(ref.coordinates(rep))) for rep in reps]
                assert rank(change) == ref.dim
                coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in reps]
                vector = {}
                for c, rep in zip(coeffs, reps):
                    for k, v in rep.items():
                        vector[k] = vector.get(k, 0) + c * v
                if p:
                    y = {k: rng.randint(-2, 2) for k in range(cx.dim(p - 1))}
                    for k, v in _image(cx.columns[p - 1], y).items():
                        vector[k] = vector.get(k, 0) + v
                assert basis.coordinates(vector) == coeffs
                if out is not None:
                    for c, col in enumerate(out):
                        if col:
                            with pytest.raises(ValueError):
                                basis.coordinates({**vector, c: vector.get(c, 0) + 1})
                            break
                with pytest.raises(ValueError):
                    basis.coordinates({cx.dim(p): 1})
                checked += 1
    assert checked == 691
