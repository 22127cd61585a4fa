"""Graphs, their independent sets and the rational reduced cohomology of
independence complexes.

Vertices are 0-based ints and vertex sets are bitmasks over the ambient
vertex set.  ``anticliques`` is the one enumerator of independent sets, and
complexes are built from its ``AnticliqueFamily``, whose sets are the faces
of the independence complex.  Reduced cohomology follows the convention
that the complex {empty set} has a one-dimensional H~^{-1} and every
nonempty complex has H~^{-1} = 0.  Cohomology is computed from the
augmented cochain complex, built as a ``linalg.CochainComplexQ`` whose
position p holds the faces with p vertices (so it carries H~^{p-1}); the
Mayer-Vietoris connecting maps take their cocycle representatives and
coordinates from the same clearing reduction that ranks that complex.
``_InducedComplexes`` keeps those complexes, their reductions, dims and
classes per vertex mask for one computation, so each is built once; the
dims of a disconnected induced subgraph come from the component of its
lowest vertex and the rest by the join rule (positions add, dims multiply),
without a complex of its own.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import CycleTooSmall, NotAForest, NotAnEdge, TooLarge, VertexInX
from .exterior import bits
from .linalg import CochainComplexQ, CohomologyBasis, SparseMatrix


class Graph:
    """A simple undirected graph on vertices 0..n_vertices-1; immutable by
    convention.  ``adjacency[v]`` is the mask of v's neighbours, made from
    the edges and left out of equality."""

    __slots__ = ("n_vertices", "edges", "adjacency")

    def __init__(self, n_vertices: int, edges: frozenset[tuple[int, int]]):
        adj = [0] * n_vertices
        for u, v in edges:
            if not (0 <= u < v < n_vertices):
                raise ValueError(f"bad edge ({u}, {v})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n_vertices = n_vertices
        self.edges = edges  # pairs (u, v) with u < v
        self.adjacency = tuple(adj)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n_vertices == other.n_vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.n_vertices, self.edges))

    @classmethod
    def from_edges(cls, n: int, pairs) -> "Graph":
        return cls(n, frozenset(tuple(sorted(p)) for p in pairs))

    def has_edge(self, u: int, v: int) -> bool:
        return tuple(sorted((u, v))) in self.edges

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    def is_independent(self, mask: int) -> bool:
        for v in bits(mask):
            if self.adjacency[v] & mask:
                return False
        return True

    def induced(self, mask: int) -> "Graph":
        """Induced subgraph, relabeled to 0..k-1 in mask order."""
        verts = bits(mask)
        index = {v: i for i, v in enumerate(verts)}
        pairs = [
            (index[u], index[v]) for u, v in self.edges if u in index and v in index
        ]
        return Graph.from_edges(len(verts), pairs)

    def components(self, vertex_mask: int | None = None) -> list[int]:
        """Components of the subgraph induced on vertex_mask (default: all).

        Vertex masks keep the ambient labels, sorted by lowest vertex.
        """
        rest = (1 << self.n_vertices) - 1 if vertex_mask is None else vertex_mask
        comps = []
        while rest:
            comp = self.component_of_lowest(rest)
            rest &= ~comp
            comps.append(comp)
        return comps

    def component_of_lowest(self, vertex_mask: int) -> int:
        """The component of the lowest vertex of the nonempty vertex_mask,
        in the subgraph induced on vertex_mask."""
        comp = frontier = vertex_mask & -vertex_mask
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                reach |= self.adjacency[low.bit_length() - 1]
            frontier = reach & vertex_mask & ~comp
            comp |= frontier
        return comp

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def is_forest(self) -> bool:
        return len(self.edges) == self.n_vertices - len(self.components())


def path_graph(v: int) -> Graph:
    return Graph.from_edges(v, [(i, i + 1) for i in range(v - 1)])


def cycle_graph(v: int) -> Graph:
    return Graph.from_edges(v, [(i, (i + 1) % v) for i in range(v)])


def star_graph(v: int) -> Graph:
    """The star Z_v: center 0 joined to v-1 leaves."""
    return Graph.from_edges(v, [(0, i) for i in range(1, v)])


def complete_graph(v: int) -> Graph:
    return Graph.from_edges(v, itertools.combinations(range(v), 2))


# ---------------------------------------------------------------------------
# anticliques


class AnticliqueFamily:
    """All independent sets of a graph, grouped by cardinality."""

    __slots__ = ("by_cardinality",)

    def __init__(self, by_cardinality: tuple[tuple[int, ...], ...]):
        self.by_cardinality = by_cardinality  # masks, sorted within a size

    def sizes(self) -> list[int]:
        return [len(level) for level in self.by_cardinality]

    def all_masks(self) -> list[int]:
        return [m for level in self.by_cardinality for m in level]

    def euler_characteristic_reduced(self) -> int:
        """sum over faces of (-1)^dim, including the empty face."""
        return sum((-1) ** (p + 1) * n for p, n in enumerate(self.sizes()))


ANTICLIQUE_GUARD = 2**18  # independent sets one enumeration may produce


def anticliques(graph: Graph, vertex_mask: int | None = None) -> AnticliqueFamily:
    """Independent sets of the subgraph induced on vertex_mask (default: all).

    Masks keep the ambient labels.  Each set of size p + 1 is a set of size p
    grown by one vertex above its highest and adjacent to none of its
    members, so the cost follows the number of sets; past ANTICLIQUE_GUARD
    sets the enumeration stops with TooLarge.
    """
    if vertex_mask is None:
        vertex_mask = (1 << graph.n_vertices) - 1
    levels = [(0,)]
    frontier = [(0, vertex_mask)]  # (set, the vertices that may extend it)
    produced = 1
    while True:
        grown = []
        for mask, free in frontier:
            while free:
                low = free & -free
                free ^= low
                grown.append((mask | low, free & ~graph.adjacency[low.bit_length() - 1]))
            if produced + len(grown) > ANTICLIQUE_GUARD:
                raise TooLarge(
                    f"more than {ANTICLIQUE_GUARD} independent sets in a "
                    f"{graph.n_vertices}-vertex graph"
                )
        if not grown:
            return AnticliqueFamily(tuple(levels))
        produced += len(grown)
        grown.sort()
        levels.append(tuple(mask for mask, _ in grown))
        frontier = grown


# ---------------------------------------------------------------------------
# reduced cohomology


class ReducedCohomology:
    """dim H~^r of an independence complex, for every r where it is nonzero."""

    __slots__ = ("dims",)

    def __init__(self, dims: dict[int, int]):
        self.dims = dims

    def dim(self, r: int) -> int:
        return self.dims.get(r, 0)


def augmented_cochain_complex(family: AnticliqueFamily) -> CochainComplexQ:
    """The augmented cochain complex of an independence complex.

    Position p holds the faces with p vertices, the family's level p, so it
    carries H~^{p-1}; the differential sends a face F to the sum over v with
    F u {v} a face of (-1)^{#F below v} (F u {v}).  The complex {empty set}
    is the single position 0, where H~^{-1} is one-dimensional.
    """
    labels = [list(level) for level in family.by_cardinality]
    columns = []
    for p in range(len(labels) - 1):
        index = {f: c for c, f in enumerate(labels[p])}
        cols: list[dict[int, int]] = [{} for _ in labels[p]]
        for r, g in enumerate(labels[p + 1]):
            rest, sign = g, 1  # sign: (-1)^{#bits of g below the current one}
            while rest:
                low = rest & -rest
                rest ^= low
                c = index.get(g ^ low)
                if c is not None:
                    cols[c][r] = sign
                sign = -sign
        columns.append(cols)
    return CochainComplexQ(labels, columns)


def reduced_cohomology(family: AnticliqueFamily) -> ReducedCohomology:
    dims = augmented_cochain_complex(family).cohomology_dims()
    return ReducedCohomology({p - 1: h for p, h in dims.items()})


def _join_dims(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Cohomology dims of a join, by augmented position: positions add and
    dims multiply (Kunneth for the tensor product of augmented complexes)."""
    out: dict[int, int] = {}
    for p, h in a.items():
        for q, k in b.items():
            out[p + q] = out.get(p + q, 0) + h * k
    return dict(sorted(out.items()))


class _InducedComplexes:
    """The independence complexes of one graph's induced subgraphs, by vertex mask.

    For each mask it keeps the augmented cochain complex of
    ``anticliques(graph, mask)``, its ``clearing`` reduction and the
    ``cohomology_dims`` read off it, and the ``CohomologyBasis`` and the face
    index (face -> its place) of each position asked for, each made at most
    once.  So a complex is reduced once for its dims, and a class basis adds
    one reduction of the one differential out of its position.
    The independence complex of a disjoint union is the join of its parts'
    (Jonsson, LNM 1928), so a mask whose induced subgraph is disconnected gets
    its dims as the join of the component of its lowest vertex and the rest
    (each memoised the same way, the empty mask as the join unit), and its own
    complex is built only when its classes are asked for.  An instance lives
    for one computation; nothing is cached across calls.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self._complexes: dict[int, CochainComplexQ] = {}
        self._clearing: dict[int, list] = {}
        self._dims: dict[int, dict[int, int]] = {}
        self._classes: dict[tuple[int, int], CohomologyBasis] = {}
        self._faces: dict[tuple[int, int], dict[int, int]] = {}

    def complex(self, mask: int) -> CochainComplexQ:
        cx = self._complexes.get(mask)
        if cx is None:
            cx = self._complexes[mask] = augmented_cochain_complex(
                anticliques(self.graph, mask)
            )
        return cx

    def clearing(self, mask: int) -> list:
        got = self._clearing.get(mask)
        if got is None:
            got = self._clearing[mask] = self.complex(mask).clearing()
        return got

    def dims(self, mask: int) -> dict[int, int]:
        """dim H at each augmented position p (H~^{p-1}), ascending, nonzero only."""
        dims = self._dims.get(mask)
        if dims is None:
            if not mask:
                dims = {0: 1}  # the complex {empty set}, the unit of the join
            else:
                part = self.graph.component_of_lowest(mask)
                if part == mask:
                    dims = self.complex(mask).cohomology_dims(self.clearing(mask))
                else:
                    dims = _join_dims(self.dims(part), self.dims(mask ^ part))
            self._dims[mask] = dims
        return dims

    def classes(self, mask: int, p: int) -> CohomologyBasis:
        got = self._classes.get((mask, p))
        if got is None:
            got = self._classes[(mask, p)] = CohomologyBasis(
                self.complex(mask), p, self.clearing(mask)
            )
        return got

    def face_index(self, mask: int, p: int) -> dict[int, int]:
        """Each face at position p of the complex of mask, to its index there."""
        got = self._faces.get((mask, p))
        if got is None:
            cx = self.complex(mask)
            faces = cx.labels[p] if p < cx.positions else []
            got = self._faces[(mask, p)] = {f: i for i, f in enumerate(faces)}
        return got


# ---------------------------------------------------------------------------
# closed forms: paths, cycles, forests


class HomotopyType:
    """Contractible, or a sphere; Sphere(-1) is the complex {empty set}."""

    __slots__ = ("contractible", "sphere_dim")

    def __init__(self, contractible: bool, sphere_dim: int | None = None):
        self.contractible = contractible
        self.sphere_dim = sphere_dim

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.contractible == other.contractible and self.sphere_dim == other.sphere_dim

    def __hash__(self):
        return hash((self.contractible, self.sphere_dim))

    def __repr__(self):
        return "Contractible" if self.contractible else f"Sphere({self.sphere_dim})"

    def cohomology(self) -> ReducedCohomology:
        if self.contractible:
            return ReducedCohomology({})
        return ReducedCohomology({self.sphere_dim: 1})


CONTRACTIBLE = HomotopyType(True)


def Sphere(k: int) -> HomotopyType:
    return HomotopyType(False, k)


def join(a: HomotopyType, b: HomotopyType) -> HomotopyType:
    """Join rule: spheres add dimensions plus one; contractible absorbs."""
    if a.contractible or b.contractible:
        return CONTRACTIBLE
    return Sphere(a.sphere_dim + b.sphere_dim + 1)


def suspend(a: HomotopyType) -> HomotopyType:
    return join(a, Sphere(0))


def closed_form_path(n: int) -> HomotopyType:
    """Homotopy type of the independence complex of the path of length n.

    Length counts edges, matching the n = 3k / 3k+1 / 3k+2 trichotomy; the
    degenerate n = 0 is fixed to the empty path, whose complex is {empty set}.
    """
    if n < 0:
        raise ValueError("path length must be nonnegative")
    if n == 0:
        return Sphere(-1)
    if n % 3 == 0:
        return CONTRACTIBLE
    return Sphere(n // 3)


def closed_form_cycle(m: int) -> ReducedCohomology:
    if m < 3:
        raise CycleTooSmall(f"cycles need at least 3 vertices, got {m}")
    k, rem = divmod(m, 3)
    if rem == 0:
        return ReducedCohomology({k - 1: 2})
    return ReducedCohomology({k: 1}) if rem == 2 else ReducedCohomology({k - 1: 1})


def forest_homotopy(forest: Graph) -> HomotopyType:
    """Homotopy type of the independence complex of a forest.

    Components are combined by the join rule; within a tree the pendant-path
    reductions are applied at the parent/grandparent of a deepest leaf:
    duplicate leaf siblings collapse, a pendant 2-path next to a pendant leaf
    forces contractibility, twin pendant 2-paths and pendant 3-paths suspend.
    """
    if not forest.is_forest():
        raise NotAForest("graph contains a cycle")
    result = Sphere(-1)
    for comp in forest.components():
        result = join(result, _tree_homotopy(forest.induced(comp)))
        if result.contractible:
            return CONTRACTIBLE
    return result


def _tree_homotopy(tree: Graph) -> HomotopyType:
    v = tree.n_vertices
    if v == 1:
        return CONTRACTIBLE
    if v == 2:
        return Sphere(0)
    full = (1 << v) - 1

    # duplicate pendant leaves collapse (rule for twin 1-paths)
    for x in range(v):
        leaf_nbrs = [w for w in bits(tree.adjacency[x]) if tree.degree(w) == 1]
        if len(leaf_nbrs) >= 2:
            return _tree_homotopy(tree.induced(full & ~(1 << leaf_nbrs[1])))

    # BFS from vertex 0: the last vertex discovered is a deepest leaf.  Its
    # parent p then has no other child, and every sibling subtree at the
    # grandparent g is a pendant leaf or a pendant 2-path.
    parent: dict[int, int | None] = {0: None}
    order = [0]
    for u in order:
        for w in bits(tree.adjacency[u]):
            if w not in parent:
                parent[w] = u
                order.append(w)
    leaf = order[-1]
    p = parent[leaf]
    g = parent[p]
    assert g is not None, "depth >= 2 after the leaf collapse above"
    others = [w for w in bits(tree.adjacency[g]) if w not in (parent[g], p)]
    if any(tree.degree(w) == 1 for w in others):
        # pendant 2-path plus pendant leaf at g: contractible
        return CONTRACTIBLE
    if others:
        # twin pendant 2-paths at g: remove one and suspend
        w = others[0]
        tip = next(x for x in bits(tree.adjacency[w]) if x != g)
        return suspend(_tree_homotopy(tree.induced(full & ~(1 << w | 1 << tip))))
    # pendant 3-path at parent(g): remove it and suspend
    return suspend(_tree_homotopy(tree.induced(full & ~(1 << leaf | 1 << p | 1 << g))))


# ---------------------------------------------------------------------------
# the Mayer-Vietoris connecting map


def mv_delta(
    graph: Graph,
    x_mask: int,
    a: int,
    b: int,
    *,
    memo: _InducedComplexes | None = None,
) -> dict[int, SparseMatrix]:
    """Connecting maps H~^r(I(X)) -> H~^{r+1}(I(X u {a,b})) for all r.

    (a, b) must be an edge of the ambient graph and a, b must lie outside X;
    the cover is I(X u {a,b}) = I(X u a) u I(X u b).  On cochains the map
    sends psi to eta with eta(F) = psi(F minus a) when a is in F (a ordered
    last) and 0 otherwise.  So eta is read off the support of each
    representative psi: a face g of I(X) with psi(g) != 0 that avoids the
    neighbours of a gives the face g u {a} of the larger complex, found in
    the memo's face index, and no other face of it is visited.  Returns
    {r: block}, each block a ``linalg.SparseMatrix`` with columns indexed by
    the basis of H~^r of I(X) and rows by that of H~^{r+1} of the larger
    complex, its nonzeros in ascending row and column order.  Both bases
    are ``linalg.CohomologyBasis``, read off the clearing reduction that
    ranks each complex, and eta's coordinates are taken modulo the
    coboundaries that reduction pivoted.  Both complexes, their bases and
    the face index come from ``memo``, the induced complexes of ``graph``
    (a fresh one if None), so callers that share one build each once; a
    memo of another graph raises ValueError.
    """
    if not graph.has_edge(a, b):
        raise NotAnEdge(f"({a}, {b}) is not an edge")
    if x_mask >> a & 1 or x_mask >> b & 1:
        raise VertexInX("a and b must lie outside X")
    if memo is None:
        memo = _InducedComplexes(graph)
    elif memo.graph is not graph:
        raise ValueError("memo holds the induced complexes of another graph")
    big_mask = x_mask | 1 << a | 1 << b
    a_bit, blocked = 1 << a, graph.adjacency[a]
    out: dict[int, SparseMatrix] = {}
    for p in memo.dims(x_mask):
        faces = memo.complex(x_mask).labels[p]
        src = memo.classes(x_mask, p)
        dst = memo.classes(big_mask, p + 1)
        big_faces = memo.face_index(big_mask, p + 1)
        nonzeros: dict[int, dict[int, Fraction]] = {}
        for j, rep in enumerate(src.representatives):
            eta: dict[int, Fraction] = {}
            for c, v in rep.items():
                g = faces[c]
                if v and not g & blocked:
                    sign = (g >> (a + 1)).bit_count() & 1
                    eta[big_faces[g | a_bit]] = -v if sign else v
            for i, v in enumerate(dst.coordinates(eta)):
                if v:
                    nonzeros.setdefault(i, {})[j] = v
        out[p - 1] = SparseMatrix((dst.dim, src.dim), dict(sorted(nonzeros.items())))
    return out


# ---------------------------------------------------------------------------
# enumeration up to isomorphism (small vertex counts)


def all_graphs(v: int) -> list[Graph]:
    """All simple graphs on v vertices, one per isomorphism class.

    Edge masks are walked in ascending order; the first mask of a class is
    kept and its whole orbit under the v! vertex permutations is marked, so
    each class is relabeled once and every other mask is one lookup.
    """
    pairs = list(itertools.combinations(range(v), 2))
    pair_index = {p: k for k, p in enumerate(pairs)}
    relabelings = [
        [pair_index[(min(perm[i], perm[j]), max(perm[i], perm[j]))] for i, j in pairs]
        for perm in itertools.permutations(range(v))
    ]
    seen = bytearray(1 << len(pairs))
    out = []
    for edge_mask in range(1 << len(pairs)):
        if seen[edge_mask]:
            continue
        present = [k for k in range(len(pairs)) if edge_mask >> k & 1]
        for image in relabelings:
            seen[sum(1 << image[k] for k in present)] = 1
        out.append(Graph.from_edges(v, [pairs[k] for k in present]))
    return out


def connected_graphs(v: int) -> list[Graph]:
    return [g for g in all_graphs(v) if g.is_connected()]


def _tree_canon(graph: Graph) -> str:
    """AHU canonical form of a free tree, rooted at its centroid(s)."""
    verts = list(range(graph.n_vertices))
    adj = {u: bits(graph.adjacency[u]) for u in verts}
    if len(verts) == 1:
        return "()"
    # strip leaves until one or two centroids remain
    deg = {u: len(adj[u]) for u in verts}
    layer = [u for u in verts if deg[u] <= 1]
    removed: set[int] = set()
    remaining = len(verts)
    while remaining > 2:
        nxt = []
        for u in layer:
            removed.add(u)
            remaining -= 1
            for w in adj[u]:
                if w not in removed:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    centers = [u for u in verts if u not in removed]

    def encode(u, par):
        subs = sorted(encode(w, u) for w in adj[u] if w != par)
        return "(" + "".join(subs) + ")"

    if len(centers) == 1:
        return encode(centers[0], None)
    c1, c2 = centers
    return "[" + "".join(sorted([encode(c1, c2), encode(c2, c1)])) + "]"


def trees(v: int) -> list[Graph]:
    """All free trees on v vertices, one per isomorphism class."""
    if v < 1:
        return []
    current = [Graph.from_edges(1, [])]
    for _ in range(2, v + 1):
        seen: dict[str, Graph] = {}
        for tree in current:
            for attach in range(tree.n_vertices):
                pairs = list(tree.edges) + [(attach, tree.n_vertices)]
                cand = Graph.from_edges(tree.n_vertices + 1, pairs)
                seen.setdefault(_tree_canon(cand), cand)
        current = list(seen.values())
    return current


def forests(max_vertices: int) -> list[Graph]:
    """All forests with at most max_vertices vertices, one per iso class."""
    tree_lists = {k: trees(k) for k in range(1, max_vertices + 1)}
    out = [Graph.from_edges(0, [])]

    def build(parts: list[Graph]) -> Graph:
        total = sum(t.n_vertices for t in parts)
        pairs = []
        offset = 0
        for t in parts:
            pairs += [(u + offset, w + offset) for u, w in t.edges]
            offset += t.n_vertices
        return Graph.from_edges(total, pairs)

    def extend(parts, min_size, min_index, budget):
        if parts:
            out.append(build(parts))
        for size in range(min_size, budget + 1):
            start = min_index if size == min_size else 0
            for idx in range(start, len(tree_lists[size])):
                extend(parts + [tree_lists[size][idx]], size, idx, budget - size)

    extend([], 1, 0, max_vertices)
    return out
