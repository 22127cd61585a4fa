"""Independent reference formulas for what the production path computes.

The Hodge tables, pages and point counts of the package come from the
Gysin complex over anticliques (``gysin``, ``filtration``, ``counts``).
This module holds the closed forms and the second constructions they are
checked against, none of which the production path calls:

- ``ExteriorForm`` and ``wedge_sign``: the sparse exterior algebra on dlog
  generators, indexed by bitmasks.  A wedge monomial is a subset of
  generator indices stored as an int bitmask; the monomial means the wedge
  of its generators in increasing index order.  Coefficients are ints or
  Fractions.  All products carry the Koszul sign counted by inversions, and
  repeated generators annihilate.
- the homotopy types of the independence complexes of paths, cycles and
  forests (``closed_form_path``, ``closed_form_cycle``,
  ``forest_homotopy``), with the free trees and forests on few vertices,
  one per isomorphism class (``trees``, ``forests``);
- the one-forms ``alpha``, the standard (diagonal) Poincare polynomial of a
  connected principal quiver, the GSV two-form and the edge classes of the
  weight-2 complex;
- the graded pieces of the filtered Gysin complex, each checked against
  the independence complex it must be.

``import clusterhodge`` does not load this module; the package's
``__getattr__`` imports it the first time one of its exported names is
read.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import (
    ConsistencyError,
    CycleTooSmall,
    NotAForest,
    NotAnEdge,
    NotConnected,
    NotPrincipal,
)
from .exchange import ExtendedExchangeMatrix, is_principal, underlying_graph
from .exterior import bits, mask_of
from .filtration import build_filtered
from .graphs import Graph, ReducedCohomology, _InducedComplexes
from .gysin import GysinBuilder, PositionLabels
from .linalg import CochainComplexQ
from .poly import IntPolynomial


# ---------------------------------------------------------------------------
# the exterior algebra


Coeff = Fraction | int


def wedge_sign(left: int, right: int) -> int:
    """Sign of e_left ^ e_right relative to e_{left|right}; masks disjoint."""
    sign = 1
    t = right
    while t:
        low = t & -t
        bit = low.bit_length() - 1
        if (left >> (bit + 1)).bit_count() & 1:
            sign = -sign
        t ^= low
    return sign


class ExteriorForm:
    """A Q-linear combination of wedge monomials; immutable by convention."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Coeff] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def one(cls) -> "ExteriorForm":
        return cls({0: 1})

    @classmethod
    def generator(cls, i: int) -> "ExteriorForm":
        return cls({1 << i: 1})

    @classmethod
    def monomial(cls, mask: int, coeff: Coeff = 1) -> "ExteriorForm":
        return cls({mask: coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, ExteriorForm) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "ExteriorForm") -> "ExteriorForm":
        out = dict(self.terms)
        for m, c in other.terms.items():
            w = out.get(m, 0) + c
            if w:
                out[m] = w
            else:
                out.pop(m, None)
        return ExteriorForm(out)

    def __sub__(self, other: "ExteriorForm") -> "ExteriorForm":
        return self + other.scale(-1)

    def scale(self, c: Coeff) -> "ExteriorForm":
        if not c:
            return ExteriorForm()
        return ExteriorForm({m: v * c for m, v in self.terms.items()})

    def wedge(self, other: "ExteriorForm") -> "ExteriorForm":
        out: dict[int, Coeff] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if m1 & m2:
                    continue
                m = m1 | m2
                w = out.get(m, 0) + c1 * c2 * wedge_sign(m1, m2)
                if w:
                    out[m] = w
                else:
                    out.pop(m, None)
        return ExteriorForm(out)

    def degree_part(self, d: int) -> "ExteriorForm":
        return ExteriorForm({m: c for m, c in self.terms.items() if m.bit_count() == d})

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            mono = "^".join(f"e{i}" for i in bits(m)) or "1"
            parts.append(f"{self.terms[m]}*{mono}")
        return " + ".join(parts)


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
# trees and forests up to isomorphism (small vertex counts)


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


# ---------------------------------------------------------------------------
# one-forms, the standard basis, the GSV form and edge classes


def alpha(matrix: ExtendedExchangeMatrix, j: int) -> ExteriorForm:
    """The one-form sum_r B~_{rj} dlog x_r attached to a mutable index j;
    a j outside [0, n) is refused with ValueError."""
    if not 0 <= j < matrix.n:
        raise ValueError(f"mutable index j={j} outside [0, {matrix.n})")
    return ExteriorForm({1 << r: matrix.rows[r][j] for r in range(matrix.d)})


def standard_poincare(matrix: ExtendedExchangeMatrix) -> IntPolynomial:
    """Diagonal Poincare polynomial of a connected principal-coefficients case.

    Counts the basis gamma^j ^ (wedge of dlog y_k over k in K) with
    j + |K| <= n, living in degree 2j + |K|.
    """
    if not is_principal(matrix):
        raise NotPrincipal("standard basis needs principal coefficients")
    if not underlying_graph(matrix).is_connected():
        raise NotConnected("standard basis formula needs a connected quiver")
    n = matrix.n
    coeffs = [0] * (2 * n + 1)
    for j in range(n + 1):
        for ksize in range(n - j + 1):
            coeffs[2 * j + ksize] += comb(n, ksize)
    return IntPolynomial.from_coeffs(coeffs)


def gsv_form(matrix: ExtendedExchangeMatrix, component) -> ExteriorForm:
    """GSV two-form of a connected component, skew-completed by zeros.

    Uses the completion B^ with first n columns equal to the exchange matrix
    and zeros in the frozen-by-frozen corner, restricted to the component's
    mutable indices and all frozen indices.
    """
    graph = underlying_graph(matrix)
    comp_mask = mask_of(component)
    if comp_mask not in graph.components():
        raise NotConnected(f"{sorted(bits(comp_mask))} is not a connected component")
    verts = bits(comp_mask)
    terms: dict[int, int] = {}
    for i in verts:
        for jv in verts:
            if i < jv and matrix.rows[i][jv]:
                terms[(1 << i) | (1 << jv)] = matrix.rows[i][jv]
        for r in range(matrix.n, matrix.d):
            if matrix.rows[r][i]:
                key = (1 << i) | (1 << r)
                terms[key] = terms.get(key, 0) - matrix.rows[r][i]
    return ExteriorForm(terms)


def edge_class_cochain(
    matrix: ExtendedExchangeMatrix, a: int, b: int, builder: GysinBuilder | None = None
) -> dict[int, Fraction | int]:
    """The cocycle theta({a}, {b}) at position 1 of the weight-2 complex, as
    its coordinates there: I = {b}'s first cell and A masks are read off
    the position's ``PositionLabels``, made as ``stream_for_s`` makes them."""
    graph = underlying_graph(matrix)
    if not graph.has_edge(a, b):
        raise NotAnEdge(f"({a}, {b}) is not an edge of the quiver graph")
    builder = builder or GysinBuilder(matrix)
    level = builder.family.by_cardinality[1]
    labels = PositionLabels(level, [builder.basis(i).masks_of_degree(2) for i in level])
    k = level.index(1 << b)
    cell = {mask: labels.starts[k] + i for i, mask in enumerate(labels.masks[k])}
    # dlog x_a with a in N(I) is replaced by its substitution
    terms = builder.basis(1 << b).substitution.get(a, {1 << a: 1})
    return {cell[mask]: coeff for mask, coeff in terms.items()}


# ---------------------------------------------------------------------------
# graded pieces


class GradedPiece:
    """The level-preserving part of a filtered Gysin complex at one (D, E)."""

    __slots__ = ("d_set", "e_set", "complex")

    def __init__(
        self, d_set: tuple[int, ...], e_set: tuple[int, ...], complex: CochainComplexQ
    ):
        self.d_set = d_set
        self.e_set = e_set
        self.complex = complex  # position p: the Gysin labels (I, A) with |I| = p

    def cohomology_dims(self) -> dict[int, int]:
        return self.complex.cohomology_dims()


def graded_pieces(matrix: ExtendedExchangeMatrix, s: int) -> list[GradedPiece]:
    """The direct summands gr G(D, E) of the associated graded at weight s.

    Read off the filtered Gysin complex: the label (I, A) lies in the piece
    with D = the frozen part of A as mutable indices and E = (A cap mutable)
    u I, whose level |E| is the label's, and a piece keeps the entries that
    preserve the level (the single +-1 entries from (I, A) to (I u j, A - j),
    j not in D).  A piece must be the augmented cochain complex of the
    anticliques of E minus D: the anticliques I at position p are the family's
    level p, and the cohomology agrees, or ConsistencyError.  Pieces of one
    weight share their vertex masks, so one ``_InducedComplexes`` builds each
    independence complex once.  The filtered complex is checked for d^2 = 0
    first, so its associated graded, the pieces, squares to zero too.
    """
    fc = build_filtered(matrix, s)
    cx, n = fc.complex, matrix.n
    cx.verify_d2()
    labels: dict[tuple[int, int], list[list[tuple[int, int]]]] = {}
    where = {}  # Gysin label -> (piece key, index at its position)
    for p, position in enumerate(cx.labels):
        for i_mask, a_mask in position:
            key = (a_mask >> n, (a_mask & ((1 << n) - 1)) | i_mask)
            piece = labels.setdefault(key, [])
            piece += [[] for _ in range(p + 1 - len(piece))]
            where[(i_mask, a_mask)] = key, len(piece[p])
            piece[p].append((i_mask, a_mask))
    columns = {
        key: [[{} for _ in position] for position in piece[:-1]]
        for key, piece in labels.items()
    }
    for p, cols in enumerate(cx.columns):
        for c, col in enumerate(cols):
            key, cc = where[cx.labels[p][c]]
            for r, v in col.items():
                if fc.levels[p + 1][r] == fc.levels[p][c]:
                    key2, rr = where[cx.labels[p + 1][r]]
                    if key2 != key:
                        raise ConsistencyError("level-preserving entry between pieces")
                    columns[key][p][cc][rr] = v
    induced = _InducedComplexes(underlying_graph(matrix))
    pieces = []
    for d_mask, e_mask in sorted(labels, key=lambda k: (k[0], bits(k[1]))):
        key = (d_mask, e_mask)
        piece = GradedPiece(
            tuple(bits(d_mask)),
            tuple(bits(e_mask)),
            CochainComplexQ(labels[key], columns[key]),
        )
        x_mask = e_mask & ~d_mask
        anticlique_labels = [[i for i, _ in pos] for pos in labels[key]]
        if anticlique_labels != induced.complex(x_mask).labels or (
            piece.cohomology_dims() != induced.dims(x_mask)
        ):
            raise ConsistencyError(
                f"graded piece ({piece.d_set}, {piece.e_set}) "
                "disagrees with the independence complex"
            )
        pieces.append(piece)
    return pieces
