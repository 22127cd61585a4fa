"""Extended exchange matrices: validation, mutation, rank classes, characters.

An extended exchange matrix has n+m rows and n columns with skew-symmetric
top n x n block B; rows n..n+m-1 are frozen.  All indices are 0-based.
The finite character group X* = (B~ Q^n cap Z^{n+m}) / B~ Z^n and each
anticlique subgroup X*(I) are presented through a Smith normal form of the
matrix or of its columns I, with explicit lifts: nothing is listed.
"""

from __future__ import annotations

import enum
import itertools
import math
from fractions import Fraction
from functools import cached_property
from graphlib import CycleError, TopologicalSorter

from .errors import (
    ConsistencyError,
    IndexOutOfRange,
    NotAcyclic,
    NotAnticlique,
    NotFullRank,
    NotSkewSymmetric,
    ShapeMismatch,
    echo_int,
)
from .exterior import bits, mask_of
from .graphs import Graph
from .linalg import Echelon, SmithNormalForm, smith_normal_form, solve_in_span


class ExtendedExchangeMatrix:
    """An (n+m) x n integer matrix: a skew-symmetric top block over m frozen
    rows; immutable by convention."""

    __slots__ = ("n", "m", "rows")

    def __init__(self, n: int, m: int, rows: tuple[tuple[int, ...], ...]):
        self.n = n
        self.m = m
        self.rows = rows

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.m == other.m and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.m, self.rows))

    @property
    def d(self) -> int:
        return self.n + self.m

    def top_block(self) -> list[list[int]]:
        return [list(r) for r in self.rows[: self.n]]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "m": self.m, "rows": [list(r) for r in self.rows]}


def _check_shape_and_skew(rows, n: int, m: int) -> None:
    if n < 0 or m < 0:
        raise ShapeMismatch("n and m must be nonnegative")
    if len(rows) != n + m:
        raise ShapeMismatch(f"expected {echo_int(n + m)} rows, got {len(rows)}")
    for r in rows:
        if len(r) != n:
            raise ShapeMismatch(f"expected {n} columns, got {len(r)}")
    for i in range(n):
        for j in range(i, n):
            if rows[i][j] != -rows[j][i]:
                raise NotSkewSymmetric(i, j)


def validate(matrix, n: int, m: int) -> ExtendedExchangeMatrix:
    """Check shape and skew-symmetry of the top block; return a typed matrix."""
    rows = [list(map(int, r)) for r in matrix]
    _check_shape_and_skew(rows, n, m)
    return ExtendedExchangeMatrix(n, m, tuple(tuple(r) for r in rows))


class RationalExchangeMatrix:
    """Same shape contract as the integer matrix, but rational entries.

    These arise only as intermediate objects (frozen-row changes of basis);
    the complex machinery accepts them interchangeably.
    """

    __slots__ = ("n", "m", "rows")

    def __init__(self, n: int, m: int, rows: tuple[tuple[Fraction, ...], ...]):
        self.n = n
        self.m = m
        self.rows = rows

    @property
    def d(self) -> int:
        return self.n + self.m


def validate_rational(matrix, n: int, m: int) -> RationalExchangeMatrix:
    rows = [[Fraction(x) for x in r] for r in matrix]
    _check_shape_and_skew(rows, n, m)
    return RationalExchangeMatrix(n, m, tuple(tuple(r) for r in rows))


def mutate(matrix: ExtendedExchangeMatrix, k: int) -> ExtendedExchangeMatrix:
    """Matrix mutation in the mutable direction k (0-based)."""
    if not 0 <= k < matrix.n:
        raise IndexOutOfRange(f"mutation index {k} not in [0, {matrix.n})")
    old = matrix.rows
    new = []
    for i in range(matrix.d):
        row = []
        for j in range(matrix.n):
            if i == k or j == k:
                row.append(-old[i][j])
            else:
                ik, kj = old[i][k], old[k][j]
                row.append(old[i][j] + max(ik, 0) * max(kj, 0) - min(ik, 0) * min(kj, 0))
        new.append(tuple(row))
    return ExtendedExchangeMatrix(matrix.n, matrix.m, tuple(new))


class Quiver:
    """The mutable vertices and the arcs (i, j), one per pair with b_ij > 0."""

    __slots__ = ("vertex_count", "arcs")

    def __init__(self, vertex_count: int, arcs: frozenset[tuple[int, int]]):
        self.vertex_count = vertex_count
        self.arcs = arcs


def quiver(matrix: ExtendedExchangeMatrix) -> Quiver:
    arcs = frozenset(
        (i, j)
        for i in range(matrix.n)
        for j in range(matrix.n)
        if matrix.rows[i][j] > 0
    )
    return Quiver(matrix.n, arcs)


def underlying_graph(matrix: ExtendedExchangeMatrix) -> Graph:
    return Graph.from_edges(matrix.n, quiver(matrix).arcs)


def is_acyclic(matrix: ExtendedExchangeMatrix) -> bool:
    """True iff the quiver admits a topological order."""
    order = TopologicalSorter()
    for i, j in quiver(matrix).arcs:
        order.add(j, i)
    try:
        order.prepare()
    except CycleError:
        return False
    return True


class RankClass(enum.Enum):
    NOT_FULL_RANK = "NotFullRank"
    FULL_RANK = "FullRank"
    REALLY_FULL_RANK = "ReallyFullRank"


def _snf(matrix: ExtendedExchangeMatrix) -> SmithNormalForm:
    return smith_normal_form([list(r) for r in matrix.rows])


def rank_class(matrix: ExtendedExchangeMatrix) -> RankClass:
    if matrix.n == 0:
        return RankClass.REALLY_FULL_RANK
    snf = _snf(matrix)
    if snf.rank < matrix.n:
        return RankClass.NOT_FULL_RANK
    if all(d == 1 for d in snf.diag):
        return RankClass.REALLY_FULL_RANK
    return RankClass.FULL_RANK


class FiniteAbelianGroup:
    """Invariant-factor presentation d_1 | d_2 | ... with every d_i >= 2."""

    __slots__ = ("invariant_factors",)

    def __init__(self, invariant_factors: tuple[int, ...]):
        fs = invariant_factors
        if any(d < 2 for d in fs):
            raise ValueError("invariant factors must be >= 2")
        if any(fs[i + 1] % fs[i] for i in range(len(fs) - 1)):
            raise ValueError("each invariant factor must divide the next")
        self.invariant_factors = fs

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1


# ---------------------------------------------------------------------------
# characters


class Character:
    """An element of X*, as canonical residues plus an integer lift."""

    __slots__ = ("coords", "lift")

    def __init__(self, coords: tuple[int, ...], lift: tuple[int, ...]):
        self.coords = coords  # residue per invariant factor > 1
        self.lift = lift  # a representative z in B~ Q^n cap Z^{n+m}


class CharacterSubgroup(FiniteAbelianGroup):
    """X*(I) with one generator per invariant factor, as X* coordinates
    modulo X*'s own factors ``moduli``.  A ``__dict__`` holds ``elements``
    once it is read."""

    __slots__ = ("anticlique", "generators", "moduli", "__dict__")

    def __init__(
        self,
        invariant_factors: tuple[int, ...],
        anticlique: tuple[int, ...],
        generators: tuple[tuple[int, ...], ...],
        moduli: tuple[int, ...],
    ):
        super().__init__(invariant_factors)
        self.anticlique = anticlique
        self.generators = generators
        self.moduli = moduli

    @cached_property
    def elements(self) -> frozenset[tuple[int, ...]]:
        """Every element's coordinates, as sums of multiples of the generators."""
        return frozenset(
            tuple(sum(c * g[i] for c, g in zip(mults, self.generators)) % d
                  for i, d in enumerate(self.moduli))
            for mults in itertools.product(*map(range, self.invariant_factors))
        )

    def contains(self, chi: Character) -> bool:
        return chi.coords in self.elements

    def is_subgroup_of(self, other: "CharacterSubgroup") -> bool:
        return self.elements <= other.elements


class CharacterGroup:
    """X* of a full-rank matrix, with lifts, supports and subgroups.

    Built from one Smith normal form B~ = Pinv S Qinv: the first n columns
    u_i of Pinv span the saturation of the column lattice, and the class of
    u_i has order d_i, so X* = prod Z/d_i with explicit generators.
    """

    def __init__(self, matrix: ExtendedExchangeMatrix):
        self.matrix = matrix
        self._graph = underlying_graph(matrix)
        snf = _snf(matrix)
        if snf.rank < matrix.n:
            raise NotFullRank("X* requires a full-rank exchange matrix")
        self._snf = snf
        self.diag = snf.diag  # all n invariant factors, ones included
        self._nontrivial = [i for i, d in enumerate(self.diag) if d > 1]
        self.group = FiniteAbelianGroup(
            tuple(self.diag[i] for i in self._nontrivial)
        )

    @property
    def order(self) -> int:
        return self.group.order

    def _coords_of_integer_vector(self, z) -> tuple[int, ...] | None:
        """Residue coordinates of z in X*, or None if z is not in B~ Q^n."""
        p = self._snf.p
        t = [sum(p[i][j] * z[j] for j in range(self.matrix.d)) for i in range(self.matrix.d)]
        if any(t[i] for i in range(self.matrix.n, self.matrix.d)):
            return None
        return tuple(t[i] % self.diag[i] for i in self._nontrivial)

    def character_from_lift(self, z) -> Character:
        z = tuple(int(x) for x in z)
        coords = self._coords_of_integer_vector(z)
        if coords is None:
            raise ValueError("lift does not lie in the rational column span")
        return Character(coords, z)

    def character_from_coords(self, coords) -> Character:
        if len(coords) != len(self._nontrivial):
            raise ValueError("wrong number of coordinates")
        coords = tuple(int(c) % self.diag[i] for c, i in zip(coords, self._nontrivial))
        z = [0] * self.matrix.d
        pinv = self._snf.pinv
        for c, i in zip(coords, self._nontrivial):
            for r in range(self.matrix.d):
                z[r] += c * pinv[r][i]
        return Character(coords, tuple(z))

    def elements(self):
        """All characters, identity first, in lexicographic coordinate order."""
        ranges = [range(self.diag[i]) for i in self._nontrivial]
        for coords in itertools.product(*ranges):
            yield self.character_from_coords(coords)

    def support(self, chi: Character) -> frozenset[int]:
        """J(chi): the mutable indices where the solution of z = B~ u is not
        integral, solved by ``solve_in_span`` over the columns of B~."""
        columns = [{r: v for r, v in enumerate(col) if v} for col in zip(*self.matrix.rows)]
        u = solve_in_span(columns, {r: v for r, v in enumerate(chi.lift) if v})
        if u is None:
            raise ValueError("lift does not lie in the rational column span")
        return frozenset(i for i, v in enumerate(u) if v.denominator != 1)

    def subgroup(self, anticlique) -> CharacterSubgroup:
        """X*(I) as a subgroup of X*; I must be an anticlique of the quiver graph.

        X*(I) and lifts of its generators come from the Smith normal form of
        the columns I.  It embeds in X*, so the generators stacked on diag(d_i)
        must span a lattice of index |X*| / |X*(I)|: no element is listed.
        """
        idx = tuple(sorted(int(i) for i in anticlique))
        if not self._graph.is_independent(mask_of(idx)):
            raise NotAnticlique(f"{idx} is not an anticlique")
        sub_snf = smith_normal_form([[row[j] for j in idx] for row in self.matrix.rows])
        gens = tuple(self.character_from_lift([row[t] for row in sub_snf.pinv]).coords
                     for t, dfac in enumerate(sub_snf.diag) if dfac > 1)
        moduli = self.group.invariant_factors
        stacked = [list(c) for c in gens] + [
            [d * (i == j) for j in range(len(moduli))] for i, d in enumerate(moduli)]
        closed = self.order // math.prod(smith_normal_form(stacked).diag) if gens else 1
        sub = CharacterSubgroup(sub_snf.invariant_factors_gt1(), idx, gens, moduli)
        if closed != sub.order:
            raise ConsistencyError(
                f"subgroup closure of {idx} has order {closed}, "
                f"not the Smith normal form order {sub.order}"
            )
        return sub


def _anticlique_subgroups(matrix: ExtendedExchangeMatrix, masks) -> dict[int, CharacterSubgroup]:
    """X*(I) for each anticlique mask I in masks of the quiver graph, from
    one CharacterGroup."""
    group = CharacterGroup(matrix)
    return {i_mask: group.subgroup(bits(i_mask)) for i_mask in masks}


# ---------------------------------------------------------------------------
# reduction of a character component to a smaller plain complex


class ZeroComplex:
    """Sentinel: the character component vanishes identically."""

    __slots__ = ()


ZERO_COMPLEX = ZeroComplex()


class ReducedCharacter:
    """G~[chi] is the plain complex of `matrix`, shifted by (kappa, kappa)."""

    __slots__ = ("kappa", "matrix")

    def __init__(self, kappa: int, matrix: ExtendedExchangeMatrix):
        self.kappa = kappa
        self.matrix = matrix


def reduce_character(
    matrix: ExtendedExchangeMatrix, chi: Character
) -> ReducedCharacter | ZeroComplex:
    """Reduce the chi-component to a plain Gysin complex of a smaller matrix.

    If J(chi) is not an anticlique the component is the zero complex.
    Otherwise, with kappa = |J(chi)| and K the mutable vertices having no
    exchange arrow into J(chi), the component equals the complex of a full
    rank matrix with top block B|_K and n+m-2*kappa rows in total (each
    isolated-vertex elimination removes one mutable and one frozen row).  The
    frozen completion is an identity block when it fits, then zero rows;
    otherwise rows of the original matrix are appended until full rank.
    """
    if not is_acyclic(matrix):
        raise NotAcyclic("character reduction needs an acyclic quiver")
    return _reduce_support(matrix, CharacterGroup(matrix).support(chi))


def _reduce_support(
    matrix: ExtendedExchangeMatrix, support: frozenset[int]
) -> ReducedCharacter | ZeroComplex:
    """``reduce_character`` for every character whose support J(chi) is
    ``support``: the reduction reads nothing of chi but its support.  The
    identity completion is of full rank by construction; the row completion
    has the rank of the ``Echelon`` that holds every row it keeps."""
    j_set = sorted(support)
    if not underlying_graph(matrix).is_independent(mask_of(j_set)):
        return ZERO_COMPLEX
    kappa = len(j_set)
    k_set = [
        i
        for i in range(matrix.n)
        if i not in j_set and all(matrix.rows[i][j] == 0 for j in j_set)
    ]
    nk = len(k_set)
    total_rows = matrix.d - 2 * kappa
    if nk > total_rows:
        raise ConsistencyError(f"K = {k_set} exceeds the {total_rows} reduced rows")
    top = [[matrix.rows[i][j] for j in k_set] for i in k_set]
    rows = [list(r) for r in top]
    if 2 * nk <= total_rows:
        for t in range(nk):
            rows.append([1 if c == t else 0 for c in range(nk)])
    else:
        # append frozen/non-K rows of the source matrix until full column rank
        candidates = [
            [matrix.rows[r][j] for j in k_set]
            for r in range(matrix.d)
            if r >= matrix.n or (r not in k_set and r not in j_set)
        ]
        ech = Echelon()
        for r in rows:
            ech.add(dict(enumerate(r)))
        for cand in candidates:
            if len(rows) == total_rows or ech.rank == nk:
                break
            if ech.add(dict(enumerate(cand))) is not None:
                rows.append(cand)
        if ech.rank < nk:
            raise NotFullRank("could not complete the reduced matrix to full rank")
    while len(rows) < total_rows:
        rows.append([0] * nk)
    return ReducedCharacter(kappa, validate(rows, nk, total_rows - nk))


# ---------------------------------------------------------------------------
# convenience constructors


def principal_matrix(top: list[list[int]]) -> ExtendedExchangeMatrix:
    """[B ; Id_n] for a skew-symmetric integer matrix B."""
    n = len(top)
    rows = [list(r) for r in top] + [
        [1 if j == i else 0 for j in range(n)] for i in range(n)
    ]
    return validate(rows, n, n)


def principal_from_graph(graph: Graph, orientation=None, weights=None) -> ExtendedExchangeMatrix:
    """Principal-coefficients matrix whose quiver has the given graph shape.

    Edges are oriented low-to-high by default; `orientation` may map an edge
    (u, v) with u < v to +1 (u -> v) or -1, and `weights` to a magnitude.
    """
    n = graph.n_vertices
    top = [[0] * n for _ in range(n)]
    for u, v in sorted(graph.edges):
        w = 1 if weights is None else weights.get((u, v), 1)
        s = 1 if orientation is None else orientation.get((u, v), 1)
        top[u][v] = s * w
        top[v][u] = -s * w
    return principal_matrix(top)


def is_principal(matrix: ExtendedExchangeMatrix) -> bool:
    if matrix.m != matrix.n:
        return False
    return all(
        matrix.rows[matrix.n + i][j] == (1 if i == j else 0)
        for i in range(matrix.n)
        for j in range(matrix.n)
    )
