"""Exact linear algebra over Q and Z.

Matrices come in two flavours here:

* sparse: a list of rows, each row a ``dict`` mapping column index to a
  nonzero ``int`` or ``Fraction`` (the map sends x to ``rows @ x``);
* dense: a list of lists of ints (used by the Smith normal form, where the
  unimodular transforms are dense anyway).

Rank computations run fraction-free on arbitrary-precision integers after
clearing denominators row by row; pivots are chosen to limit fill-in and
entry growth.  ``CochainComplexQ`` is the one cochain-complex type of the
package (Gysin complexes, graded pieces and simplicial cochains alike), and
``CohomologyClasses`` its cocycle representatives modulo coboundaries.
The Smith normal form keeps all four transformation matrices
(S = P*A*Q together with the inverses of P and Q) because character lifts
need explicit saturation bases, not just invariant factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import ConsistencyError

Row = dict[int, Fraction | int]


def _scaled_int_row(row: Row) -> dict[int, int]:
    """Clear denominators and divide by the content; rank is unaffected."""
    denom = 1
    for v in row.values():
        if isinstance(v, Fraction):
            denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = {c: int(v * denom) for c, v in row.items() if v}
    if not ints:
        return {}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    return {c: v // g for c, v in ints.items()}


def rank(rows: list[Row]) -> int:
    """Rank of a sparse matrix, by fraction-free Gaussian elimination."""
    work = [_scaled_int_row(r) for r in rows]
    work = [r for r in work if r]
    rk = 0
    while work:
        # Cheapest pivot row first; within it, the sparsest column.
        counts: dict[int, int] = {}
        for r in work:
            for c in r:
                counts[c] = counts.get(c, 0) + 1
        best = min(range(len(work)), key=lambda i: (len(work[i]), min(work[i])))
        prow = work.pop(best)
        pcol = min(prow, key=lambda c: (counts[c], c))
        pval = prow[pcol]
        rk += 1
        nxt = []
        for r in work:
            v = r.get(pcol)
            if v is None:
                nxt.append(r)
                continue
            new = {}
            g = 0
            for c in r.keys() | prow.keys():
                w = r.get(c, 0) * pval - prow.get(c, 0) * v
                if w:
                    new[c] = w
                    g = gcd(g, w)
            if new:
                if g > 1:
                    new = {c: w // g for c, w in new.items()}
                nxt.append(new)
        work = nxt
    return rk


class Echelon:
    """Incremental reduced echelon form over Q for sparse rows.

    Stores pivot rows normalized to leading coefficient 1, keyed by pivot
    column.  Used for rank-relative-to-a-span computations and for solving
    small exact systems.
    """

    def __init__(self) -> None:
        self.pivots: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: Row) -> dict[int, Fraction]:
        out = {c: Fraction(v) for c, v in row.items() if v}
        while out:
            c = min(out)
            piv = self.pivots.get(c)
            if piv is None:
                return out
            coef = out[c]
            for pc, pv in piv.items():
                w = out.get(pc, Fraction(0)) - coef * pv
                if w:
                    out[pc] = w
                else:
                    out.pop(pc, None)
        return out

    def add(self, row: Row) -> dict[int, Fraction] | None:
        """Insert a row; return its reduction, or None if dependent."""
        red = self.reduce(row)
        if not red:
            return None
        c = min(red)
        lead = red[c]
        norm = {k: v / lead for k, v in red.items()}
        self.pivots[c] = norm
        return norm


def rank_relative(base: list[Row], extra: list[Row]) -> tuple[int, list[int]]:
    """rank(base+extra) - rank(base), plus indices of extra rows that grew it."""
    ech = Echelon()
    for r in base:
        ech.add(r)
    grew = []
    for i, r in enumerate(extra):
        if ech.add(r) is not None:
            grew.append(i)
    return len(grew), grew


def nullspace(rows: list[Row], ncols: int) -> list[dict[int, Fraction]]:
    """Basis of {x : rows @ x = 0}, as sparse vectors over Q.

    Works on the column vectors of the matrix, augmented past position
    ``len(rows)`` with an identity marker; a column combination that kills
    the left block is a kernel vector, read off from the markers.
    """
    shift = len(rows)
    ech = Echelon()
    kernel = []
    for c in range(ncols):
        vec: Row = {i: row[c] for i, row in enumerate(rows) if row.get(c)}
        vec[shift + c] = 1
        red = ech.add(vec)
        if red is not None and min(red) >= shift:
            kernel.append({k - shift: v for k, v in red.items()})
    return kernel


def solve_in_span(vectors: list[Row], target: Row) -> list[Fraction] | None:
    """Coefficients expressing target as a combination of vectors, or None.

    The returned list has one coefficient per input vector (zeros included).
    """
    size = 0
    for v in vectors:
        if v:
            size = max(size, max(v) + 1)
    if target:
        size = max(size, max(target) + 1)
    ech = Echelon()
    for i, v in enumerate(vectors):
        row = {c: Fraction(x) for c, x in v.items() if x}
        row[size + i] = Fraction(1)
        ech.add(row)
    red = ech.reduce(dict(target))
    if any(c < size for c in red):
        return None
    coeffs = [Fraction(0)] * len(vectors)
    for c, v in red.items():
        coeffs[c - size] = -v
    return coeffs


# ---------------------------------------------------------------------------
# cochain complexes of based rational vector spaces


@dataclass
class CochainComplexQ:
    """Positions 0..P with labeled bases; differentials stored column-wise.

    ``columns[p][c]`` is the image of basis vector c of position p as a
    sparse vector over the basis of position p+1.  Labels are opaque to the
    linear algebra: Gysin complexes label by (anticlique, A) mask pairs,
    simplicial cochain complexes by faces.
    """

    labels: list[list]
    columns: list[list[Row]]

    def dim(self, p: int) -> int:
        if 0 <= p < len(self.labels):
            return len(self.labels[p])
        return 0

    @property
    def positions(self) -> int:
        return len(self.labels)

    def differential_rank(self, p: int) -> int:
        if not (0 <= p < len(self.columns)):
            return 0
        return rank(self.columns[p])

    def verify_d2(self) -> None:
        for p in range(len(self.columns) - 1):
            nxt = self.columns[p + 1]
            for col in self.columns[p]:
                acc: Row = {}
                for mid, coeff in col.items():
                    for row, c2 in nxt[mid].items():
                        w = acc.get(row, 0) + coeff * c2
                        if w:
                            acc[row] = w
                        else:
                            acc.pop(row, None)
                if acc:
                    raise ConsistencyError("differential does not square to zero")

    def cohomology_dims(self) -> dict[int, int]:
        out = {}
        ranks = [self.differential_rank(p) for p in range(self.positions)]
        for p in range(self.positions):
            prev = ranks[p - 1] if p > 0 else 0
            h = self.dim(p) - ranks[p] - prev
            if h:
                out[p] = h
        return out

    def rows_at(self, p: int) -> list[Row]:
        """The differential out of position p, as rows over its basis."""
        rows: list[Row] = [dict() for _ in range(self.dim(p + 1))]
        if 0 <= p < len(self.columns):
            for c, col in enumerate(self.columns[p]):
                for r, v in col.items():
                    rows[r][c] = v
        return rows

    def cohomology_basis(self, p: int) -> "CohomologyClasses":
        return CohomologyClasses(self, p)


class CohomologyClasses:
    """Cocycle representatives of H^p with coordinates modulo coboundaries."""

    def __init__(self, cx: CochainComplexQ, p: int):
        self.p = p
        cocycles = nullspace(cx.rows_at(p), cx.dim(p))
        incoming = cx.columns[p - 1] if 0 < p <= len(cx.columns) else []
        self._span = [col for col in incoming if col]
        _, grew = rank_relative(self._span, cocycles)
        self.representatives = [cocycles[i] for i in grew]

    @property
    def dim(self) -> int:
        return len(self.representatives)

    def coordinates(self, vector: Row) -> list[Fraction]:
        coeffs = solve_in_span(self.representatives + self._span, vector)
        if coeffs is None:
            raise ValueError("vector is not a cocycle at this position")
        return coeffs[: len(self.representatives)]


# ---------------------------------------------------------------------------
# dense integer matrices and the Smith normal form


def identity(k: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = len(b[0]) if b else 0
    return [
        [sum(ar[k] * b[k][j] for k in range(len(b))) for j in range(cols)]
        for ar in a
    ]


@dataclass(frozen=True)
class SmithNormalForm:
    """S = P @ A @ Q with P, Q unimodular; A = Pinv @ S @ Qinv.

    ``diag`` lists the invariant factors d_1 | d_2 | ... (nonzero ones only),
    so ``len(diag)`` is the rank of A.
    """

    diag: tuple[int, ...]
    p: list[list[int]]
    pinv: list[list[int]]
    q: list[list[int]]
    qinv: list[list[int]]
    nrows: int
    ncols: int

    @property
    def rank(self) -> int:
        return len(self.diag)

    def invariant_factors_gt1(self) -> tuple[int, ...]:
        return tuple(d for d in self.diag if d > 1)


def smith_normal_form(matrix: list[list[int]]) -> SmithNormalForm:
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    a = [list(map(int, row)) for row in matrix]
    p, pinv = identity(nrows), identity(nrows)
    q, qinv = identity(ncols), identity(ncols)

    def row_add(i, j, k):  # row i += k * row j
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        p[i] = [x + k * y for x, y in zip(p[i], p[j])]
        for r in pinv:
            r[j] -= k * r[i]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        p[i], p[j] = p[j], p[i]
        for r in pinv:
            r[i], r[j] = r[j], r[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        p[i] = [-x for x in p[i]]
        for r in pinv:
            r[i] = -r[i]

    def col_add(j, i, k):  # col j += k * col i
        for r in a:
            r[j] += k * r[i]
        for r in q:
            r[j] += k * r[i]
        qinv[i] = [x - k * y for x, y in zip(qinv[i], qinv[j])]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in q:
            r[i], r[j] = r[j], r[i]
        qinv[i], qinv[j] = qinv[j], qinv[i]

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        # locate a pivot of minimal absolute value in the trailing block
        pivot = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        if a[t][t] < 0:
            row_neg(t)

        dirty = False
        for i in range(t + 1, nrows):
            if a[i][t]:
                qk = a[i][t] // a[t][t]
                row_add(i, t, -qk)
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, ncols):
            if a[t][j]:
                qk = a[t][j] // a[t][t]
                col_add(j, t, -qk)
                if a[t][j]:
                    dirty = True
        if dirty:
            continue  # smaller remainders appeared; pick a new pivot

        # enforce divisibility of the remaining block by the pivot
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % a[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        t += 1

    diag = tuple(a[i][i] for i in range(limit) if i < limit and a[i][i])
    return SmithNormalForm(diag, p, pinv, q, qinv, nrows, ncols)
