"""Exact linear algebra over Q and Z.

Matrices come in three formats here:

* sparse: a list of rows, each row a ``dict`` mapping column index to a
  nonzero ``int`` or ``Fraction`` (the map sends x to ``rows @ x``);
* dense: a list of lists of ints (used by the Smith normal form, where the
  unimodular transforms are dense anyway);
* ``SparseMatrix``: a shape and the nonzeros {row: {column: value}}, read
  as dense ``Fraction`` rows (the Mayer-Vietoris blocks of ``graphs`` and
  the E_1 and spectral-sequence differentials of ``filtration``).

All sparse elimination is ``Echelon``'s, fraction-free over the integers;
``rank``, ``nullspace`` and ``solve_in_span`` drive it and read answers
over Q off its integer rows.  Only a row holding a ``Fraction`` has its
denominators cleared; a step on a pivot that leads with 1 scales nothing,
and the content is divided out after each step that scaled the row and
when the row stops.  Every step scales by a positive factor, so the rows
that stop, and so the pivots, are those of dividing the content after
every step.  ``CochainComplexQ`` is the one
cochain-complex type of the package (Gysin complexes, graded pieces and
simplicial cochains alike); its ``clearing`` reduces the differentials in
order with clearing, which needs d^2 = 0, and ``cohomology_dims`` reads the
ranks off that reduction.  ``CohomologyBasis`` takes the cocycle
representatives of H^p from the same reduction (the columns of d_p left
after clearing, reduced once more with their combinations kept) and gives
coordinates modulo the coboundaries that d_{p-1} pivoted.  One Morse
reducer, ``morse_reduce_positions``, collapses a complex along an acyclic
matching of unit entries to its critical cells, checking d^2 = 0 on both
sides: it takes the complex one position at a time and holds two positions
of columns, checking and finishing each position as the next one arrives.
On the input it pushes d^2 on every column but the matched targets: a
target's push is a combination of pushes already checked zero, since the
matching below it passed the unit and cycle checks, so the verdict is that
of every column.  ``morse_reduce`` feeds it the positions of a stored
complex; ``verify_d2`` pushes every column.
Cells that carry no work get their outcome without arithmetic, the same
verdicts and pivots as with it: ``_check_square`` decides a column of at
most one entry by whether that entry's next column is empty, the Morse
reducer reads its critical cells off a mark per cell and gives an empty
critical column the empty image, ``clearing`` offers no empty column to
``Echelon``, and ``Echelon.reduce`` returns a row whose content is known
to be 1 without another gcd.
The Smith normal form keeps three transformation matrices (S = P*A*Q
together with the inverse of P) because character lifts need explicit
saturation bases, not just invariant factors.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import compress
from math import gcd, lcm

from .errors import ConsistencyError

Row = dict[int, Fraction | int]


def _primitive(row: Row) -> dict[int, int]:
    """Clear denominators and divide by the content; the span is unaffected.

    An all-``int`` row is only divided by its content; ``gcd`` refuses a
    ``Fraction``, and a row holding one clears its denominators first.
    """
    try:
        g = gcd(*row.values())
    except TypeError:
        denom = lcm(*(v.denominator for v in row.values()))
        row = {c: v.numerator * (denom // v.denominator) for c, v in row.items() if v}
        g = gcd(*row.values())
    if g > 1:
        return {c: v // g for c, v in row.items() if v}
    return {c: v for c, v in row.items() if v} if 0 in row.values() else dict(row)


class Echelon:
    """Incremental row echelon form of sparse rows, fraction-free over Z.

    Rows over Q enter with their denominators cleared and their content
    divided out.  Each step replaces ``row`` by ``row*a - piv*b``, where
    a/b is piv[c]/row[c] in lowest terms; a step on a pivot that leads with
    1 takes no gcd and does no scaling.  The content is divided out right
    after a step that multiplied the row by a > 1, which bounds coefficient
    growth, and once more when the row stops.  Every step multiplies the
    row by a positive factor, so a row has the same support after each step
    wherever its content was divided, and the row that stops is its one
    primitive integer multiple by a positive factor: the same keys, values
    and key order as when the content is divided after every step.  Pivot
    rows are primitive with a positive leading entry, keyed by leading
    column; which rows are dependent depends only on the insertion order.
    """

    def __init__(self) -> None:
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: Row) -> dict[int, int]:
        """Primitive multiple of row minus pivot rows, with no pivot at its lead.

        Empty when the row lies in the span of the pivot rows.  A row that
        took no step is returned as ``_primitive`` left it, and a row whose
        last step scaled it had its content divided right then: both are
        primitive already, and take no second gcd.
        """
        out = _primitive(row)
        pivots = self.pivots
        primitive = True  # out's content is 1: no step yet, or its content divided
        while out:
            c = min(out)
            piv = pivots.get(c)
            if piv is None:
                if primitive:
                    return out
                g = gcd(*out.values())
                return {k: v // g for k, v in out.items()} if g > 1 else out
            a, b = piv[c], out[c]
            if a != 1:
                g = gcd(a, b)
                a, b = a // g, b // g
                if a != 1:
                    out = {k: v * a for k, v in out.items()}
            for k, v in piv.items():
                w = out.get(k, 0) - b * v
                if w:
                    out[k] = w
                else:
                    del out[k]
            if a != 1 and out:
                g = gcd(*out.values())
                if g > 1:
                    out = {k: v // g for k, v in out.items()}
            primitive = a != 1
        return out

    def add(self, row: Row) -> dict[int, int] | None:
        """Insert a row; return its pivot row, or None if dependent."""
        red = self.reduce(row)
        if not red:
            return None
        c = min(red)
        if red[c] < 0:
            red = {k: -v for k, v in red.items()}
        self.pivots[c] = red
        return red


def rank(rows: list[Row]) -> int:
    """Rank of a sparse matrix."""
    ech = Echelon()
    for r in rows:
        ech.add(r)
    return ech.rank


def nullspace(rows: list[Row], ncols: int) -> list[dict[int, Fraction]]:
    """Basis of {x : rows @ x = 0}, as sparse vectors over Q.

    Works on the column vectors of the matrix, augmented past position
    ``len(rows)`` with an identity marker; a column combination that kills
    the left block is a kernel vector, read off from the markers and scaled
    to leading coefficient 1.
    """
    shift = len(rows)
    cols: list[Row] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for c, v in row.items():
            if v and c < ncols:
                cols[c][i] = v
    ech = Echelon()
    kernel = []
    for c, vec in enumerate(cols):
        vec[shift + c] = 1
        red = ech.add(vec)
        if red is not None and (lead := min(red)) >= shift:
            kernel.append({k - shift: Fraction(v, red[lead]) for k, v in red.items()})
    return kernel


def solve_in_span(vectors: list[Row], target: Row) -> list[Fraction] | None:
    """Coefficients expressing target as a combination of vectors, or None.

    The returned list has one coefficient per input vector (zeros included).
    Every vector, and the target, carries a marker column of its own; the
    target's marker holds the factor its integer reduction was scaled by.
    """
    size = max((max(v) + 1 for v in (*vectors, target) if v), default=0)
    ech = Echelon()
    for i, v in enumerate(vectors):
        row = dict(v)
        row[size + i] = 1
        ech.add(row)
    marker = size + len(vectors)
    row = dict(target)
    row[marker] = 1
    red = ech.reduce(row)
    if min(red) < size:
        return None
    scale = red.pop(marker)
    coeffs = [Fraction(0)] * len(vectors)
    for c, v in red.items():
        coeffs[c - size] = Fraction(-v, scale)
    return coeffs


_ZERO = Fraction(0)


class SparseMatrix(Sequence):
    """A read-only matrix stored as its nonzeros and read as dense rows.

    ``shape`` is (rows, columns) and ``nonzeros`` is {row: {column: value}},
    with no zero stored.  Indexing (negative and slices too) and iteration
    build each row afresh as a list, zeros as Fraction(0), so the matrix
    reads as the list of lists it stands for and compares equal to it;
    sparse readers walk ``nonzeros`` instead.
    """

    __slots__ = ("_shape", "_nonzeros")

    def __init__(self, shape: tuple[int, int], nonzeros: dict[int, dict[int, Fraction]]):
        self._shape = shape
        self._nonzeros = nonzeros

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def nonzeros(self) -> dict[int, dict[int, Fraction]]:
        return self._nonzeros

    def __len__(self) -> int:
        return self._shape[0]

    def _row(self, i: int) -> list[Fraction]:
        row = [_ZERO] * self._shape[1]
        for j, v in self._nonzeros.get(i, {}).items():
            row[j] = v
        return row

    def __getitem__(self, i):
        rows = range(self._shape[0])[i]  # i read as a list reads it
        return list(map(self._row, rows)) if isinstance(rows, range) else self._row(rows)

    def __iter__(self):
        return map(self._row, range(self._shape[0]))

    def __eq__(self, other):
        if isinstance(other, SparseMatrix):
            return self._shape == other._shape and self._nonzeros == other._nonzeros
        if isinstance(other, list):
            return len(other) == self._shape[0] and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"SparseMatrix({self._shape!r}, {self._nonzeros!r})"


# ---------------------------------------------------------------------------
# cochain complexes of based rational vector spaces


class CochainComplexQ:
    """Positions 0..P with labeled bases; differentials stored column-wise.

    ``columns[p][c]`` is the image of basis vector c of position p as a
    sparse vector over the basis of position p+1.  Labels are opaque to the
    linear algebra: Gysin complexes label by (anticlique, A) mask pairs,
    simplicial cochain complexes by faces.  ``matching[p]``, where present,
    pairs cells c of position p with cells t of position p+1 joined by a unit
    entry columns[p][c][t] = +-1, for ``morse_reduce``; it defaults to a
    fresh empty list.  Building a complex checks nothing: ``verify_d2``, or
    the Morse reducer, checks d^2 = 0.
    """

    __slots__ = ("labels", "columns", "matching")

    def __init__(
        self,
        labels: list[list],
        columns: list[list[Row]],
        matching: list[dict[int, int]] | None = None,
    ):
        self.labels = labels
        self.columns = columns
        self.matching = [] if matching is None else matching

    def dim(self, p: int) -> int:
        if 0 <= p < len(self.labels):
            return len(self.labels[p])
        return 0

    @property
    def positions(self) -> int:
        return len(self.labels)

    @property
    def euler_characteristic(self) -> int:
        return sum((-1) ** p * len(pos) for p, pos in enumerate(self.labels))

    def verify_d2(self) -> None:
        """Raise ConsistencyError unless every key of each differential d_p,
        the top one included, lies in [0, dim C^{p+1}) and d^2 = 0."""
        for p, cols in enumerate(self.columns):
            keyed = list(filter(None, cols))
            if keyed and (min(map(min, keyed)) < 0 or max(map(max, keyed)) >= self.dim(p + 1)):
                raise ConsistencyError(f"d_{p} has an entry outside position {p + 1}")
        for cols, nxt in zip(self.columns, self.columns[1:]):
            _check_square(cols, nxt)

    def clearing(self) -> list[dict[int, dict[int, int]]]:
        """The ``Echelon`` pivots of each differential's columns, d_0 first,
        reduced with clearing (Chen-Kerber 2011); needs d^2 = 0.

        The pivot rows of d_{p-1} are coboundaries, one led by each of their
        keys c, so column c of d_p lies in the span of the columns after it
        and is skipped.  The columns left are the h^p dependent ones plus one
        per pivot of d_p.  That is exact only when d_p d_{p-1} = 0; callers
        whose differentials are not square-zero by construction verify it
        first.  An empty column is not offered to the ``Echelon``: it would
        reduce to nothing, add no pivot and leave the pivots and their order
        as they are.
        """
        out = []
        cleared: dict[int, dict[int, int]] = {}
        for cols in self.columns:
            ech = Echelon()
            for c, col in enumerate(cols):
                if col and c not in cleared:
                    ech.add(col)
            cleared = ech.pivots
            out.append(cleared)
        return out

    def cohomology_dims(self, clearing: list | None = None) -> dict[int, int]:
        """dim H^p for every p with nonzero cohomology, which is dim C^p less
        the ranks of d_p and d_{p-1}, read off ``clearing`` (this complex's
        ``clearing()``, computed here when not given); needs d^2 = 0, and a
        malformed complex's negative dimension raises ConsistencyError."""
        if clearing is None:
            clearing = self.clearing()
        out = {}
        below = 0
        for p in range(self.positions):
            rank = len(clearing[p]) if p < len(clearing) else 0
            h = self.dim(p) - rank - below
            if h:
                if h < 0:
                    raise ConsistencyError(f"dim H^{p} = {h} is negative")
                out[p] = h
            below = rank
        return out


_PENDING = object()  # marks a flow being computed
_CHECKED = object()  # marks a matched target that no critical cell reaches

# one position of a complex, in order: its labels, its columns (None at the
# top) and its matching into the position above
Position = tuple[Sequence, list[Row] | None, dict[int, int]]


def _check_square(cols: list[Row], nxt: list[Row], pushed: bytes | None = None) -> None:
    """Raise ConsistencyError unless every column of cols, pushed through
    nxt (the differential out of the position it lands in), is zero.

    ``pushed``, where given, has a byte per column and only the columns
    whose byte is nonzero are pushed; the Morse reducer leaves out the
    matched targets, whose push is a combination of pushes it has checked
    (``morse_reduce_positions``).  ``verify_d2`` pushes every column.

    A column of at most one entry is decided without arithmetic: the
    accumulation stores every product it meets first, a stored zero's too,
    and one entry's products land on distinct rows, so the push is nonzero
    exactly when that entry's next column is nonempty.
    """
    for col in cols if pushed is None else compress(cols, pushed):
        if len(col) < 2:
            for mid in col:
                if nxt[mid]:
                    raise ConsistencyError("differential does not square to zero")
            continue
        acc: Row = {}
        for mid, coeff in col.items():
            for row, c2 in nxt[mid].items():
                if row in acc:
                    w = acc[row] + coeff * c2
                    if w:
                        acc[row] = w
                    else:
                        del acc[row]
                else:
                    acc[row] = coeff * c2
        if acc:
            raise ConsistencyError("differential does not square to zero")


def morse_reduce(cx: CochainComplexQ) -> tuple[CochainComplexQ, list[list[int]]]:
    """The Morse complex of cx along ``cx.matching``, and the places in cx
    of its cells, ascending, per position: ``morse_reduce_positions`` over
    the positions of cx, which checks d^2 = 0 on cx as it goes.  An empty
    matching leaves every cell critical and gives cx back as a new complex.
    """
    return morse_reduce_positions(
        (
            labels,
            cx.columns[p] if p < len(cx.columns) else None,
            cx.matching[p] if p < len(cx.matching) else {},
        )
        for p, labels in enumerate(cx.labels)
    )


def morse_reduce_positions(
    positions: Iterable[Position],
) -> tuple[CochainComplexQ, list[list[int]]]:
    """The Morse complex (algebraic Morse theory) of a complex given one
    position at a time, and the places of its cells, ascending, per position.

    Each position comes as (labels, columns, matching): its cells' labels,
    the images of its cells one position up (None at the top) and its
    matched pairs, cell -> cell one position up, joined by unit entries.
    The unmatched (critical) cells span the Morse complex, labels kept.  Its
    differential from a critical c to a critical c' one position up sums,
    over every zig-zag path c -> t_1 <- c_1 -> t_2 <- ... -> c' whose steps
    t_i <- c_i go back along matched pairs, the product of the entries going
    up times -1/d(c_i)[t_i] for each step back (Skoldberg, Trans. AMS 358, 2006;
    Kozlov, Combinatorial Algebraic Topology, ch. 11).  The matched entries
    are +-1, so nothing is divided and integer complexes stay integral.

    When position p arrives, position p - 1 is finished in turn: d^2 = 0
    against the columns of p on every column of p - 1 but its matched
    targets; each cell matched at most once and each matched entry a unit;
    every matched target of p walked for cycles and the flows computed
    (``_flows``); then the Morse columns of p - 1 are emitted and its
    columns dropped, so at most two positions of columns are held.

    Leaving out the matched targets changes no verdict (Skoldberg 2006).
    C^{p-1} has the basis of its critical cells, its cells matched up and
    d(s) for each s matched into p - 1: the matching into p - 1 passed its
    unit and cycle checks when p - 1 arrived, so the targets are
    unit-triangular in the images of their partners.  Each partner s is
    matched up, so not a target, and its column was pushed when p - 1
    arrived: d^2(d(s)) = d(d^2(s)) = 0.  So d^2 vanishes on every column of
    p - 1 exactly when it vanishes on the columns pushed, and an input fails
    at the same position with the same message as when every column is
    pushed.  Every cell is still written and every column read: a target's
    column is the next column its partner is pushed through.  The marks (a
    byte per cell, 0 on a matched target) are set in the walk over the
    matching that clears the critical marks.

    The critical cells of p are read off a bytearray with a mark per cell,
    cleared for the matched ones, and a critical column that is empty has
    the empty Morse image, made without ``_morse_image``.  A pair whose
    entry is not +-1 (a matched cell or target outside its position, or any
    at the top, too), a cell matched twice or a cycle raises
    ConsistencyError, as d^2 != 0 does, and so does a key outside the next
    position that the d^2 push reads past its end or a Morse image would
    drop; neither check reads a key that a well-formed complex would not
    read anyway.  The Morse complex has the same cohomology as the input.
    Last, d^2 = 0 is checked on the Morse complex (clearing ranks exactly
    only then), and its Euler characteristic against the input's cell
    counts.
    """
    labels: list[list] = []
    columns: list[list[Row]] = []
    kept: list[list[int]] = []
    euler = 0
    # position p - 1: its columns, its matching, its critical cells' places
    # and a byte per cell, 0 on its matched targets
    cols_below: list[Row] | None = None
    up_below: dict[int, int] = {}
    critical_below: dict[int, int] = {}
    pushed_below = b""
    for p, (pos_labels, cols, up) in enumerate(positions):
        euler += -len(pos_labels) if p & 1 else len(pos_labels)
        if cols_below is not None and cols is not None:
            try:
                _check_square(cols_below, cols, pushed_below)
            except IndexError:  # a pushed key past position p
                raise ConsistencyError(f"d_{p - 1} has an entry outside position {p}") from None
        partner = {t: c for c, t in up_below.items()}  # matched target -> partner
        if len(partner) != len(up_below) or not partner.keys().isdisjoint(up):
            raise ConsistencyError("a cell is matched twice")
        if up and cols is None:  # the top position: its targets lie in no position
            raise ConsistencyError("a matched entry is not a unit")
        for matched in (up, partner):  # its cells matched up, then its targets
            # a matched cell outside the position has no unit entry
            if matched and (min(matched) < 0 or max(matched) >= len(pos_labels)):
                raise ConsistencyError("a matched entry is not a unit")
        pushed = bytearray(b"\x01") * len(pos_labels)
        for t in partner:
            pushed[t] = 0
        unmatched = pushed.copy()
        for c in up:
            unmatched[c] = 0
        cells = list(compress(range(len(pos_labels)), unmatched))
        critical = {c: k for k, c in enumerate(cells)}
        if cols_below is not None:
            size = len(pos_labels)
            flows = _flows(cols_below, partner, critical, critical_below, size)
            columns.append(
                [
                    _morse_image(col, None, critical, flows, 1, size)
                    if (col := cols_below[c])
                    else {}
                    for c in critical_below
                ]
            )
        labels.append([pos_labels[c] for c in cells])
        kept.append(cells)
        cols_below, up_below, critical_below, pushed_below = cols, up, critical, pushed
    morse = CochainComplexQ(labels, columns)
    morse.verify_d2()
    if morse.euler_characteristic != euler:
        raise ConsistencyError("the Morse complex changes the Euler characteristic")
    return morse, kept


def _morse_image(
    col: Row,
    t: int | None,
    critical: dict[int, int],
    flows: dict[int, Row],
    scale: int,
    size: int,
) -> Row:
    """scale * col, less its entry at t, over the critical places: a critical
    cell goes to its place, a matched target is replaced by its flow, and a
    cell matched upward is dropped, as is a target whose flow is zero.  A key
    dropped must be a cell of the position, in [0, size), or ConsistencyError."""
    acc: Row = {}
    for z, v in col.items():
        k = critical.get(z)
        if k is not None:
            acc[k] = acc.get(k, 0) + scale * v
        elif z != t and (flow := flows.get(z)):
            v *= scale
            for k, f in flow.items():
                acc[k] = acc.get(k, 0) + v * f
        elif not 0 <= z < size:
            raise ConsistencyError("a differential has an entry outside the next position")
    return {k: v for k, v in acc.items() if v} if 0 in acc.values() else acc


def _flows(
    cols: list[Row],
    partner: dict[int, int],
    critical: dict[int, int],
    sources: dict[int, int],
    size: int,
) -> dict[int, Row]:
    """The flows of the matched targets that the columns ``sources`` reach;
    ``size`` is the number of cells the columns' keys index.

    A flow is kept for each matched target t that a source column reaches:
    the combination of critical cells that t stands for, -d(c)[t] times the
    image of its partner c less t itself, its other matched targets replaced
    by their flows.  A target whose partner's column holds t alone has the
    zero flow and no successor, and keeps no entry.  A successor of t is a
    matched target other than t in the column of t's partner, read from
    that column as the walk goes.  Flows are computed depth first with an
    explicit stack and an in-progress mark; a target met again while its
    flow is in progress closes a cycle.  A cycle that no source reaches
    still breaks the reduction, so every other matched target is walked
    too, without arithmetic.  Each matched entry is checked to be a unit
    first.
    """
    # each matched target whose partner's column holds more than the target
    branching: dict[int, Row] = {}
    for t, c in partner.items():
        col = cols[c]
        if col.get(t) not in (1, -1):
            raise ConsistencyError("a matched entry is not a unit")
        if len(col) > 1:
            branching[t] = col
    flows: dict = {}
    reached = [z for c in sources for z in cols[c] if z in branching]
    for keep, starts in ((True, reached), (False, branching)):
        for start in starts:
            if start in flows:
                continue
            flows[start] = _PENDING
            stack = [start]
            while stack:
                t = stack[-1]
                col = branching[t]
                for z in col:
                    if z in branching and z != t:
                        state = flows.get(z)
                        if state is None:
                            flows[z] = _PENDING
                            stack.append(z)
                            break
                        if state is _PENDING:
                            raise ConsistencyError("the matching has a cycle")
                else:
                    stack.pop()
                    # the step back along (partner, t) weighs -1/u = -u for a unit u
                    flows[t] = (
                        _morse_image(col, t, critical, flows, -col[t], size) if keep else _CHECKED
                    )
    return flows


class CohomologyBasis:
    """Cocycle representatives of a basis of H^p, read off the clearing
    reduction of the complex, with coordinates modulo coboundaries.

    ``clearing`` is the complex's ``clearing()``.  The columns of d_p that
    the pivots of d_{p-1} do not clear are reduced once more, each carrying
    a marker column for its own cell past dim C^{p+1}; the h^p of them that
    reduce to markers alone are cocycles, and their marker parts are the
    representatives.  With the pivot rows of d_{p-1} they span ker d_p: the
    pivot rows are coboundaries with distinct leads on the cleared cells,
    where every representative vanishes, so the two sets together are
    rank d_{p-1} + h^p = dim ker d_p independent cocycles.  So the
    representatives are a basis modulo coboundaries.  For coordinates one
    ``Echelon`` is seeded with the pivot rows of d_{p-1} as they stand, and
    each representative is added with a marker of its own; a cocycle
    reduced against it is left with markers only, which give its
    coordinates.
    """

    def __init__(self, cx: CochainComplexQ, p: int, clearing: list[dict[int, dict[int, int]]]):
        self.p = p
        self.width = cx.dim(p)
        cleared = clearing[p - 1] if 0 < p <= len(clearing) else {}
        shift = cx.dim(p + 1)
        cols = cx.columns[p] if p < len(cx.columns) else [{}] * self.width
        kernel = Echelon()
        self.representatives: list[dict[int, int]] = []
        for c, col in enumerate(cols):
            if c not in cleared:
                red = kernel.add({**col, shift + c: 1})
                if red is not None and min(red) >= shift:
                    self.representatives.append({k - shift: v for k, v in red.items()})
        self._ech = Echelon()
        self._ech.pivots = dict(cleared)
        for i, rep in enumerate(self.representatives):
            self._ech.add({**rep, self.width + i: 1})

    @property
    def dim(self) -> int:
        return len(self.representatives)

    def coordinates(self, vector: Row) -> list[Fraction]:
        """c with vector - sum_i c_i representatives[i] a coboundary; raises
        ValueError when vector is not a cocycle at this position."""
        if any(v for c, v in vector.items() if c >= self.width):
            raise ValueError("vector is not a cocycle at this position")
        marker = self.width + self.dim
        red = self._ech.reduce({**vector, marker: 1})
        if min(red) < self.width:
            raise ValueError("vector is not a cocycle at this position")
        scale = red.pop(marker)
        coeffs = [Fraction(0)] * self.dim
        for c, v in red.items():
            coeffs[c - self.width] = Fraction(-v, scale)
        return coeffs


# ---------------------------------------------------------------------------
# dense integer matrices and the Smith normal form


def identity(k: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


class SmithNormalForm:
    """S = P @ A @ Q with P, Q unimodular, and Pinv the inverse of P.

    ``diag`` lists the invariant factors d_1 | d_2 | ... (nonzero ones only),
    so ``len(diag)`` is the rank of A.
    """

    __slots__ = ("diag", "p", "pinv", "q", "nrows", "ncols")

    def __init__(
        self,
        diag: tuple[int, ...],
        p: list[list[int]],
        pinv: list[list[int]],
        q: list[list[int]],
        nrows: int,
        ncols: int,
    ):
        self.diag = diag
        self.p = p
        self.pinv = pinv
        self.q = q
        self.nrows = nrows
        self.ncols = ncols

    @property
    def rank(self) -> int:
        return len(self.diag)

    def invariant_factors_gt1(self) -> tuple[int, ...]:
        return tuple(d for d in self.diag if d > 1)


def _integer(x) -> int:
    v = int(x)
    if v != x:
        raise ValueError(f"Smith normal form needs integer entries, got {x}")
    return v


def smith_normal_form(matrix: list[list[int]]) -> SmithNormalForm:
    """Raises ValueError on an entry that is not an integer."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    a = [list(map(_integer, row)) for row in matrix]
    p, pinv = identity(nrows), identity(nrows)
    q = identity(ncols)

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

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in q:
            r[i], r[j] = r[j], r[i]

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
    return SmithNormalForm(diag, p, pinv, q, nrows, ncols)
