"""The Gysin complex of an acyclic full-rank exchange matrix.

For an anticlique I of the quiver graph, G^I is the submodule of the
exterior algebra on dlog x_1..dlog x_{n+m} generated over the dlog's with
index outside I by the wedge of the one-forms alpha_i = sum_r B~_{ri} dlog x_r
over i in I.  Picking a row set N(I) with B~_{N(I),I} invertible, the wedges
theta(A, I) over A disjoint from I and N(I) form a basis; the residue maps

    rho: theta = theta_1 + theta_2 ^ dlog x_j  |->  theta_2 ^ alpha_j

assemble into a complex over anticliques whose degree-s slice computes the
mixed Hodge numbers: dim H^{k,(s,s)} = dim H^{k-s} of the weight-s complex.
Sign conventions: wedges are taken in increasing index order, rho extracts
dlog x_j with the Koszul sign of moving it past higher indices, and the
block from I to I u {j} is weighted by (-1)^{#{i in I : i < j}}.  The
composite is checked to square to zero.

Each residue block writes unit entries +-1 from (I, A) to (I u j, A - j),
which keep the filtration level |A cap mutable| + |I|.  Every target cell
(I u j, B) of a block gets exactly one, from (I, B u j): N(I u j) is N(I)
plus one row t, so the dlog's allowed in B are those allowed for I less j
and t.  The block's other entries are the terms of the target record's
substitution of dlog x_t, one for each of its bits that B holds, from
(I, (B - bit) u j u t).  So the writer walks each block's targets and
every cell it visits receives an entry.  The sequential element matching
along the unit entries (position by position, one mutable j at a time,
ascending) is acyclic on every graded piece by Jonsson's Cluster Lemma when
the coefficients are principal, and the Morse reducer of ``linalg`` checks
acyclicity on every input.  One writer, ``GysinBuilder.stream_for_s``,
makes a weight slice one position at a time, its columns and its matching
together.  ``hodge_table`` feeds it to ``linalg.morse_reduce_positions``,
which checks and reduces each position as the next one arrives, so no more
than two positions of columns are held, and ranks the Morse complex
(algebraic Morse theory, Skoldberg 2006), of about E_1 size, in place of
the slice itself.  ``complex_for_s`` stores every position of the same
writer, and ``filtration.spectral_sequence`` reduces that complex with
``linalg.morse_reduce`` in filtration order.  The writer checks nothing:
d^2 = 0 is checked once, by the reducer or, on a complex handed out
unreduced, by ``CochainComplexQ.verify_d2``.  ``verify_d2`` pushes every
column; the reducer leaves out the matched targets, whose pushes are
combinations of the pushes it checks once the matching below has passed
its unit and cycle checks, so its verdict is every column's.  The input is
checked once, by ``_admit``, the gate of ``build_gysin_complex`` and
``hodge_table``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import chain, combinations, product, repeat
from math import comb

from .errors import (
    ColumnsDependent,
    ConsistencyError,
    NotAcyclic,
    NotAnEdge,
    NotAnticlique,
    NotConnected,
    NotFullRank,
    NotPrincipal,
    NotReallyFullRank,
    TooLarge,
)
from .exchange import (
    CharacterSubgroup,
    ExtendedExchangeMatrix,
    RankClass,
    _anticlique_subgroups,
    _reduce_support,
    is_acyclic,
    is_principal,
    rank_class,
    underlying_graph,
)
from .exterior import ExteriorForm, bits, mask_of
from .graphs import anticliques
from .linalg import CochainComplexQ, Position, morse_reduce_positions
from .poly import IntPolynomial

Label = tuple[int, int]  # (anticlique mask, A mask)

# cells one weight slice may have: admits Z_10, P_10 and C_10 (at most
# 1,577,396 cells), refuses P_11 (6,266,624 at its largest weight)
GYSIN_CELL_GUARD = 2**21


# ---------------------------------------------------------------------------
# theta bases


class GModuleBasis:
    """Everything one anticlique I contributes: the row set N(I), the theta
    basis over the allowed dlog's, and the substitution table.

    ``substitution[t]``, for t in N(I), is dlog x_t modulo the span of the
    alpha_i (i in I), written over the free dlog's as {one-bit mask:
    coefficient}, integral coefficients as ints.  A record is its parent's
    after one elimination step (``GysinBuilder._record``); tables are only
    read, and share the rows that the step leaves alone.
    """

    __slots__ = (
        "anticlique", "row_selection", "row_mask", "allowed", "top_down", "substitution"
    )

    def __init__(
        self,
        anticlique: tuple[int, ...],
        row_selection: tuple[int, ...],
        row_mask: int,
        allowed: int,
        top_down: tuple[int, ...],
        substitution: dict[int, dict[int, Fraction | int]],
    ):
        self.anticlique = anticlique
        self.row_selection = row_selection  # N(I)
        self.row_mask = row_mask  # N(I) as a row mask
        self.allowed = allowed  # the dlog's an A mask may hold: those outside I and N(I)
        self.top_down = top_down  # the allowed dlog's as one-bit masks, highest first
        self.substitution = substitution

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.anticlique == other.anticlique
            and self.row_selection == other.row_selection
            and self.row_mask == other.row_mask
            and self.allowed == other.allowed
            and self.top_down == other.top_down
            and self.substitution == other.substitution
        )

    @property
    def dimension(self) -> int:
        return 1 << self.allowed.bit_count()

    def masks_of_degree(self, s: int) -> list[int]:
        """The C(|allowed|, s - |I|) admissible A masks of weight s, ascending.

        A fresh list on every call.  Combinations of the allowed bits taken
        from the highest down come out in descending order, so the list is
        reversed.
        """
        k = s - len(self.anticlique)
        if k < 0:
            return []
        masks = list(map(sum, combinations(self.top_down, k)))
        masks.reverse()
        return masks


class PositionLabels(Sequence):
    """The labels (I, A) of one position of a weight slice, made on demand.

    The position holds each member I's A masks, ascending, after those of
    the members before it; ``starts`` has each member's first cell.  A
    streamed reduction reads the labels of the critical cells only.
    """

    def __init__(self, members: list[int], masks: list[list[int]]):
        self.members, self.masks = members, masks
        self.starts = []
        size = 0
        for a_masks in masks:
            self.starts.append(size)
            size += len(a_masks)
        self.size = size

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, c):
        """The label of cell c, or the list of those of a slice, c read as a
        list reads it: a negative c counts from the end."""
        if isinstance(c, slice):
            return [self[k] for k in range(*c.indices(self.size))]
        if c < 0:
            c += self.size
            if c < 0:
                raise IndexError("position label index out of range")
        k = bisect_right(self.starts, c) - 1
        return self.members[k], self.masks[k][c - self.starts[k]]

    def __iter__(self) -> Iterator[Label]:
        return chain.from_iterable(
            zip(repeat(i_mask), a_masks) for i_mask, a_masks in zip(self.members, self.masks)
        )


def _exact(v: Fraction | int) -> Fraction | int:
    """v, as an int when it is integral."""
    return v if type(v) is int or v.denominator != 1 else v.numerator


class GysinBuilder:
    """One ``GModuleBasis`` per anticlique, made on first use, for one matrix.

    The records are the builder's only cache: every table that depends on
    the weight (A masks, offsets, column indices) is made by the call that
    needs it and dropped with it.  The residue map has one writer,
    ``_rho_into``: ``stream_for_s`` has it fill each position's columns
    block by block, and ``rho_columns`` returns one block on its own.
    Construction does not insist on full rank; a rank-deficient matrix
    surfaces as ColumnsDependent the moment some anticlique needs a row
    selection that does not exist.  The complex-level entry points enforce
    their own rank preconditions.
    """

    def __init__(self, matrix: ExtendedExchangeMatrix):
        self.matrix = matrix
        self.graph = underlying_graph(matrix)
        self.family = anticliques(self.graph)
        top_down = tuple(1 << r for r in range(matrix.d - 1, -1, -1))
        # each record made, None where the columns of its anticlique are dependent
        self._basis = {0: GModuleBasis((), (), 0, sum(top_down), top_down, {})}

    # -- one record per anticlique -------------------------------------------

    def require_anticlique(self, i_mask: int) -> None:
        if not self.graph.is_independent(i_mask):
            raise NotAnticlique(f"{sorted(bits(i_mask))} is not an anticlique")

    def basis(self, i_mask: int) -> GModuleBasis:
        """The record of the anticlique I, made once by ``_record``."""
        record = self._basis.get(i_mask)
        if record is None:
            self.require_anticlique(i_mask)
            record = self._record(i_mask)
            if record is None:
                raise ColumnsDependent(
                    f"columns {bits(i_mask)} of the exchange matrix are dependent"
                )
        return record

    def _record(self, i_mask: int) -> GModuleBasis | None:
        """The record of I from that of its parent P = I - {j}, j the highest
        vertex of I, kept; None when the columns of I are dependent.

        N(I) is the row set a greedy rank test on the columns of I picks from
        the rows offered frozen first, then mutable, each ascending:
        B~_{N(I),I} is invertible, with the fewest mutable rows (matroid
        exchange).  The alpha_i (i in I) vanish on the rows of I, and with the
        free dlog x_r (r outside I and N(I)) they form a basis.

        The step: alpha_j with each dlog x_t' (t' in N(P)) replaced by P's
        table is abar_j, alpha_j modulo P's alphas over P's free rows, and
        abar_j[r] = det B~_{N(P) u r, I} / det B~_{N(P), P} (Schur).  For r
        outside N(P), P's greedy test refused r, so the functional that is 1
        at r, 0 at P's other free rows and on P's alphas lives on the rows
        offered up to r; on alpha_j it is abar_j[r].  So the rank gap between
        the columns of I and of P over the first k offered rows (0 or 1, never
        falling as k grows) opens where abar_j is first nonzero: N(I) = N(P) u
        {t}, t the first offered row with abar_j[t] != 0 (none: the columns
        of I are dependent), and so for any j, as ``_rho_into`` checks.
        Modulo alpha_j, dlog x_t = -abar_j[t]^-1 sum_{r != t} abar_j[r]
        dlog x_r: the new row, which replaces the dlog x_t term of P's rows;
        a row without one is P's dict, shared.
        """
        if i_mask in self._basis:
            return self._basis[i_mask]
        self._basis[i_mask] = None  # kept when the columns of I are dependent
        j = i_mask.bit_length() - 1
        parent = self._record(i_mask ^ (1 << j))
        if parent is None:
            return None
        table, abar = parent.substitution, {}
        for r, row in enumerate(self.matrix.rows):
            if row[j] and parent.row_mask >> r & 1:
                for b, c in table[r].items():
                    abar[b] = abar.get(b, 0) + row[j] * c
            elif row[j]:
                abar[1 << r] = abar.get(1 << r, 0) + row[j]
        support = sum(b for b, v in abar.items() if v)
        offered = support >> self.matrix.n << self.matrix.n or support  # frozen first
        if not offered:
            return None
        t_bit = offered & -offered
        lead = abar.pop(t_bit)
        scale = -lead if lead in (1, -1) else -1 / Fraction(lead)
        new = {b: _exact(scale * abar[b]) for b in sorted(abar) if abar[b]}
        row_mask = parent.row_mask | t_bit
        substitution = {}
        for t in bits(row_mask):
            old = table.get(t, new)  # the new row, at t_bit, has no t_bit term
            if (c := old.get(t_bit)) is not None:
                keys = sorted((old.keys() | new.keys()) - {t_bit})
                old = {b: _exact(v) for b in keys if (v := old.get(b, 0) + c * new.get(b, 0))}
            substitution[t] = old
        allowed = parent.allowed & ~(1 << j | t_bit)
        top_down = tuple(b for b in parent.top_down if b & allowed)
        record = self._basis[i_mask] = GModuleBasis(
            tuple(bits(i_mask)), tuple(bits(row_mask)), row_mask, allowed, top_down, substitution
        )
        return record

    def cells(self, s: int) -> int:
        """Cells of the weight-s slice, counted before it is built.

        An A mask of G^I at weight s has s - |I| members and avoids I and
        the |I| rows of N(I), so the slice has the sum over I of
        C(d - 2|I|, s - |I|) cells.
        """
        d = self.matrix.d
        return sum(
            len(level) * comb(d - 2 * p, s - p)
            for p, level in enumerate(self.family.by_cardinality)
            if p <= s and 2 * p <= d  # a larger I has no N(I): basis() refuses it
        )

    def require_cells(self, weights: Iterable[int]) -> None:
        """Refuse with TooLarge, before anything is built, when the slice of
        some weight would have more than GYSIN_CELL_GUARD cells."""
        for s in weights:
            cells = self.cells(s)
            if cells > GYSIN_CELL_GUARD:
                raise TooLarge(
                    f"the weight-{s} Gysin complex would have {cells} cells, "
                    f"more than {GYSIN_CELL_GUARD}"
                )

    # -- residue blocks ------------------------------------------------------

    def _rho_into(
        self,
        cols: list[dict[int, Fraction | int]],
        i_mask: int,
        j: int,
        src_cols: dict[int, int],
        dst_masks: list[int],
        dst_off: int,
        eps: int,
        below: bytearray,
        above: bytearray,
        up: dict[int, int],
    ) -> None:
        """Write eps times rho, from G^I to G^{I u j} at one weight, into cols,
        and match its unit entries as they are written.

        rho carries no sign of its own: ``rho_columns`` passes the Koszul
        sign (-1)^{|I| + #{i in I : i > j}} of alpha_j joining the alpha
        wedge of I, and ``stream_for_s`` passes 1, because the complex's
        block sign (-1)^{#{i in I : i < j}} times that Koszul sign is +1
        (j is not in I).

        ``src_cols`` maps each A mask of G^I at that weight to its column,
        and ``dst_masks`` are the A masks of G^{I u j} at that weight,
        ascending, the k-th at row ``dst_off + k``.  Each entry is written
        once, so the target rows must be empty in those columns.  rho sends
        A to zero unless A holds j, and extracts dlog x_j with its Koszul
        sign.  A avoids N(I), and N(I u j) is N(I) plus one row t
        (``_record``), so at most dlog x_t is left over from N(I u j); it is
        replaced by the target record's ``substitution[t]``, a combination
        of free dlog's, term by term.  j is in no N(I) (its row vanishes on
        the columns of I), so the dlog's allowed for I u j are those allowed
        for I less j and t.  The writer therefore walks the targets: a
        target B gets exactly one unit entry +-1, from the source B u j,
        and one substituted term for each bit of ``substitution[t]`` that B
        holds, from (B - bit) u j u t.  The unit entry is matched,
        ``up[column] = row``, unless its column or its row is already marked
        matched in ``below`` or ``above``, and both are then marked.  The
        unit entries of one block share no cell, so the order they are met
        in does not change the matching.
        """
        j_bit = 1 << j
        source, target = self.basis(i_mask), self.basis(i_mask | j_bit)
        t_bit = target.row_mask & ~source.row_mask
        if t_bit.bit_count() != 1:
            raise ConsistencyError(
                f"N(I u j) is not N(I) plus one row for I = {bits(i_mask)}, j = {j}"
            )
        # source = rest + j + t: the Koszul signs of j in it, of t in rest + t
        # and of the substituted bit in rest come to the parity of rest on one
        # mask per bit, and to that of [t > j]
        above_j = j + 1
        jt = j_bit | t_bit
        outer = -eps if t_bit > j_bit else eps
        substitution = target.substitution[t_bit.bit_length() - 1]
        terms = [
            (bit, -(j_bit << 1) ^ -t_bit ^ -bit, outer * c2) for bit, c2 in substitution.items()
        ]
        substituted = sum(substitution)
        for row, b_mask in enumerate(dst_masks, dst_off):
            c = src_cols[b_mask | j_bit]
            cols[c][row] = -eps if (b_mask >> above_j).bit_count() & 1 else eps
            if not (below[c] or above[row]):
                up[c] = row
                below[c] = above[row] = 1
            if b_mask & substituted:
                for bit, signs, v in terms:
                    if b_mask & bit:
                        rest = b_mask ^ bit
                        cols[src_cols[rest | jt]][row] = (
                            -v if (rest & signs).bit_count() & 1 else v
                        )

    def rho_columns(
        self, i_mask: int, j: int, s: int
    ) -> tuple[list[int], list[int], list[dict[int, Fraction | int]]]:
        """The matrix of rho from the degree-s slice of G^I to G^{I u j}.

        Returns (source masks, target masks, columns); see ``_rho_into``.
        """
        src = self.basis(i_mask).masks_of_degree(s)
        dst = self.basis(i_mask | (1 << j)).masks_of_degree(s)
        cols: list[dict[int, Fraction | int]] = [dict() for _ in src]
        src_cols = {a: c for c, a in enumerate(src)}
        # the Koszul sign of alpha_j joining the alpha wedge of I
        eps = -1 if (i_mask.bit_count() + (i_mask >> (j + 1)).bit_count()) & 1 else 1
        self._rho_into(
            cols, i_mask, j, src_cols, dst, 0, eps, bytearray(len(src)), bytearray(len(dst)), {}
        )
        return src, dst, cols

    # -- full complexes ------------------------------------------------------

    def stream_for_s(self, s: int) -> Iterator[Position]:
        """The weight-s slice, written one position at a time.

        Position p holds the anticliques of size p, each one's A masks
        ascending.  It is yielded as (labels, columns, matching) once every
        block out of it is written: its ``PositionLabels``, the images of
        its cells in position p + 1 (None at the top) and its matched pairs.
        The blocks I -> I u {j} out of position p are written for each
        mutable j ascending, and for each I of size p, ascending, within
        one j; a block whose source or target has no cell at the weight
        writes nothing and is skipped.  The block from I to I u {j} fills the
        rows of I u {j}, so blocks for different j never overlap, and a
        column takes its blocks in ascending j.  ``_rho_into`` writes a
        block target by target: each target cell (I u j, B) gets one unit
        entry, from the source B u j, and the substituted terms from
        (B - bit) u j u t for the bits of the target record's
        ``substitution[t]`` that B holds, so no visit is spent on a source
        that maps to zero.  It finds the sources through an index of each
        member I's A masks to their columns, made on I's first block and
        dropped once position p is yielded; the writer keeps nothing of p
        after that.

        The matching is the sequential element matching of the unit
        entries, made as the blocks are written: a unit entry from (I, A)
        to (I u j, A - j) is matched when both cells are still unmatched
        (the entries of one j never share a cell).  These entries keep the
        filtration level, and on a graded piece the matching is the
        sequential element matching of an independence complex.  Writing
        position by position matches the same pairs as writing each j over
        every position in turn, as the tests check against that order.
        Nothing checks d^2 = 0 here: ``linalg.morse_reduce_positions``
        does, as each position arrives.  A slice of more than
        GYSIN_CELL_GUARD cells is refused with TooLarge before anything is
        built.
        """
        self.require_cells([s])
        levels = self.family.by_cardinality  # each level ascending
        masks: dict[int, list[int]] = {}  # A masks of weight s, levels p and p + 1
        offset: dict[int, int] = {}  # each member's first cell in its position

        def index(level: list[int]) -> PositionLabels:
            labels = PositionLabels(level, [self.basis(i).masks_of_degree(s) for i in level])
            for i_mask, off, a_masks in zip(level, labels.starts, labels.masks):
                offset[i_mask], masks[i_mask] = off, a_masks
            return labels

        labels = index(levels[0])
        taken = bytearray(len(labels))  # cells of position p matched from below
        for p, level in enumerate(levels[:-1]):
            next_labels = index(levels[p + 1])
            next_taken = bytearray(len(next_labels))
            cols: list[dict[int, Fraction | int]] = [{} for _ in range(len(labels))]
            up: dict[int, int] = {}
            columns: dict[int, dict[int, int]] = {}  # each source's column per A mask
            for j in range(self.matrix.n):
                for i_mask in level:
                    new_mask = i_mask | (1 << j)
                    if new_mask == i_mask or not (masks[i_mask] and masks.get(new_mask)):
                        continue  # j in I, I u j no anticlique, or no cell to write
                    src_cols = columns.get(i_mask)
                    if src_cols is None:
                        off = offset[i_mask]
                        a_masks = masks[i_mask]
                        src_cols = columns[i_mask] = dict(
                            zip(a_masks, range(off, off + len(a_masks)))
                        )
                    self._rho_into(
                        cols,
                        i_mask,
                        j,
                        src_cols,
                        masks[new_mask],
                        offset[new_mask],
                        1,
                        taken,
                        next_taken,
                        up,
                    )
            del columns  # the column indices of position p, not needed past p
            for i_mask in level:
                del masks[i_mask], offset[i_mask]
            yield labels, cols, up
            labels, taken = next_labels, next_taken
        yield labels, None, {}

    def complex_for_s(self, s: int) -> CochainComplexQ:
        """The weight-s slice over every anticlique: every position of
        ``stream_for_s`` stored, labels listed, with its matching, and d^2 = 0
        left to ``linalg.morse_reduce`` or ``verify_d2``.  A slice of more
        than GYSIN_CELL_GUARD cells is refused with TooLarge before anything
        is built.
        """
        labels, columns, matching = [], [], []
        for pos_labels, cols, up in self.stream_for_s(s):
            labels.append(list(pos_labels))
            if cols is not None:
                columns.append(cols)
                matching.append(up)
        return CochainComplexQ(labels, columns, matching)


# ---------------------------------------------------------------------------
# public operations


def alpha(matrix: ExtendedExchangeMatrix, j: int) -> ExteriorForm:
    """The one-form sum_r B~_{rj} dlog x_r attached to a mutable index."""
    return ExteriorForm({1 << r: matrix.rows[r][j] for r in range(matrix.d)})


def require_weight(matrix: ExtendedExchangeMatrix, s: int) -> None:
    """Refuse with ValueError a weight s outside [0, d]."""
    if not 0 <= s <= matrix.d:
        raise ValueError(f"weight s={s} outside [0, {matrix.d}]")


def _admit(
    matrix: ExtendedExchangeMatrix, weights: Sequence[int]
) -> tuple[GysinBuilder, RankClass]:
    """The builder and the rank class of an input that passes, in order:
    NotAcyclic, a weight outside [0, d] (ValueError), TooLarge at each weight
    (before the Smith normal form of the rank class), then NotFullRank."""
    if not is_acyclic(matrix):
        raise NotAcyclic("the quiver has an oriented cycle")
    for s in weights:
        require_weight(matrix, s)
    builder = GysinBuilder(matrix)
    builder.require_cells(weights)
    rc = rank_class(matrix)
    if rc is RankClass.NOT_FULL_RANK:
        raise NotFullRank("matrix is not of full rank")
    return builder, rc


def build_gysin_complex(matrix: ExtendedExchangeMatrix, s: int) -> CochainComplexQ:
    """Weight-s Gysin complex of a really-full-rank acyclic matrix, checked
    to square to zero.  The input passes ``_admit`` at weight s, then a
    matrix with nontrivial characters is refused with NotReallyFullRank."""
    builder, rc = _admit(matrix, [s])
    if rc is not RankClass.REALLY_FULL_RANK:
        raise NotReallyFullRank("matrix has nontrivial characters; use hodge_table")
    cx = builder.complex_for_s(s)
    cx.verify_d2()
    return cx


class HodgeTable:
    """dim H^{k,(s,s)} for an acyclic full-rank cluster variety."""

    __slots__ = ("n", "m", "dims")

    def __init__(self, n: int, m: int, dims: dict[tuple[int, int], int]):
        self.n = n
        self.m = m
        self.dims = dims

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.m == other.m and self.dims == other.dims

    @property
    def d(self) -> int:
        return self.n + self.m

    def dim(self, k: int, s: int) -> int:
        return self.dims.get((k, s), 0)

    def diagonal_polynomial(self) -> IntPolynomial:
        return IntPolynomial.from_coeffs(
            [self.dim(s, s) for s in range(self.d + 1)]
        )

    def offdiagonal_polynomial(self) -> IntPolynomial:
        """sum_s dims(s+1, s) x^s, the first nonstandard row."""
        return IntPolynomial.from_coeffs(
            [self.dim(s + 1, s) for s in range(self.d + 1)]
        )

    def point_count_polynomial(self) -> IntPolynomial:
        """sum (-1)^k dims(k,s) q^{d-s}, the E-polynomial point count."""
        coeffs = [0] * (self.d + 1)
        for (k, s), v in self.dims.items():
            coeffs[self.d - s] += v if k % 2 == 0 else -v
        return IntPolynomial.from_coeffs(coeffs)

    def check_lefschetz(self) -> None:
        """dims(k, s) = dims(k + d - 2s, d - s) over 0 <= k <= 2d + 1 and
        0 <= s <= d; ConsistencyError names the first failing (k, s), k
        first, then s.

        (k, s) -> (k + d - 2s, d - s) is an involution, so a spot fails only
        where it or its partner holds a nonzero entry: only the entries and
        their partners are visited, not the whole grid, and the least
        failing spot among them is the grid scan's first.
        """
        d = self.d
        failing = [
            (k, s)
            for k0, s0 in self.dims
            for k, s in ((k0, s0), (k0 + d - 2 * s0, d - s0))
            if 0 <= k <= 2 * d + 1
            and 0 <= s <= d
            and self.dim(k, s) != self.dim(k + d - 2 * s, d - s)
        ]
        if failing:
            k, s = min(failing)
            raise ConsistencyError(f"curious Lefschetz fails at (k,s)=({k},{s})")

    def check_weak_support(self) -> None:
        """Smooth-affine bounds: 0 <= k <= d and k/2 <= s <= k."""
        for (k, s), v in self.dims.items():
            if not v:
                continue
            if not (0 <= k <= self.d and k / 2 <= s <= k):
                raise ConsistencyError(f"support bound fails at (k,s)=({k},{s})")

    def check_support_bounds(self) -> None:
        """The sharper really-full-rank bound max(2k/3, 2k-d) <= s <= k."""
        for (k, s), v in self.dims.items():
            if not v:
                continue
            if not (0 <= k <= self.d):
                raise ConsistencyError(f"degree {k} outside [0, {self.d}]")
            if not (max(2 * k / 3, 2 * k - self.d) <= s <= k):
                raise ConsistencyError(f"weight bound fails at (k,s)=({k},{s})")

    def check_top_class(self) -> None:
        if self.dim(self.d, self.d) != 1:
            raise ConsistencyError("top cohomology is not one-dimensional")
        for s in range(self.d):
            if self.dim(self.d, s):
                raise ConsistencyError("top cohomology has weight below d")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "d": self.d,
            "hodge": [
                {"k": k, "s": s, "dim": v}
                for (k, s), v in sorted(self.dims.items())
            ],
        }

    def to_tsv(self) -> str:
        lines = ["k\ts\tdim"]
        lines += [f"{k}\t{s}\t{v}" for (k, s), v in sorted(self.dims.items())]
        return "\n".join(lines)


def hodge_table(matrix: ExtendedExchangeMatrix) -> HodgeTable:
    """Full mixed Hodge table, summed over all character components.

    A really-full-rank matrix has only the trivial character, whose
    component is the plain complex of the matrix.  Otherwise the component
    of a character chi lives on the anticliques containing its support
    J(chi), and is the zero complex unless J(chi) is an anticlique.  It is
    then the plain complex of the smaller matrix that
    ``exchange.reduce_character`` returns, shifted by (2 kappa, kappa) in
    (degree, weight) with kappa = |J(chi)|.  That includes the trivial
    character (kappa = 0), whose reduced matrix keeps the top block under
    a new frozen completion.  Characters with equal support have equal
    components, so they are counted, not listed: |X*(S)| have J(chi) in S,
    and Moebius inversion over the anticliques leaves those with J(chi) = S.
    Each support is reduced once, and the supports that reduce to the same
    matrix with the same kappa share one part, weighted by their number of
    characters.

    Each weight is written position by position (``stream_for_s``) and
    reduced along its element matching as it is written
    (``linalg.morse_reduce_positions``: d^2 = 0, pushed on every column
    but the matched targets, whose verdict follows from the others once the
    matching's units and cycles are checked; those checks; d^2 = 0 on the
    Morse complex and the Euler characteristic), holding at most two
    positions of columns, to a complex of about E_1 size with the same
    cohomology, which is ranked.
    The finished table is checked for the weak support bounds and curious
    Lefschetz, and when the matrix is of really full rank for the sharper
    bounds and the top class; a failure raises ConsistencyError.  ``_admit``
    sizes every weight before the rank class (a Smith normal form) and the
    first complex, and TooLarge refuses the table when one would pass
    GYSIN_CELL_GUARD cells.
    """
    return _table_rank_class_and_subgroups(matrix)[0]


def _table_rank_class_and_subgroups(
    matrix: ExtendedExchangeMatrix,
) -> tuple[HodgeTable, RankClass, dict[int, CharacterSubgroup]]:
    """``hodge_table``, with the rank class that ``_admit`` computed and X*(I)
    for every anticlique mask I (none when really full rank)."""
    # the reduction of a support J sends I' to J u I' and has d' = d - 2 kappa,
    # so its slice at weight s - kappa has as many cells as the anticliques
    # containing J have at weight s: the full family bounds every complex
    builder, rc = _admit(matrix, range(matrix.d + 1))
    parts = {(0, matrix): 1}  # (kappa, matrix) -> number of characters
    subgroups = {}
    if rc is not RankClass.REALLY_FULL_RANK:
        masks = builder.family.all_masks()
        subgroups = _anticlique_subgroups(matrix, masks)
        # |X*(S)| characters have J(chi) in S; leave those with J(chi) = S
        exact = {s: subgroups[s].order for s in masks}
        for v, s in product(range(matrix.n), masks):  # one pass per vertex v
            if s >> v & 1:
                exact[s] -= exact[s ^ (1 << v)]
        parts = {}
        for s, mult in exact.items():
            if mult:
                reduced = _reduce_support(matrix, frozenset(bits(s)))
                key = (reduced.kappa, reduced.matrix)
                parts[key] = parts.get(key, 0) + mult
    dims: dict[tuple[int, int], int] = {}
    for (kappa, part), mult in parts.items():
        part_builder = builder if part is matrix else GysinBuilder(part)
        for s in range(part.d + 1):
            # one weight at a time, two positions of it at a time
            morse, _ = morse_reduce_positions(part_builder.stream_for_s(s))
            for p, h in morse.cohomology_dims().items():
                key = (p + s + 2 * kappa, s + kappa)
                dims[key] = dims.get(key, 0) + h * mult
    table = HodgeTable(matrix.n, matrix.m, {k: v for k, v in dims.items() if v})
    table.check_weak_support()
    table.check_lefschetz()
    if rc is RankClass.REALLY_FULL_RANK:
        table.check_support_bounds()
        table.check_top_class()
    return table, rc, subgroups


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
