"""Filtration of the Gysin complex and its spectral sequence.

For principal coefficients the basis theta(C, D, I) (C, D subsets of the
mutable indices, I an anticlique avoiding both) carries the filtration level
|C| + |I|, which the differential never decreases.  The associated graded
splits over pairs (D, E = C u I) into shifted independence-complex cochain
complexes, so the first page of the filtration spectral sequence is
assembled from reduced cohomology of induced subgraphs.

Every page of any finitely filtered rational complex comes from one
reduction of its differentials in filtration order, as in persistence
(Zomorodian-Carlsson 2005), with clearing (Chen-Kerber 2011).  Each pivot
pairs a cell c with a cell t one position up, across the gap
level(t) - level(c) >= 0.  In the reduced basis (the Barannikov normal
form) the entry E_r^{e,k-e} is spanned by the cells of level e at position
k that are unpaired or paired across a gap of at least r, and d_r is the
partial identity on the pairs whose gap is exactly r (Basu-Parida,
Expositiones Math. 2017).  ``spectral_sequence`` returns every page from
E_0 to stabilization, each with its d_r; ``e1_page`` builds E_1 alone, as a
page of the same type.  The input is checked once, by ``_admit``, the gate
of ``build_filtered`` and ``_e1_summands``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from fractions import Fraction

from .errors import ConsistencyError, NotAcyclic, NotPrincipal, TooLarge
from .exchange import (
    ExtendedExchangeMatrix,
    is_acyclic,
    is_principal,
    underlying_graph,
)
from .exterior import bits, mask_of
from .graphs import _InducedComplexes, mv_delta
from .gysin import GysinBuilder, require_weight
from .linalg import CochainComplexQ, Echelon, SparseMatrix, morse_reduce


# ---------------------------------------------------------------------------
# filtered complexes


class FilteredComplexQ:
    """A cochain complex with a filtration level per cell, by position."""

    __slots__ = ("complex", "levels")

    def __init__(self, complex: CochainComplexQ, levels: list[list[int]]):
        self.complex = complex
        self.levels = levels

    def level_range(self) -> tuple[int, int]:
        flat = [l for pos in self.levels for l in pos]
        if not flat:
            return 0, 0
        return min(flat), max(flat)

    def verify_levels(self) -> None:
        """The differential must not decrease the filtration level."""
        for p, cols in enumerate(self.complex.columns):
            for c, col in enumerate(cols):
                for r, v in col.items():
                    if v and self.levels[p + 1][r] < self.levels[p][c]:
                        raise ConsistencyError("differential lowers the level")


def _admit(matrix: ExtendedExchangeMatrix, weights: Iterable[int]) -> None:
    """Refuse, in order and before anything is built: NotPrincipal,
    NotAcyclic, then a weight outside [0, d] (ValueError)."""
    if not is_principal(matrix):
        raise NotPrincipal("the filtration needs principal coefficients")
    if not is_acyclic(matrix):
        raise NotAcyclic("the quiver has an oriented cycle")
    for s in weights:
        require_weight(matrix, s)


def build_filtered(
    matrix: ExtendedExchangeMatrix, s: int, builder: GysinBuilder | None = None
) -> FilteredComplexQ:
    """Weight-s complex with level |A cap mutable| + |I|; principal only.
    It checks the levels; d^2 = 0 is left to the callers that read the
    complex: ``spectral_sequence`` (``morse_reduce``) and ``graded_pieces``.
    The input passes ``_admit`` before anything is built."""
    _admit(matrix, [s])
    builder = builder or GysinBuilder(matrix)
    cx = builder.complex_for_s(s)
    mutable = (1 << matrix.n) - 1
    levels = [
        [(a_mask & mutable).bit_count() + i_mask.bit_count() for i_mask, a_mask in pos]
        for pos in cx.labels
    ]
    fc = FilteredComplexQ(cx, levels)
    fc.verify_levels()
    return fc


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


# ---------------------------------------------------------------------------
# the spectral sequence from one filtered reduction


_ONE = Fraction(1)


class SpectralSequencePage:
    """Page E_r: the dims at each (e, f) and the nonzero differentials d_r."""

    __slots__ = ("r", "entries", "differentials")

    def __init__(
        self,
        r: int,
        entries: dict[tuple[int, int], int],
        differentials: dict[tuple[int, int], SparseMatrix],
    ):
        self.r = r
        self.entries = entries
        # d_r at each source (e, f); only nonzero matrices are stored
        self.differentials = differentials

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.r == other.r
            and self.entries == other.entries
            and self.differentials == other.differentials
        )

    def entry(self, e: int, f: int) -> int:
        return self.entries.get((e, f), 0)


def _pairs(fc: FilteredComplexQ) -> list[tuple[int, int, int, int]]:
    """(k, c, t, gap) for every pivot of the filtered reduction.

    The cells of each position are ordered by level descending, ties by
    index.  The columns of d_k enter one ``Echelon`` in that order, each row
    of position k+1 keyed by its place in the reversed order, so the
    smallest key is the lowest level and an echelon lead is persistence's
    "low": the pair joins column c to the row t it leads, with gap
    level(t) - level(c).  A column whose cell is the low of a pair of
    d_{k-1} is skipped (clearing, exact only when d^2 = 0).
    """
    cx, levels = fc.complex, fc.levels
    order = [
        sorted(range(cx.dim(k)), key=lambda i: (-levels[k][i], i))
        for k in range(cx.positions)
    ]
    pairs = []
    cleared: set[int] = set()
    for k, cols in enumerate(cx.columns):
        by_key = order[k + 1][::-1]
        key = [0] * len(by_key)
        for j, cell in enumerate(by_key):
            key[cell] = j
        ech = Echelon()
        paired = set()
        for c in order[k]:
            if c in cleared:
                continue
            pivot = ech.add({key[r]: v for r, v in cols[c].items()})
            if pivot is not None:
                t = by_key[min(pivot)]
                gap = levels[k + 1][t] - levels[k][c]
                if gap < 0:
                    raise ConsistencyError("differential lowers the level")
                pairs.append((k, c, t, gap))
                paired.add(t)
        cleared = paired
    return pairs


def _reduction_pairs(fc: FilteredComplexQ) -> list[tuple[int, int, int, int]]:
    """(k, c, t, gap) for every pair of the reduction of ``fc`` along its
    matching: the pivots of the Morse complex as cells of ``fc``, then every
    matched pair with gap 0 (see ``spectral_sequence``)."""
    morse, kept = morse_reduce(fc.complex)
    reduced = FilteredComplexQ(
        morse, [[lv[c] for c in cells] for lv, cells in zip(fc.levels, kept)]
    )
    reduced.verify_levels()
    pairs = [(k, kept[k][c], kept[k + 1][t], gap) for k, c, t, gap in _pairs(reduced)]
    for k, matched in enumerate(fc.complex.matching):
        for c, t in matched.items():
            if fc.levels[k + 1][t] != fc.levels[k][c]:
                raise ConsistencyError("a matched pair changes the level")
            pairs.append((k, c, t, 0))
    return pairs


def _pages(
    fc: FilteredComplexQ, pairs: list[tuple[int, int, int, int]], last: int
) -> list[SpectralSequencePage]:
    """E_0, ..., E_last from one bucketing of the pairs by gap.

    E_r is spanned by the cells unpaired or paired across a gap of at least
    r, each entry's basis its surviving cells in index order, and d_r is the
    partial identity on the pairs whose gap is exactly r.  Every spot (e, k),
    the cells of level e at position k, keeps the list of its survivors,
    whose length is the entry; the pairs of gap r leave it after page r.
    The places of survivors are made only for the spots that d_r touches.
    """
    levels = fc.levels
    alive: list[dict[int, list[int]]] = []  # position k: level e -> survivors
    for cells in levels:
        order = sorted(range(len(cells)), key=cells.__getitem__)  # stable: index order
        alive.append(
            {e: list(spot) for e, spot in itertools.groupby(order, cells.__getitem__)}
        )
    by_gap: dict[int, list[tuple[int, int, int]]] = {}
    for k, c, t, gap in pairs:
        by_gap.setdefault(gap, []).append((k, c, t))
    pages = []
    for r in range(last + 1):
        entries = {
            (e, k - e): len(spot)
            for k, spots in enumerate(alive)
            for e, spot in spots.items()
            if spot
        }
        places: dict[tuple[int, int], dict[int, int]] = {}
        nonzeros: dict[tuple[int, int], dict[int, dict[int, Fraction]]] = {}
        for k, c, t in by_gap.get(r, ()):
            e = levels[k][c]
            source = places.get((e, k))
            if source is None:
                source = places[(e, k)] = dict(zip(alive[k][e], itertools.count()))
            target = places.get((e + r, k + 1))
            if target is None:
                target = places[(e + r, k + 1)] = dict(
                    zip(alive[k + 1][e + r], itertools.count())
                )
            nonzeros.setdefault((e, k), {})[target.pop(t)] = {source.pop(c): _ONE}
        diffs = {
            (e, k - e): SparseMatrix((len(alive[k + 1][e + r]), len(alive[k][e])), rows)
            for (e, k), rows in nonzeros.items()
        }
        # what is left of each place map is the spot's survivors past page r
        for (e, k), left in places.items():
            alive[k][e] = list(left)
        pages.append(SpectralSequencePage(r, entries, diffs))
    return pages


def spectral_sequence(
    fc: FilteredComplexQ, max_page: int | None = None
) -> list[SpectralSequencePage]:
    """Pages E_0, E_1, ... up to guaranteed stabilization, each with its d_r.

    Stabilization is declared at r = (max level - min level) + 1 whatever the
    observed differentials do; the returned list always reaches that page (or
    ``max_page`` if smaller), so its last page is E_infinity unless cut.

    The reduction runs on the Morse complex of ``fc.complex`` along its
    matching, which pairs cells of one level, so E_r is unchanged for
    r >= 1 (Mischaikow-Nanda, DCG 2013).  The reducer checks d^2 = 0 on
    both complexes and the Euler characteristic; the Morse complex is also
    checked for lowering no level.  Its pairs are mapped back to the full
    complex's cells, and every matched pair joins them with gap 0, so E_0
    counts every cell and d_0 holds the matched pairs too.  An empty
    matching leaves every cell critical.  Every page is read off the same
    pairs, as partial identities in the basis of that reduction, each d_r
    a ``SparseMatrix``.  Raises ConsistencyError when d^2 != 0, a pair
    lowers the level or a matched pair changes it.
    """
    pairs = _reduction_pairs(fc)
    lo, hi = fc.level_range()
    last = hi - lo + 1 if max_page is None else min(max_page, hi - lo + 1)
    return _pages(fc, pairs, last)


def observed_collapse_page(pages: list[SpectralSequencePage]) -> int:
    """First page index from which every computed differential vanishes."""
    r = len(pages)
    for page in reversed(pages):
        if not page.differentials:
            r = page.r
        else:
            break
    return r


# ---------------------------------------------------------------------------
# E_1 assembled independently from independence complexes


E1_SUMMAND_GUARD = 2**18  # (D, E) summands one e1_page may assemble


def require_e1_summands(n: int, weights: Iterable[int]) -> None:
    """Refuse with TooLarge, before anything is built, when the page of some
    weight s of a rank-n quiver would have its C(2n, s) summands past
    E1_SUMMAND_GUARD."""
    for s in weights:
        if math.comb(2 * n, s) > E1_SUMMAND_GUARD:
            raise TooLarge(
                f"more than {E1_SUMMAND_GUARD} (D, E) summands at weight {s} "
                f"of a rank-{n} quiver"
            )


def _e1_summands(
    matrix: ExtendedExchangeMatrix, s: int, induced: _InducedComplexes | None = None
) -> tuple[_InducedComplexes, dict, dict]:
    """The (D, E) summands of E_1 at weight s, sized, with nothing built past
    the dims of their independence complexes.

    Returns (induced, entries, positions): ``entries[(e, f)]`` is
    dim E_1^{e,f;s}, and ``positions[(D, E, e, f)]`` is (offset, h) when the
    summand's H~^{e+f-1} of the independence complex of E minus D has
    dimension h > 0 and starts at that offset in the entry's basis.  Both
    ``e1_page`` and the ``e1`` command, which prints only the dims, start
    here; the command passes one ``induced`` of the quiver graph to every
    weight, and None makes a fresh one.  The summands are walked D by D
    (ascending masks), and E by E (lexicographic) within a D, but only the
    E whose X = E minus D has nonzero cohomology are visited: X has at most
    min(s, 2n - s) vertices, and every such X occurs, so one table of their
    dims is made first.  The input passes ``_admit``, and past
    E1_SUMMAND_GUARD summands, C(2n, s) of them, is refused with TooLarge,
    before anything is built.
    """
    _admit(matrix, [s])
    n = matrix.n
    require_e1_summands(n, [s])
    if induced is None:
        induced = _InducedComplexes(underlying_graph(matrix))
    elif induced.graph != underlying_graph(matrix):
        raise ValueError("induced holds the complexes of another graph")
    masks = [
        list(map(mask_of, itertools.combinations(range(n), k)))
        for k in range(min(s, n) + 1)
    ]
    # X -> the nonzero (p, dim H) of its complex, for X with nonzero cohomology
    carried = {}
    for k in range(min(s, 2 * n - s) + 1):
        for x_mask in masks[k]:
            dims = induced.dims(x_mask)
            if dims:
                carried[x_mask] = tuple(dims.items())
    entries: dict[tuple[int, int], int] = {}
    positions: dict[tuple[int, int, int, int], tuple[int, int]] = {}
    sizes = range(max(s - n, 0), min(s, n) + 1)
    for d_mask in sorted(m for k in sizes for m in masks[k]):
        esize = s - d_mask.bit_count()
        keep = ~d_mask
        for e_mask in masks[esize]:
            dims = carried.get(e_mask & keep)
            if dims is None:
                continue
            for p, h in dims:
                e, f = esize, p - esize
                offset = entries.get((e, f), 0)
                entries[(e, f)] = offset + h
                positions[(d_mask, e_mask, e, f)] = (offset, h)
    return induced, entries, positions


def e1_page(matrix: ExtendedExchangeMatrix, s: int) -> SpectralSequencePage:
    """Assemble E_1^{e,f;s} from reduced cohomology of induced subgraphs, as
    the page ``SpectralSequencePage(1, entries, differentials)``.

    The (D, E) summand contributes H~^{e+f-1} of the independence complex of
    E minus D; the differential adds a vertex b outside D u E to E and
    removes a from D cap E, acting by B~_{ba} times the Mayer-Vietoris
    connecting map (new vertex ordered last).  Conjugating the exterior-
    calculus differential into the standard simplicial cochain bases leaves
    exactly one scalar per block,

        (-1)^{|D| + 1 + [b > a] + #{D > a} + #{E-a > b} + e + f},

    so with that scalar the assembled matrices agree with the first-page
    differential of ``spectral_sequence`` up to a basis change of each
    summand (in particular rankwise), not only dimensionwise.  One
    ``_InducedComplexes`` serves the call: each independence complex of an
    induced subgraph is built once, for its dims and for every ``mv_delta``
    block that needs its classes, and a disconnected one gets its dims by
    the join rule.  The nonzeros of each ``mv_delta`` block, a
    ``SparseMatrix``, are scaled once per scalar (a scalar of +-1 by sign:
    v or -v; only a multiple arrow multiplies) and written by assignment
    into the nonzeros of every pair of summands that shares it, and each
    d_1 is a ``SparseMatrix``; nothing is kept between calls.  The input is
    checked by ``_e1_summands``: ``_admit``, then E1_SUMMAND_GUARD.
    """
    induced, entries, positions = _e1_summands(matrix, s)
    graph = induced.graph
    # (e, f) -> the nonzeros {row: {column: value}} of its d_1
    diffs: dict[tuple[int, int], dict[int, dict[int, Fraction]]] = {}
    deltas: dict[tuple[int, int, int], dict[int, SparseMatrix]] = {}
    # (X, a, b, r, scale) -> the block's nonzeros (i, j, scale * v)
    scaled: dict[tuple[int, int, int, int, int], list] = {}
    for (d_mask, e_mask, e, f), (offset, _) in positions.items():
        if (e + 1, f) not in entries:
            continue
        x_mask = e_mask & ~d_mask
        outside = ~(d_mask | e_mask)
        r = e + f - 1
        mat = diffs.get((e, f))
        # the scalar's exponent: |D| + 1 + #{D > a} + e + f, then per b the rest
        flips_d = d_mask.bit_count() + 1 + e + f
        both = d_mask & e_mask
        while both:
            a_bit = both & -both
            both ^= a_bit
            a = a_bit.bit_length() - 1
            flips_a = flips_d + (d_mask >> (a + 1)).bit_count()
            d2, e_rest = d_mask ^ a_bit, e_mask ^ a_bit
            # the neighbours of a outside D u E: B~_{ba} != 0 exactly on edges
            nbrs = graph.adjacency[a] & outside
            while nbrs:
                b_bit = nbrs & -nbrs
                nbrs ^= b_bit
                place = positions.get((d2, e_mask | b_bit, e + 1, f))
                if place is None:
                    continue
                b = b_bit.bit_length() - 1
                flips = flips_a + (b > a) + (e_rest >> (b + 1)).bit_count()
                scale = -matrix.rows[b][a] if flips & 1 else matrix.rows[b][a]
                key = (x_mask, a, b, r, scale)
                nonzeros = scaled.get(key)
                if nonzeros is None:
                    if (x_mask, a, b) not in deltas:
                        deltas[(x_mask, a, b)] = mv_delta(graph, x_mask, a, b, memo=induced)
                    # X has H~^r, so mv_delta has its block at r; a unit
                    # scalar by sign, only a multiple arrow multiplies
                    nonzeros = scaled[key] = [
                        (i, jj, v if scale == 1 else -v if scale == -1 else scale * v)
                        for i, row in deltas[(x_mask, a, b)][r].nonzeros.items()
                        for jj, v in row.items()
                    ]
                if mat is None:
                    mat = diffs[(e, f)] = {}
                # a = D - D2 and b = E2 - E, so each pair of summands has
                # exactly one block, and assignment saves a Fraction sum
                offset2 = place[0]
                for i, jj, v in nonzeros:
                    row = mat.get(offset2 + i)
                    if row is None:
                        row = mat[offset2 + i] = {}
                    row[offset + jj] = v
    d1 = {
        (e, f): SparseMatrix((entries[(e + 1, f)], entries[(e, f)]), mat)
        for (e, f), mat in diffs.items()
    }
    return SpectralSequencePage(1, entries, d1)
