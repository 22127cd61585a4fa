import itertools
import random
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from math import gcd, lcm

import pytest

from clusterhodge.counts import _is_prime, brute_force_count
from clusterhodge.errors import ColumnsDependent, ConsistencyError
from clusterhodge.exchange import (
    ExtendedExchangeMatrix,
    _anticlique_subgroups,
    quiver,
    underlying_graph,
    validate,
)
from clusterhodge.exterior import bits, mask_of
from clusterhodge.graphs import AnticliqueFamily, Graph, _InducedComplexes, anticliques
from clusterhodge.gysin import GModuleBasis, PositionLabels
from clusterhodge.linalg import CochainComplexQ, Echelon, Row, nullspace
from clusterhodge.poly import IntPolynomial
from clusterhodge.reference import ExteriorForm


def random_acyclic_matrix(
    rng: random.Random, n_max=5, m_max=5, magnitude=3, full_rank=True
):
    """A random extended exchange matrix whose quiver is acyclic.

    Entries above the diagonal (in a random topological order) are
    nonnegative, which forces acyclicity; frozen rows are unconstrained.
    With ``full_rank`` the draw is repeated until the rank is n.
    """
    from clusterhodge.exchange import RankClass, rank_class

    while True:
        n = rng.randint(1, n_max)
        m = rng.randint(0, m_max)
        order = list(range(n))
        rng.shuffle(order)
        pos = {v: i for i, v in enumerate(order)}
        top = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.randint(0, magnitude)
                if pos[i] < pos[j]:
                    top[i][j], top[j][i] = v, -v
                else:
                    top[i][j], top[j][i] = -v, v
        rows = top + [
            [rng.randint(-magnitude, magnitude) for _ in range(n)] for _ in range(m)
        ]
        matrix = validate(rows, n, m)
        if not full_rank or rank_class(matrix) is not RankClass.NOT_FULL_RANK:
            return matrix


def seeded_orientation(graph: Graph, rng: random.Random, magnitudes=(1,)):
    """Orientation/weights maps for principal_from_graph, from one rng."""
    order = list(range(graph.n_vertices))
    rng.shuffle(order)
    pos = {v: i for i, v in enumerate(order)}
    orientation = {}
    weights = {}
    for u, v in sorted(graph.edges):
        orientation[(u, v)] = 1 if pos[u] < pos[v] else -1
        weights[(u, v)] = rng.choice(magnitudes)
    return orientation, weights


def matching_is_acyclic(cx) -> bool:
    """A depth-first search, independent of ``linalg.morse_reduce``: no
    directed cycle in the graph of cx's nonzero entries, each pointing up
    from its column cell to its row cell, except that the entries of
    ``cx.matching`` point down.  This is the acyclicity of the matching."""
    succ: dict = {}
    for p, cols in enumerate(cx.columns):
        matched = cx.matching[p] if p < len(cx.matching) else {}
        for c, col in enumerate(cols):
            for r in col:
                if matched.get(c) == r:
                    succ.setdefault((p + 1, r), []).append((p, c))
                else:
                    succ.setdefault((p, c), []).append((p + 1, r))
    done: set = set()
    for root in succ:
        if root in done:
            continue
        on_path = {root}
        stack = [(root, iter(succ[root]))]
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if nxt in on_path:
                    return False
                if nxt not in done:
                    on_path.add(nxt)
                    stack.append((nxt, iter(succ.get(nxt, ()))))
                    break
            else:
                stack.pop()
                on_path.discard(node)
                done.add(node)
    return True


def is_acyclic_by_graphlib(matrix: ExtendedExchangeMatrix) -> bool:
    """``exchange.is_acyclic`` by graphlib's topological sort of the
    quiver's arcs, as the package did before its Kahn walk: the reference."""
    order = TopologicalSorter()
    for i, j in quiver(matrix).arcs:
        order.add(j, i)
    try:
        order.prepare()
    except CycleError:
        return False
    return True


def j_major_matching(cx, n: int) -> list[dict[int, int]]:
    """The element matching of a Gysin complex, made in the order the
    package used before it wrote one position at a time: j-major, each
    mutable j ascending over every position in turn, a position's sources
    in cell order.  The unit entry of the block I -> I u {j} from (I, A) is
    the one at (I u {j}, A - {j}) when that cell exists; it is matched when
    neither cell is matched yet.  A reference for the position-major
    matching that ``GysinBuilder.stream_for_s`` makes as it writes."""
    index = [{label: r for r, label in enumerate(pos)} for pos in cx.labels]
    taken = [bytearray(len(pos)) for pos in cx.labels]
    matching: list[dict[int, int]] = [{} for _ in cx.columns]
    for j in range(n):
        bit = 1 << j
        for p in range(len(cx.columns)):
            for c, (i_mask, a_mask) in enumerate(cx.labels[p]):
                if i_mask & bit or not a_mask & bit:
                    continue
                r = index[p + 1].get((i_mask | bit, a_mask ^ bit))
                if r is None or taken[p][c] or taken[p + 1][r]:
                    continue
                assert cx.columns[p][c][r] in (1, -1)
                matching[p][c] = r
                taken[p][c] = taken[p + 1][r] = 1
    return matching


def source_major_rho_into(
    builder, cols, i_mask, j, src_masks, src_off, dst_rows, eps, below, above, up
):
    """``GysinBuilder._rho_into`` walking the sources: each A mask of G^I at
    the weight, ascending, at column ``src_off + c``; ``dst_rows`` maps each
    A mask of G^{I u j} to its row.  A source without j maps to zero, one
    with j but not t (N(I u j) = N(I) plus t) to the unit entry at A - j,
    one with both to the terms of ``substitution[t]`` that A - j - t lacks.
    The reference for the writer that walks the targets."""
    j_bit = 1 << j
    source, target = builder.basis(i_mask), builder.basis(i_mask | j_bit)
    t_bit = target.row_mask & ~source.row_mask
    assert t_bit.bit_count() == 1, "N(I u j) must be N(I) plus one row"
    above_j = j + 1
    jt = j_bit | t_bit
    outer = -eps if t_bit > j_bit else eps
    terms = [
        (bit, -(j_bit << 1) ^ -t_bit ^ -bit, outer * c2)
        for bit, c2 in target.substitution[t_bit.bit_length() - 1].items()
    ]
    for c, a_mask in enumerate(src_masks, src_off):
        held = a_mask & jt
        if held == j_bit:
            row = dst_rows[a_mask ^ j_bit]
            cols[c][row] = -eps if (a_mask >> above_j).bit_count() & 1 else eps
            if not (below[c] or above[row]):
                up[c] = row
                below[c] = above[row] = 1
        elif held == jt:
            rest = a_mask ^ jt
            col = cols[c]
            for bit, signs, v in terms:
                if not rest & bit:
                    col[dst_rows[rest | bit]] = -v if (rest & signs).bit_count() & 1 else v


def source_major_rho_columns(builder, i_mask: int, j: int, s: int):
    """``GysinBuilder.rho_columns`` on ``source_major_rho_into``."""
    src = builder.basis(i_mask).masks_of_degree(s)
    dst = builder.basis(i_mask | (1 << j)).masks_of_degree(s)
    cols: list[dict] = [dict() for _ in src]
    rows = {a: r for r, a in enumerate(dst)}
    eps = -1 if (i_mask.bit_count() + (i_mask >> (j + 1)).bit_count()) & 1 else 1
    source_major_rho_into(
        builder, cols, i_mask, j, src, 0, rows, eps, bytearray(len(src)), bytearray(len(dst)), {}
    )
    return src, dst, cols


def source_major_stream(builder, s: int):
    """``GysinBuilder.stream_for_s`` on ``source_major_rho_into``: the same
    positions, blocks in the same order (j ascending, then I ascending), each
    target's rows indexed per A mask."""
    levels = builder.family.by_cardinality
    masks: dict[int, list[int]] = {}
    offset: dict[int, int] = {}

    def index(level):
        labels = PositionLabels(level, [builder.basis(i).masks_of_degree(s) for i in level])
        for i_mask, off, a_masks in zip(level, labels.starts, labels.masks):
            offset[i_mask], masks[i_mask] = off, a_masks
        return labels

    labels = index(levels[0])
    taken = bytearray(len(labels))
    for p, level in enumerate(levels[:-1]):
        next_labels = index(levels[p + 1])
        next_taken = bytearray(len(next_labels))
        cols: list[dict] = [{} for _ in range(len(labels))]
        up: dict[int, int] = {}
        rows: dict[int, dict[int, int]] = {}
        for j in range(builder.matrix.n):
            for i_mask in level:
                new_mask = i_mask | (1 << j)
                if new_mask == i_mask or not (masks[i_mask] and masks.get(new_mask)):
                    continue
                if new_mask not in rows:
                    off = offset[new_mask]
                    rows[new_mask] = {a: off + r for r, a in enumerate(masks[new_mask])}
                src = masks[i_mask], offset[i_mask]
                source_major_rho_into(
                    builder, cols, i_mask, j, *src, rows[new_mask], 1, taken, next_taken, up
                )
        yield labels, cols, up
        labels, taken = next_labels, next_taken
    yield labels, None, {}


def stream_indexing_every_level(builder, s: int):
    """``GysinBuilder.stream_for_s`` as the package wrote it before it
    stopped at position min(s, d - s): every anticlique level indexed and
    its records made, every (j, I) pair walked for each mutable j
    ascending, then each I ascending, and a block skipped when j is in I,
    I u {j} is no anticlique, or either side has no cell at the weight.
    The reference for the writer that leaves the empty positions alone."""
    levels = builder.family.by_cardinality
    masks: dict[int, list[int]] = {}
    offset: dict[int, int] = {}

    def index(level):
        labels = PositionLabels(level, [builder.basis(i).masks_of_degree(s) for i in level])
        for i_mask, off, a_masks in zip(level, labels.starts, labels.masks):
            offset[i_mask], masks[i_mask] = off, a_masks
        return labels

    labels = index(levels[0])
    taken = bytearray(len(labels))
    for p, level in enumerate(levels[:-1]):
        next_labels = index(levels[p + 1])
        next_taken = bytearray(len(next_labels))
        cols: list[dict] = [{} for _ in range(len(labels))]
        up: dict[int, int] = {}
        columns: dict[int, dict[int, int]] = {}
        for j in range(builder.matrix.n):
            for i_mask in level:
                new_mask = i_mask | (1 << j)
                if new_mask == i_mask or not (masks[i_mask] and masks.get(new_mask)):
                    continue
                if i_mask not in columns:
                    off = offset[i_mask]
                    columns[i_mask] = {a: off + c for c, a in enumerate(masks[i_mask])}
                builder._rho_into(
                    cols,
                    i_mask,
                    j,
                    columns[i_mask],
                    masks[new_mask],
                    offset[new_mask],
                    1,
                    taken,
                    next_taken,
                    up,
                )
        yield labels, cols, up
        labels, taken = next_labels, next_taken
    yield labels, None, {}


def submasks(mask: int):
    """Every submask of mask, the mask itself first and 0 last."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def augmented_complex_by_bits(family: AnticliqueFamily) -> CochainComplexQ:
    """``graphs.augmented_cochain_complex`` with each face's bits listed by
    ``bits``: the reference for the inline bit walk."""
    labels = [list(level) for level in family.by_cardinality]
    columns = []
    for p in range(len(labels) - 1):
        index = {f: c for c, f in enumerate(labels[p])}
        cols: list[dict[int, int]] = [{} for _ in labels[p]]
        for r, g in enumerate(labels[p + 1]):
            for below, v in enumerate(bits(g)):
                c = index.get(g & ~(1 << v))
                if c is not None:
                    cols[c][r] = -1 if below & 1 else 1
        columns.append(cols)
    return CochainComplexQ(labels, columns)


def e1_summands_full_walk(matrix: ExtendedExchangeMatrix, s: int) -> tuple[dict, dict]:
    """(entries, positions) of ``filtration._e1_summands`` by the full walk:
    every (D, E) summand of weight s, D by D (ascending masks) and E by E
    (lexicographic), each sized by the cohomology of the complex of E minus
    D itself (no join rule): the reference for the walk that visits only
    the summands with cohomology."""
    n = matrix.n
    graph = underlying_graph(matrix)
    dims: dict[int, dict[int, int]] = {}
    sizes = range(max(s - n, 0), min(s, n) + 1)
    masks = {k: list(map(mask_of, itertools.combinations(range(n), k))) for k in sizes}
    entries: dict[tuple[int, int], int] = {}
    positions: dict[tuple[int, int, int, int], tuple[int, int]] = {}
    for d_mask in sorted(m for k in sizes for m in masks[k]):
        esize = s - d_mask.bit_count()
        for e_mask in masks[esize]:
            x_mask = e_mask & ~d_mask
            if x_mask not in dims:
                dims[x_mask] = augmented_complex_by_bits(
                    anticliques(graph, x_mask)
                ).cohomology_dims()
            for p, h in dims[x_mask].items():
                e, f = esize, p - esize
                entries[(e, f)] = entries.get((e, f), 0) + h
                positions[(d_mask, e_mask, e, f)] = (entries[(e, f)] - h, h)
    return entries, positions


def pages_by_full_scan(fc, pairs: list[tuple[int, int, int, int]], last: int) -> list:
    """(r, entries, differentials) of pages E_0, ..., E_last of
    ``filtration.spectral_sequence`` by scanning every cell afresh for each
    page, d_r a dense zero-filled Fraction matrix: the reference for the
    pages made from one bucketing of the pairs.  A cell survives to E_r when
    it is unpaired or paired across a gap of at least r; each entry's basis
    is its survivors in index order, and d_r is the partial identity on the
    pairs of gap exactly r."""
    gaps: list[list[int | None]] = [[None] * len(cells) for cells in fc.levels]
    for k, c, t, gap in pairs:
        gaps[k][c] = gaps[k + 1][t] = gap
    pages = []
    for r in range(last + 1):
        basis: dict[tuple[int, int], dict[int, int]] = {}
        for k, cells in enumerate(fc.levels):
            for cell, (e, gap) in enumerate(zip(cells, gaps[k])):
                if gap is None or gap >= r:
                    spot = basis.setdefault((e, k), {})
                    spot[cell] = len(spot)
        entries = {(e, k - e): len(spot) for (e, k), spot in basis.items()}
        diffs: dict[tuple[int, int], list[list[Fraction]]] = {}
        for k, c, t, gap in pairs:
            if gap != r:
                continue
            e = fc.levels[k][c]
            source, target = basis[(e, k)], basis[(e + r, k + 1)]
            mat = diffs.get((e, k - e))
            if mat is None:
                mat = diffs[(e, k - e)] = [[Fraction(0)] * len(source) for _ in target]
            mat[target[t]][source[c]] = Fraction(1)
        pages.append((r, entries, diffs))
    return pages


def dense_from_nonzeros(mat) -> list[list[Fraction]]:
    """The dense rows of a ``filtration.SparseMatrix``, filled from its
    ``nonzeros`` alone."""
    rows, cols = mat.shape
    dense = [[Fraction(0)] * cols for _ in range(rows)]
    for i, row in mat.nonzeros.items():
        for j, v in row.items():
            dense[i][j] = v
    return dense


def mv_delta_by_face_scan(graph: Graph, x_mask: int, a: int, b: int) -> dict:
    """``graphs.mv_delta`` by scanning every face of I(X u {a, b}) for those
    that contain a, each looked up in a face index of I(X) made per call:
    the reference for the support walk, with the same cohomology bases."""
    memo = _InducedComplexes(graph)
    big_mask = x_mask | 1 << a | 1 << b
    out = {}
    for p in memo.dims(x_mask):
        small, big = memo.complex(x_mask), memo.complex(big_mask)
        src = memo.classes(x_mask, p)
        dst = memo.classes(big_mask, p + 1)
        big_faces = big.labels[p + 1] if p + 1 < big.positions else []
        small_faces = {f: i for i, f in enumerate(small.labels[p])}
        cols = []
        for rep in src.representatives:
            eta = {}
            for i, f in enumerate(big_faces):
                if not (f >> a & 1):
                    continue
                j = small_faces.get(f & ~(1 << a))
                if j is None or not rep.get(j):
                    continue
                sign = -1 if ((f >> (a + 1)).bit_count() & 1) else 1
                eta[i] = rep[j] * sign
            cols.append(dst.coordinates(eta))
        out[p - 1] = [[cols[j][i] for j in range(len(cols))] for i in range(dst.dim)]
    return out


def _reference_primitive(row: Row) -> dict[int, int]:
    """Clear denominators and divide by the content; the span is unaffected."""
    denom = lcm(*(v.denominator for v in row.values()))
    ints = {c: v.numerator * (denom // v.denominator) for c, v in row.items() if v}
    g = gcd(*ints.values())
    if g > 1:
        ints = {c: v // g for c, v in ints.items()}
    return ints


class ReferenceEchelon:
    """``linalg.Echelon`` with every row on the rational path: the reference
    for the kernel that keeps integer rows off it.

    Each step replaces ``row`` by ``row*a - piv*b`` with a/b = piv[c]/row[c]
    in lowest terms and divides out the content, whatever a is.
    """

    def __init__(self) -> None:
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: Row) -> dict[int, int]:
        out = _reference_primitive(row)
        while out:
            c = min(out)
            piv = self.pivots.get(c)
            if piv is None:
                return out
            a, b = piv[c], out[c]
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
            g = gcd(*out.values())
            if g > 1:
                out = {k: v // g for k, v in out.items()}
        return out

    def add(self, row: Row) -> dict[int, int] | None:
        red = self.reduce(row)
        if not red:
            return None
        c = min(red)
        if red[c] < 0:
            red = {k: -v for k, v in red.items()}
        self.pivots[c] = red
        return red


def check_square_by_accumulation(cols: list[Row], nxt: list[Row]) -> None:
    """``linalg._check_square`` with every column pushed through nxt by the
    full accumulation, columns of at most one entry too: the reference for
    the columns it decides without arithmetic."""
    for col in cols:
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


def morse_reduce_pushing_every_column(cx: CochainComplexQ):
    """``linalg.morse_reduce`` with d^2 = 0 pushed on every column of cx,
    matched targets too, as ``verify_d2`` pushes them: the reference for the
    reducer, which leaves the matched targets out of that check."""
    from unittest import mock

    from clusterhodge import linalg

    check = linalg._check_square
    with mock.patch.object(
        linalg, "_check_square", lambda cols, nxt, pushed=None: check(cols, nxt)
    ):
        return linalg.morse_reduce(cx)


def clearing_offering_every_column(cx: CochainComplexQ) -> list[dict[int, dict[int, int]]]:
    """``CochainComplexQ.clearing`` with every column that is not cleared
    offered to the ``Echelon``, empty ones included."""
    out = []
    cleared: dict[int, dict[int, int]] = {}
    for cols in cx.columns:
        ech = Echelon()
        for c, col in enumerate(cols):
            if c not in cleared:
                ech.add(col)
        cleared = ech.pivots
        out.append(cleared)
    return out


def lefschetz_by_grid_scan(table) -> None:
    """``HodgeTable.check_lefschetz`` by a scan of the whole grid
    0 <= k <= 2d + 1, 0 <= s <= d, k first: the reference for the check
    that visits only the entries and their partners."""
    d = table.d
    for k in range(0, 2 * d + 2):
        for s in range(0, d + 1):
            if table.dim(k, s) != table.dim(k + d - 2 * s, d - s):
                raise ConsistencyError(f"curious Lefschetz fails at (k,s)=({k},{s})")


def brute_force_by_row_scan(matrix: ExtendedExchangeMatrix, q: int) -> int:
    """``brute_force_count`` with every equation of every zero set read by a
    scan of all d rows, in the same enumeration order and arithmetic: the
    reference for the count that lists each column's entries once."""
    n, d = matrix.n, matrix.d
    rows = [[v and (1 if v > 0 else -1) * ((abs(v) - 1) % (q - 1) + 1) for v in r]
            for r in matrix.rows]
    total = 0
    for z_mask in range(1 << n):
        zeros = bits(z_mask)
        read = sorted(
            {i for j in zeros for i in range(d) if rows[i][j] and not z_mask >> i & 1}
        )
        slot = {i: 1 + t for t, i in enumerate(read)}
        equations = [
            (
                [(slot.get(i, 0), rows[i][j]) for i in range(d) if rows[i][j] > 0],
                [(slot.get(i, 0), -rows[i][j]) for i in range(d) if rows[i][j] < 0],
            )
            for j in zeros
        ]
        solutions = 0
        for values in itertools.product(range(1, q), repeat=len(read)):
            coords = (0,) + values
            for pos, neg in equations:
                a = b = 1
                for t, e in pos:
                    a = a * pow(coords[t], e, q)
                for t, e in neg:
                    b = b * pow(coords[t], e, q)
                if (a + b) % q:
                    break
            else:
                solutions += 1
        unread = d - len(zeros) - len(read)
        total += q ** len(zeros) * (q - 1) ** unread * solutions
    return total


def point_count_by_level_products(matrix: ExtendedExchangeMatrix) -> tuple[IntPolynomial, int]:
    """``point_count_poly``'s polynomial and modulus of a full-rank acyclic
    matrix as the sum over anticlique levels k of q^k (q-1)^(d-2k) w_k, built
    from ``IntPolynomial`` powers and products, w_k the sum of |X*(I)| over
    the level and the modulus the lcm of their exponents: the reference for
    the count that expands each level by the binomial theorem."""
    family = anticliques(underlying_graph(matrix))
    subgroups = _anticlique_subgroups(matrix, family.all_masks())
    q, qm1 = IntPolynomial.x(), IntPolynomial.from_coeffs([-1, 1])
    total, modulus = IntPolynomial.zero(), 1
    for k, level in enumerate(family.by_cardinality):
        weight = sum(subgroups[i_mask].order for i_mask in level)
        modulus = lcm(modulus, *(subgroups[i_mask].exponent for i_mask in level))
        level_poly = (q**k) * (qm1 ** (matrix.d - 2 * k)) * IntPolynomial.from_coeffs([weight])
        total = total + level_poly
    return total, modulus


def rows_at(cx: CochainComplexQ, p: int) -> list[Row]:
    """The differential of cx out of position p, as rows over its basis."""
    rows: list[Row] = [dict() for _ in range(cx.dim(p + 1))]
    if 0 <= p < len(cx.columns):
        for c, col in enumerate(cx.columns[p]):
            for r, v in col.items():
                rows[r][c] = v
    return rows


class Quotient:
    """Representatives of span(candidates) modulo span(base), with coordinates.

    One ``Echelon`` takes the base rows, then, in order, each candidate that
    is independent modulo everything before it, tagged with a marker column
    of its own past the ambient ``width``; ``chosen`` lists those candidates.
    A candidate reduced against marker-carrying pivots picks up their
    markers, so it is independent only if a column below ``width`` is left.
    """

    def __init__(self, base: list[Row], candidates: list[Row]):
        self.width = max((max(v) + 1 for v in (*base, *candidates) if v), default=0)
        self._ech = Echelon()
        for row in filter(None, base):
            self._ech.add(row)
        self.chosen: list[int] = []
        for i, cand in enumerate(candidates):
            red = self._ech.reduce({**cand, self.width + len(self.chosen): 1})
            if min(red) < self.width:
                self._ech.add(red)
                self.chosen.append(i)

    def coordinates(self, vector: Row) -> list[Fraction] | None:
        """c with vector - sum_j c_j cand[chosen[j]] in span(base), else None."""
        if any(v for c, v in vector.items() if c >= self.width):
            return None
        marker = self.width + len(self.chosen)
        red = self._ech.reduce({**vector, marker: 1})
        if min(red) < self.width:
            return None
        scale = red.pop(marker)
        coeffs = [Fraction(0)] * len(self.chosen)
        for c, v in red.items():
            coeffs[c - self.width] = Fraction(-v, scale)
        return coeffs


class CohomologyClasses:
    """Cocycle representatives of H^p with coordinates modulo coboundaries,
    as the ``Quotient`` of a ``nullspace`` of d_p by the columns of d_p-1:
    the reference for ``linalg.CohomologyBasis``, which reads both off the
    clearing reduction."""

    def __init__(self, cx: CochainComplexQ, p: int):
        self.p = p
        cocycles = nullspace(rows_at(cx, p), cx.dim(p))
        incoming = cx.columns[p - 1] if 0 < p <= len(cx.columns) else []
        self._quotient = Quotient(incoming, cocycles)
        self.representatives = [cocycles[i] for i in self._quotient.chosen]

    @property
    def dim(self) -> int:
        return len(self.representatives)

    def coordinates(self, vector: Row) -> list[Fraction]:
        coeffs = self._quotient.coordinates(vector)
        if coeffs is None:
            raise ValueError("vector is not a cocycle at this position")
        return coeffs


def _inverse(mat: list[list]) -> list[list]:
    """The inverse of an invertible square matrix over Q, by Gauss-Jordan.

    Entries stay ints while every pivot is +-1, as on principal inputs.
    """
    k = len(mat)
    aug = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(mat)]
    for col in range(k):
        piv = next(r for r in range(col, k) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col][col]
        if lead == -1:
            aug[col] = [-v for v in aug[col]]
        elif lead != 1:
            aug[col] = [Fraction(v) / lead for v in aug[col]]
        top = aug[col]
        for r in range(k):
            f = aug[r][col]
            if r != col and f:
                aug[r] = [a - f * b for a, b in zip(aug[r], top)]
    return [row[k:] for row in aug]


def greedy_record(matrix: ExtendedExchangeMatrix, i_mask: int) -> GModuleBasis:
    """The record of the anticlique I made from scratch: N(I) by a greedy
    ``Echelon`` rank test on the columns of I (frozen rows offered first,
    then mutable, each ascending), and the substitution table from the
    Gauss-Jordan inverse of B~_{N(I),I}, which solves B~_{N(I),I} c = e_t
    for every t at once; the free dlog x_r then carries -sum_i c_i B~_{r,i}.
    The reference for ``GysinBuilder.basis``, which makes each record from
    its parent's by one elimination step."""
    rows, n, d = matrix.rows, matrix.n, matrix.d
    cols = bits(i_mask)
    selected: list[int] = []
    ech = Echelon()
    for r in list(range(n, d)) + list(range(n)):
        if len(selected) == len(cols):
            break
        if ech.add({c: rows[r][i] for c, i in enumerate(cols)}) is not None:
            selected.append(r)
    if len(selected) < len(cols):
        raise ColumnsDependent(f"columns {cols} of the exchange matrix are dependent")
    selected.sort()
    row_mask = mask_of(selected)
    allowed = ((1 << d) - 1) & ~(i_mask | row_mask)
    free = bits(allowed)
    inverse = _inverse([[rows[t][i] for i in cols] for t in selected])
    substitution = {}
    for k, t in enumerate(selected):
        c = [(row[k], i) for row, i in zip(inverse, cols) if row[k]]
        terms = substitution[t] = {}
        for r in free:
            v = -sum(ci * rows[r][i] for ci, i in c)
            if v:
                terms[1 << r] = v.numerator if v.denominator == 1 else v
    top_down = tuple(1 << r for r in reversed(free))
    return GModuleBasis(tuple(cols), tuple(selected), row_mask, allowed, top_down, substitution)


def lagrange_interpolate(points: list[tuple[int, int]]) -> IntPolynomial:
    """Exact interpolation through integer points; must yield integer coeffs."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        num = [Fraction(1)]  # prod over j != i of (x - x_j), expanded
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            denom *= xi - xj
            new = [Fraction(0)] * (len(num) + 1)
            for k, c in enumerate(num):
                new[k + 1] += c
                new[k] -= Fraction(xj) * c
            num = new
        scale = Fraction(yi) / denom
        for k, c in enumerate(num):
            coeffs[k] += scale * c
    assert all(c.denominator == 1 for c in coeffs), "non-integer interpolation"
    return IntPolynomial(tuple(int(c) for c in coeffs))


def interpolate_point_count(matrix: ExtendedExchangeMatrix, modulus: int) -> IntPolynomial:
    """Recover the counting polynomial from brute-force values.

    Uses d+1 primes congruent to 1 mod 2*modulus (all primes when the
    modulus is 1) and exact Lagrange interpolation.
    """
    need = matrix.d + 1
    points = []
    q = 2
    while len(points) < need:
        q += 1
        if not _is_prime(q) or (q - 1) % (2 * modulus):
            continue
        points.append((q, brute_force_count(matrix, q)))
    return lagrange_interpolate(points)


def wedge_all(forms: list[ExteriorForm]) -> ExteriorForm:
    """The wedge of forms, left to right."""
    acc = ExteriorForm.one()
    for f in forms:
        acc = acc.wedge(f)
        if not acc:
            break
    return acc


def rank_relative(base: list[dict], extra: list[dict]) -> tuple[int, list[int]]:
    """rank(base+extra) - rank(base), plus indices of extra rows that grew it."""
    ech = Echelon()
    for r in base:
        ech.add(r)
    grew = []
    for i, r in enumerate(extra):
        if ech.add(r) is not None:
            grew.append(i)
    return len(grew), grew


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """The product of two dense integer matrices."""
    cols = len(b[0]) if b else 0
    return [
        [sum(ar[k] * b[k][j] for k in range(len(b))) for j in range(cols)]
        for ar in a
    ]


@pytest.fixture
def rng():
    return random.Random(20240817)


# a small really-full-rank corpus reused by invariant tests; the last two
# force mutable rows into the N(I) selections
CORPUS_ROWS = [
    ([[0], [1]], 1, 1),
    ([[0, 1], [-1, 0], [1, 0], [0, 1]], 2, 2),
    ([[0, 1], [-1, 0], [1, 1]], 2, 1),
    ([[0, 1, 0], [-1, 0, 1], [0, -1, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], 3, 3),
    ([[0, 2, 0], [-2, 0, 1], [0, -1, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], 3, 3),
    ([[0, 1], [-1, 0], [0, 1]], 2, 1),
    ([[0, 1, 1], [-1, 0, 1], [-1, -1, 0], [0, 0, 1], [0, 1, 0]], 3, 2),
]

FULL_RANK_ROWS = CORPUS_ROWS + [
    ([[0], [2]], 1, 1),
    ([[0, 2], [-2, 0]], 2, 0),
    ([[0, 4], [-4, 0]], 2, 0),
    ([[0, 2], [-2, 0], [1, 0]], 2, 1),
    ([[0, 1, 0], [-1, 0, 2], [0, -2, 0], [1, 1, 1]], 3, 1),
]


# full rank, with character groups of the three shapes the Moebius counts
# must get right: X* = Z/2 x Z/6 (not cyclic, 5 characters of support
# {0, 1}); Z_4 with X* = Z/6 and supports of sizes 2 and 3; and [0; 12]
ISOLATED_2_6 = validate([[0, 0], [0, 0], [2, 0], [0, 6]], 2, 2)
STAR4_2_3_4_6 = validate(
    [[0, 1, 1, 1], [-1, 0, 0, 0], [-1, 0, 0, 0], [-1, 0, 0, 0]]
    + [[c if i == j else 0 for j in range(4)] for i, c in enumerate((2, 3, 4, 6))],
    4,
    4,
)
CYCLIC_12 = validate([[0], [12]], 1, 1)


def corpus() -> list[ExtendedExchangeMatrix]:
    return [validate(rows, n, m) for rows, n, m in CORPUS_ROWS]


def full_rank_corpus() -> list[ExtendedExchangeMatrix]:
    return [validate(rows, n, m) for rows, n, m in FULL_RANK_ROWS]


def assembly_corpus() -> list[ExtendedExchangeMatrix]:
    """Principal quivers of every graph with at most 5 vertices, the star Z_4
    with frozen block 2I, a rational frozen rescale, and 20 seeded random
    acyclic matrices: the inputs on which Gysin assembly and cohomology
    ranks are compared with their references."""
    from fractions import Fraction

    from clusterhodge.exchange import principal_from_graph, validate_rational
    from clusterhodge.graphs import all_graphs, star_graph

    out = [principal_from_graph(g) for v in range(1, 6) for g in all_graphs(v)]
    z4 = principal_from_graph(star_graph(4))
    frozen_2i = [[2 if i == j else 0 for j in range(4)] for i in range(4)]
    out.append(validate(z4.top_block() + frozen_2i, 4, 4))
    out.append(
        validate_rational(
            [[0, 1], [-1, 0], [Fraction(1, 2), 0], [0, Fraction(1, 3)]], 2, 2
        )
    )
    rng = random.Random(515)
    out += [random_acyclic_matrix(rng, 4, 4) for _ in range(20)]
    return out
