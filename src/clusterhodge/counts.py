"""Point counts, graph statistics and the closed-form small-weight formulas.

The point count of an acyclic cluster variety over F_q is assembled from the
anticlique stratification: each stratum for an anticlique of size k is an
affine k-space times a torus of dimension n+m-2k, weighted by the number of
components |X*(I)|, read off a Smith normal form with no element listed;
the weighted formula is valid at primes q = 1 mod 2N where N is the common
exponent of the groups X*(I).  The brute-force oracle counts solutions of
the defining exchange equations directly and knows nothing about
anticliques.  It sums over the set Z of vanishing mutable
coordinates: only the equations j in Z constrain a point with that zero set,
so it enumerates just the nonzero coordinates those equations read,
evaluates each equation literally on them, and counts every other
coordinate by its number of values (q for x'_j with j in Z, q-1 for an
unread nonzero coordinate).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb, lcm

from .errors import InputError, NotAcyclic, NotFullRank, NotPrincipal, TooLarge
from .exchange import (
    CharacterSubgroup,
    ExtendedExchangeMatrix,
    RankClass,
    _anticlique_subgroups,
    is_acyclic,
    is_principal,
    rank_class,
    underlying_graph,
)
from .exterior import bits
from .graphs import Graph, anticliques
from .gysin import _table_rank_class_and_subgroups
from .poly import IntPolynomial

ENUMERATION_GUARD = 10**8


@dataclass(frozen=True)
class PointCountResult:
    """#A(F_q) as a polynomial in q, valid for primes q = 1 mod 2*modulus."""

    polynomial: IntPolynomial
    modulus: int  # the count is proven for primes q = 1 mod 2*modulus

    def __call__(self, q: int) -> int:
        return self.polynomial(q)


def point_count_poly(matrix: ExtendedExchangeMatrix) -> PointCountResult:
    """#A(F_q) as a polynomial in q, plus the congruence modulus N."""
    if not is_acyclic(matrix):
        raise NotAcyclic("point counts need an acyclic quiver")
    return _point_count(matrix, rank_class(matrix))


def _point_count(
    matrix: ExtendedExchangeMatrix,
    rc: RankClass,
    subgroups: dict[int, CharacterSubgroup] | None = None,
) -> PointCountResult:
    """``point_count_poly`` of an acyclic matrix whose rank class is rc;
    ``subgroups`` gives X*(I) by anticlique mask when a caller already has it.
    Level k adds q^k (q-1)^(d-2k) times the sum of its |X*(I)|, and the
    modulus is the lcm of their exponents, both in one pass."""
    if rc is RankClass.NOT_FULL_RANK:
        raise NotFullRank("point counts need a full-rank matrix")
    graph = underlying_graph(matrix)
    family = anticliques(graph)
    d = matrix.d
    q = IntPolynomial.x()
    qm1 = IntPolynomial.from_coeffs([-1, 1])
    total = IntPolynomial.zero()
    modulus = 1
    really = rc is RankClass.REALLY_FULL_RANK
    if not really and subgroups is None:
        subgroups = _anticlique_subgroups(matrix, family.all_masks(), graph)
    for k, level in enumerate(family.by_cardinality):
        if really:  # every |X*(I)| is 1
            weight = len(level)
        else:
            weight = 0
            for i_mask in level:
                sub = subgroups[i_mask]
                weight += sub.order
                modulus = lcm(modulus, sub.exponent)
        total = total + (q**k) * (qm1 ** (d - 2 * k)) * IntPolynomial.from_coeffs([weight])
    return PointCountResult(total, modulus)


# Miller-Rabin with the prime bases up to 41 is exact below psi_13 (Sorenson
# and Webster, Math. Comp. 86 (2017)); without 41 only below psi_12 ~ 3.2e23
PRIME_TEST_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(q: int) -> bool:
    """Deterministic Miller-Rabin; q at or above PRIME_TEST_BOUND is refused."""
    if q >= PRIME_TEST_BOUND:
        raise InputError(
            f"q={q} is not below {PRIME_TEST_BOUND}, where the primality test is exact"
        )
    if q < 2:
        return False
    for a in PRIME_TEST_BASES:
        if q % a == 0:
            return q == a
    r = ((q - 1) & (1 - q)).bit_length() - 1  # q - 1 = 2^r * odd
    odd = (q - 1) >> r
    for a in PRIME_TEST_BASES:
        x = pow(a, odd, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(r - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def _over_guard(matrix: ExtendedExchangeMatrix, q: int) -> bool:
    """True when the nominal q^(2n) (q-1)^m tuples exceed the enumeration guard."""
    return q ** (2 * matrix.n) * (q - 1) ** matrix.m > ENUMERATION_GUARD


def brute_force_count(matrix: ExtendedExchangeMatrix, q: int) -> int:
    """Count points of the exchange-equation model over F_q, q prime.

    A point is (x_1..x_n, x'_1..x'_n, y_1..y_m) with y_i nonzero and
    x_j x'_j = prod x_i^{[B~_ij]+} + prod x_i^{[-B~_ij]+} for every j.  The
    points are grouped by the set Z of mutable x_j that vanish.  Off Z the
    x'_j are determined, so only the equations j in Z constrain a point, and
    for j in Z the x'_j are free (q choices each) exactly when the right
    side vanishes.  Those equations read only the coordinates i with
    B~_ij nonzero, listed with their exponents once per call, column by
    column, so for each Z the nonzero values of the read coordinates
    outside Z are enumerated, Z held at 0, every equation in Z is evaluated
    literally (an exponent e > 0 acts on F_q as (e - 1) % (q - 1) + 1), and
    each solution counts q^|Z| (q-1)^u, u being the number of nonzero
    coordinates no equation in Z reads.  Nothing here uses anticliques or
    characters.
    """
    if not is_acyclic(matrix):
        raise NotAcyclic("the exchange-equation model needs an acyclic seed")
    if not _is_prime(q):
        raise ValueError(f"{q} is not prime")
    if _over_guard(matrix, q):
        raise TooLarge(f"q={q} exceeds the {ENUMERATION_GUARD} tuple guard")
    n, d = matrix.n, matrix.d
    # each equation j's nonzero (row i, exponent of B~_ij on F_q), i ascending
    entries = [
        [
            (i, (1 if v > 0 else -1) * ((abs(v) - 1) % (q - 1) + 1))
            for i, row in enumerate(matrix.rows)
            if (v := row[j])
        ]
        for j in range(n)
    ]
    total = 0
    for z_mask in range(1 << n):
        zeros = bits(z_mask)
        read = sorted({i for j in zeros for i, _ in entries[j] if not z_mask >> i & 1})
        # slot 0 holds the value 0 of every coordinate in Z, slot 1 + t the
        # value of read[t]
        slot = {i: 1 + t for t, i in enumerate(read)}
        equations = [
            (
                [(slot.get(i, 0), e) for i, e in entries[j] if e > 0],
                [(slot.get(i, 0), -e) for i, e in entries[j] if e < 0],
            )
            for j in zeros
        ]
        solutions = 0
        for values in product(range(1, q), repeat=len(read)):
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


# ---------------------------------------------------------------------------
# graph statistics


@dataclass(frozen=True)
class GraphStats:
    """Invariants of a graph that the small-weight E_1 formulas read."""

    components: int  # number of connected components
    isolated: int  # components that are isolated vertices
    degrees: tuple[int, ...]
    e_increments: tuple[int, ...]  # components gained when deleting a vertex
    triangles: int
    h1: int  # dim H^1 = |E| - |V| + components


def graph_stats(graph: Graph) -> GraphStats:
    comps = graph.components()
    iso = sum(1 for c in comps if c.bit_count() == 1)
    degrees = tuple(graph.degree(v) for v in range(graph.n_vertices))
    incs = []
    for v in range(graph.n_vertices):
        rest = ((1 << graph.n_vertices) - 1) & ~(1 << v)
        incs.append(len(graph.components(rest)) - len(comps))
    tri = 0
    for u, v in graph.edges:
        both = graph.adjacency[u] & graph.adjacency[v]
        tri += both.bit_count()
    tri //= 3
    h1 = len(graph.edges) - graph.n_vertices + len(comps)
    return GraphStats(len(comps), iso, degrees, tuple(incs), tri, h1)


# ---------------------------------------------------------------------------
# closed forms for weights s <= 3


def small_weight_entries(
    matrix: ExtendedExchangeMatrix,
) -> dict[int, dict[tuple[int, int], int]]:
    """E_s^{e,f} at weights s = 2 and 3 from the graph-statistic formulas.

    Principal coefficients only; zero entries are left out.  At weight 3 the
    (3,-2) entry is the stabilized corner term
    sum C(d_i, 2) - triangles - sum e_i - isolated.
    """
    if not is_principal(matrix):
        raise NotPrincipal("the small-weight formulas assume principal coefficients")
    stats = graph_stats(underlying_graph(matrix))
    n, ell, ell1, h1 = matrix.n, stats.components, stats.isolated, stats.h1
    pages = {
        2: {(0, 0): comb(n, 2), (1, -1): ell, (2, -1): h1},
        3: {
            (0, 0): comb(n, 3),
            (1, -1): n * ell - ell1,
            (2, -1): n * h1
            - sum(d - e - 1 for d, e in zip(stats.degrees, stats.e_increments)),
            (3, -2): sum(comb(d, 2) for d in stats.degrees)
            - stats.triangles
            - sum(stats.e_increments)
            - ell1,
        },
    }
    return {s: {k: v for k, v in page.items() if v} for s, page in pages.items()}


def closed_form_s_le_3(matrix: ExtendedExchangeMatrix) -> dict[tuple[int, int], int]:
    """dims(k, s) for s <= 3: 1, n, and the small-weight entries summed along k.

    E_s^{e,f} adds to dims(s + e + f, s).  Principal coefficients only.
    """
    out = {(0, 0): 1, (1, 1): matrix.n}
    for s, page in small_weight_entries(matrix).items():
        for (e, f), v in page.items():
            out[(s + e + f, s)] = out.get((s + e + f, s), 0) + v
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# the consistency suite


@dataclass
class CheckResult:
    """One consistency check: its name, PASS / FAIL / SKIP and a detail."""

    name: str
    status: str  # PASS / FAIL / SKIP
    detail: str = ""


@dataclass
class SuiteReport:
    """The results of ``consistency_suite``, in the order the checks ran."""

    checks: list[CheckResult]

    @property
    def failed(self) -> bool:
        return any(c.status == "FAIL" for c in self.checks)

    def render(self) -> str:
        lines = []
        for c in self.checks:
            line = f"[{c.status}] {c.name}"
            if c.detail:
                line += f": {c.detail}"
            lines.append(line)
        return "\n".join(lines)


def consistency_suite(matrix: ExtendedExchangeMatrix) -> SuiteReport:
    """Cross-validate the Hodge table, point counts and closed forms.

    ``hodge_table`` checks its own table and raises ConsistencyError when a
    check fails, so its two lines report PASS, or SKIP for the bounds that
    need really full rank.
    """
    checks: list[CheckResult] = []
    # first, so that its size guard refuses a large input before any Smith
    # normal form is computed; its rank class and anticlique subgroups serve
    # the point count too
    table, rc, subgroups = _table_rank_class_and_subgroups(matrix)
    really = rc is RankClass.REALLY_FULL_RANK
    counted = _point_count(matrix, rc, subgroups)

    if really:
        lhs, rhs = counted.polynomial, table.point_count_polynomial()
        checks.append(
            CheckResult(
                "alternating point-count identity",
                "PASS" if lhs == rhs else "FAIL",
                f"{lhs.render()} vs {rhs.render()}",
            )
        )
    else:
        checks.append(
            CheckResult(
                "alternating point-count identity",
                "SKIP",
                "stated for really full rank only",
            )
        )

    if really:
        checks.append(CheckResult("vanishing bounds", "PASS"))
    else:
        checks.append(
            CheckResult("vanishing bounds", "SKIP", "really-full-rank statement")
        )
    checks.append(CheckResult("curious Lefschetz symmetry", "PASS"))

    if is_principal(matrix):
        closed = closed_form_s_le_3(matrix)
        slice_ = {
            (k, s): v for (k, s), v in table.dims.items() if s <= 3 and v
        }
        checks.append(
            CheckResult(
                "weights s <= 3 closed forms",
                "PASS" if closed == slice_ else "FAIL",
                "" if closed == slice_ else f"formulas {closed} vs table {slice_}",
            )
        )
    else:
        checks.append(
            CheckResult(
                "weights s <= 3 closed forms", "SKIP", "needs principal coefficients"
            )
        )

    primes = []
    q = 2
    while len(primes) < (3 if really else 2) and q < 2000:
        q += 1
        if not _is_prime(q):
            continue
        if (q - 1) % (2 * counted.modulus):
            continue
        if _over_guard(matrix, q):
            break
        primes.append(q)
    if primes:
        bad = [
            q for q in primes if brute_force_count(matrix, q) != counted(q)
        ]
        checks.append(
            CheckResult(
                "brute-force point counts",
                "PASS" if not bad else "FAIL",
                f"q in {primes}" if not bad else f"mismatch at q in {bad}",
            )
        )
    else:
        checks.append(
            CheckResult(
                "brute-force point counts", "SKIP", "no admissible prime under guard"
            )
        )
    return SuiteReport(checks)
