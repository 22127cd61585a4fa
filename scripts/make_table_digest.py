"""Write the Hodge-table digest tests/data/table_digest.tsv.

One line per input, sorted: the input key, a tab, the Hodge table.  The
inputs are the principal matrices of all 112 connected graphs with 6
vertices (edges oriented low to high) and 40 draws of
``random_acyclic_matrix(random.Random(1), 5, 5)`` from tests/conftest.py.
The key is the matrix itself, "<n>x<m>" and then its rows, each a
comma-separated list, so a line can be recomputed without this script; the
table lists "k,s:dim" for every nonzero entry in (k, s) order.

Every line is cross-checked before it is written: ``hodge_table`` with
its table checks (curious Lefschetz, the support bounds and the top class),
the alternating point-count identity against ``point_count_poly`` (it holds
on every input here, not only the really-full-rank ones), and
``point_count_poly`` against ``brute_force_count`` at the smallest prime
q = 1 mod 2N (N the polynomial's modulus).  ``ENUMERATION_GUARD`` bounds
the nominal q^(2n) (q-1)^m tuples, far more than the factored enumeration
visits; two of the draws pass it at their q, so the script lifts it and
every line gets its brute-force count (about 1.5 s for both).  A failed
check stops the script before the file is written.  Regenerate the digest
only when the tables are meant to change, and review the diff.

Usage: PYTHONPATH=src python scripts/make_table_digest.py
"""

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from conftest import random_acyclic_matrix  # noqa: E402

from clusterhodge import counts  # noqa: E402
from clusterhodge.counts import (  # noqa: E402
    _is_prime,
    brute_force_count,
    point_count_poly,
)
from clusterhodge.exchange import principal_from_graph  # noqa: E402
from clusterhodge.graphs import connected_graphs  # noqa: E402
from clusterhodge.gysin import hodge_table  # noqa: E402

DIGEST = ROOT / "tests" / "data" / "table_digest.tsv"
RANDOM_SEED = 1
RANDOM_DRAWS = 40


def corpus() -> list:
    matrices = [principal_from_graph(g) for g in connected_graphs(6)]
    rng = random.Random(RANDOM_SEED)
    matrices += [random_acyclic_matrix(rng, 5, 5) for _ in range(RANDOM_DRAWS)]
    return matrices


def key_of(matrix) -> str:
    rows = " ".join(",".join(map(str, row)) for row in matrix.rows)
    return f"{matrix.n}x{matrix.m} {rows}"


def render_table(table) -> str:
    return " ".join(f"{k},{s}:{v}" for (k, s), v in sorted(table.dims.items()))


def checked_line(matrix) -> str:
    table = hodge_table(matrix)  # raises ConsistencyError on a failed table check
    counted = point_count_poly(matrix)
    key = key_of(matrix)
    if table.point_count_polynomial() != counted.polynomial:
        raise SystemExit(f"point-count identity fails for {key}")
    q = 3
    while not _is_prime(q) or (q - 1) % (2 * counted.modulus):
        q += 1
    if brute_force_count(matrix, q) != counted(q):
        raise SystemExit(f"brute-force count at q={q} disagrees for {key}")
    return f"{key}\t{render_table(table)}"


def run() -> None:
    counts.ENUMERATION_GUARD = 10**12
    lines = sorted({checked_line(m) for m in corpus()})
    if len(lines) != 112 + RANDOM_DRAWS:
        raise SystemExit(f"expected {112 + RANDOM_DRAWS} inputs, got {len(lines)}")
    DIGEST.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    run()
