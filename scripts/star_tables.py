"""Print Hodge tables and generating functions for star quivers.

The star Z_n (one hub, n-1 leaves) with principal coefficients is the
worked example family: the full table concentrates on the rows k = s and
k = s+1, with the diagonal equal to (1+x)^{n-1} (1 + x + ... + x^{n+1}).

Usage: python scripts/star_tables.py [--max-n 5]
"""

import argparse
import time

from clusterhodge.exchange import principal_from_graph
from clusterhodge.graphs import star_graph
from clusterhodge.gysin import hodge_table
from clusterhodge.reference import standard_poincare


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-n", type=int, default=5)
    args = parser.parse_args()
    for n in range(2, args.max_n + 1):
        matrix = principal_from_graph(star_graph(n))
        t0 = time.time()
        table = hodge_table(matrix)
        elapsed = time.time() - t0
        print(f"== star Z_{n} (d = {matrix.d}), {elapsed:.1f}s ==")
        print("  diagonal   :", table.diagonal_polynomial().render("x"))
        print("  standard   :", standard_poincare(matrix).render("x"))
        print("  row k=s+1  :", table.offdiagonal_polynomial().render("x"))
        print("  point count:", table.point_count_polynomial().render("q"))


if __name__ == "__main__":
    main()
