"""Dump the filtration spectral sequence of a matrix file, page by page.

Prints each page's entries (e, f, s, dim), the observed collapse page per
weight, and the comparison of E_1 with the independence-complex assembly:
the entries and the rank of every d_1 of the reduction's page E_1 against
those of ``e1_page``.  Exits 1 when some weight disagrees, else 0.

Usage: python scripts/page_report.py MATRIX_FILE [--s WEIGHT]
"""

import argparse
import sys

from clusterhodge.filtration import (
    SpectralSequencePage,
    build_filtered,
    e1_page,
    observed_collapse_page,
    spectral_sequence,
)
from clusterhodge.io import load_matrix
from clusterhodge.linalg import rank


def _d1_ranks(page: SpectralSequencePage) -> dict[tuple[int, int], int]:
    ranks = {key: rank(list(mat.nonzeros.values())) for key, mat in page.differentials.items()}
    return {key: r for key, r in ranks.items() if r}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("matrix")
    parser.add_argument("--s", type=int, default=None)
    args = parser.parse_args()
    matrix = load_matrix(args.matrix)
    weights = [args.s] if args.s is not None else range(matrix.d + 1)
    disagree = False
    for s in weights:
        fc = build_filtered(matrix, s)
        pages = spectral_sequence(fc)
        page, independent = pages[1], e1_page(matrix, s)
        agree = (page.entries, _d1_ranks(page)) == (independent.entries, _d1_ranks(independent))
        disagree |= not agree
        print(f"== weight s={s}: collapse at page {observed_collapse_page(pages)},"
              f" E1 matches independence complexes: {agree} ==")
        for page in pages:
            if not page.entries:
                continue
            cells = " ".join(
                f"({e},{f})={v}" for (e, f), v in sorted(page.entries.items())
            )
            print(f"  E_{page.r}: {cells}")
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main())
