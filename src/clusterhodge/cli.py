"""Command-line interface.

Subcommands and the flags each one takes, from the one table
``_SUBCOMMANDS`` that the parser and ``main`` both read (a subcommand's
help is its handler's docstring):

    hodge      --input M [--format F] [--s S]
    pointcount --input M [--format F] [--q PRIME]
    e1         --input M [--format F] [--s S]
    ss         --input M [--format F] [--s S] [--max-page R]
    indcomplex --graph G [--format F]
    check      --input M [--format F]

Exit codes: 0 success, 1 a consistency check failed, 2 invalid input, bad
flags included, with a JSON diagnostic on stderr.  Output is deterministic;
--format selects text, json or tsv.
"""

from __future__ import annotations

import argparse
import json
import sys

from .counts import _is_prime, consistency_suite, point_count_poly
from .errors import ConsistencyError, InputError
from .exchange import ExtendedExchangeMatrix, underlying_graph
from .filtration import (
    _admit,
    _e1_summands,
    build_filtered,
    observed_collapse_page,
    require_e1_summands,
    spectral_sequence,
)
from .graphs import _InducedComplexes, anticliques, reduced_cohomology
from .gysin import GysinBuilder, HodgeTable, hodge_table
from .io import load_graph, load_matrix


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as invalid input instead of exiting."""

    def error(self, message):
        raise InputError(message)


_FLAGS = {
    "--input": dict(required=True, help="path to an exchange-matrix file"),
    "--graph": dict(required=True, help="path to a graph file"),
    "--s": dict(
        type=int,
        help="print only weight S (hodge still computes and checks every weight)",
    ),
    "--q": dict(type=int, help="evaluate at a prime q"),
    "--max-page": dict(
        type=int,
        help="print pages E_0..E_R only (default: up to stabilization)",
    ),
}


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="clusterhodge",
        description="Mixed Hodge numbers and point counts of acyclic cluster varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        p.add_argument("--format", choices=["text", "json", "tsv"], default="text")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _weights(args: argparse.Namespace, matrix: ExtendedExchangeMatrix) -> list[int]:
    """The weight given by --s, or every weight 0..d."""
    if args.s is None:
        return list(range(matrix.d + 1))
    if not 0 <= args.s <= matrix.d:
        raise InputError(f"--s {args.s} outside [0, {matrix.d}]")
    return [args.s]


def cmd_hodge(args: argparse.Namespace) -> int:
    """mixed Hodge table of the cluster variety"""
    matrix = load_matrix(args.input)
    weights = _weights(args, matrix)
    # every weight is computed: the checks pair weight s with d - s and need d
    full = hodge_table(matrix)
    table = HodgeTable(
        matrix.n, matrix.m, {k: v for k, v in full.dims.items() if k[1] in weights}
    )
    if args.format == "json":
        print(json.dumps(table.to_json_dict(), sort_keys=True))
    elif args.format == "tsv":
        print(table.to_tsv())
    else:
        print(table.to_tsv())
        print("P(x,y) = " + _xy_polynomial(table))
        print("diagonal  : " + table.diagonal_polynomial().render("x"))
        print("next row  : " + table.offdiagonal_polynomial().render("x"))
    return 0


def _xy_polynomial(table: HodgeTable) -> str:
    terms = []
    for (k, s), v in sorted(table.dims.items()):
        coeff = "" if v == 1 else f"{v}*"
        terms.append(f"{coeff}x^{k}*y^{s}")
    return " + ".join(terms) if terms else "0"


def cmd_pointcount(args: argparse.Namespace) -> int:
    """counting polynomial over finite fields"""
    if args.q is not None and not _is_prime(args.q):
        raise InputError(f"--q {args.q} is not prime")
    matrix = load_matrix(args.input)
    result = point_count_poly(matrix)
    payload = {
        "polynomial": result.polynomial.render(),
        "coefficients": list(result.polynomial.coefficients),
        "modulus": result.modulus,
    }
    if args.q is not None:
        payload["value_at_q"] = result(args.q)
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "tsv":
        print("degree\tcoefficient")
        for i, c in enumerate(result.polynomial.coefficients):
            print(f"{i}\t{c}")
    else:
        print(payload["polynomial"])
        if result.modulus > 1:
            print(f"valid for primes q = 1 mod {2 * result.modulus}")
        if args.q is not None:
            print(f"value at q={args.q}: {payload['value_at_q']}")
    return 0


def cmd_e1(args: argparse.Namespace) -> int:
    """first page of the filtration spectral sequence"""
    matrix = load_matrix(args.input)
    weights = _weights(args, matrix)
    _admit(matrix, weights)  # the library's refusals first, then the size of every weight
    require_e1_summands(matrix.n, weights)  # every weight before the first page
    induced = _InducedComplexes(underlying_graph(matrix))  # one memo for all weights
    rows = []
    for s in weights:
        _, entries, _ = _e1_summands(matrix, s, induced)  # the dims only, no differential
        for (e, f), v in sorted(entries.items()):
            if v:
                rows.append((e, f, s, v))
    if args.format == "json":
        print(
            json.dumps(
                [{"e": e, "f": f, "s": s, "dim": v} for e, f, s, v in rows]
            )
        )
        return 0
    print("e\tf\ts\tdim")
    for e, f, s, v in rows:
        print(f"{e}\t{f}\t{s}\t{v}")
    if args.format == "text":
        # bivariate coefficient tables sum dim * x^s y^e, one per antidiagonal
        by_t: dict[int, dict[tuple[int, int], int]] = {}
        for e, f, s, v in rows:
            by_t.setdefault(e + f, {})[(s, e)] = v
        for t in sorted(by_t):
            print(f"coefficients of x^s y^e on e+f={t} (rows e, columns s):")
            table = by_t[t]
            smax = max(s for s, _ in table)
            emax = max(e for _, e in table)
            print("e\\s\t" + "\t".join(str(s) for s in range(smax + 1)))
            for e in range(emax + 1):
                line = [str(table.get((s, e), 0)) for s in range(smax + 1)]
                print(f"{e}\t" + "\t".join(line))
    return 0


def cmd_ss(args: argparse.Namespace) -> int:
    """pages of the filtration spectral sequence"""
    if args.max_page is not None and args.max_page < 0:
        raise InputError(f"--max-page {args.max_page} is negative")
    matrix = load_matrix(args.input)
    weights = _weights(args, matrix)
    _admit(matrix, weights)  # the library's refusals first, then the size of every weight
    builder = GysinBuilder(matrix)  # every weight is sized before the first is built
    builder.require_cells(weights)
    records = []
    collapses = []
    payload = []
    for s in weights:
        fc = build_filtered(matrix, s, builder)
        pages = spectral_sequence(fc, max_page=args.max_page)
        for page in pages:
            for (e, f), v in sorted(page.entries.items()):
                records.append((page.r, e, f, s, v))
            if args.format == "json":
                payload.append(
                    {
                        "s": s,
                        "r": page.r,
                        "entries": [
                            {"e": e, "f": f, "dim": v}
                            for (e, f), v in sorted(page.entries.items())
                        ],
                        "differentials": [
                            {
                                "e": e,
                                "f": f,
                                "triplets": [
                                    [i, j, str(val)]
                                    for i in sorted(mat.nonzeros)
                                    for j, val in sorted(mat.nonzeros[i].items())
                                ],
                            }
                            for (e, f), mat in sorted(page.differentials.items())
                        ],
                    }
                )
        collapses.append((s, observed_collapse_page(pages)))
    if args.format == "json":
        print(json.dumps(payload))
        return 0
    print("r\te\tf\ts\tdim")
    for rec in records:
        print("\t".join(str(x) for x in rec))
    if args.format == "text":
        for s, page in collapses:
            print(f"# weight s={s}: no differentials observed from page {page} on")
    return 0


def cmd_indcomplex(args: argparse.Namespace) -> int:
    """reduced cohomology of a graph's independence complex"""
    graph = load_graph(args.graph)
    cohom = reduced_cohomology(anticliques(graph))
    if args.format == "json":
        print(json.dumps({"dims": {str(k): v for k, v in sorted(cohom.dims.items())}}))
    else:
        print("H~: " + str(dict(sorted(cohom.dims.items()))))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """run the consistency suite"""
    matrix = load_matrix(args.input)
    report = consistency_suite(matrix)
    if args.format == "json":
        print(
            json.dumps(
                [
                    {"name": c.name, "status": c.status, "detail": c.detail}
                    for c in report.checks
                ]
            )
        )
    else:
        print(report.render())
    return 1 if report.failed else 0


# each subcommand once: its handler (whose docstring is its help), its flags but --format
_SUBCOMMANDS = {
    "hodge": (cmd_hodge, ["--input", "--s"]),
    "pointcount": (cmd_pointcount, ["--input", "--q"]),
    "e1": (cmd_e1, ["--input", "--s"]),
    "ss": (cmd_ss, ["--input", "--s", "--max-page"]),
    "indcomplex": (cmd_indcomplex, ["--graph"]),
    "check": (cmd_check, ["--input"]),
}


def main(argv=None) -> int:
    limit = sys.get_int_max_str_digits()
    try:
        args = _parser().parse_args(argv)
        # results may have more digits than the parsers read (io.MAX_DIGITS)
        sys.set_int_max_str_digits(0)
        return _SUBCOMMANDS[args.command][0](args)
    except InputError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
            file=sys.stderr,
        )
        return 2
    except ConsistencyError as exc:
        print(
            json.dumps({"error": "ConsistencyError", "detail": str(exc)}),
            file=sys.stderr,
        )
        return 1
    except OSError as exc:
        print(json.dumps({"error": "OSError", "detail": str(exc)}), file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
