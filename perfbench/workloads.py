"""The four benchmark workloads: inputs, the library calls, canonical outputs.

An input is one call the CLI would make with default flags.  Its spec is
plain data (vertex count, edge list, frozen-block scale, optional weight),
so the stored goldens pin the inputs as well as the outputs.  The seed only
relabels: it draws a permutation of the mutable vertices and one of the
frozen rows per graph, which gives an isomorphic variety and so the same
golden output.  Where a workload needs principal coefficients (the
``is_principal`` test looks for the literal identity block) the frozen rows
follow the mutable permutation.

Every library call goes through a module attribute looked up at call time
(``lib.gysin.hodge_table``), so the traced run's wrappers take effect.
"""

from __future__ import annotations

import importlib
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

WORKLOADS = ("hodge_d12", "check_mixed", "ss_p5", "e1_n7")

LIB_MODULES = ("exchange", "linalg", "graphs", "gysin", "filtration", "counts")


def import_library() -> SimpleNamespace:
    """Import clusterhodge afresh (dropping any earlier import) and return its modules."""
    for name in [m for m in sys.modules if m == "clusterhodge" or m.startswith("clusterhodge.")]:
        del sys.modules[name]
    importlib.import_module("clusterhodge")
    return SimpleNamespace(
        **{m: importlib.import_module(f"clusterhodge.{m}") for m in LIB_MODULES}
    )


# ---------------------------------------------------------------------------
# input specs


def star_edges(v: int) -> list[list[int]]:
    return [[0, i] for i in range(1, v)]


def path_edges(v: int) -> list[list[int]]:
    return [[i, i + 1] for i in range(v - 1)]


def cycle_edges(v: int) -> list[list[int]]:
    return path_edges(v) + [[0, v - 1]]


def _spec(gid, v, edges, weight=None, frozen_scale=1, follow=True) -> dict:
    """follow: the frozen rows take the mutable permutation (keeps principal)."""
    iid = gid if weight is None else f"{gid}/s{weight}"
    return {
        "id": iid,
        "graph": gid,
        "n": v,
        "edges": edges,
        "frozen_scale": frozen_scale,
        "follow": follow,
        "weight": weight,
    }


def _all_weights(gid, v, edges) -> list[dict]:
    return [_spec(gid, v, edges, weight=s) for s in range(2 * v + 1)]


def input_specs(workload: str, lib: SimpleNamespace, size: str = "full") -> list[dict]:
    """The inputs of a workload; ``size="tiny"`` gives n <= 3 versions for tests.

    Only the golden-file builder and the tests call this; a benchmark run
    reads the specs stored with the goldens.
    """
    n = {"full": {"hodge_d12": 6, "check_mixed": 5, "ss_p5": 5, "e1_n7": 7},
         "tiny": {"hodge_d12": 3, "check_mixed": 3, "ss_p5": 3, "e1_n7": 3}}[size][workload]
    if workload == "hodge_d12":
        return [
            _spec(f"Z{n}", n, star_edges(n), follow=False),
            _spec(f"P{n}", n, path_edges(n), follow=False),
            _spec(f"C{n}", n, cycle_edges(n), follow=False),
        ]
    if workload == "check_mixed":
        specs = []
        for v in range(1, n + 1):
            for k, g in enumerate(lib.graphs.connected_graphs(v)):
                specs.append(_spec(f"G{v}.{k}", v, [list(e) for e in sorted(g.edges)]))
        z = {"full": 6, "tiny": 3}[size]
        specs.append(_spec(f"Z{z}x2I", z, star_edges(z), frozen_scale=2, follow=False))
        return specs
    if workload == "ss_p5":
        return _all_weights(f"P{n}", n, path_edges(n))
    if workload == "e1_n7":
        return _all_weights(f"P{n}", n, path_edges(n)) + _all_weights(
            f"C{n}", n, cycle_edges(n)
        )
    raise ValueError(f"unknown workload {workload!r}")


def base_rows(spec: dict) -> list[list[int]]:
    """[B ; c*I] with B oriented low-to-high along each edge."""
    n = spec["n"]
    rows = [[0] * n for _ in range(2 * n)]
    for u, v in spec["edges"]:
        rows[u][v], rows[v][u] = 1, -1
    for i in range(n):
        rows[n + i][i] = spec["frozen_scale"]
    return rows


def relabel(rows: list[list[int]], n: int, rng: random.Random, follow: bool):
    """Permute the mutable vertices, and the frozen rows (with them if follow)."""
    m = len(rows) - n
    pi = rng.sample(range(n), n)
    sigma = pi if follow else rng.sample(range(m), m)
    out = [[0] * n for _ in rows]
    for i in range(n):
        for j in range(n):
            out[pi[i]][pi[j]] = rows[i][j]
    for i in range(m):
        for j in range(n):
            out[n + sigma[i]][pi[j]] = rows[n + i][j]
    return out


@dataclass
class Input:
    spec: dict
    matrix: object  # clusterhodge ExtendedExchangeMatrix


def make_inputs(specs: list[dict], seed: int | None, lib: SimpleNamespace) -> list[Input]:
    """Relabel each graph once from the seed, then validate it with the library.

    ``seed=None`` keeps the labels of the spec (the goldens are made so).

    Validation also rejects an input whose quiver is cyclic or whose rank
    class is not the one the workload was built for (principal inputs are
    really full rank, the scaled frozen block is full rank only).
    """
    matrices = {}
    out = []
    for spec in specs:
        gid = spec["graph"]
        if gid not in matrices:
            n = spec["n"]
            rows = base_rows(spec)
            if seed is not None:
                rows = relabel(rows, n, random.Random(f"{seed}/{gid}"), spec["follow"])
            matrix = lib.exchange.validate(rows, n, n)
            rc = lib.exchange.rank_class(matrix)
            want = "REALLY_FULL_RANK" if spec["frozen_scale"] == 1 else "FULL_RANK"
            if not lib.exchange.is_acyclic(matrix) or rc.name != want:
                raise ValueError(f"input {gid} is not an acyclic {want} matrix")
            matrices[gid] = matrix
        out.append(Input(spec, matrices[gid]))
    return out


# ---------------------------------------------------------------------------
# the calls and their canonical outputs


def rank_q(mat: list[list]) -> int:
    """Rank over Q of a dense matrix; the benchmark's own, independent of linalg."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for r in mat:
        row = {c: Fraction(v) for c, v in enumerate(r) if v}
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                lead = row[c]
                pivots[c] = {k: v / lead for k, v in row.items()}
                break
            f = row[c]
            for k, v in piv.items():
                w = row.get(k, 0) - f * v
                if w:
                    row[k] = w
                else:
                    row.pop(k, None)
    return len(pivots)


def _entries(entries: dict) -> list[list[int]]:
    return [[e, f, v] for (e, f), v in sorted(entries.items()) if v]


def _ranks(diffs: dict) -> list[list[int]]:
    out = []
    for (e, f), mat in sorted(diffs.items()):
        r = rank_q(mat)
        if r:
            out.append([e, f, r])
    return out


def call(workload: str, lib: SimpleNamespace, inp: Input):
    """One library call, as the matching CLI subcommand makes it by default."""
    w = inp.spec["weight"]
    if workload == "hodge_d12":
        return lib.gysin.hodge_table(inp.matrix)
    if workload == "check_mixed":
        return lib.counts.consistency_suite(inp.matrix)
    if workload == "ss_p5":
        fc = lib.filtration.build_filtered(inp.matrix, w)
        return lib.filtration.spectral_sequence(fc)
    if workload == "e1_n7":
        return lib.filtration.e1_page(inp.matrix, w)
    raise ValueError(f"unknown workload {workload!r}")


def canonical(workload: str, out) -> object:
    """JSON-ready serialisation that is invariant under relabelling.

    Induced differentials are basis-dependent, so only their ranks are kept.
    """
    if workload == "hodge_d12":
        return [[k, s, v] for (k, s), v in sorted(out.dims.items()) if v]
    if workload == "check_mixed":
        return [[c.name, c.status, c.detail] for c in out.checks]
    if workload == "ss_p5":
        return [[p.r, _entries(p.entries), _ranks(p.differentials)] for p in out]
    if workload == "e1_n7":
        return [_entries(out.entries), _ranks(out.differentials)]
    raise ValueError(f"unknown workload {workload!r}")
