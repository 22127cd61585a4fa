"""Write the pinned stdout of `clusterhodge e1` to tests/data/e1_pin/.

For principal P_3, the 4-star and principal C_5, at every weight, the
script writes the text, json and tsv output of `clusterhodge e1` as
<name>.<format>.  P_3 and the 4-star read tests/data/ss_pin/{p3,z4}.mat;
C_5's matrix is written to tests/data/e1_pin/c5.mat.  `e1` prints only
dims, so no pinned byte depends on a choice of basis.

It also writes differentials.json: every nonzero entry of the `e1_page`
differentials, at every weight, of the same three matrices and of
principal K_3 u K_2 (k3k2.mat, whose summands have dimension up to 4).
Those entries do depend on the cohomology bases `mv_delta` takes, so they
pin the bases too.  Run the script only when the output is meant to
change, and review the diff.

Usage: PYTHONPATH=src python scripts/make_e1_pins.py
"""

import contextlib
import io
import json
from pathlib import Path

from clusterhodge.cli import main
from clusterhodge.exchange import principal_from_graph
from clusterhodge.filtration import e1_page
from clusterhodge.graphs import Graph, cycle_graph
from clusterhodge.io import load_matrix, render_matrix_text

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
PIN = DATA / "e1_pin"
INPUTS = {
    "p3": DATA / "ss_pin" / "p3.mat",
    "z4": DATA / "ss_pin" / "z4.mat",
    "c5": PIN / "c5.mat",
}


def e1_stdout(matrix: Path, fmt: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["e1", "--input", str(matrix), "--format", fmt])
    if code != 0:
        raise SystemExit(f"clusterhodge e1 exited {code} on {matrix}")
    return out.getvalue()


def e1_differentials(matrix: Path) -> list[dict]:
    """One record per weight and differential: its shape and nonzero entries."""
    m = load_matrix(str(matrix))
    out = []
    for s in range(m.d + 1):
        for (e, f), mat in sorted(e1_page(m, s).differentials.items()):
            nonzero = [
                [i, j, str(v)] for i, row in enumerate(mat) for j, v in enumerate(row) if v
            ]
            out.append(
                {"s": s, "e": e, "f": f, "shape": [len(mat), len(mat[0])], "nonzero": nonzero}
            )
    return out


def run():
    PIN.mkdir(exist_ok=True)
    INPUTS["c5"].write_text(render_matrix_text(principal_from_graph(cycle_graph(5))))
    k3k2 = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    (PIN / "k3k2.mat").write_text(render_matrix_text(principal_from_graph(k3k2)))
    for name, matrix in INPUTS.items():
        for fmt in ("text", "json", "tsv"):
            (PIN / f"{name}.{fmt}").write_text(e1_stdout(matrix, fmt))
    diffs = {name: e1_differentials(matrix) for name, matrix in INPUTS.items()}
    diffs["k3k2"] = e1_differentials(PIN / "k3k2.mat")
    lines = []
    for name, records in diffs.items():
        body = ",\n".join("  " + json.dumps(r, separators=(",", ":")) for r in records)
        lines.append(f"{json.dumps(name)}: [\n{body}\n]")
    (PIN / "differentials.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    run()
