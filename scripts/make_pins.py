"""Write every pinned file under tests/data/, byte for byte.

- table_digest.tsv: one line per input, sorted: the input key, a tab, the
  Hodge table.  The inputs are the principal matrices of all 112 connected
  graphs with 6 vertices (edges oriented low to high) and 40 draws of
  ``random_acyclic_matrix(random.Random(1), 5, 5)`` from tests/conftest.py.
  The key is the matrix itself, "<n>x<m>" and then its rows, each a
  comma-separated list, so a line can be recomputed without this script;
  the table lists "k,s:dim" for every nonzero entry in (k, s) order.
- ss_pin/: `clusterhodge ss` on principal P_3 and the 4-star at every
  weight, <name>.mat and the stdout of each format as <name>.<format>.  The
  json output prints d_r in the basis of the filtered reduction of each
  weight's Morse complex, so it pins that basis too.
- cli_pin/: each rank class: principal P_2, P_4, Z_5 and C_5; the star Z_4
  with frozen block 2I (full rank, but not really full rank); principal P_2
  with one extra frozen row; and the oriented 3-cycle, which every command
  refuses with exit 2.  Each input, written as <name>.mat, runs
  `commands()` in every format: stdout goes to
  <name>.<command>.<format>.out, stderr to <name>.<command>.<format>.err
  when the exit code is nonzero, and one line "name command format exit" to
  runs.tsv.
- e1_pin/: `clusterhodge e1` in every format on E1_INPUTS as
  <name>.<format> (it prints only dims, so no byte depends on a basis), and
  differentials.json: every nonzero entry of the `e1_page` differentials,
  at every weight, of those matrices and of principal K_3 u K_2, whose
  summands have dimension up to 4.  Those entries depend on the cohomology
  bases `mv_delta` takes, so they pin the bases too.

Every Hodge table is cross-checked before it is written (`checked_line`):
``hodge_table`` with its table checks (curious Lefschetz, the support
bounds and the top class), the alternating point-count identity against
``point_count_poly`` (it holds on every input here, not only the
really-full-rank ones), and ``point_count_poly`` against
``brute_force_count`` at the smallest prime q = 1 mod 2N (N the
polynomial's modulus).  The table `hodge` prints must be the checked one.
``ENUMERATION_GUARD`` bounds the nominal q^(2n) (q-1)^m tuples, far more
than the factored enumeration visits; two of the draws pass it at their q,
so the brute-force count of a cross-check runs with the guard lifted.
Every CLI run has the default guard, which the `check` pins print.  A
failed check stops the script.  Regenerate the pins only when the output
is meant to change, and review the diff.

Usage: PYTHONPATH=src python scripts/make_pins.py
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from conftest import random_acyclic_matrix  # noqa: E402

from clusterhodge import counts  # noqa: E402
from clusterhodge.cli import main  # noqa: E402
from clusterhodge.counts import _is_prime, brute_force_count, point_count_poly  # noqa: E402
from clusterhodge.exchange import principal_from_graph, validate  # noqa: E402
from clusterhodge.filtration import e1_page  # noqa: E402
from clusterhodge.graphs import (  # noqa: E402
    Graph,
    connected_graphs,
    cycle_graph,
    path_graph,
    star_graph,
)
from clusterhodge.gysin import HodgeTable, hodge_table  # noqa: E402
from clusterhodge.io import load_matrix, render_matrix_text  # noqa: E402

DATA = ROOT / "tests" / "data"
DIGEST = DATA / "table_digest.tsv"
CLI_PIN = DATA / "cli_pin"
SS_PIN = DATA / "ss_pin"
E1_PIN = DATA / "e1_pin"
FORMATS = ("text", "json", "tsv")
RANDOM_SEED = 1
RANDOM_DRAWS = 40


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def render_table(table) -> str:
    return " ".join(f"{k},{s}:{v}" for (k, s), v in sorted(table.dims.items()))


def checked_line(matrix) -> str:
    table = hodge_table(matrix)  # raises ConsistencyError on a failed table check
    counted = point_count_poly(matrix)
    rows = " ".join(",".join(map(str, row)) for row in matrix.rows)
    key = f"{matrix.n}x{matrix.m} {rows}"
    if table.point_count_polynomial() != counted.polynomial:
        raise SystemExit(f"point-count identity fails for {key}")
    q = 3
    while not _is_prime(q) or (q - 1) % (2 * counted.modulus):
        q += 1
    guard, counts.ENUMERATION_GUARD = counts.ENUMERATION_GUARD, 10**12
    try:
        brute = brute_force_count(matrix, q)
    finally:
        counts.ENUMERATION_GUARD = guard
    if brute != counted(q):
        raise SystemExit(f"brute-force count at q={q} disagrees for {key}")
    return f"{key}\t{render_table(table)}"


def write_digest() -> None:
    matrices = [principal_from_graph(g) for g in connected_graphs(6)]
    rng = random.Random(RANDOM_SEED)
    matrices += [random_acyclic_matrix(rng, 5, 5) for _ in range(RANDOM_DRAWS)]
    lines = sorted({checked_line(m) for m in matrices})
    if len(lines) != 112 + RANDOM_DRAWS:
        raise SystemExit(f"expected {112 + RANDOM_DRAWS} inputs, got {len(lines)}")
    DIGEST.write_text("\n".join(lines) + "\n")


def write_ss_pins() -> None:
    SS_PIN.mkdir(exist_ok=True)
    for name, graph in (("p3", path_graph(3)), ("z4", star_graph(4))):
        mat = SS_PIN / f"{name}.mat"
        mat.write_text(render_matrix_text(principal_from_graph(graph)))
        for fmt in FORMATS:
            code, out, err = run_cli(["ss", "--input", str(mat), "--format", fmt])
            if code:
                raise SystemExit(f"clusterhodge ss exited {code} on {mat}: {err}")
            (SS_PIN / f"{name}.{fmt}").write_text(out)


def cli_inputs() -> dict:
    p2 = principal_from_graph(path_graph(2))
    z4 = principal_from_graph(star_graph(4))
    frozen_2i = [[2 if i == j else 0 for j in range(4)] for i in range(4)]
    return {
        "p2": p2,
        "p4": principal_from_graph(path_graph(4)),
        "z5": principal_from_graph(star_graph(5)),
        "c5": principal_from_graph(cycle_graph(5)),
        "z4_2i": validate(z4.top_block() + frozen_2i, 4, 4),
        "p2_extra_row": validate([list(r) for r in p2.rows] + [[1, 1]], 2, 3),
        "cyclic": validate([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], 3, 0),
    }


# e1_pin/ pins `e1` on these, so cli_pin/ runs it on c5 no second time;
# p3 and z4 are the matrices write_ss_pins writes
E1_INPUTS = {"p3": SS_PIN / "p3.mat", "z4": SS_PIN / "z4.mat", "c5": E1_PIN / "c5.mat"}


def commands(name: str) -> list[list[str]]:
    out = [["hodge"], ["check"], ["pointcount", "--q", "5"], ["ss"]]
    if name != "c5":
        out.append(["e1"])
    return out


def cross_check(matrix, hodge_json: str) -> None:
    dims = {(e["k"], e["s"]): e["dim"] for e in json.loads(hodge_json)["hodge"]}
    printed = render_table(HodgeTable(matrix.n, matrix.m, dims))
    checked = checked_line(matrix).split("\t")[1]
    if printed != checked:
        raise SystemExit(f"`hodge` prints {printed!r}, the checked table is {checked!r}")


def write_cli_pins() -> None:
    CLI_PIN.mkdir(exist_ok=True)
    files: dict[str, str] = {}
    runs = []
    for name, matrix in cli_inputs().items():
        mat = CLI_PIN / f"{name}.mat"
        files[mat.name] = render_matrix_text(matrix)
        mat.write_text(files[mat.name])
        assert load_matrix(str(mat)) == matrix
        for command in commands(name):
            for fmt in FORMATS:
                argv = [command[0], "--input", str(mat), "--format", fmt, *command[1:]]
                code, out, err = run_cli(argv)
                stem = f"{name}.{command[0]}.{fmt}"
                files[f"{stem}.out"] = out
                if code:
                    files[f"{stem}.err"] = err
                runs.append(f"{name}\t{command[0]}\t{fmt}\t{code}")
                if command[0] == "hodge" and fmt == "json" and code == 0:
                    cross_check(matrix, out)
    files["runs.tsv"] = "\n".join(runs) + "\n"
    for old in CLI_PIN.glob("*"):
        if old.name not in files:
            old.unlink()
    for fname, text in files.items():
        (CLI_PIN / fname).write_text(text)


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


def write_e1_pins() -> None:
    E1_PIN.mkdir(exist_ok=True)
    E1_INPUTS["c5"].write_text(render_matrix_text(principal_from_graph(cycle_graph(5))))
    k3k2 = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    (E1_PIN / "k3k2.mat").write_text(render_matrix_text(principal_from_graph(k3k2)))
    for name, matrix in E1_INPUTS.items():
        for fmt in FORMATS:
            code, out, err = run_cli(["e1", "--input", str(matrix), "--format", fmt])
            if code:
                raise SystemExit(f"clusterhodge e1 exited {code} on {matrix}: {err}")
            (E1_PIN / f"{name}.{fmt}").write_text(out)
    diffs = {name: e1_differentials(matrix) for name, matrix in E1_INPUTS.items()}
    diffs["k3k2"] = e1_differentials(E1_PIN / "k3k2.mat")
    lines = []
    for name, records in diffs.items():
        body = ",\n".join("  " + json.dumps(r, separators=(",", ":")) for r in records)
        lines.append(f"{json.dumps(name)}: [\n{body}\n]")
    (E1_PIN / "differentials.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


def run() -> None:
    write_digest()
    write_ss_pins()  # before write_e1_pins, which reads ss_pin/p3.mat and z4.mat
    write_cli_pins()
    write_e1_pins()


if __name__ == "__main__":
    run()
