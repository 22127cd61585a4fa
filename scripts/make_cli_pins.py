"""Write the pinned output of the `clusterhodge` commands to tests/data/cli_pin/
and tests/data/ss_pin/.

The inputs cover each rank class: principal P_2, P_4, Z_5 and C_5; the star
Z_4 with frozen block 2I (full rank, but not really full rank); principal
P_2 with one extra frozen row; and the oriented 3-cycle, which every
command refuses with exit 2.  Each matrix is written as <name>.mat.

Every input runs `hodge`, `check` and `pointcount --q 5`, and `e1` and
`ss` where tests/data/e1_pin/ and tests/data/ss_pin/ lack them, in the
text, json and tsv formats.  A run writes its stdout to
<name>.<command>.<format>.out, its stderr to <name>.<command>.<format>.err
when the exit code is nonzero, and one line "name command format exit" to
runs.tsv.  The `ss` json output prints d_r in the basis of the filtered
reduction of each weight's Morse complex, its pairs mapped back to the
cells of the full complex and every matched pair joined with gap 0, so it
pins that basis too.

tests/data/ss_pin/ holds `ss` on principal P_3 and the 4-star at every
weight: <name>.mat and the stdout of each format as <name>.<format>.

Every Hodge table is cross-checked before anything is written, with the
checks of scripts/make_table_digest.py: curious Lefschetz and the table
checks of ``hodge_table``, the alternating point-count identity, and the
brute-force count at the smallest admissible prime; the table that `hodge`
prints must be the checked one.  A failed check stops the script.
Regenerate the pins only when the output is meant to change, and review
the diff.

Usage: PYTHONPATH=src python scripts/make_cli_pins.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from make_table_digest import checked_line, render_table  # noqa: E402

from clusterhodge import counts  # noqa: E402
from clusterhodge.cli import main  # noqa: E402
from clusterhodge.exchange import principal_from_graph, validate  # noqa: E402
from clusterhodge.graphs import cycle_graph, path_graph, star_graph  # noqa: E402
from clusterhodge.gysin import HodgeTable  # noqa: E402
from clusterhodge.io import load_matrix, render_matrix_text  # noqa: E402

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
PIN = DATA / "cli_pin"
SS_PIN = DATA / "ss_pin"
FORMATS = ("text", "json", "tsv")


def inputs() -> dict:
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


def commands(name: str) -> list[list[str]]:
    out = [["hodge"], ["check"], ["pointcount", "--q", "5"], ["ss"]]
    if name != "c5":  # tests/data/e1_pin/ pins e1 on principal C_5
        out.append(["e1"])
    return out


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def cross_check(matrix, hodge_json: str) -> None:
    dims = {(e["k"], e["s"]): e["dim"] for e in json.loads(hodge_json)["hodge"]}
    printed = render_table(HodgeTable(matrix.n, matrix.m, dims))
    guard = counts.ENUMERATION_GUARD
    counts.ENUMERATION_GUARD = 10**12  # see make_table_digest.py
    try:
        checked = checked_line(matrix).split("\t")[1]
    finally:
        counts.ENUMERATION_GUARD = guard
    if printed != checked:
        raise SystemExit(f"`hodge` prints {printed!r}, the checked table is {checked!r}")


def write_ss_pins() -> None:
    SS_PIN.mkdir(exist_ok=True)
    inputs = {
        "p3": principal_from_graph(path_graph(3)),
        "z4": principal_from_graph(star_graph(4)),
    }
    for name, matrix in inputs.items():
        mat = SS_PIN / f"{name}.mat"
        mat.write_text(render_matrix_text(matrix))
        for fmt in FORMATS:
            code, out, err = run_cli(["ss", "--input", str(mat), "--format", fmt])
            if code:
                raise SystemExit(f"clusterhodge ss exited {code} on {mat}: {err}")
            (SS_PIN / f"{name}.{fmt}").write_text(out)


def run() -> None:
    write_ss_pins()
    PIN.mkdir(exist_ok=True)
    files: dict[str, str] = {}
    runs = []
    for name, matrix in inputs().items():
        mat = PIN / f"{name}.mat"
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
    for old in PIN.glob("*"):
        if old.name not in files:
            old.unlink()
    for fname, text in files.items():
        (PIN / fname).write_text(text)


if __name__ == "__main__":
    run()
