"""A seeded sweep of hostile inputs over every subcommand of the CLI.

Each example writes one matrix or graph file (random bytes, a valid shape
whose entries are small, large or close to the 4,300 digits the parser
reads, a header that is large or negative, or a JSON variant) and runs
``cli.main`` on it in-process.  The contract: no exception escapes, the exit
code is 0, 1 or 2, exit 1 comes only with a ConsistencyError diagnostic, and
a nonzero exit prints nothing on stdout and one JSON diagnostic on stderr.
Sizes stay small, so every example runs under the existing guards.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from clusterhodge.cli import _SUBCOMMANDS, main

NEAR_LIMIT = [10**4299, -(10**4299) - 7, int("9" * 4300), 2**14281, 3**9000]
ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.integers(-(10**40), 10**40),
    st.sampled_from(NEAR_LIMIT),
)
HEADERS = st.one_of(
    st.integers(-3, 6),
    st.sampled_from([10**9, 10**30, -(10**9), 2**63, int("9" * 4300)]),
)


@st.composite
def matrix_rows(draw):
    """(n, m, rows): a skew-symmetric top block over frozen rows."""
    n = draw(st.integers(0, 3))
    top = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            top[i][j] = draw(st.one_of(st.integers(-2, 2), ENTRIES))
            top[j][i] = -top[i][j]
    if draw(st.booleans()):  # principal coefficients, which e1 and ss need
        return n, n, top + [[int(i == j) for j in range(n)] for i in range(n)]
    m = draw(st.integers(0, 3))
    frozen = draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=m, max_size=m))
    return n, m, top + frozen


@st.composite
def matrix_file(draw):
    n, m, rows = draw(matrix_rows())
    if draw(st.booleans()):
        n, m = draw(st.sampled_from([(n, m), (n, m), (draw(HEADERS), m), (n, draw(HEADERS))]))
    if draw(st.booleans()):
        lines = [f"{n} {m}"] + [" ".join(map(str, r)) for r in rows]
        if draw(st.booleans()):
            lines.insert(draw(st.integers(0, len(lines))), "# a comment")
        return "\n".join(lines) + "\n"
    data = {"n": n, "m": m, "rows": rows}
    variant = draw(st.sampled_from(["plain", "drop", "string", "float", "bool", "nest", "extra"]))
    if variant == "drop":
        del data[draw(st.sampled_from(["n", "m", "rows"]))]
    elif variant == "string":
        data[draw(st.sampled_from(["n", "m"]))] = str(n)
    elif variant == "float" and rows and rows[0]:
        rows[0][0] = 0.5
    elif variant == "bool" and rows and rows[0]:
        rows[0][0] = True
    elif variant == "nest":
        data["rows"] = [rows]
    elif variant == "extra":
        data["comment"] = "ignored"
    return json.dumps(data)


@st.composite
def graph_file(draw):
    v = draw(st.integers(0, 8))
    edges = draw(st.lists(st.tuples(st.integers(-1, 9), st.integers(-1, 9)), max_size=12))
    head = draw(st.one_of(st.just(v), HEADERS))
    return "\n".join([str(head)] + [f"{a} {b}" for a, b in edges]) + "\n"


COMMANDS = {
    "hodge": ["--s"],
    "pointcount": ["--q"],
    "e1": ["--s"],
    "ss": ["--s", "--max-page"],
    "check": [],
    "indcomplex": [],
}
FLAG_VALUES = {
    "--s": st.one_of(st.integers(-1, 7), st.just(10**30)),
    "--q": st.sampled_from([2, 3, 5, 7, 13, 73, 4, -5, 10**30, 3_317_044_064_679_887_385_961_981]),
    "--max-page": st.integers(-1, 3),
}


def test_sweep_has_every_subcommand_and_flag_of_the_cli():
    # the CLI's one table, less the input flags; every subcommand takes --format
    flags = {
        name: [f for f in table_flags if f not in ("--input", "--graph")]
        for name, (_, table_flags) in _SUBCOMMANDS.items()
    }
    assert COMMANDS == flags
    assert set(FLAG_VALUES) == {f for fs in flags.values() for f in fs}


@st.composite
def invocation(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    if draw(st.integers(0, 4)) == 0:
        content = draw(st.binary(max_size=80))
    elif command == "indcomplex":
        content = draw(graph_file()).encode()
    else:
        content = draw(matrix_file()).encode()
    flags = ["--format", draw(st.sampled_from(["text", "json", "tsv"]))]
    for flag in COMMANDS[command]:
        if draw(st.booleans()):
            flags += [flag, str(draw(FLAG_VALUES[flag]))]
    return command, content, flags


@settings(
    max_examples=400,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(invocation())
def test_cli_contract_holds_on_hostile_input(case):
    command, content, flags = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
        path = Path(tmp) / "input"
        path.write_bytes(content)
        where = "--graph" if command == "indcomplex" else "--input"
        code = main([command, where, str(path)] + flags)
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == ""
        return
    assert out.getvalue() == ""
    diagnostic = json.loads(err.getvalue())
    assert set(diagnostic) == {"error", "detail"}
    if code == 1:
        assert diagnostic["error"] == "ConsistencyError"
