import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from clusterhodge.cli import main
from clusterhodge.errors import ConsistencyError, echo_int
from clusterhodge.exchange import principal_from_graph, validate
from clusterhodge.filtration import e1_page
from clusterhodge.graphs import complete_graph, cycle_graph, path_graph
from clusterhodge.io import (
    parse_graph_text,
    parse_matrix,
    parse_matrix_text,
    render_matrix_text,
)
from clusterhodge.linalg import rank

EDGE_PRINCIPAL = """\
# principal coefficients for one exchange arrow
2 2
0 1
-1 0
1 0
0 1
"""

CYCLIC = """\
3 0
0 1 -1
-1 0 1
1 -1 0
"""

RANK_DEFICIENT = "1 0\n0\n"

C6 = "6\n1 2\n2 3\n3 4\n4 5\n5 6\n6 1\n"


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "edge_principal.mat"
    path.write_text(EDGE_PRINCIPAL)
    return str(path)


def test_matrix_text_round_trip():
    m = parse_matrix_text(EDGE_PRINCIPAL)
    assert m.n == 2 and m.m == 2
    again = parse_matrix_text(render_matrix_text(m))
    assert again == m


def test_matrix_json_round_trip():
    m = parse_matrix_text(EDGE_PRINCIPAL)
    as_json = json.dumps(m.to_json_dict())
    assert parse_matrix(as_json) == m


def test_graph_parsing():
    g = parse_graph_text(C6)
    assert g.n_vertices == 6 and len(g.edges) == 6


def test_cmd_hodge_tsv(edge_file, capsys):
    assert main(["hodge", "--input", edge_file, "--format", "tsv"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "k\ts\tdim"
    assert out[1:] == ["0\t0\t1", "1\t1\t2", "2\t2\t2", "3\t3\t2", "4\t4\t1"]


def test_cmd_hodge_json_schema(edge_file, capsys):
    assert main(["hodge", "--input", edge_file, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 2 and data["m"] == 2 and data["d"] == 4
    assert {"k": 0, "s": 0, "dim": 1} in data["hodge"]


def test_cmd_hodge_deterministic(edge_file, capsys):
    main(["hodge", "--input", edge_file])
    first = capsys.readouterr().out
    main(["hodge", "--input", edge_file])
    assert capsys.readouterr().out == first


def test_cmd_hodge_rejects_cyclic(tmp_path, capsys):
    path = tmp_path / "cyclic.mat"
    path.write_text(CYCLIC)
    assert main(["hodge", "--input", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NotAcyclic"


def test_cmd_hodge_rejects_rank_deficient(tmp_path, capsys):
    path = tmp_path / "flat.mat"
    path.write_text(RANK_DEFICIENT)
    assert main(["hodge", "--input", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NotFullRank"


def test_cmd_pointcount(edge_file, capsys):
    assert main(["pointcount", "--input", edge_file, "--q", "3"]) == 0
    out = capsys.readouterr().out
    assert "q^4 - 2*q^3 + 2*q^2 - 2*q + 1" in out
    assert "40" in out


def test_cmd_pointcount_rejects_composite_q(edge_file, capsys):
    assert main(["pointcount", "--input", edge_file, "--q", "4"]) == 2
    # psi_12: a strong pseudoprime to every prime base up to 37
    q = str(399165290221 * 798330580441)
    assert main(["pointcount", "--input", edge_file, "--q", q]) == 2


def test_cmd_pointcount_large_q(edge_file, capsys):
    # 2^61 - 1 is prime; a 26-digit q is past the exact primality test
    assert main(["pointcount", "--input", edge_file, "--q", str(2**61 - 1)]) == 0
    assert f"value at q={2**61 - 1}: " in capsys.readouterr().out
    assert main(["pointcount", "--input", edge_file, "--q", "1" + "0" * 25]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "InputError"


HUGE_K = [10**7, int("7" * 4000)]


@pytest.mark.parametrize("k", HUGE_K, ids=["k=10^7", "k-of-4000-digits"])
def test_huge_character_group_is_counted_not_listed(tmp_path, capsys, k):
    # [0; k] has X* = Z/k: k - 1 characters have support {0}, each adding
    # one class at (2, 1); the point count is q^2 + (k - 2) q + 1
    path = tmp_path / "k.mat"
    path.write_text(f"1 1\n0\n{k}\n")
    assert main(["hodge", "--input", str(path), "--format", "tsv"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == f"k\ts\tdim\n0\t0\t1\n1\t1\t1\n2\t1\t{k - 1}\n2\t2\t1\n"
    assert main(["pointcount", "--input", str(path), "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {
        "polynomial": f"q^2 + {k - 2}*q + 1",
        "coefficients": [1, k - 2, 1],
        "modulus": k,
    }
    assert main(["check", "--input", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_results_may_have_more_digits_than_the_parsers_read(tmp_path, capsys):
    # two isolated vertices over diag(k, k), k of 4,300 nines: (k - 1)^2
    # characters have support {0, 1}, and the text point count prints 2k
    k = int("9" * 4300)
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "kk.mat"
    path.write_text(f"2 2\n0 0\n0 0\n{k} 0\n0 {k}\n")
    assert main(["hodge", "--input", str(path), "--format", "tsv"]) == 0
    hodge = capsys.readouterr().out
    assert main(["pointcount", "--input", str(path)]) == 0
    pointcount = capsys.readouterr().out
    assert sys.get_int_max_str_digits() == limit  # restored on return
    sys.set_int_max_str_digits(0)
    try:
        assert f"\n4\t2\t{(k - 1) ** 2}\n" in hodge
        assert f"valid for primes q = 1 mod {2 * k}\n" in pointcount
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "number", ["7" * 4301, "7" * 4301 + ".5", "-" + "7" * 4301], ids=["int", "float", "negative"]
)
def test_json_number_longer_than_the_parser_reads_is_exit_2(tmp_path, capsys, number):
    path = tmp_path / "long.json"
    path.write_text('{"n": 1, "m": 1, "rows": [[0], [' + number + "]]}")
    assert main(["hodge", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ShapeMismatch",
        "detail": "malformed matrix JSON: a number longer than 4300 digits",
    }


@pytest.mark.parametrize("command", ["check", "hodge"])
def test_a_huge_row_count_is_echoed_short(tmp_path, capsys, command):
    # n of 4,300 nines passes the parser; the shape check echoes n + m
    # = 10^4300 by its first digits and its length, not in full
    path = tmp_path / "huge_n.json"
    path.write_text('{"n": ' + "9" * 4300 + ', "m": 1, "rows": [[0], [1]]}')
    assert main([command, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err) < 200
    assert json.loads(captured.err) == {
        "error": "ShapeMismatch",
        "detail": "expected 1" + "0" * 59 + "... (4301 digits) rows, got 2",
    }


def test_cmd_indcomplex(tmp_path, capsys):
    path = tmp_path / "c6.g"
    path.write_text(C6)
    assert main(["indcomplex", "--graph", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "H~: {1: 2}"


def test_cmd_indcomplex_too_large_is_exit_2(tmp_path, capsys):
    # an edgeless 30-vertex graph has 2^30 independent sets
    path = tmp_path / "v30.g"
    path.write_text("30\n")
    assert main(["indcomplex", "--graph", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "TooLarge"


@pytest.mark.parametrize(
    "v", [2**63, 10**30, int("9" * 4300)], ids=["2^63", "10^30", "4300-digits"]
)
def test_cmd_indcomplex_refuses_a_huge_vertex_count_before_building_the_graph(
    tmp_path, capsys, v
):
    # the empty set, the v vertices and the C(v, 2) non-edges are independent
    # sets, so the header alone sizes the enumeration
    path = tmp_path / "huge.g"
    path.write_text(f"{v}\n1 2\n")
    assert main(["indcomplex", "--graph", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "TooLarge",
        "detail": f"more than 262144 independent sets in a {echo_int(v)}-vertex graph",
    }


NINES = "9" * 4300
CUT_NINES = "9" * 60 + "... (4300 digits)"


@pytest.mark.parametrize(
    "text, detail",
    [
        (f"3\n1 {NINES}\n", f"edge (1, {CUT_NINES}) outside 1..3"),
        (f"{NINES}\n1 0\n", f"edge (1, 0) outside 1..{CUT_NINES}"),
        (f"-{NINES}\n", f"negative vertex count -{CUT_NINES}"),
    ],
    ids=["edge-outside", "long-count-in-edge-line", "negative-count"],
)
def test_graph_diagnostics_cut_long_numbers(tmp_path, capsys, text, detail):
    # a graph file's integers reach its diagnostics through echo_int: the
    # first 60 digits and the length, not all 4,300
    path = tmp_path / "long.g"
    path.write_text(text)
    assert main(["indcomplex", "--graph", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "ShapeMismatch", "detail": detail}
    assert len(captured.err) < 300


def test_cmd_e1_guard_on_principal_p30(tmp_path, capsys):
    # weight 1 has C(60, 1) = 60 (D, E) summands; weight 30 has C(60, 30)
    path = tmp_path / "p30.mat"
    path.write_text(render_matrix_text(principal_from_graph(path_graph(30))))
    assert main(["e1", "--input", str(path), "--s", "1", "--format", "tsv"]) == 0
    assert capsys.readouterr().out == "e\tf\ts\tdim\n0\t0\t1\t30\n"
    assert main(["e1", "--input", str(path), "--s", "30"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "TooLarge",
        "detail": "more than 262144 (D, E) summands at weight 30 of a rank-30 quiver",
    }


def test_cmd_e1_sizes_every_weight_before_the_first_page(tmp_path, capsys, monkeypatch):
    # all-weight e1 on principal P_14: weight 6 has C(28, 6) = 376,740
    # summands, so the command refuses before it assembles weights 0-5
    import clusterhodge.cli as cli

    calls = []
    monkeypatch.setattr(cli, "_e1_summands", lambda *args: calls.append(args))
    path = tmp_path / "p14.mat"
    path.write_text(render_matrix_text(principal_from_graph(path_graph(14))))
    assert main(["e1", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "TooLarge",
        "detail": "more than 262144 (D, E) summands at weight 6 of a rank-14 quiver",
    }
    assert calls == []


def test_cmd_e1_builds_each_induced_complex_once(tmp_path, capsys, monkeypatch):
    # all-weight e1 on principal P_6 shares one set of induced complexes
    # between its weights: a wrapped anticliques sees each mask once, where
    # a fresh set per weight sees the masks again, and the dims equal
    # e1_page's at every weight
    import clusterhodge.graphs as graphs

    m = principal_from_graph(path_graph(6))
    path = tmp_path / "p6.mat"
    path.write_text(render_matrix_text(m))
    masks = []
    enumerate_sets = graphs.anticliques
    monkeypatch.setattr(
        graphs, "anticliques", lambda g, mask=None: masks.append(mask) or enumerate_sets(g, mask)
    )
    assert main(["e1", "--input", str(path), "--format", "json"]) == 0
    assert len(masks) == len(set(masks)) > 0
    printed = {(r["e"], r["f"], r["s"]): r["dim"] for r in json.loads(capsys.readouterr().out)}
    masks.clear()
    pages = {s: e1_page(m, s).entries for s in range(m.d + 1)}
    assert len(masks) > len(set(masks))
    assert printed == {(e, f, s): v for s, page in pages.items() for (e, f), v in page.items() if v}


@pytest.mark.parametrize("command", ["hodge", "check", "ss"])
def test_gysin_guard_on_principal_p14(tmp_path, capsys, monkeypatch, command):
    # 987 anticliques pass ANTICLIQUE_GUARD, but weight 6 has 2,532,608 cells;
    # every weight is sized before the first is built, so no basis is made
    from clusterhodge.gysin import GysinBuilder

    def no_basis(self, i_mask):
        raise AssertionError("a basis was built before the guard refused")

    monkeypatch.setattr(GysinBuilder, "basis", no_basis)
    path = tmp_path / "p14.mat"
    path.write_text(render_matrix_text(principal_from_graph(path_graph(14))))
    assert main([command, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "TooLarge",
        "detail": "the weight-6 Gysin complex would have 2532608 cells, more than 2097152",
    }


def _p14_frozen_2i():
    top = principal_from_graph(path_graph(14)).top_block()
    return validate(top + [[2 * (i == j) for j in range(14)] for i in range(14)], 14, 14)


@pytest.mark.parametrize("command", ["ss", "e1"])
@pytest.mark.parametrize(
    "make, error, detail",
    [
        (_p14_frozen_2i, "NotPrincipal", "the filtration needs principal coefficients"),
        (
            lambda: principal_from_graph(cycle_graph(14), orientation={(0, 13): -1}),
            "NotAcyclic",
            "the quiver has an oriented cycle",
        ),
    ],
    ids=["p14-frozen-2i", "c14-one-cycle"],
)
def test_filtration_commands_refuse_as_the_library_before_sizing(
    tmp_path, capsys, command, make, error, detail
):
    # both inputs are past the size guards (any rank-14 quiver has C(28, 6)
    # summands at weight 6), but ss and e1 name the first check that
    # build_filtered and e1_page fail, as those functions do
    path = tmp_path / "input.mat"
    path.write_text(render_matrix_text(make()))
    assert main([command, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": error, "detail": detail}


@pytest.mark.parametrize("command", ["hodge", "check"])
def test_gysin_guard_refuses_before_the_smith_normal_form(
    tmp_path, capsys, monkeypatch, command
):
    # principal K_12 (d = 24): weight 8 has 2,781,999 cells; the table is
    # sized before the rank class is read off a Smith normal form
    import clusterhodge.exchange as exchange

    calls = []
    snf = exchange.smith_normal_form
    monkeypatch.setattr(
        exchange, "smith_normal_form", lambda mat: calls.append(mat) or snf(mat)
    )
    path = tmp_path / "k12.mat"
    path.write_text(render_matrix_text(principal_from_graph(complete_graph(12))))
    assert main([command, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "TooLarge",
        "detail": "the weight-8 Gysin complex would have 2781999 cells, more than 2097152",
    }
    assert calls == []


def test_cmd_e1_and_ss(edge_file, capsys):
    assert main(["e1", "--input", edge_file, "--s", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "e\tf\ts\tdim"
    assert main(["ss", "--input", edge_file, "--s", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data and data[0]["s"] == 2 and data[0]["r"] == 0


def test_cmd_check(edge_file, capsys):
    assert main(["check", "--input", edge_file]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 5


def test_cmd_check_json(edge_file, capsys):
    assert main(["check", "--input", edge_file, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert all(item["status"] == "PASS" for item in data)


def test_missing_input_is_exit_2(capsys):
    assert main(["hodge"]) == 2


@pytest.mark.parametrize(
    "command, flag, text",
    [
        ("hodge", "--input", "2 2\n0 1\n-1 x\n1 0\n0 1\n"),
        ("hodge", "--input", '{"n": 2, "m": 2, "rows": [[0, 1]'),
        ("hodge", "--input", '{"n": 1, "m": 1, "rows": [[0], [1.5]]}'),
        ("indcomplex", "--graph", "six\n1 2\n"),
        ("indcomplex", "--graph", "-2\n"),
        ("indcomplex", "--graph", "3 4\n1 2\n"),
    ],
    ids=[
        "bad-token",
        "bad-json",
        "float-in-json",
        "bad-graph-header",
        "negative-graph-header",
        "two-int-graph-header",
    ],
)
def test_bad_file_contents_are_exit_2(tmp_path, capsys, command, flag, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert main([command, flag, str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ShapeMismatch"


@pytest.mark.parametrize(
    "command, flag, text",
    [
        ("hodge", "--input", "1 1\n0\n" + "7" * 5000 + "\n"),
        ("indcomplex", "--graph", "3\n1 " + "2" * 5000 + "\n"),
    ],
    ids=["matrix", "graph"],
)
def test_oversized_integer_token_is_exit_2(tmp_path, capsys, command, flag, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert main([command, flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ShapeMismatch"
    assert err["detail"].startswith("integer token longer than 4300 digits in line ")
    assert len(err["detail"]) < 200


DEEP_JSON = b'{"rows": ' + b"[" * 5000 + b"]" * 5000 + b"}"


@pytest.mark.parametrize("command, flag", [("hodge", "--input"), ("indcomplex", "--graph")])
@pytest.mark.parametrize(
    "data", [DEEP_JSON, b"\xff\xfe2 2\n"], ids=["deep-json", "not-utf8"]
)
def test_hostile_input_file_is_exit_2(tmp_path, capsys, command, flag, data):
    # JSON nested past the decoder's recursion limit, and bytes that are
    # not UTF-8: a diagnostic, not a traceback
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    assert main([command, flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ShapeMismatch"
    assert len(err["detail"]) < 200


@pytest.mark.parametrize(
    "command, flag, text",
    [
        ("pointcount", "--input", "1 1\n0\n1_0\n"),
        ("pointcount", "--input", "1 1\n0\n\u0661\n"),
        ("pointcount", "--input", "1 1\n0\n\uff11\n"),
        ("indcomplex", "--graph", "1_0\n"),
        ("pointcount", "--input", '{"n": 1, "m": 1, "rows": [[0], ["1"]]}'),
        ("pointcount", "--input", '{"n": 1, "m": 1, "rows": [[0], [true]]}'),
        ("pointcount", "--input", '{"n": "1", "m": 1, "rows": [[0], [1]]}'),
        ("pointcount", "--input", '{"n": 1, "m": 1, "rows": [[0], [Infinity]]}'),
    ],
    ids=[
        "underscore-token",
        "arabic-indic-digit",
        "fullwidth-digit",
        "underscore-graph-header",
        "json-string-entry",
        "json-bool-entry",
        "json-string-n",
        "json-infinity-entry",
    ],
)
def test_loose_integer_is_exit_2(tmp_path, capsys, command, flag, text):
    # int() takes each but Infinity (which it refuses with OverflowError):
    # only ASCII digits after an optional sign, and only JSON integers other
    # than booleans, are integers here
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    assert main([command, flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "ShapeMismatch"


@pytest.mark.parametrize("command", ["hodge", "e1", "ss"])
@pytest.mark.parametrize("s", ["99", "-1"])
def test_weight_out_of_range_is_exit_2(edge_file, capsys, command, s):
    assert main([command, "--input", edge_file, "--s", s]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "InputError"


@pytest.mark.parametrize(
    "extra", [["--jobs", "2"], ["--format", "yaml"]], ids=["removed-flag", "bad-format"]
)
def test_bad_flags_are_exit_2(edge_file, capsys, extra):
    assert main(["hodge", "--input", edge_file] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "InputError"


def test_negative_max_page_is_exit_2(edge_file, capsys):
    assert main(["ss", "--input", edge_file, "--max-page", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err == {"error": "InputError", "detail": "--max-page -1 is negative"}


def test_check_exits_1_when_d_squared_fails(tmp_path, capsys, monkeypatch):
    from clusterhodge.gysin import GysinBuilder

    path = tmp_path / "p3.mat"
    path.write_text("3 3\n0 1 0\n-1 0 1\n0 -1 0\n1 0 0\n0 1 0\n0 0 1\n")
    original = GysinBuilder._rho_into

    def unsigned(self, cols, i_mask, j, src_cols, dst_masks, dst_off, eps, *matching):
        # without the block sign (the Koszul sign alone) the square
        # {} -> {0}, {2} -> {0, 2} fails
        eps *= -1 if (i_mask.bit_count() + (i_mask >> (j + 1)).bit_count()) & 1 else 1
        return original(self, cols, i_mask, j, src_cols, dst_masks, dst_off, eps, *matching)

    monkeypatch.setattr(GysinBuilder, "_rho_into", unsigned)
    assert main(["check", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ConsistencyError",
        "detail": "differential does not square to zero",
    }


def test_check_exits_1_when_a_row_set_grows_by_other_than_one_row(tmp_path, capsys, monkeypatch):
    # N(I u j) must be N(I) plus one row; with the rows of each vertex's
    # record dropped, the block {} -> {j} finds none
    from clusterhodge.gysin import GModuleBasis, GysinBuilder, hodge_table

    original = GysinBuilder.basis

    def rowless(self, i_mask):
        r = original(self, i_mask)
        if i_mask.bit_count() != 1:
            return r
        return GModuleBasis(
            r.anticlique, r.row_selection, 0, r.allowed, r.top_down, r.substitution
        )

    monkeypatch.setattr(GysinBuilder, "basis", rowless)
    with pytest.raises(ConsistencyError, match="plus one row"):
        hodge_table(principal_from_graph(path_graph(3)))
    path = tmp_path / "p3.mat"
    path.write_text("3 3\n0 1 0\n-1 0 1\n0 -1 0\n1 0 0\n0 1 0\n0 0 1\n")
    assert main(["check", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ConsistencyError",
        "detail": "N(I u j) is not N(I) plus one row for I = [], j = 0",
    }


def test_check_exits_1_when_a_subgroup_closure_misses_its_order(tmp_path, capsys, monkeypatch):
    # X*(I) closed from its generators must have the order its Smith normal
    # form gives; with every generator sent to the trivial character it has 1
    from clusterhodge.exchange import CharacterGroup, validate

    def trivial(self, z):
        return self.character_from_coords([0] * len(self._nontrivial))

    monkeypatch.setattr(CharacterGroup, "character_from_lift", trivial)
    m = validate([[0, 2], [-2, 0]], 2, 0)
    with pytest.raises(ConsistencyError, match="subgroup closure"):
        CharacterGroup(m).subgroup([0])
    path = tmp_path / "m22.mat"
    path.write_text("2 0\n0 2\n-2 0\n")
    assert main(["check", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ConsistencyError",
        "detail": "subgroup closure of (0,) has order 1, not the Smith normal form order 2",
    }


def test_check_exits_1_when_a_table_check_fails(tmp_path, capsys, monkeypatch):
    # `check` reports the table checks of hodge_table, the weak support
    # bounds included
    from clusterhodge.gysin import HodgeTable

    path = tmp_path / "p3.mat"
    path.write_text("3 3\n0 1 0\n-1 0 1\n0 -1 0\n1 0 0\n0 1 0\n0 0 1\n")

    def fails(self):
        raise ConsistencyError("support bound fails at (k,s)=(0,0)")

    monkeypatch.setattr(HodgeTable, "check_weak_support", fails)
    assert main(["check", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ConsistencyError",
        "detail": "support bound fails at (k,s)=(0,0)",
    }


SS_PIN = Path(__file__).parent / "data" / "ss_pin"


def _differential_ranks(page) -> dict[tuple[int, int], int]:
    ranks = {}
    for d in page["differentials"]:
        rows: dict[int, dict[int, Fraction]] = {}
        for i, j, val in d["triplets"]:
            rows.setdefault(i, {})[j] = Fraction(val)
        ranks[(d["e"], d["f"])] = rank(list(rows.values()))
    return ranks


@pytest.mark.parametrize("name", ["p3", "z4"], ids=["path-3", "star-4"])
def test_ss_output_is_pinned(capsys, name):
    # principal P_3 and the 4-star, all weights, every format byte for byte
    # (scripts/make_pins.py); the json d_r depend on the basis, so their
    # entries and ranks are compared first, to tell a changed basis apart
    matrix = str(SS_PIN / f"{name}.mat")
    for fmt in ("text", "tsv"):
        assert main(["ss", "--input", matrix, "--format", fmt]) == 0
        assert capsys.readouterr().out == (SS_PIN / f"{name}.{fmt}").read_text()
    assert main(["ss", "--input", matrix, "--format", "json"]) == 0
    out = capsys.readouterr().out
    got = json.loads(out)
    want = json.loads((SS_PIN / f"{name}.json").read_text())
    assert [(p["s"], p["r"], p["entries"]) for p in got] == [
        (p["s"], p["r"], p["entries"]) for p in want
    ]
    for page, ref in zip(got, want):
        assert _differential_ranks(page) == _differential_ranks(ref), (page["s"], page["r"])
    assert out == (SS_PIN / f"{name}.json").read_text()


E1_PIN = Path(__file__).parent / "data" / "e1_pin"


@pytest.mark.parametrize(
    "matrix",
    [SS_PIN / "p3.mat", SS_PIN / "z4.mat", E1_PIN / "c5.mat"],
    ids=["path-3", "star-4", "cycle-5"],
)
def test_e1_output_is_pinned(capsys, monkeypatch, matrix):
    # principal P_3, the 4-star and C_5, all weights: `e1` prints only dims,
    # so every format is compared byte for byte (scripts/make_pins.py),
    # and it makes no Mayer-Vietoris block
    import clusterhodge.filtration as filtration

    def refuse(*args, **kwargs):
        raise AssertionError("e1 built a differential block")

    monkeypatch.setattr(filtration, "mv_delta", refuse)
    for fmt in ("text", "json", "tsv"):
        assert main(["e1", "--input", str(matrix), "--format", fmt]) == 0
        assert capsys.readouterr().out == (E1_PIN / f"{matrix.stem}.{fmt}").read_text()


CLI_PIN = Path(__file__).parent / "data" / "cli_pin"
CLI_RUNS = [line.split("\t") for line in (CLI_PIN / "runs.tsv").read_text().splitlines()]


@pytest.mark.parametrize("name", sorted({run[0] for run in CLI_RUNS}))
def test_cli_output_is_pinned(capsys, name):
    # hodge, check, pointcount --q 5 and the e1/ss runs the other pins lack,
    # every format, byte for byte: stdout, the exit code, and stderr when
    # that is nonzero (scripts/make_pins.py cross-checks every table)
    matrix = str(CLI_PIN / f"{name}.mat")
    for _, command, fmt, code in (run for run in CLI_RUNS if run[0] == name):
        extra = ["--q", "5"] if command == "pointcount" else []
        got = main([command, "--input", matrix, "--format", fmt, *extra])
        captured = capsys.readouterr()
        stem = CLI_PIN / f"{name}.{command}.{fmt}"
        assert got == int(code), stem.name
        assert captured.out == Path(f"{stem}.out").read_text(), stem.name
        if got:
            assert captured.err == Path(f"{stem}.err").read_text(), stem.name


PRINCIPAL_3_CYCLE = "3 3\n0 1 -1\n-1 0 1\n1 -1 0\n1 0 0\n0 1 0\n0 0 1\n"


@pytest.mark.parametrize(
    "command, flag, text, error, detail",
    [
        ("hodge", "--input", "1 2 3\n0\n", "ShapeMismatch", "first line must be 'n m'"),
        ("indcomplex", "--graph", "3\n1 2 3\n", "ShapeMismatch", "bad edge line: '1 2 3'"),
        ("ss", "--input", PRINCIPAL_3_CYCLE, "NotAcyclic", "the quiver has an oriented cycle"),
        ("e1", "--input", PRINCIPAL_3_CYCLE, "NotAcyclic", "the quiver has an oriented cycle"),
    ],
    ids=["three-int-matrix-header", "three-int-edge-line", "ss-cyclic", "e1-cyclic"],
)
def test_refused_input_gives_its_diagnostic(tmp_path, capsys, command, flag, text, error, detail):
    # the matrix and graph headers, an edge line, and the principal oriented
    # 3-cycle, which reaches the acyclicity check of build_filtered (ss) and
    # of the E_1 summands (e1) past the principal check
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert main([command, flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": error, "detail": detail}


def test_a_missing_input_file_is_exit_2(tmp_path, capsys):
    path = tmp_path / "absent.mat"
    assert main(["hodge", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "OSError",
        "detail": f"[Errno 2] No such file or directory: '{path}'",
    }


@pytest.mark.parametrize(
    "command, name", [("check", "p2"), ("hodge", "cyclic")], ids=["exit-0", "exit-2"]
)
def test_python_m_clusterhodge_runs_the_cli(capsys, command, name):
    # `python -m clusterhodge` in a fresh process prints what cli.main does
    import clusterhodge

    argv = [command, "--input", str(CLI_PIN / f"{name}.mat")]
    src = str(Path(clusterhodge.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    ran = subprocess.run(
        [sys.executable, "-m", "clusterhodge", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    code = main(argv)
    captured = capsys.readouterr()
    assert (ran.returncode, ran.stdout, ran.stderr) == (code, captured.out, captured.err)
    assert code == (0 if command == "check" else 2)
