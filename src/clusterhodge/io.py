"""Parsing of matrix and graph files, and output rendering helpers.

Matrix text format: first line ``n m``, then n+m lines of n space-separated
integers; lines starting with ``#`` are comments.  A JSON object with keys
``n``, ``m`` and ``rows`` is also accepted.  Graph text format: first line
the vertex count v (vertices are labeled 1..v in files, 0..v-1 in memory),
then one ``u w`` edge per line.  Files are UTF-8; an integer is ASCII
digits after an optional sign in text, and a JSON integer (not a bool) in
JSON.  Anything else is ShapeMismatch.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import chain
from math import comb

from .errors import ECHO_CHARS, ShapeMismatch, TooLarge, echo_int
from .exchange import ExtendedExchangeMatrix, validate
from .graphs import ANTICLIQUE_GUARD, Graph


def _strip_comments(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def _echo(line: str) -> str:
    """The line for a diagnostic, cut to its first ECHO_CHARS characters."""
    if len(line) <= ECHO_CHARS:
        return repr(line)
    return f"{line[:ECHO_CHARS]!r}... ({len(line)} characters)"


_INT_TOKEN = re.compile(r"[+-]?[0-9]+")  # int() alone takes "1_0" and non-ASCII digits
# int()'s default bound, kept here: the CLI lifts it to print its results
MAX_DIGITS = sys.int_info.default_max_str_digits


def _ints(line: str) -> list[int]:
    out = []
    for tok in line.split():
        if not _INT_TOKEN.fullmatch(tok):
            raise ShapeMismatch(f"non-integer token in line {_echo(line)}")
        if len(tok.lstrip("+-")) > MAX_DIGITS:
            raise ShapeMismatch(
                f"integer token longer than {MAX_DIGITS} digits in line {_echo(line)}"
            )
        out.append(int(tok))
    return out


def _json_number(tok: str) -> int:
    """A JSON number as int; ValueError on a float or past MAX_DIGITS."""
    if len(tok.lstrip("-")) > MAX_DIGITS:
        raise ValueError(f"a number longer than {MAX_DIGITS} digits")
    return int(tok)


def parse_matrix_text(text: str) -> ExtendedExchangeMatrix:
    lines = _strip_comments(text)
    if not lines:
        raise ShapeMismatch("empty matrix file")
    head = _ints(lines[0])
    if len(head) != 2:
        raise ShapeMismatch("first line must be 'n m'")
    n, m = head
    rows = [_ints(line) for line in lines[1:]]
    return validate(rows, n, m)


def parse_matrix_json(text: str) -> ExtendedExchangeMatrix:
    try:
        data = json.loads(text, parse_float=_json_number, parse_int=_json_number)
        n, m, rows = data["n"], data["m"], [list(row) for row in data["rows"]]
        if any(type(v) is not int for v in chain((n, m), *rows)):
            raise TypeError("a value is not an integer")  # a string, bool, NaN or Infinity
    except KeyError as missing:
        raise ShapeMismatch(f"matrix JSON lacks key {missing}") from None
    except RecursionError:
        raise ShapeMismatch("malformed matrix JSON: nested too deep") from None
    except (TypeError, ValueError) as exc:  # json.JSONDecodeError included
        raise ShapeMismatch(f"malformed matrix JSON: {exc}") from None
    return validate(rows, n, m)


def parse_matrix(text: str) -> ExtendedExchangeMatrix:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_matrix_json(text)
    return parse_matrix_text(text)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise ShapeMismatch("input file is not UTF-8 text") from None


def load_matrix(path: str) -> ExtendedExchangeMatrix:
    return parse_matrix(_read_text(path))


def render_matrix_text(matrix: ExtendedExchangeMatrix) -> str:
    lines = [f"{matrix.n} {matrix.m}"]
    lines += [" ".join(str(v) for v in row) for row in matrix.rows]
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> Graph:
    lines = _strip_comments(text)
    if not lines:
        raise ShapeMismatch("empty graph file")
    head = _ints(lines[0])
    if len(head) != 1:
        raise ShapeMismatch("first line must be the vertex count")
    v = head[0]
    if v < 0:
        raise ShapeMismatch(f"negative vertex count {echo_int(v)}")
    edges = set()
    for line in lines[1:]:
        toks = _ints(line)
        if len(toks) != 2:
            raise ShapeMismatch(f"bad edge line: {_echo(line)}")
        a, b = toks
        if not (1 <= a <= v and 1 <= b <= v) or a == b:
            raise ShapeMismatch(
                f"edge ({echo_int(a)}, {echo_int(b)}) outside 1..{echo_int(v)}"
            )
        edges.add((min(a, b) - 1, max(a, b) - 1))
    # the empty set, the vertices and the non-edges are independent sets
    if 1 + v + comb(v, 2) - len(edges) > ANTICLIQUE_GUARD:
        raise TooLarge(
            f"more than {ANTICLIQUE_GUARD} independent sets in a {echo_int(v)}-vertex graph"
        )
    return Graph.from_edges(v, edges)


def load_graph(path: str) -> Graph:
    return parse_graph_text(_read_text(path))
