"""Parsing of matrix and graph files, and output rendering helpers.

Matrix text format: first line ``n m``, then n+m lines of n space-separated
integers; lines starting with ``#`` are comments.  A JSON object with keys
``n``, ``m`` and ``rows`` is also accepted.  Graph text format: first line
the vertex count v (vertices are labeled 1..v in files, 0..v-1 in memory),
then one ``u w`` edge per line.
"""

from __future__ import annotations

import json
import sys

from .errors import ShapeMismatch
from .exchange import ExtendedExchangeMatrix, validate
from .graphs import Graph


def _strip_comments(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


ECHO_CHARS = 60


def _echo(line: str) -> str:
    """The line for a diagnostic, cut to its first ECHO_CHARS characters."""
    if len(line) <= ECHO_CHARS:
        return repr(line)
    return f"{line[:ECHO_CHARS]!r}... ({len(line)} characters)"


def _ints(line: str) -> list[int]:
    out = []
    for tok in line.split():
        try:
            out.append(int(tok))
        except ValueError:
            digits = tok[1:] if tok[0] in "+-" else tok
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if limit and digits.isdecimal() and len(digits) > limit:
                reason = f"integer token longer than {limit} digits"
            else:
                reason = "non-integer token"
            raise ShapeMismatch(f"{reason} in line {_echo(line)}") from None
    return out


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
        data = json.loads(text, parse_float=int)  # rejects float entries
        n, m = int(data["n"]), int(data["m"])
        rows = [[int(v) for v in row] for row in data["rows"]]
    except KeyError as missing:
        raise ShapeMismatch(f"matrix JSON lacks key {missing}") from None
    except (TypeError, ValueError) as exc:  # json.JSONDecodeError included
        raise ShapeMismatch(f"malformed matrix JSON: {exc}") from None
    return validate(rows, n, m)


def parse_matrix(text: str) -> ExtendedExchangeMatrix:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_matrix_json(text)
    return parse_matrix_text(text)


def load_matrix(path: str) -> ExtendedExchangeMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


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
        raise ShapeMismatch(f"negative vertex count {v}")
    pairs = []
    for line in lines[1:]:
        toks = _ints(line)
        if len(toks) != 2:
            raise ShapeMismatch(f"bad edge line: {_echo(line)}")
        a, b = toks
        if not (1 <= a <= v and 1 <= b <= v) or a == b:
            raise ShapeMismatch(f"edge ({a}, {b}) outside 1..{v}")
        pairs.append((a - 1, b - 1))
    return Graph.from_edges(v, pairs)


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())
