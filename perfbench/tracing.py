"""Span recorder and the wrappers of the traced run, kept outside the package.

Each wrapped library function records one span: name, start, end, parent
span and input id, held in flat arrays while the run lasts and written out
when it ends.  A layer's self time is its spans' durations minus the part
covered by their child spans, so the self times of all spans, together with
the benchmark's own root spans, add up to the traced wall time.

A function is wrapped under every name a module of the package binds it to
(``gysin.rank`` and ``graphs.rank`` are separate bindings of
``linalg.rank``); methods are wrapped on their class.  ``installed``
restores every original binding when it exits.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
from array import array
from time import perf_counter

ROOT_SPAN = "bench.input"
BOOKKEEPING_SPAN = "trace.bookkeeping"

# (span name, module defining it, function name)
FUNCTIONS = (
    ("linalg.rank", "linalg", "rank"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("linalg.solve_in_span", "linalg", "solve_in_span"),
    ("exchange.validate", "exchange", "validate"),
    ("exchange.is_acyclic", "exchange", "is_acyclic"),
    ("exchange.rank_class", "exchange", "rank_class"),
    ("exchange.smith_normal_form", "linalg", "smith_normal_form"),
    ("graphs.anticliques", "graphs", "anticliques"),
    ("graphs.mv_delta", "graphs", "mv_delta"),
    ("graphs.reduced_cohomology", "graphs", "reduced_cohomology"),
    ("gysin.hodge_table", "gysin", "hodge_table"),
    ("filtration.build_filtered", "filtration", "build_filtered"),
    ("filtration.spectral_sequence", "filtration", "spectral_sequence"),
    ("filtration.e1_page", "filtration", "e1_page"),
    ("counts.consistency_suite", "counts", "consistency_suite"),
    ("counts.point_count_poly", "counts", "point_count_poly"),
    ("counts.brute_force_count", "counts", "brute_force_count"),
    ("counts.closed_form_s_le_3", "counts", "closed_form_s_le_3"),
)

# (span name, module, class, method)
METHODS = (
    ("linalg.echelon_add", "linalg", "Echelon", "add"),
    ("gysin.builder_init", "gysin", "GysinBuilder", "__init__"),
    ("gysin.basis", "gysin", "GysinBuilder", "basis"),
    ("gysin.rho_columns", "gysin", "GysinBuilder", "rho_columns"),
    ("gysin.complex_for_s", "gysin", "GysinBuilder", "complex_for_s"),
    ("gysin.verify_d2", "gysin", "CochainComplexQ", "verify_d2"),
    ("gysin.table_checks", "gysin", "HodgeTable", "check_weak_support"),
    ("gysin.table_checks", "gysin", "HodgeTable", "check_lefschetz"),
    ("gysin.table_checks", "gysin", "HodgeTable", "check_support_bounds"),
    ("gysin.table_checks", "gysin", "HodgeTable", "check_top_class"),
    ("exchange.character_group", "exchange", "CharacterGroup", "__init__"),
    ("exchange.character_subgroup", "exchange", "CharacterGroup", "subgroup"),
)

LAYERS = ("exchange", "graphs", "gysin", "linalg", "filtration", "counts")


class SpanRecorder:
    """Spans in flat arrays plus exact counters, for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.input = array("H")
        self.stack = [-1]
        self.current_input = 0
        self.counters: dict[str, int] = {}
        self.distinct: dict[str, set] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, k: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + k

    def see(self, key: str, item) -> None:
        self.distinct.setdefault(key, set()).add((self.current_input, item))

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.input.append(self.current_input)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def self_times(self, scale=None) -> dict[str, float]:
        """Self time per span name: duration minus the children's durations.

        scale, if given, multiplies the spans of input i by scale[i].
        """
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        out: dict[str, float] = {}
        for nid, inp, t in zip(self.name, self.input, own):
            key = self.names[nid]
            out[key] = out.get(key, 0.0) + (t if scale is None else t * scale[inp])
        return out

    def span_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for nid in self.name:
            key = self.names[nid]
            out[key] = out.get(key, 0) + 1
        return out

    def root_spans(self) -> dict[int, tuple[float, float]]:
        """(start, end) of the root span of each input."""
        root = self._ids.get(ROOT_SPAN)
        return {
            inp: (s, e)
            for n, inp, s, e in zip(self.name, self.input, self.start, self.end)
            if n == root
        }

    def write(self, path, input_ids: list[str]) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tparent\tinput\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t"
                    f"{input_ids[self.input[i]]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\n"
                )


# ---------------------------------------------------------------------------
# counting hooks, run after the span has closed


def _after_rank(rec, args, kwargs, out):
    rec.count("linalg.rank.rows", len(args[0]))
    rec.count("linalg.rank.pivots", out)


def _after_echelon_add(rec, args, kwargs, out):
    if out is None:
        rec.count("linalg.echelon_add.dependent")


def _after_basis(rec, args, kwargs, out):
    rec.see("gysin.basis.distinct", (id(args[0]), args[1]))


def _after_complex(rec, args, kwargs, out):
    with rec.span(BOOKKEEPING_SPAN):
        nnz = nonunit = 0
        for cols in out.columns:
            for col in cols:
                nnz += len(col)
                nonunit += sum(1 for v in col.values() if v != 1 and v != -1)
        rec.count("gysin.complexes")
        rec.count("gysin.cells", sum(len(pos) for pos in out.labels))
        rec.count("gysin.nnz", nnz)
        rec.count("gysin.nnz_nonunit", nonunit)


def _after_mv_delta(rec, args, kwargs, out):
    rec.see("graphs.mv_delta.distinct", tuple(args[1:4]))


def _after_brute_force(rec, args, kwargs, out):
    # leaves of the enumeration: x in F_q^n, y in (F_q^*)^m -- computed, not counted
    matrix, q = args[0], args[1]
    rec.count("counts.brute_force.tuples", q**matrix.n * (q - 1) ** matrix.m)


def _after_sequence(rec, args, kwargs, out):
    rec.count("filtration.pages", len(out))


AFTER = {
    "linalg.rank": _after_rank,
    "linalg.echelon_add": _after_echelon_add,
    "gysin.basis": _after_basis,
    "gysin.complex_for_s": _after_complex,
    "graphs.mv_delta": _after_mv_delta,
    "counts.brute_force_count": _after_brute_force,
    "filtration.spectral_sequence": _after_sequence,
}


def _wrap(fn, name: str, rec: SpanRecorder):
    nid = rec.name_id(name)
    after = AFTER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            after(rec, args, kwargs, out)
        return out

    return wrapper


def _wrap_elements(fn, rec: SpanRecorder):
    """CharacterGroup.elements is a generator: count what it yields."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        for chi in fn(*args, **kwargs):
            rec.count("exchange.characters")
            yield chi

    return wrapper


def _targets(lib):
    """(owner, attribute, original, span name or None) for every binding to wrap."""
    mods = [sys.modules["clusterhodge"]] + [getattr(lib, m) for m in vars(lib)]
    out = []
    for name, home, fname in FUNCTIONS:
        original = getattr(getattr(lib, home), fname)
        for mod in mods:
            if mod.__dict__.get(fname) is original:
                out.append((mod, fname, original, name))
    for name, home, cls_name, meth in METHODS:
        cls = getattr(getattr(lib, home), cls_name)
        out.append((cls, meth, cls.__dict__[meth], name))
    group = lib.exchange.CharacterGroup
    out.append((group, "elements", group.__dict__["elements"], None))
    return out


def bindings(lib) -> dict[tuple[int, str], object]:
    """Current object of every wrapped binding, to check that none stays wrapped."""
    return {(id(owner), attr): owner.__dict__[attr] for owner, attr, _, _ in _targets(lib)}


@contextlib.contextmanager
def installed(lib, rec: SpanRecorder):
    """Wrap every target for the duration of the block, then restore them."""
    targets = _targets(lib)
    try:
        for owner, attr, original, name in targets:
            if name is None:
                wrapper = _wrap_elements(original, rec)
            else:
                wrapper = _wrap(original, name, rec)
            setattr(owner, attr, wrapper)
        yield rec
    finally:
        for owner, attr, original, _ in targets:
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics


TIME_METRICS = {
    "linalg.rank_s": ("linalg.rank",),
    "linalg.echelon_add_s": ("linalg.echelon_add",),
    "linalg.nullspace_s": ("linalg.nullspace",),
    "linalg.solve_in_span_s": ("linalg.solve_in_span",),
    "gysin.assembly_s": (
        "gysin.builder_init",
        "gysin.basis",
        "gysin.rho_columns",
        "gysin.complex_for_s",
    ),
    "gysin.verify_d2_s": ("gysin.verify_d2",),
    "gysin.table_checks_s": ("gysin.table_checks",),
    "filtration.build_s": ("filtration.build_filtered",),
    "filtration.engine_s": ("filtration.spectral_sequence",),
    "filtration.e1_s": ("filtration.e1_page",),
    "graphs.mv_delta_s": ("graphs.mv_delta",),
    "graphs.cohomology_s": ("graphs.reduced_cohomology",),
    "graphs.anticliques_s": ("graphs.anticliques",),
    "counts.brute_force_s": ("counts.brute_force_count",),
    "counts.point_count_s": ("counts.point_count_poly",),
    "counts.suite_s": ("counts.consistency_suite",),
    "trace.bookkeeping_s": (BOOKKEEPING_SPAN,),
    "trace.unattributed_s": (ROOT_SPAN,),
}

CALL_METRICS = {
    "linalg.rank.calls": "linalg.rank",
    "linalg.echelon_add.calls": "linalg.echelon_add",
    "linalg.solve_in_span.calls": "linalg.solve_in_span",
    "gysin.basis.calls": "gysin.basis",
    "gysin.rho_columns.calls": "gysin.rho_columns",
    "graphs.mv_delta.calls": "graphs.mv_delta",
    "graphs.cohomology.calls": "graphs.reduced_cohomology",
}

COUNTER_METRICS = (
    "linalg.rank.rows",
    "linalg.rank.pivots",
    "linalg.echelon_add.dependent",
    "gysin.complexes",
    "gysin.cells",
    "gysin.nnz",
    "gysin.nnz_nonunit",
    "filtration.pages",
    "counts.brute_force.tuples",
    "exchange.characters",
)

DISTINCT_METRICS = ("gysin.basis.distinct", "graphs.mv_delta.distinct")


def layer_metrics(rec: SpanRecorder, scale=None) -> dict[str, tuple[float, str]]:
    """{metric: (value, unit)} from the recorded spans and counters.

    scale[i], if given, converts the times of input i to reference seconds.
    """
    own = rec.self_times(scale)
    calls = rec.span_counts()
    out: dict[str, tuple[float, str]] = {}
    for metric, names in TIME_METRICS.items():
        out[metric] = (sum(own.get(n, 0.0) for n in names), "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            sum(t for n, t in own.items() if n.split(".")[0] == layer),
            "s",
        )
    for metric, name in CALL_METRICS.items():
        out[metric] = (calls.get(name, 0), "count")
    for metric in COUNTER_METRICS:
        out[metric] = (rec.counters.get(metric, 0), "count")
    for metric in DISTINCT_METRICS:
        out[metric] = (len(rec.distinct.get(metric, ())), "count")
    out["trace.spans"] = (len(rec.start), "count")
    out["trace.wall_s"] = (
        sum((e - s) * (1.0 if scale is None else scale[i])
            for i, (s, e) in rec.root_spans().items()),
        "s",
    )
    return out
