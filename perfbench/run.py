"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hodge_d12 --seed 0 --seconds 25 --trace 0

Load: a closed loop in one process, one caller, no threads.  Inputs are
solved one after another, each by the library call its CLI subcommand
makes with default flags, and every output is compared with its golden
output outside the timed region.

--trace 0 reports the end-to-end metrics (setup_s, wall_s, peak_rss_mib);
--trace 1 makes one untraced and one traced pass, whatever --seconds says,
and reports the per-layer metrics.  Times are in reference seconds (see
speed.py).  The line before the result holds the run's metadata.  Exit code
0 when every output matched its golden, 1 when one did not or a call
raised, 2 when the benchmark could not start (no package source, no
goldens, bad arguments).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 11

import tracing  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedLog  # noqa: E402


class SetupError(Exception):
    """The benchmark cannot run in this directory."""


def load_library():
    """Import clusterhodge from this checkout's src/, and only from there."""
    if not (SRC / "clusterhodge" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = workloads.import_library()
    origin = Path(sys.modules["clusterhodge"].__file__).resolve()
    if SRC not in origin.parents:
        raise SetupError(f"clusterhodge was imported from {origin}, not {SRC}")
    return lib


def load_golden(workload: str) -> dict:
    path = HERE / "goldens" / f"{workload}.json"
    if not path.is_file():
        raise SetupError(f"no golden file {path}")
    with open(path) as fh:
        return json.load(fh)


def setup(workload: str, seed: int):
    """Import the package afresh, load the goldens, make and validate the inputs."""
    lib = load_library()
    golden = load_golden(workload)
    return lib, golden, workloads.make_inputs(golden["inputs"], seed, lib)


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def solve(workload, lib, inp, golden) -> tuple[float, float | None, float, bool]:
    """Time one call.

    Returns (start, seconds or None if it raised, cpu seconds, output matched).
    """
    gc.collect()
    cpu0 = _cpu()
    t0 = perf_counter()
    try:
        out = workloads.call(workload, lib, inp)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return t0, None, _cpu() - cpu0, False
    elapsed = perf_counter() - t0
    cpu = _cpu() - cpu0
    got = workloads.canonical(workload, out)
    ok = got == golden["outputs"][inp.spec["id"]]
    if not ok:
        print(f"output of {inp.spec['id']} differs from its golden", file=sys.stderr)
    return t0, elapsed, cpu, ok


def timed_run(workload, make_state, seconds: float, setups: int = SETUP_REPEATS) -> dict:
    """Closed loop over the inputs until `seconds` have passed.

    The first pass runs every input.  Later passes start an input only if
    its previous time still fits in the budget.  Every timed call is scaled
    to reference seconds by the speed probes around it (see speed.py);
    wall_s is the sum over inputs of each input's median scaled time.

    make_state() is the set-up; it returns (lib, golden, inputs).  It is
    timed `setups` times, spread evenly over the run; setup_s is the median
    of the scaled times.  Each repetition imports the package afresh, and
    the inputs of the latest one are used.
    """
    speed = SpeedLog()
    setup_spans: list[tuple[float, float]] = []

    def timed_setup():
        speed.probe()
        t0 = perf_counter()
        state = make_state()
        setup_spans.append((t0, perf_counter()))
        speed.probe()
        return state

    lib, golden, inputs = timed_setup()
    spans: dict[str, list[tuple[float, float]]] = {inp.spec["id"]: [] for inp in inputs}
    attempted = failed = 0
    t_start = perf_counter()
    first = True
    while True:
        ran = False
        for k in range(len(inputs)):
            mine = spans[inputs[k].spec["id"]]
            if not first and (
                not mine or perf_counter() - t_start + mine[-1][1] - mine[-1][0] > seconds
            ):
                continue
            if len(setup_spans) < setups and (
                perf_counter() - t_start >= len(setup_spans) * seconds / setups
            ):
                lib, golden, inputs = timed_setup()
            speed.maybe_probe()
            t0, elapsed, _, ok = solve(workload, lib, inputs[k], golden)
            attempted += 1
            failed += not ok
            ran = True
            if elapsed is not None:
                mine.append((t0, t0 + elapsed))
        first = False
        if not ran or perf_counter() - t_start >= seconds:
            break
    while len(setup_spans) < setups:
        lib, golden, inputs = timed_setup()
    speed.probe()

    def scaled(t0, t1):
        return (t1 - t0) * speed.factor(t0, t1)

    samples = {k: [[t1 - t0, speed.factor(t0, t1)] for t0, t1 in v] for k, v in spans.items()}
    return {
        "attempted": attempted,
        "failed": failed,
        "wall_s": sum(statistics.median(scaled(*e) for e in v) for v in spans.values() if v),
        "setup_s": statistics.median(scaled(*e) for e in setup_spans),
        "raw_wall_s": sum(statistics.median(t1 - t0 for t0, t1 in v) for v in spans.values() if v),
        "raw_setup_s": statistics.median(t1 - t0 for t0, t1 in setup_spans),
        "samples": samples,
        "setup_samples": [[t1 - t0, speed.factor(t0, t1)] for t0, t1 in setup_spans],
        "lib": lib,
        "inputs": inputs,
    }


def traced_run(workload, lib, golden, inputs, spans_path=None) -> dict:
    """One untraced pass, then one pass with every layer wrapped.

    Times are scaled to reference seconds per input, by the speed probes
    taken before and after each call; raw sums are returned alongside.
    """
    speed = SpeedLog()
    attempted = failed = 0
    untraced = cpu = raw_untraced = 0.0
    for inp in inputs:
        speed.probe()
        t0, elapsed, used, ok = solve(workload, lib, inp, golden)
        speed.probe()
        attempted += 1
        failed += not ok
        f = speed.factor(t0, t0 + (elapsed or 0.0))
        raw_untraced += elapsed or 0.0
        untraced += (elapsed or 0.0) * f
        cpu += used * f

    rec = tracing.SpanRecorder()
    with tracing.installed(lib, rec):
        for idx, inp in enumerate(inputs):
            rec.current_input = idx
            gc.collect()
            speed.probe()
            with rec.span(tracing.ROOT_SPAN):
                try:
                    out = workloads.call(workload, lib, inp)
                except Exception:
                    out = None
                    traceback.print_exc(file=sys.stderr)
            speed.probe()
            attempted += 1
            ok = out is not None and (
                workloads.canonical(workload, out) == golden["outputs"][inp.spec["id"]]
            )
            failed += not ok
    roots = rec.root_spans()
    scale = [speed.factor(roots[i][0], roots[i][1]) for i in range(len(inputs))]
    metrics = tracing.layer_metrics(rec, scale)
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - untraced, "s")
    metrics["process.cpu_s"] = (cpu, "s")
    if spans_path is not None:
        rec.write(spans_path, [inp.spec["id"] for inp in inputs])
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "raw_untraced_wall_s": raw_untraced,
        "raw_traced_wall_s": sum(e - s for s, e in roots.values()),
        "input_scale": scale,
    }


# ---------------------------------------------------------------------------
# metadata


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def input_sizes(lib, inputs) -> list[dict]:
    """d, anticliques, characters and the predicted basis size of each input.

    The basis size is sum over anticliques I of C(d - 2|I|, s - |I|) at the
    input's weight s (|N(I)| = |I|), or 2^(d - 2|I|) over all weights; for
    a matrix that is not really full rank it counts the trivial character.
    """
    out = []
    for inp in inputs:
        m = inp.matrix
        family = lib.graphs.anticliques(lib.exchange.underlying_graph(m))
        sizes = [len(level) for level in family.by_cardinality]
        really = lib.exchange.rank_class(m).name == "REALLY_FULL_RANK"
        chars = 1 if really else lib.exchange.CharacterGroup(m).order
        s = inp.spec["weight"]
        if s is None:
            basis = sum(c * 2 ** (m.d - 2 * k) for k, c in enumerate(sizes))
        else:
            basis = sum(
                c * math.comb(m.d - 2 * k, s - k)
                for k, c in enumerate(sizes)
                if 0 <= s - k <= m.d - 2 * k
            )
        out.append(
            {
                "id": inp.spec["id"],
                "d": m.d,
                "anticliques": sum(sizes),
                "characters": chars,
                "predicted_basis": basis,
            }
        )
    return out


def metadata(args, lib, inputs) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "inputs": input_sizes(lib, inputs),
    }


# ---------------------------------------------------------------------------


def end_to_end_metrics(run: dict) -> dict:
    return {
        "setup_s": {"value": run["setup_s"], "unit": "s"},
        "wall_s": {"value": run["wall_s"], "unit": "s"},
        "peak_rss_mib": {
            # ru_maxrss is in KiB on Linux
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MiB",
        },
    }


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not args.seconds > 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            lib, golden, inputs = setup(args.workload, args.seed)
            run = traced_run(args.workload, lib, golden, inputs, f"{stem}-spans.tsv.gz")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()}
            meta = metadata(args, lib, inputs)
            for key in ("raw_untraced_wall_s", "raw_traced_wall_s", "input_scale"):
                meta[key] = run[key]
        else:
            run = timed_run(
                args.workload, lambda: setup(args.workload, args.seed), args.seconds
            )
            metrics = end_to_end_metrics(run)
            meta = metadata(args, run["lib"], run["inputs"])
            for key in ("raw_wall_s", "raw_setup_s", "samples", "setup_samples"):
                meta[key] = run[key]
    except (SetupError, ImportError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark cannot run: {exc!r}", file=sys.stderr)
        return 2
    meta["fail_frac"] = run["failed"] / run["attempted"]
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    with open(f"{stem}.json", "w") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=1)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
