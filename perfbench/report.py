"""Run the benchmark over several seeds, one fresh process per run, and summarise.

Usage, from the root of a checkout:

    python3 perfbench/report.py --seeds 0 1 2 3 4 5 6 7 8 9 [--workload NAME ...]
                                [--seconds 25] [--trace 0|1] [--json PATH]

Prints, per workload and metric, the unit, the median, the quartiles and
the spread (quartile distance over the median); then the unscaled wall and
set-up times from the metadata; then fail_frac, the share of attempted
inputs that raised or differed from their golden output.
Exit code 1 if any run failed or was incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"
TIMEOUT_S = 600


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return {"returncode": proc.returncode, "stderr": proc.stderr[-2000:]}
    return {
        "returncode": proc.returncode,
        "meta": json.loads(lines[-2])["meta"],
        "result": json.loads(lines[-1]),
    }


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", nargs="*", choices=workloads.WORKLOADS)
    p.add_argument("--seeds", nargs="+", type=int, default=[0])
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", help="write every run and the summary here")
    args = p.parse_args(argv)
    bad = False
    doc = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workload or workloads.WORKLOADS:
        runs = []
        for seed in args.seeds:
            got = run_once(workload, seed, args.seconds, args.trace)
            runs.append(got)
            if got["returncode"] != 0 or "result" not in got:
                bad = True
                print(f"{workload} seed {seed}: exit {got['returncode']}", file=sys.stderr)
                print(got.get("stderr", ""), file=sys.stderr)
        done = [r["result"] for r in runs if "result" in r]
        summary = {}
        print(f"== {workload}: {len(done)} runs, seeds {args.seeds}")
        for name in done[0]["metrics"] if done else ():
            values = [r["metrics"][name]["value"] for r in done]
            unit = done[0]["metrics"][name]["unit"]
            med, q1, q3, spr = spread(values)
            summary[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                             "spread": spr, "values": values}
            print(f"  {name:32s} {unit:6s} median {med:12.6g}  q1 {q1:12.6g}"
                  f"  q3 {q3:12.6g}  spread {spr:.4f}")
        metas = [r["meta"] for r in runs if "result" in r]
        for name in ("raw_wall_s", "raw_setup_s"):
            if metas and name in metas[0]:
                med, q1, q3, spr = spread([m[name] for m in metas])
                print(f"  {name:32s} {'s':6s} median {med:12.6g}  q1 {q1:12.6g}"
                      f"  q3 {q3:12.6g}  spread {spr:.4f}  (unscaled)")
        attempted = sum(r["attempted"] for r in done)
        failed = sum(r["failed"] for r in done)
        frac = failed / attempted if attempted else float("nan")
        bad = bad or failed > 0 or not all(r["correct"] for r in done)
        print(f"  {'fail_frac':32s} {'1':6s} {frac:.6g}  ({failed} of {attempted} inputs)")
        summary["fail_frac"] = {"unit": "1", "value": frac, "failed": failed,
                                "attempted": attempted}
        doc["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
