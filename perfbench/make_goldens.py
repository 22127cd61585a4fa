"""Create the golden outputs of the benchmark and cross-check them.

Usage, from the root of a checkout:

    python3 perfbench/make_goldens.py [--workload NAME ...]

Each golden file stores the workload's input specs and one canonical
serialisation per input, computed on the unrelabelled inputs.  Before a
file is written its outputs are checked against oracles that do not go
through the computation being stored:

- star Z_6's diagonal equals (1+x)^5 (1 + x + ... + x^7);
- point_count_poly equals the alternating sum of each really-full-rank
  Hodge table;
- closed_form_s_le_3 equals each table's s <= 3 slice;
- no consistency-suite check fails;
- page 1 of every ss_p5 weight has the e1_page dimensions;
- the E_infinity totals of ss_p5 equal P_5's Hodge table.

Goldens are made once, at the commit that defines the benchmark; a later
change that alters an output is caught by the benchmark, not re-blessed.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


class OracleMismatch(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise OracleMismatch(what)


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def trim(c: list[int]) -> list[int]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def alternating_sum(dims: list[list[int]], d: int) -> list[int]:
    """sum (-1)^k dims(k, s) q^(d-s)."""
    coeffs = [0] * (d + 1)
    for k, s, v in dims:
        coeffs[d - s] += -v if k % 2 else v
    return trim(coeffs)


def check_hodge_table(lib, inp, dims) -> None:
    """Point-count identity and s <= 3 closed forms for a principal input."""
    m = inp.matrix
    counted = lib.counts.point_count_poly(m).polynomial.coefficients
    expect(
        trim(counted) == alternating_sum(dims, m.d),
        f"{inp.spec['id']}: point count vs alternating sum",
    )
    closed = lib.counts.closed_form_s_le_3(m)
    slice_ = {(k, s): v for k, s, v in dims if s <= 3}
    expect(closed == slice_, f"{inp.spec['id']}: closed forms s <= 3")


def cross_check(workload, lib, inputs, outputs) -> None:
    if workload == "hodge_d12":
        for inp in inputs:
            check_hodge_table(lib, inp, outputs[inp.spec["id"]])
        star = next(i for i in inputs if i.spec["id"].startswith("Z"))
        n = star.spec["n"]
        want = [1]
        for _ in range(n - 1):
            want = poly_mul(want, [1, 1])
        want = poly_mul(want, [1] * (n + 2))
        diag = [0] * (2 * n + 1)
        for k, s, v in outputs[star.spec["id"]]:
            if k == s:
                diag[s] += v
        expect(trim(diag) == want, f"{star.spec['id']}: diagonal")
    elif workload == "check_mixed":
        for iid, checks in outputs.items():
            expect(all(st != "FAIL" for _, st, _ in checks), f"{iid}: suite failed")
    elif workload == "ss_p5":
        matrix = inputs[0].matrix
        table = lib.gysin.hodge_table(matrix)
        check_hodge_table(lib, inputs[0], workloads.canonical("hodge_d12", table))
        for inp in inputs:
            s = inp.spec["weight"]
            pages = outputs[inp.spec["id"]]
            e1 = lib.filtration.e1_page(matrix, s)
            expect(
                pages[1][1] == workloads.canonical("e1_n7", e1)[0],
                f"{inp.spec['id']}: page 1 vs e1_page",
            )
            totals: dict[int, int] = {}
            for e, f, v in pages[-1][1]:
                totals[e + f] = totals.get(e + f, 0) + v
            want = {k - s: v for (k, ss), v in table.dims.items() if ss == s and v}
            expect(totals == want, f"{inp.spec['id']}: E_infinity vs Hodge table")


def make(workload: str, lib) -> dict:
    specs = workloads.input_specs(workload, lib)
    inputs = workloads.make_inputs(specs, None, lib)
    outputs = {
        inp.spec["id"]: workloads.canonical(workload, workloads.call(workload, lib, inp))
        for inp in inputs
    }
    outputs = json.loads(json.dumps(outputs))
    cross_check(workload, lib, inputs, outputs)
    return {
        "workload": workload,
        "created_at_commit": run.git_commit(),
        "inputs": specs,
        "outputs": outputs,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", nargs="*", choices=workloads.WORKLOADS)
    args = p.parse_args(argv)
    lib = run.load_library()
    (run.HERE / "goldens").mkdir(exist_ok=True)
    for workload in args.workload or workloads.WORKLOADS:
        try:
            doc = make(workload, lib)
        except OracleMismatch as exc:
            print(f"{workload}: oracle mismatch, golden not written: {exc}", file=sys.stderr)
            return 1
        path = run.HERE / "goldens" / f"{workload}.json"
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=None, separators=(",", ":"))
            fh.write("\n")
        print(f"{workload}: {len(doc['outputs'])} outputs -> {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
