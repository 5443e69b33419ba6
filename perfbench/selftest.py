"""Self-tests of the benchmark, on the miniature configs (about a minute).

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

1. Correctness: check_op rejects a missing report key and a failed
   gate; the miniature ``spectrum`` workload passes against the stored
   references, and with one reference eigenvalue altered exactly one of
   its ops fails.
2. Traced run: for the miniature of every workload, every per-layer
   metric is reported with its unit, ``trace.overhead_frac`` among them;
   self times are non-negative and sum to no more than their op's span;
   the ladder solves every delta matrix twice (its epsilon twin is
   bitwise equal), so ``operators.duplicate_solve_frac`` is 1/3; the
   n=3 permutation sums make exactly 6 inner calls per outer call.

Exits 0 when every check passes and prints one line per check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import check_op, load_references  # noqa: E402
from layers import UNITS, layer_metrics, select_op, self_time_violations  # noqa: E402
from run import WORKDIR  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCRATCH = os.path.join(WORKDIR, "selftest")


def run_bench(workload: str, trace: int, *extra):
    """Run run.py on a miniature workload; return its JSON result line."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "11", "--seconds", "0", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fake_op(name: str, report: dict) -> dict:
    outdir = os.path.join(SCRATCH, name)
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return {"name": name, "command": "fold-check", "status": 0, "error": None,
            "outdir": outdir}


def test_check_op():
    missing = check_op(fake_op("no_gates", {"kind": "fold_check"}), None)
    assert missing and "lacks key" in missing, missing
    gate = {"name": "residual", "passed": False}
    failed = check_op(fake_op("failed_gate", {"gates": [gate]}), None)
    assert failed and "gates failed" in failed, failed
    passed = check_op(fake_op("passed_gate", {"gates": [{**gate, "passed": True}]}), None)
    assert passed is None, passed


def test_wrong_reference():
    clean = run_bench("spectrum", 0)
    assert clean["correct"] and clean["failed"] == 0, clean
    refs = load_references()
    first_op = sorted(refs["spectrum.tiny"])[0]
    table = refs["spectrum.tiny"][first_op]
    first_key = sorted(table)[0]
    table[first_key][0] *= 1.0 + 1e-8
    path = os.path.join(SCRATCH, "wrong_references.json")
    os.makedirs(SCRATCH, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh)
    wrong = run_bench("spectrum", 0, "--references", path)
    assert not wrong["correct"], wrong
    assert (wrong["failed"], wrong["attempted"]) == (1, clean["attempted"]), wrong


def test_traced_run(workload: str):
    result = run_bench(workload, 1)
    assert result["correct"], result
    metrics = result["metrics"]
    assert set(metrics) == set(UNITS), sorted(set(UNITS) ^ set(metrics))
    for name, unit in UNITS.items():
        assert metrics[name]["unit"] == unit, (name, metrics[name])
        assert isinstance(metrics[name]["value"], (int, float)), (name, metrics[name])
    trace_path = os.path.join(WORKDIR, f"{workload}.tiny", "pass1", "trace.json")
    with open(trace_path, encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    problems = self_time_violations(spans)
    assert not problems, problems
    if workload == "ladder":
        assert metrics["operators.duplicate_solve_frac"]["value"] == 1 / 3, metrics
    if workload == "kernel_suite":
        for op in ("free3_fermi", "free3_bose"):
            per_op = layer_metrics(select_op(spans, op))
            outer, inner = per_op["kernels.evaluate_calls"], per_op["kernels.inner_calls"]
            assert outer > 0 and inner == 6 * outer, (op, outer, inner)


def main() -> int:
    checks = [("check_op verdicts", test_check_op),
              ("one wrong reference fails one op", test_wrong_reference)]
    checks += [(f"traced run of {w}", lambda w=w: test_traced_run(w)) for w in WORKLOADS]
    failures = 0
    for label, check in checks:
        try:
            check()
        except (AssertionError, RuntimeError) as err:
            failures += 1
            print(f"FAIL {label}: {err!r}")
        else:
            print(f"ok   {label}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
