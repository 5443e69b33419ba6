"""Benchmark of the contact-duality CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Each pass of a workload is one fresh Python process (worker.py) that
imports the CLI, writes and validates the workload's configs, and calls
``contact_duality.cli.main`` once per config, back to back: a closed
loop with one client, BLAS at its default thread count, no
``--threads`` flag.  Passes repeat until their measured time reaches
``--seconds`` (at least one pass).

``--trace 0`` reports the end-to-end metrics, medians over passes:
wall_s, setup_s (median over at least SETUP_SAMPLES set-ups), cpu_s and
peak_rss_mb.  ``--trace 1`` runs one untraced pass and one traced pass
and reports the per-layer metrics of layers.UNITS from the traced one.
Every op is checked (check.py); the last line of standard output is the
JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import check_op, load_references, reference_key  # noqa: E402
from layers import UNITS, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-ups timed per untraced run; setup_s is their median.
SETUP_SAMPLES = 3
#: A run stops starting passes so that it ends within this many seconds.
DEADLINE_S = 165.0
WORKDIR = ".perfbench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        text = fh.read().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = os.path.join(".git", ref)
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def run_worker(args, workdir: str, trace: bool, setup_only: bool, deadline: float):
    """Run one worker process to completion and collect what it measured."""
    os.makedirs(workdir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]
    cmd += ["--tiny"] * args.tiny + ["--trace"] * trace + ["--setup-only"] * setup_only
    log_path = os.path.join(workdir, "worker.log")
    with open(log_path, "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
        pid = 0
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.02)
        finally:
            if pid == 0:
                proc.kill()
                os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    outcome = {"spawned": spawned, "exit": proc.returncode,
               "cpu_s": usage.ru_utime + usage.ru_stime,
               "peak_rss_mb": usage.ru_maxrss / 1024.0, "result": None, "log": log_path}
    result_path = os.path.join(workdir, "result.json")
    if proc.returncode == 0 and os.path.isfile(result_path):
        with open(result_path, encoding="utf-8") as fh:
            outcome["result"] = json.load(fh)
    return outcome


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="run the miniature configs (self-tests)")
    parser.add_argument("--references", default=None,
                        help="eigenvalue reference file (default: references.json)")
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # raising runs run_worker's cleanup, which kills and reaps the worker
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    started = time.monotonic()
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    if os.environ.get("CONTACT_DUALITY_CACHE"):
        print("refusing to run: CONTACT_DUALITY_CACHE is set; a warm operator cache "
              "removes builds from the timed run and its keys collide", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join("src", "contact_duality", "cli.py")):
        print("refusing to run: src/contact_duality/cli.py not found; run from the "
              "root of a contact-duality checkout", file=sys.stderr)
        return 2
    references = (load_references(args.references) if args.references
                  else load_references()).get(reference_key(args.workload, args.tiny), {})

    label = args.workload + (".tiny" if args.tiny else "")
    root = os.path.join(WORKDIR, label)
    shutil.rmtree(root, ignore_errors=True)
    deadline = started + DEADLINE_S

    passes, setups = [], []

    def run_pass(trace: bool):
        outcome = run_worker(args, os.path.join(root, f"pass{len(passes)}"), trace,
                             False, deadline)
        passes.append(outcome)
        if outcome["result"] is not None:
            setups.append(outcome["result"]["ready"] - outcome["spawned"])
        return outcome

    def pass_wall(outcome):
        res = outcome["result"]
        return res["ops_end"] - res["ops_start"] if res else None

    if args.trace:
        baseline = run_pass(trace=False)
        traced = run_pass(trace=True)
    else:
        measured = 0.0
        while True:
            pass_started = time.monotonic()
            outcome = run_pass(trace=False)
            if outcome["result"] is None:
                break
            measured += pass_wall(outcome)
            cost = time.monotonic() - pass_started
            if measured >= args.seconds or time.monotonic() + 1.5 * cost > deadline:
                break
        while len(setups) < SETUP_SAMPLES and passes[-1]["result"] is not None:
            outcome = run_worker(args, os.path.join(root, f"setup{len(setups)}"), False,
                                 True, deadline)
            if outcome["result"] is None:
                break
            setups.append(outcome["result"]["ready"] - outcome["spawned"])

    env = {"nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
           "python": sys.version.split()[0],
           "versions": next((p["result"]["versions"] for p in passes if p["result"]), None),
           "git_commit": git_commit()}
    print(f"perfbench workload={label} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)}")
    print("env " + json.dumps(env, sort_keys=True))

    attempted = failed = 0
    expected_ops = None
    for index, outcome in enumerate(passes):
        res = outcome["result"]
        if res is None:
            print(f"pass{index}: worker exited with {outcome['exit']}; see {outcome['log']}")
            with open(outcome["log"], encoding="utf-8") as fh:
                sys.stderr.write(fh.read()[-2000:])
            attempted += expected_ops or 1
            failed += expected_ops or 1
            continue
        expected_ops = len(res["ops"])
        for op in res["ops"]:
            reason = check_op(op, references)
            attempted += 1
            failed += reason is not None
            print(f"pass{index} op {op['name']}: {op['wall_s']:.3f} s, "
                  + ("ok" if reason is None else "FAILED: " + reason))

    walls = [w for w in map(pass_wall, passes) if w is not None]
    if args.trace:
        metrics = {}
        trace_path = os.path.join(root, f"pass{len(passes) - 1}", "trace.json")
        if traced["result"] is not None and baseline["result"] is not None:
            with open(trace_path, encoding="utf-8") as fh:
                spans = json.load(fh)["spans"]
            metrics = layer_metrics(spans)
            metrics["trace.overhead_frac"] = pass_wall(traced) / pass_wall(baseline) - 1.0
        units = UNITS
    else:
        metrics = {}
        if walls:
            ok = [p for p in passes if p["result"] is not None]
            metrics = {"wall_s": statistics.median(walls),
                       "setup_s": statistics.median(setups),
                       "cpu_s": statistics.median(p["cpu_s"] for p in ok),
                       "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in ok)}
        units = END_TO_END_UNITS
        print(f"samples: {len(walls)} passes, {len(setups)} set-ups")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"ops_failed {failed / max(attempted, 1)!r} fraction ({failed}/{attempted})")

    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct, "attempted": max(attempted, 1), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
