"""One benchmark process: set up, then run a workload's ops back to back.

Usage (started by run.py, from the root of a checkout):

    python3 perfbench/worker.py --workload W --seed N --workdir DIR
        [--tiny] [--trace] [--setup-only]

Set-up is importing ``contact_duality.cli`` plus writing and validating
the workload's configs; the worker then records the monotonic clock as
its ready time.  Each op is one ``cli.main([command, --config, --out])``
call; no ``--threads`` flag is ever passed.  The worker writes
``DIR/result.json`` (ready time, per-op exit code, error and wall time,
library versions) and, with ``--trace``, ``DIR/trace.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    from contact_duality import cli
    from workloads import workload_ops

    recorder = None
    if args.trace:
        from tracing import Recorder, install

        recorder = Recorder()
        install(recorder)

    os.makedirs(args.workdir, exist_ok=True)
    ops = []
    for name, command, text in workload_ops(args.workload, args.seed, args.tiny):
        path = os.path.join(args.workdir, f"{name}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        cfg = cli.validate_config(text)
        if cfg.command != command:
            raise SystemExit(f"op {name}: config command {cfg.command!r} != {command!r}")
        ops.append((name, command, path))
    ready = time.monotonic()

    import numpy
    import scipy

    result = {"ready": ready, "ops": [],
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__, "scipy": scipy.__version__}}
    if not args.setup_only:
        result["ops_start"] = time.monotonic()
        for name, command, path in ops:
            outdir = os.path.join(args.workdir, name)
            if recorder is not None:
                recorder.op = name
                index = recorder.open("cli.op")
            status, error = None, None
            start = time.perf_counter()
            try:
                status = cli.main([command, "--config", path, "--out", outdir])
            except Exception:
                error = traceback.format_exc(limit=3)
            wall = time.perf_counter() - start
            if recorder is not None:
                recorder.close(index)
                recorder.op = None
            result["ops"].append({"name": name, "command": command, "status": status,
                                  "error": error, "wall_s": wall, "outdir": outdir})
        result["ops_end"] = time.monotonic()
        if recorder is not None:
            recorder.dump(os.path.join(args.workdir, "trace.json"))
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
