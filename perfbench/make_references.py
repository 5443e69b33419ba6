"""Regenerate references.json: eigenvalues of every duality and spectrum op.

Usage, from the root of a checkout:

    python3 perfbench/make_references.py [--seed N]

Runs the ``ladder`` and ``spectrum`` workloads and their miniatures once
each and stores, per op, the eigenvalues at every level and
formulation.  Refuses to store the output of an op that failed.  Run
it only at a commit whose eigenvalues are trusted: every later run is
checked against this file to 1e-10 relative.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import REFERENCES, check_op, eigenvalue_table, reference_key  # noqa: E402
from run import WORKDIR, run_worker  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    tables = {}
    for workload in ("ladder", "spectrum"):
        for tiny in (True, False):
            run_args = argparse.Namespace(workload=workload, seed=args.seed, tiny=tiny)
            key = reference_key(workload, tiny)
            outcome = run_worker(run_args, os.path.join(WORKDIR, "references", key),
                                 trace=False, setup_only=False,
                                 deadline=time.monotonic() + 600)
            if outcome["result"] is None:
                print(f"{key}: worker failed; see {outcome['log']}", file=sys.stderr)
                return 1
            tables[key] = {}
            for op in outcome["result"]["ops"]:
                reason = check_op(op, None)
                if reason not in (None, "no stored eigenvalue reference"):
                    print(f"{key}/{op['name']}: {reason}", file=sys.stderr)
                    return 1
                with open(os.path.join(op["outdir"], "report.json"), encoding="utf-8") as fh:
                    tables[key][op["name"]] = eigenvalue_table(json.load(fh))
            print(f"{key}: {len(tables[key])} ops stored")
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(tables, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
