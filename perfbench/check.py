"""Correctness of one op, from its exit status and its report.json.

An op fails if it raised, if the CLI exited non-zero, if any gate in
report.json failed, if report.json lacks a key read here, or (for
``duality`` and ``spectrum``) if any eigenvalue differs from its stored
reference by more than ``REL_TOL`` relative.  Kernel, fold and
propagation outputs are checked only through their gates: they depend
on the seed, while the eigenvalues do not.
"""

from __future__ import annotations

import json
import os

#: ROADMAP bound on eigenvalue drift, relative.
REL_TOL = 1e-10

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")


def load_references(path: str = REFERENCES) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def reference_key(workload: str, tiny: bool) -> str:
    return f"{workload}.tiny" if tiny else workload


def eigenvalue_table(report: dict) -> dict:
    """Eigenvalues of a duality or spectrum report, keyed by level/formulation."""
    if report["kind"] == "spectrum":
        return {report["formulation"]: list(report["eigenvalues"])}
    table = {}
    for level in report["levels"]:
        for form, values in level["eigenvalues"].items():
            table[f"level{level['level']}/{form}"] = list(values)
    return table


def _eigenvalue_mismatch(got: dict, want: dict):
    if set(got) != set(want):
        return f"eigenvalue sets differ: {sorted(got)} vs {sorted(want)}"
    for key, ref in want.items():
        values = got[key]
        if len(values) != len(ref):
            return f"{key}: {len(values)} eigenvalues, reference has {len(ref)}"
        for i, (e, r) in enumerate(zip(values, ref)):
            if abs(e - r) > REL_TOL * abs(r):
                return f"{key}[{i}] = {e!r}, reference {r!r}"
    return None


def check_op(op: dict, references) -> str:
    """Reason the op failed, or None if it is correct.

    ``op`` is one entry of the worker's result.json; ``references``
    maps op names to eigenvalue tables (None: gates only).
    """
    if op["error"] is not None:
        return "raised: " + op["error"].strip().splitlines()[-1]
    if op["status"] != 0:
        return f"CLI exit status {op['status']}"
    path = os.path.join(op["outdir"], "report.json")
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as err:
        return f"unreadable report.json: {err}"
    try:
        failed = [g["name"] for g in report["gates"] if not g["passed"]]
        if not report["gates"]:
            return "report.json has no gates"
        if failed:
            return "gates failed: " + ", ".join(failed)
        if op["command"] in ("duality", "spectrum"):
            if references is None or op["name"] not in references:
                return "no stored eigenvalue reference"
            return _eigenvalue_mismatch(eigenvalue_table(report), references[op["name"]])
    except KeyError as err:
        return f"report.json lacks key {err}"
    return None
