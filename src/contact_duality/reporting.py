"""Machine-readable experiment artifacts.

Every run writes, into its output directory: ``report.json`` (sorted
keys, shortest round-trip floats, no timestamps, so identical runs are
byte-identical; strict JSON, so a value that overflowed to inf or nan is
written as null and its gate fails), one or more flat ``*.csv`` tables, ``*.plot.csv``
column files ready for any plotting tool, and ``manifest.json`` with the
config hash, package versions, the BLAS thread setting the package found
on import, wall time and the process's peak resident memory (the
manifest is provenance and exempt from the byte-identity contract
because of the timing and memory fields).  The exit status is 0 exactly
when every configured tolerance gate holds.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__, blas_threads

try:
    import resource
except ImportError:  # not on Windows
    resource = None

SCHEMA_VERSION = 1


def peak_rss_mb():
    """High-water resident memory of this process in MB, from
    ``ru_maxrss`` (KB on Linux, bytes on macOS); None without the
    ``resource`` module."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(peak / (1024.0 ** 2 if sys.platform == "darwin" else 1024.0), 1)


def _jsonable(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@dataclass
class Gate:
    name: str
    value: float
    tolerance: float
    mode: str = "max"  # max: value <= tolerance; min: value >= tolerance

    @property
    def passed(self) -> bool:
        if self.value is None:
            return False
        return self.value <= self.tolerance if self.mode == "max" \
            else self.value >= self.tolerance

    def to_dict(self) -> dict:
        return {"name": self.name, "value": self.value,
                "tolerance": self.tolerance, "mode": self.mode,
                "passed": self.passed}


@dataclass
class RunArtifacts:
    report: dict
    gates: list = field(default_factory=list)
    # name -> (header, rows), written to <name>.csv; plot tables are named
    # <stem>.plot
    tables: dict = field(default_factory=dict)

    def all_passed(self) -> bool:
        return all(g.passed for g in self.gates)


def write_run(outdir, artifacts: RunArtifacts, config_text: str,
              started: float, verbose: bool = False) -> int:
    """Write all artifacts; return the process exit status (0 or 1)."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)

    report = dict(artifacts.report)
    report["schema_version"] = SCHEMA_VERSION
    report["gates"] = [g.to_dict() for g in artifacts.gates]
    (out / "report.json").write_text(
        json.dumps(_jsonable(report), sort_keys=True, indent=2, allow_nan=False) + "\n",
        encoding="utf-8",
    )

    for name, (header, rows) in artifacts.tables.items():
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(format_cell(v) for v in row))
        (out / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "package_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "blas_threads": blas_threads,
        "wall_time_s": round(time.time() - started, 3),
        "peak_rss_mb": peak_rss_mb(),
        "gates_passed": artifacts.all_passed(),
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2, allow_nan=False) + "\n",
        encoding="utf-8")

    if verbose:
        for g in artifacts.gates:
            state = "pass" if g.passed else "FAIL"
            print(f"  gate {g.name}: {g.value!r} vs {g.tolerance!r} [{state}]")
    return 0 if artifacts.all_passed() else 1
