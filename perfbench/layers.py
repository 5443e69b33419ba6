"""Per-layer metrics from the spans a traced worker writes.

Pure Python, so the parent process never imports numpy.  A span is
``[name, start, end, parent, op, attrs]`` (see tracing.py); its layer is
the part of the name before the first dot.  Self time is a span's
duration minus the durations of its child spans, which never overlap
because every call runs on the one interpreter thread.
"""

from __future__ import annotations

import statistics

#: Every per-layer metric the traced run reports, with its unit.
UNITS = {
    "operators.build_s": "s",
    "operators.build_calls": "count",
    "operators.dofs_built": "count",
    "operators.nnz_built": "count",
    "operators.unreduced_build_s": "s",
    "operators.solve_s": "s",
    "operators.solve_calls": "count",
    "operators.solve_dim_max": "count",
    "operators.duplicate_solve_frac": "fraction",
    "mesh.s": "s",
    "mesh.elements": "count",
    "spectra.duality_report_s": "s",
    "spectra.bf_check_s": "s",
    "spectra.self_s": "s",
    "kernels.evaluate_s": "s",
    "kernels.evaluate_calls": "count",
    "kernels.points_evaluated": "count",
    "kernels.inner_calls": "count",
    "permutations.apply_s": "s",
    "permutations.apply_calls": "count",
    "quadrature.rule_s": "s",
    "quadrature.rule_points": "count",
    "quadrature.integrate_calls": "count",
    "quadrature.useful_point_frac": "fraction",
    "kernel_checks.suite_s": "s",
    "kernel_checks.self_s": "s",
    "heat_solver.pde_gate_s": "s",
    "folding.fold_check_s": "s",
    "propagation.route_s": "s",
    "propagation.expm_s": "s",
    "propagation.expm_dim": "count",
    "configio.validate_s": "s",
    "reporting.write_s": "s",
    "cli.op_s.median": "s",
    "cli.op_s.max": "s",
    "cli.op_count": "count",
    "trace.overhead_frac": "fraction",
}


def duration(span) -> float:
    return span[2] - span[1]


def self_times(spans):
    """Self time of every span, in span order."""
    out = [duration(s) for s in spans]
    for span in spans:
        if span[3] >= 0:
            out[span[3]] -= duration(span)
    return out


def _outermost(spans, name):
    """Spans called ``name`` with no enclosing span of the same name."""
    found = []
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            found.append(span)
    return found


def _busy(spans, name) -> float:
    return sum(duration(s) for s in _outermost(spans, name))


def _layer_self(spans, selfs, layer) -> float:
    return sum(t for s, t in zip(spans, selfs) if s[0].split(".", 1)[0] == layer)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def select_op(spans, op):
    """The spans of one op, re-indexed so that parents stay valid."""
    keep = [i for i, s in enumerate(spans) if s[4] == op]
    new_index = {old: new for new, old in enumerate(keep)}
    return [[*spans[i][:3], new_index.get(spans[i][3], -1), *spans[i][4:]] for i in keep]


def layer_metrics(spans) -> dict:
    """Every metric of ``UNITS`` except ``trace.overhead_frac``, by name."""
    selfs = self_times(spans)
    named = {}
    for span in spans:
        named.setdefault(span[0], []).append(span)

    def attr_sum(name, key):
        return sum(s[5].get(key, 0) for s in named.get(name, []))

    builds = named.get("operators.build", [])
    solves = named.get("operators.solve", [])
    seen, duplicates = set(), 0
    for span in solves:
        key = (span[4], span[5]["digest"])
        duplicates += key in seen
        seen.add(key)

    evaluations = _outermost(spans, "kernels.evaluate")
    inner = sum(1 for s in named.get("kernels.evaluate", [])
                if s[3] >= 0 and spans[s[3]][0] == "kernels.evaluate"
                and spans[s[3]][5].get("kind") == "permutation_sum")

    children = {}
    for span in spans:
        children.setdefault(span[3], []).append(span)
    built = useful = 0
    for index, span in enumerate(spans):
        if span[0] != "quadrature.integrate":
            continue
        rules = [c[5]["points"] for c in children.get(index, [])
                 if c[0] == "quadrature.rule"]
        built += sum(rules)
        if span[5].get("ok") and rules:
            useful += rules[-1]

    op_walls = [duration(s) for s in named.get("cli.op", [])]
    return {
        "operators.build_s": _busy(spans, "operators.build"),
        "operators.build_calls": len(builds),
        "operators.dofs_built": attr_sum("operators.build", "dofs"),
        "operators.nnz_built": attr_sum("operators.build", "nnz"),
        "operators.unreduced_build_s": sum(duration(s) for s in builds
                                           if not s[5].get("reduced", True)),
        "operators.solve_s": _busy(spans, "operators.solve"),
        "operators.solve_calls": len(solves),
        "operators.solve_dim_max": max((s[5]["dim"] for s in solves), default=0),
        "operators.duplicate_solve_frac": _ratio(duplicates, len(solves)),
        "mesh.s": _busy(spans, "mesh.call"),
        "mesh.elements": attr_sum("mesh.call", "elements"),
        "spectra.duality_report_s": _busy(spans, "spectra.duality_report"),
        "spectra.bf_check_s": _busy(spans, "spectra.bf_check"),
        "spectra.self_s": _layer_self(spans, selfs, "spectra"),
        "kernels.evaluate_s": sum(duration(s) for s in evaluations),
        "kernels.evaluate_calls": len(evaluations),
        "kernels.points_evaluated": sum(s[5].get("points", 0) for s in evaluations),
        "kernels.inner_calls": inner,
        "permutations.apply_s": _busy(spans, "permutations.apply"),
        "permutations.apply_calls": len(named.get("permutations.apply", [])),
        "quadrature.rule_s": _busy(spans, "quadrature.rule"),
        "quadrature.rule_points": attr_sum("quadrature.rule", "points"),
        "quadrature.integrate_calls": len(named.get("quadrature.integrate", [])),
        "quadrature.useful_point_frac": _ratio(useful, built),
        "kernel_checks.suite_s": _busy(spans, "kernel_checks.suite"),
        "kernel_checks.self_s": _layer_self(spans, selfs, "kernel_checks"),
        "heat_solver.pde_gate_s": _busy(spans, "heat_solver.pde_gate"),
        "folding.fold_check_s": _busy(spans, "folding.fold_check"),
        "propagation.route_s": _busy(spans, "propagation.route"),
        "propagation.expm_s": _busy(spans, "propagation.expm"),
        "propagation.expm_dim": max((s[5]["dim"] for s in named.get("propagation.expm", [])),
                                    default=0),
        "configio.validate_s": _busy(spans, "configio.validate"),
        "reporting.write_s": _busy(spans, "reporting.write"),
        "cli.op_s.median": statistics.median(op_walls) if op_walls else 0.0,
        "cli.op_s.max": max(op_walls, default=0.0),
        "cli.op_count": len(op_walls),
    }


def self_time_violations(spans, slack: float = 1e-6):
    """Ops whose spans break the self-time invariants, with the reason.

    Every span's self time must be non-negative, and the self times of
    the spans inside an op must sum to no more than the op's span.
    """
    selfs = self_times(spans)
    problems = []
    for index, (span, own) in enumerate(zip(spans, selfs)):
        if own < -slack:
            problems.append(f"span {index} {span[0]} self time {own:.3g} s < 0")
    for index, span in enumerate(spans):
        if span[0] != "cli.op":
            continue
        inside = sum(t for s, t in zip(spans, selfs)
                     if s[4] == span[4] and s[0] != "cli.op")
        if inside > duration(span) + slack:
            problems.append(f"op {span[4]}: self times {inside:.6f} s exceed "
                            f"op span {duration(span):.6f} s")
    return problems
