"""Command-line workbench: contact-duality <command> --config <path>.

Each invocation runs one experiment described by a flat key-value
config, writes JSON/CSV artifacts into the output directory, and exits
0 only if every configured tolerance gate holds (1 on a gate failure
with the report still written, 2 on a config error naming the offending
key).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .configio import ExperimentConfig, validate_config
from .coupling import uniform_model
from .errors import ConfigError, ContactDualityError, LevelsOutOfRange
from .folding import fold_integral_check, random_gaussian
from .heat_solver import pair_kernel_pde_gate
from .kernel_checks import (
    SamplingSpec,
    dual_reconstruction_check,
    verify_assumptions,
    verify_sector_properties,
)
from .kernels import (
    dual_pair_from_sector,
    free_kernel,
    permutation_sum,
    robin_pair_kernel,
)
from .operators import cached_build, content_hash, solve
from .permutations import Statistics, sort_descending
from .propagation import (
    PropagationQuad,
    propagate_at,
    propagate_equivariant,
    real_time_cross_check,
    two_stage_values,
)
from .reporting import Gate, RunArtifacts, write_run
from .spectra import FORMULATIONS, duality_report, scale_invariance_report, table_rows


def run_spectrum(cfg: ExperimentConfig) -> RunArtifacts:
    dom = cfg.domain()
    model = cfg.coupling_model()
    op = cached_build(cfg["formulation"], dom, model)
    res = solve(op, cfg["levels"], seed=cfg["seed"])
    rows = [(cfg["formulation"], 0, dom.spacing, i, e, r)
            for i, (e, r) in enumerate(zip(res.eigenvalues, res.residuals))]
    report = {
        "kind": "spectrum",
        "domain": dom.label(),
        "model": model.label(),
        "formulation": cfg["formulation"],
        "eigenvalues": res.eigenvalues.tolist(),
        "residuals": res.residuals.tolist(),
        "certificate": res.certificate,
        "symmetry_residual": op.symmetry_residual(seed=cfg["seed"]),
    }
    gates = [Gate("solver_residual", float(np.max(res.residuals)), cfg["gate.residual"])]

    tables = {f"spectra_{content_hash(dom, model)}":
              (("formulation", "level", "h", "index", "eigenvalue", "residual"),
               rows)}
    return RunArtifacts(report=report, gates=gates, tables=tables)


def run_duality(cfg: ExperimentConfig) -> RunArtifacts:
    dom = cfg.domain()
    model = cfg.coupling_model()
    rep = duality_report(dom, model, cfg["levels"], cfg["refinements"],
                         seed=cfg["seed"])
    gates = []
    for pair, devs in rep["pair_deviations"].items():
        gates.append(Gate(f"pairwise[{pair}]", devs[-1], cfg["gate.pairwise"]))
    for form in FORMULATIONS:
        order = rep["eigenvalue_orders"].get(form, [None])[0]
        if order is not None:
            gates.append(Gate(f"order[{form}]", order, cfg["gate.order_max"]))
            gates.append(Gate(f"order_min[{form}]", order, cfg["gate.order_min"],
                              mode="min"))
    worst_overlap = max((row["overlap_deviation"] for row in rep["bf_check"]), default=0.0)
    gates.append(Gate("bf_overlap_deviation", worst_overlap, cfg["gate.overlap"]))

    plot_rows = []
    for lv in rep["levels"]:
        for pair, devs in rep["pair_deviations"].items():
            plot_rows.append((lv["h"], pair, devs[lv["level"]]))
    tables = {f"spectra_{rep['content_hash']}":
              (("formulation", "level", "h", "index", "eigenvalue", "residual"),
               table_rows(rep))}
    tables[f"deviations_{rep['content_hash']}.plot"] = (("h", "pair", "max_rel_deviation"),
                                                         plot_rows)
    return RunArtifacts(report=rep, gates=gates, tables=tables)


def run_scale_invariance(cfg: ExperimentConfig) -> RunArtifacts:
    dom = cfg.domain()
    model = cfg.coupling_model()
    control = uniform_model(dom.n, cfg["control"])
    rep = scale_invariance_report(dom, model, cfg["dilation"], cfg["levels"],
                                  control_model=control,
                                  translation=cfg["translation"],
                                  seed=cfg["seed"])
    gates = []
    for form in FORMULATIONS:
        gates.append(Gate(f"scaled[{form}]", rep["scaled_deviation"][form],
                          cfg["gate.scaled"]))
        gates.append(Gate(f"translation[{form}]", rep["translation_deviation"][form],
                          cfg["gate.translation"]))
        gates.append(Gate(f"control[{form}]", rep["control_deviation"][form],
                          cfg["gate.control_min"], mode="min"))
    rows = [(form, rep["base"][form], rep["dilated"][form]) for form in FORMULATIONS]
    tables = {"scale": (("formulation", "base", "dilated"),
                        [(f, repr(b), repr(d)) for f, b, d in rows])}
    return RunArtifacts(report=rep, gates=gates, tables=tables)


def _kernel_from_config(cfg: ExperimentConfig):
    if cfg["kernel"] == "pair":
        return robin_pair_kernel(cfg["coupling"])
    kernel = free_kernel(cfg["n"])
    if cfg["statistics"] == "none":
        return kernel
    return permutation_sum(kernel, Statistics(cfg["statistics"]))


def run_kernel_properties(cfg: ExperimentConfig) -> RunArtifacts:
    kernel = _kernel_from_config(cfg)
    spec = SamplingSpec(seed=cfg["seed"], pairs=cfg["pairs"],
                        quad_tol=cfg["quad_tol"], quad_order=cfg["quad_order"],
                        initial_depth=cfg["initial_depth"])
    if kernel.space == "sector":
        rep = verify_sector_properties(kernel, spec)
    else:
        rep = verify_assumptions(kernel, spec)
    gates = [
        Gate("composition", rep["composition"]["max"], cfg["gate.composition"]),
        Gate("initial", rep["initial"]["max"], cfg["gate.initial"]),
        Gate("symmetry", rep["symmetry"]["max"], cfg["gate.symmetry"]),
        Gate("heat_equation", rep["heat_equation"]["max"], cfg["gate.heat"]),
    ]
    if rep.get("permutation_invariance"):
        gates.append(Gate("permutation_invariance",
                          rep["permutation_invariance"]["max"],
                          cfg["gate.invariance"]))
    if "boundary" in rep:
        gates.append(Gate("boundary", rep["boundary"]["max"], cfg["gate.boundary"]))
    if cfg["kernel"] == "pair":
        pde = pair_kernel_pde_gate(cfg["coupling"])
        rep["pde_gate"] = pde
        gates.append(Gate("pde_gate", pde, cfg["gate.pde"]))
    ladder_rows = []
    for i, item in enumerate(rep["initial"]["values"]):
        for tau, r in zip(spec.initial_taus(), item["ladder"]):
            ladder_rows.append((i, tau, r))
    return RunArtifacts(report={"kind": "kernel_properties", **rep},
                        gates=gates,
                        tables={"initial_ladder.plot": (("sample", "tau", "residual"),
                                                        ladder_rows)})


def run_dual_kernels(cfg: ExperimentConfig) -> RunArtifacts:
    n = cfg["n"]
    entry = cfg["coupling"]  # dirichlet or robin (configio)
    if entry.kind == "dirichlet":
        sector = permutation_sum(free_kernel(n), Statistics.FERMI)
        k_bose, _ = dual_pair_from_sector(sector)
        k_fermi = free_kernel(n)
    else:
        sector = robin_pair_kernel(entry)
        k_bose, k_fermi = dual_pair_from_sector(sector)
    spec = SamplingSpec(seed=cfg["seed"], pairs=cfg["pairs"])
    rep = dual_reconstruction_check(k_bose, k_fermi, spec)
    gates = [Gate("deviation", rep["max_deviation"], cfg["gate.deviation"])]
    report = {"kind": "dual_kernels", "coupling": entry.label(), **rep}
    if cfg["realtime"]:  # robin, so two-body
        chk = report["realtime"] = real_time_cross_check(
            cfg.domain(), uniform_model(2, entry), t=cfg["realtime_time"])
        gates.append(Gate("realtime_bose", chk["bose_deviation"], cfg["gate.realtime"]))
        gates.append(Gate("realtime_fermi", chk["fermi_deviation"], cfg["gate.realtime"]))
        # the sums read off the symmetry blocks hold only for commuting operators
        gates.append(Gate("realtime_bose_commutation", chk["bose_commutation"],
                          cfg["gate.realtime"]))
        gates.append(Gate("realtime_fermi_commutation", chk["fermi_commutation"],
                          cfg["gate.realtime"]))
    return RunArtifacts(report=report, gates=gates)


def _vanishing_propagation(cfg: ExperimentConfig, psi0, quad: PropagationQuad) -> ConfigError:
    """Name the key that leaves the propagated state zero at every target:
    a center outside the rule's box or a width below its spacing when the
    initial state is zero on every rule point, else tau."""
    pts, _ = quad.rule(2)
    if np.any(psi0(pts)):
        return ConfigError(f"key 'tau': the kernel underflows to zero at every "
                           f"target, tau = {cfg['tau']}")
    lo, hi = cfg["quad_lo"], cfg["quad_hi"]
    for key in ("center1", "center2"):
        if not lo <= cfg[key] <= hi:
            return ConfigError(f"key '{key}': the initial state is zero on every "
                               f"rule point, {key} = {cfg[key]} is outside "
                               f"[quad_lo, quad_hi] = [{lo}, {hi}]")
    return ConfigError(f"key 'width': the initial state is zero on every rule "
                       f"point, width = {cfg['width']} is too narrow for the rule")


def run_propagate(cfg: ExperimentConfig) -> RunArtifacts:
    entry = cfg["coupling"]
    sector = robin_pair_kernel(entry)
    k_bose, _ = dual_pair_from_sector(sector)
    c1, c2, w = cfg["center1"], cfg["center2"], cfg["width"]

    def psi0(z):
        d = (z - np.array([c1, c2])[None, :]) / w
        return np.exp(-np.sum(d * d, axis=-1))

    rng = np.random.default_rng(cfg["seed"])
    targets = np.stack([rng.uniform(c2, c1, size=6) for _ in range(2)], axis=-1)
    targets = sort_descending(targets)[0]
    targets[:, 0] += 0.3
    targets[:, 1] -= 0.3
    tau = cfg["tau"]
    quad_a = PropagationQuad(cfg["quad_lo"], cfg["quad_hi"], cfg["quad_cells"],
                             cfg["quad_order"])
    quad_b = PropagationQuad(cfg["quad_lo"], cfg["quad_hi"],
                             cfg["quad_cells"] + cfg["quad_cells"] // 2,
                             cfg["quad_order"] + 2)
    direct = propagate_at(sector, psi0, tau, targets, quad_a)
    scale = float(np.max(np.abs(direct)))
    if scale == 0.0:
        raise _vanishing_propagation(cfg, psi0, quad_a)
    equivariant = propagate_equivariant(k_bose, Statistics.BOSE, psi0, tau,
                                        targets, quad_b)
    route_dev = float(np.max(np.abs(direct - equivariant))) / scale
    semi = two_stage_values(sector, psi0, tau / 2, tau / 2, targets, quad_a)
    semi_dev = float(np.max(np.abs(semi - direct))) / scale
    report = {
        "kind": "propagate",
        "coupling": entry.label(),
        "tau": tau,
        "targets": targets.tolist(),
        "direct": direct.tolist(),
        "equivariant": equivariant.tolist(),
        "two_stage": semi.tolist(),
        "route_deviation": route_dev,
        "semigroup_deviation": semi_dev,
    }
    gates = [Gate("routes", route_dev, cfg["gate.routes"]),
             Gate("semigroup", semi_dev, cfg["gate.semigroup"])]
    return RunArtifacts(report=report, gates=gates)


def run_fold_check(cfg: ExperimentConfig) -> RunArtifacts:
    rng = np.random.default_rng(cfg["seed"])
    residuals = []
    for _ in range(cfg["count"]):
        f = random_gaussian(cfg["n"], rng)
        res = fold_integral_check(f, f.support_box(), cfg["quad_tol"], cfg["quad_order"])
        residuals.append(res["residual"])
    report = {
        "kind": "fold_check",
        "n": cfg["n"],
        "count": cfg["count"],
        "residuals": residuals,
        "max_residual": max(residuals),
    }
    gates = [Gate("residual", max(residuals), cfg["gate.residual"])]
    rows = list(enumerate(residuals))
    return RunArtifacts(report=report, gates=gates,
                        tables={"fold_residuals.plot": (("index", "residual"), rows)})


RUNNERS = {
    "spectrum": run_spectrum,
    "duality": run_duality,
    "scale-invariance": run_scale_invariance,
    "kernel-properties": run_kernel_properties,
    "dual-kernels": run_dual_kernels,
    "propagate": run_propagate,
    "fold-check": run_fold_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="contact-duality",
        description="Numerical laboratory for dual one-dimensional contact models",
    )
    parser.add_argument("command", choices=sorted(RUNNERS))
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    started = time.time()
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    try:
        cfg = validate_config(text)
        if cfg.command != args.command:
            raise ConfigError(
                f"key 'command': config says {cfg.command!r}, "
                f"invoked as {args.command!r}")
        artifacts = RUNNERS[cfg.command](cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except LevelsOutOfRange as err:  # every solve here asks for `levels` pairs
        print(f"config error: key 'levels': {err}", file=sys.stderr)
        return 2
    except ContactDualityError as err:
        print(f"run failed: {err}", file=sys.stderr)
        return 1

    outdir = args.out or f"runs/{cfg.command}"
    status = write_run(outdir, artifacts, text, started, verbose=args.verbose)
    if args.verbose or status:
        state = "all gates passed" if status == 0 else "gate failure"
        print(f"{cfg.command}: {state}; artifacts in {outdir}")
    return status


if __name__ == "__main__":
    sys.exit(main())
