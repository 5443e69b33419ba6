"""Spectral comparison reports across the three dual formulations.

The duality report solves the ordered-sector Robin problem, the
delta-type boson problem, and the epsilon-type fermion problem on a
ladder of grid refinements, tabulates the lowest eigenvalues, the
pairwise relative deviations, empirical convergence orders, and the
boson-fermion eigenvector map check.  The scale-invariance report
verifies that with couplings proportional to the hyperradius the
spectrum scales exactly as the inverse square of a box dilation and is
translation invariant, while any fixed coupling length breaks the
scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .coupling import CouplingModel, robin, uniform_model
from .errors import UnsupportedCoupling
from .operators import (
    DomainSpec,
    GridOperator,
    SpectrumResult,
    cached_build,
    content_hash,
    solve,
)

FORMULATIONS = ("sector", "delta_bose", "epsilon_fermi")

#: Levels closer than this (relative to the spectral scale) are treated as
#: degenerate and compared through subspaces, not individual vectors.
DEGENERACY_GAP = 1e-8


def convergence_order(coarse, mid, fine, ratio: float = 2.0):
    """Empirical order from three values on grids refined by ``ratio``."""
    d1 = abs(coarse - mid)
    d2 = abs(mid - fine)
    if d2 == 0.0 or d1 == 0.0:
        return None
    return float(np.log(d1 / d2) / np.log(ratio))


def richardson_extrapolate(mid, fine, order: float, ratio: float = 2.0):
    return fine + (fine - mid) / (ratio**order - 1.0)


def bf_overlap_deviations(delta_res: SpectrumResult, fermi_res: SpectrumResult):
    """Per-level deviation 1 - |<mapped psi_B, psi_F>| at the finest grid.

    Nearly degenerate levels are grouped and compared through the
    smallest principal overlap of the two subspaces.
    """
    vals = delta_res.eigenvalues
    scale = float(np.max(np.abs(vals))) or 1.0
    groups = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > DEGENERACY_GAP * scale:
            groups.append(list(range(start, i)))
            start = i
    op = delta_res.operator
    strict = np.all(op.dofs[:, :-1] > op.dofs[:, 1:], axis=-1)
    w = op.mass[strict]
    out = []
    def orthonormalize(v):
        gram = v.T @ (w[:, None] * v)
        chol = np.linalg.cholesky(gram)
        return v @ np.linalg.inv(chol).T

    for group in groups:
        vb = orthonormalize(delta_res.vectors[strict][:, group])
        vf = orthonormalize(fermi_res.vectors[strict][:, group])
        # singular values of the cross overlap are the principal cosines
        # between the two subspaces
        cross = vb.T @ (w[:, None] * vf)
        sv = np.linalg.svd(cross, compute_uv=False)
        deviation = max(float(1.0 - np.min(sv)), 0.0)
        for idx in group:
            out.append({"level_index": idx, "eigenvalue": float(vals[idx]),
                        "group_size": len(group), "overlap_deviation": deviation})
    return out


@dataclass
class DualityReport:
    dom: DomainSpec
    model: CouplingModel
    k: int
    refinements: int
    levels: list = field(default_factory=list)
    pair_deviations: dict = field(default_factory=dict)
    pair_deviation_orders: dict = field(default_factory=dict)
    eigenvalue_orders: dict = field(default_factory=dict)
    extrapolated: dict = field(default_factory=dict)
    bf_check: list = field(default_factory=list)
    identical_by_construction: list = field(default_factory=list)

    @property
    def hash(self) -> str:
        return content_hash(self.dom, self.model)

    def finest(self, formulation: str) -> np.ndarray:
        return np.asarray(self.levels[-1]["eigenvalues"][formulation])

    def to_dict(self) -> dict:
        return {
            "kind": "duality_report",
            "domain": self.dom.label(),
            "model": self.model.label(),
            "k": self.k,
            "refinements": self.refinements,
            "content_hash": self.hash,
            "levels": self.levels,
            "pair_deviations": {"|".join(k): v for k, v in self.pair_deviations.items()},
            "pair_deviation_orders": {"|".join(k): v for k, v in self.pair_deviation_orders.items()},
            "eigenvalue_orders": self.eigenvalue_orders,
            "extrapolated": self.extrapolated,
            "bf_check": self.bf_check,
            "identical_by_construction": self.identical_by_construction,
        }

    def table_rows(self):
        """Flat rows: formulation, level, h, index, eigenvalue, residual."""
        rows = []
        for lv in self.levels:
            for form in FORMULATIONS:
                for i, (e, r) in enumerate(zip(lv["eigenvalues"][form],
                                               lv["residuals"][form])):
                    rows.append((form, lv["level"], lv["h"], i, e, r))
        return rows


def seeded_shift(eigenvalues) -> float:
    """Shift-invert sigma for a finer grid from a coarser level's lowest
    eigenvalues: below the ground level by half the spread of the k
    values plus a small margin, so refinement may lower the levels a
    little and the shift still stays below them."""
    low, high = float(eigenvalues[0]), float(eigenvalues[-1])
    return low - 0.5 * (high - low) - 1e-3 * max(1.0, abs(low))


def _same_operator(a: GridOperator, b: GridOperator) -> bool:
    """Bitwise equal matrices and masses, so every solve result is equal."""
    ma, mb = a.matrix, b.matrix
    return (ma.shape == mb.shape and np.array_equal(ma.indptr, mb.indptr)
            and np.array_equal(ma.indices, mb.indices)
            and np.array_equal(ma.data, mb.data) and np.array_equal(a.mass, b.mass))


def _solve_formulations(dom: DomainSpec, model: CouplingModel, k: int, seed: int,
                        shifts: dict = None):
    """Build and solve every formulation on one domain.

    ``shifts`` maps formulations to shift-invert sigmas (None: the
    Gershgorin shift).  When the epsilon operator is bitwise equal to the
    delta one (the reduced forms coincide by construction), the delta
    result is reused instead of solved again.  Returns the results and a
    map from each reused formulation to its source.
    """
    results, reused = {}, {}
    for form in FORMULATIONS:
        op = cached_build(form, dom, model)
        if form == "epsilon_fermi" and _same_operator(op, results["delta_bose"].operator):
            results[form] = replace(results["delta_bose"], operator=op)
            reused[form] = "delta_bose"
            continue
        shift = None if shifts is None else shifts[form]
        results[form] = solve(op, k, seed=seed, shift=shift)
    return results, reused


def duality_report(dom: DomainSpec, model: CouplingModel, k: int,
                   refinements: int = 3, seed: int = 0) -> DualityReport:
    """Compare the three formulations on a ladder of grid refinements.

    Each formulation's solve on a finer grid is shifted from its own
    eigenvalues on the coarser one; an epsilon operator bitwise equal to
    the delta one reuses its result.
    """
    report = DualityReport(dom=dom, model=model, k=k, refinements=refinements)
    results_by_level = []
    for level in range(refinements):
        dom_l = dom.refined(2**level)
        shifts = ({form: seeded_shift(res.eigenvalues)
                   for form, res in results_by_level[-1].items()}
                  if results_by_level else None)
        results, reused = _solve_formulations(dom_l, model, k, seed, shifts)
        results_by_level.append(results)
        report.levels.append({
            "level": level,
            "points": dom_l.points,
            "h": dom_l.spacing,
            "eigenvalues": {f: results[f].eigenvalues.tolist() for f in FORMULATIONS},
            "residuals": {f: results[f].residuals.tolist() for f in FORMULATIONS},
            "certificates": {f: results[f].certificate() for f in FORMULATIONS},
            "reused": reused,
        })
    report.identical_by_construction = [
        f"{source}|{form}" for form, source in report.levels[0]["reused"].items()
        if all(lv["reused"].get(form) == source for lv in report.levels)]

    pairs = [(a, b) for i, a in enumerate(FORMULATIONS) for b in FORMULATIONS[i + 1:]]
    for a, b in pairs:
        devs = []
        for lv in report.levels:
            ea = np.asarray(lv["eigenvalues"][a])
            eb = np.asarray(lv["eigenvalues"][b])
            rel = np.abs(ea - eb) / np.maximum.reduce(
                [np.abs(ea), np.abs(eb), np.full_like(ea, 1e-12)])
            devs.append(float(np.max(rel)))
        report.pair_deviations[(a, b)] = devs
        orders = []
        for i in range(len(devs) - 2):
            if min(devs[i], devs[i + 1], devs[i + 2]) < 1e-13:
                orders.append(None)  # structurally identical pair
            else:
                ratio = devs[i + 1] / devs[i + 2] if devs[i + 2] else None
                orders.append(None if not ratio else float(np.log2(devs[i] / devs[i + 1])))
        report.pair_deviation_orders[(a, b)] = orders

    if refinements >= 3:
        for form in FORMULATIONS:
            per_index = []
            extrap = []
            for i in range(k):
                triple = [report.levels[m]["eigenvalues"][form][i]
                          for m in (refinements - 3, refinements - 2, refinements - 1)]
                p = convergence_order(*triple)
                per_index.append(p)
                extrap.append(richardson_extrapolate(triple[1], triple[2], p)
                              if p is not None else triple[2])
            report.eigenvalue_orders[form] = per_index
            report.extrapolated[form] = extrap

    report.bf_check = bf_overlap_deviations(results_by_level[-1]["delta_bose"],
                                            results_by_level[-1]["epsilon_fermi"])
    return report


@dataclass
class ScaleInvarianceReport:
    dom: DomainSpec
    model: CouplingModel
    dilation: float
    k: int
    base: dict = field(default_factory=dict)
    dilated: dict = field(default_factory=dict)
    scaled_deviation: dict = field(default_factory=dict)
    translation_deviation: dict = field(default_factory=dict)
    control_deviation: dict = field(default_factory=dict)
    control_model: CouplingModel = None

    def to_dict(self) -> dict:
        return {
            "kind": "scale_invariance_report",
            "domain": self.dom.label(),
            "model": self.model.label(),
            "control_model": self.control_model.label() if self.control_model else None,
            "dilation": self.dilation,
            "k": self.k,
            "base": self.base,
            "dilated": self.dilated,
            "scaled_deviation": self.scaled_deviation,
            "translation_deviation": self.translation_deviation,
            "control_deviation": self.control_deviation,
        }


def scale_invariance_report(dom: DomainSpec, model: CouplingModel, dilation: float,
                            k: int, control_model: CouplingModel = None,
                            translation: float = None, seed: int = 0) -> ScaleInvarianceReport:
    """Dilation, translation, and negative-control spectra for n = 3.

    The box provides the only length scale of the scale-invariant model,
    so dilating it by lambda at fixed node count must rescale every
    eigenvalue by 1/lambda^2; a constant coupling length breaks this.
    Like the duality report, it solves a bitwise-equal epsilon operator
    once, through the delta one.
    """
    if dom.n != 3:
        raise UnsupportedCoupling("scale-invariance report is defined for n = 3")
    if not model.has_scale_invariant:
        raise UnsupportedCoupling("model must contain scale-invariant couplings")
    if control_model is None:
        control_model = uniform_model(dom.n, robin(-1.0))
    if translation is None:
        translation = 0.37 * dom.length

    report = ScaleInvarianceReport(dom=dom, model=model, dilation=dilation, k=k,
                                   control_model=control_model)
    dom_dilated = DomainSpec(dom.n, dom.length * dilation, dom.points,
                             dom.confinement, dom.omega, dom.offset)
    dom_shifted = DomainSpec(dom.n, dom.length, dom.points, dom.confinement,
                             dom.omega, dom.offset + translation)

    cases = {"base": (dom, model), "dilated": (dom_dilated, model),
             "shifted": (dom_shifted, model), "control": (dom, control_model),
             "control_dilated": (dom_dilated, control_model)}
    spectra = {}
    for name, (dom_c, model_c) in cases.items():
        results, _ = _solve_formulations(dom_c, model_c, k, seed)
        spectra[name] = {form: res.eigenvalues for form, res in results.items()}
    rel = lambda x, y: np.max(np.abs(x - y) / np.maximum(np.abs(x), 1e-12))
    for form in FORMULATIONS:
        base, dil, shift, cb, cd = (spectra[name][form] for name in cases)
        report.base[form] = base.tolist()
        report.dilated[form] = dil.tolist()
        report.scaled_deviation[form] = float(rel(base, dil * dilation**2))
        report.translation_deviation[form] = float(rel(base, shift))
        report.control_deviation[form] = float(rel(cb, cd * dilation**2))
    return report
