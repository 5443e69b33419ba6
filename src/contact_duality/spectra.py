"""Spectral comparison reports across the three dual formulations.

The duality report solves the ordered-sector Robin problem, the
delta-type boson problem, and the epsilon-type fermion problem on a
ladder of grid refinements, tabulates the lowest eigenvalues, the
pairwise relative deviations, empirical convergence orders, and the
boson-fermion eigenvector map check.  The scale-invariance report
verifies that with couplings proportional to the hyperradius the
spectrum scales exactly as the inverse square of a box dilation and is
translation invariant, while any fixed coupling length breaks the
scaling.  Each report is returned as the plain dict its ``report.json``
holds.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .coupling import CouplingModel
from .errors import UnsupportedCoupling
from .operators import (
    BUILDERS,
    EXTRA_LEVELS,
    DomainSpec,
    SpectrumResult,
    cached_build,
    check_model,
    content_hash,
    midpoint_cut,
    solve,
)

#: The three formulations, named and ordered as ``operators.BUILDERS``.
FORMULATIONS = tuple(BUILDERS)
#: Refinement ratio of the duality ladder: rung l has RATIO**l times the
#: points of rung 0.
RATIO = 2

#: Levels closer than this (relative to the spectral scale) are treated as
#: degenerate and compared through subspaces, not individual vectors.
DEGENERACY_GAP = 1e-8


def convergence_order(coarse, mid, fine):
    """Empirical order from three values on grids refined by ``RATIO``."""
    d1 = abs(coarse - mid)
    d2 = abs(mid - fine)
    if d2 == 0.0 or d1 == 0.0:
        return None
    return float(np.log(d1 / d2) / np.log(RATIO))


def richardson_extrapolate(mid, fine, order: float):
    return fine + (fine - mid) / (RATIO**order - 1.0)


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


def _solve_formulations(dom: DomainSpec, model: CouplingModel, k: int, seed: int,
                        levels: int = None, cuts: dict = None, coarse: dict = None):
    """Build and solve every formulation on one domain.

    Each operator is solved for ``levels`` levels (default k), or for as
    many as it has dofs to spare but never fewer than k.  ``cuts`` maps
    formulations to cuts above their ``levels``-th eigenvalue (None: the
    cut ``solve`` takes itself from a coarser grid, where there is one),
    and ``coarse`` to their results on a coarser lattice, which start
    each solve's Lanczos run.  Only the sector and delta operators are
    built and solved.  At reduced level the epsilon build assembles the
    same sector form on the same staggered lattice with the same n! mass
    factor as the delta one, so once the model passes the epsilon
    builder's checks, run first, its result is the delta one, with the
    operator relabelled.  Both operators are built before either is
    factored: a factor's large frees raise glibc's dynamic mmap
    threshold, and an assembly after them would keep its temporaries
    resident on the heap.
    """
    check_model("epsilon_fermi", model, dom.n)
    ops = {form: cached_build(form, dom, model) for form in ("sector", "delta_bose")}
    results = {}
    for form, op in ops.items():
        wanted = k if levels is None else max(k, min(levels, op.dimension - 2))
        cut = None if cuts is None else cuts[form]
        start = None if coarse is None else coarse[form]
        results[form] = solve(op, wanted, seed=seed, cut=cut, coarse=start)
    delta = results["delta_bose"]
    results["epsilon_fermi"] = replace(
        delta, operator=replace(delta.operator, formulation="epsilon_fermi"))
    return results


def _cuts(results: dict, levels: int, scale: float = 1.0) -> dict:
    """Per formulation, the cut for a ``levels``-level solve of an
    operator whose spectrum is ``scale`` times that of ``results``; None
    where a result has no level above the ``levels``-th."""
    return {form: scale * midpoint_cut(res.eigenvalues, levels)
            if res.eigenvalues.size > levels else None
            for form, res in results.items()}


def duality_report(dom: DomainSpec, model: CouplingModel, k: int, refinements: int,
                   seed: int) -> dict:
    """Compare the three formulations on a ladder of grid refinements.

    Rung l >= 1 solves k + refinements - 1 - l levels and reports the
    lowest k, so every rung but the last solves one level more than the
    next.  Rung 0 takes the cut ``solve`` finds itself and solves two
    levels more than rung 1, whose cut lies midway between rung 0's two
    levels above the ones it needs: its count may then take in one or
    two levels more (up to ``EXTRA_LEVELS``; with none, rung 1 is cut
    like the later rungs), and levels that move past a cut under
    refinement stay below this one.  Every later rung is cut midway
    between the top two levels of the rung before.  Each formulation's
    Lanczos run starts from its own eigenvectors on the rung before; the
    epsilon result is the delta one.
    """
    wanted = [k + refinements - 1 - level for level in range(refinements)]
    # rung l >= 1 is cut above the rung before's cut_at[l]-th level; rung
    # 1 one level higher, within the extra levels its count may take in
    cut_at = [None, *wanted[1:]]
    if refinements > 1:
        cut_at[1] += min(1, EXTRA_LEVELS)
        wanted[0] = cut_at[1] + 1
    results = None
    levels = []
    for level in range(refinements):
        dom_l = dom.refined(RATIO**level)
        cuts = None if results is None else _cuts(results, cut_at[level])
        results = _solve_formulations(dom_l, model, k, seed, wanted[level], cuts, results)
        lowest = {f: res.lowest(k) for f, res in results.items()}
        levels.append({
            "level": level,
            "points": dom_l.points,
            "h": dom_l.spacing,
            "eigenvalues": {f: lowest[f].eigenvalues.tolist() for f in FORMULATIONS},
            "residuals": {f: lowest[f].residuals.tolist() for f in FORMULATIONS},
            "certificates": {f: lowest[f].certificate for f in FORMULATIONS},
            "reused": {"epsilon_fermi": "delta_bose"},
        })

    pairs = [(a, b) for i, a in enumerate(FORMULATIONS) for b in FORMULATIONS[i + 1:]]
    pair_deviations, pair_deviation_orders = {}, {}
    for a, b in pairs:
        devs = []
        for lv in levels:
            ea = np.asarray(lv["eigenvalues"][a])
            eb = np.asarray(lv["eigenvalues"][b])
            rel = np.abs(ea - eb) / np.maximum.reduce(
                [np.abs(ea), np.abs(eb), np.full_like(ea, 1e-12)])
            devs.append(float(np.max(rel)))
        pair_deviations[f"{a}|{b}"] = devs
        # None for a structurally identical pair
        pair_deviation_orders[f"{a}|{b}"] = [
            None if min(devs[i:i + 3]) < 1e-13 else float(np.log2(devs[i] / devs[i + 1]))
            for i in range(len(devs) - 2)]

    eigenvalue_orders, extrapolated = {}, {}
    if refinements >= 3:
        for form in FORMULATIONS:
            per_index = []
            extrap = []
            for i in range(k):
                triple = [levels[m]["eigenvalues"][form][i]
                          for m in (refinements - 3, refinements - 2, refinements - 1)]
                p = convergence_order(*triple)
                per_index.append(p)
                extrap.append(richardson_extrapolate(triple[1], triple[2], p)
                              if p is not None else triple[2])
            eigenvalue_orders[form] = per_index
            # per-index steps of close levels can cross; a spectrum ascends
            extrapolated[form] = sorted(extrap)

    return {
        "kind": "duality_report",
        "domain": dom.label(),
        "model": model.label(),
        "k": k,
        "refinements": refinements,
        "content_hash": content_hash(dom, model),
        "levels": levels,
        "pair_deviations": pair_deviations,
        "pair_deviation_orders": pair_deviation_orders,
        "eigenvalue_orders": eigenvalue_orders,
        "extrapolated": extrapolated,
        "bf_check": bf_overlap_deviations(lowest["delta_bose"], lowest["epsilon_fermi"]),
        "identical_by_construction": ["delta_bose|epsilon_fermi"],
    }


def table_rows(report: dict):
    """Flat rows of a duality report: formulation, level, h, index,
    eigenvalue, residual."""
    rows = []
    for lv in report["levels"]:
        for form in FORMULATIONS:
            for i, (e, r) in enumerate(zip(lv["eigenvalues"][form],
                                           lv["residuals"][form])):
                rows.append((form, lv["level"], lv["h"], i, e, r))
    return rows


def check_scale_model(model: CouplingModel) -> None:
    """Refuse a model the scale-invariance report cannot take; each
    message starts with the config key it rejects."""
    if model.n != 3:
        raise UnsupportedCoupling(
            f"n must be 3 for the scale-invariance report, got {model.n}")
    if not model.has_scale_invariant:
        raise UnsupportedCoupling(
            "coupling.1 and coupling.2 carry no scale-invariant coupling (scale:G)")


def scale_invariance_report(dom: DomainSpec, model: CouplingModel, dilation: float,
                            k: int, control_model: CouplingModel,
                            translation: float | None, seed: int) -> dict:
    """Dilation, translation, and negative-control spectra for n = 3.

    The box provides the only length scale of the scale-invariant model,
    so dilating it by lambda at fixed node count must rescale every
    eigenvalue by 1/lambda^2; a constant coupling length breaks this.
    Like the duality report, it takes the epsilon spectrum from the delta
    solve.  The base case is solved for k + 1 levels.  The dilated and
    translated spectra are known in advance (base / lambda^2 and base),
    so their solves are cut midway between the base k-th and (k+1)-th
    levels, scaled by 1/lambda^2 and by 1.  The control cases, which
    break the scaling on purpose, take the cut ``solve`` finds itself:
    from a grid ``COARSENING`` times coarser when that grid keeps
    ``MIN_POINTS`` cells per axis (points >= 24); otherwise ``solve``
    takes it from the Gershgorin estimate.  ``control_model`` is the
    fixed-length control; a ``translation`` of None shifts the box by
    0.37 of its length.
    """
    check_scale_model(model)
    if translation is None:
        translation = 0.37 * dom.length

    dom_dilated = replace(dom, length=dom.length * dilation)
    dom_shifted = replace(dom, offset=dom.offset + translation)

    cases = {"base": (dom, model), "dilated": (dom_dilated, model),
             "shifted": (dom_shifted, model), "control": (dom, control_model),
             "control_dilated": (dom_dilated, control_model)}
    expected_scale = {"dilated": dilation**-2, "shifted": 1.0}
    spectra = {}
    for name, (dom_c, model_c) in cases.items():
        if name == "base":
            results = base_results = _solve_formulations(dom_c, model_c, k, seed,
                                                         levels=k + 1)
        else:
            cuts = (_cuts(base_results, k, expected_scale[name])
                    if name in expected_scale else None)
            results = _solve_formulations(dom_c, model_c, k, seed, cuts=cuts)
        spectra[name] = {form: res.eigenvalues[:k] for form, res in results.items()}
    base, dil, shift, cb, cd = (spectra[name] for name in cases)

    def rel(x, y, scale):
        """Per formulation, the largest relative deviation of scale * y from x."""
        return {f: float(np.max(np.abs(x[f] - y[f] * scale) / np.maximum(np.abs(x[f]), 1e-12)))
                for f in FORMULATIONS}

    return {
        "kind": "scale_invariance_report",
        "domain": dom.label(),
        "model": model.label(),
        "control_model": control_model.label(),
        "dilation": dilation,
        "k": k,
        "base": {f: base[f].tolist() for f in FORMULATIONS},
        "dilated": {f: dil[f].tolist() for f in FORMULATIONS},
        "scaled_deviation": rel(base, dil, dilation**2),
        "translation_deviation": rel(base, shift, 1.0),
        "control_deviation": rel(cb, cd, dilation**2),
    }
