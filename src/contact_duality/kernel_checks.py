"""Residual suites for propagator contracts.

``verify_assumptions`` measures, for a full-space (or sector) kernel:
the composition law under adaptive quadrature, the short-time limit
against smooth probes (reported as the tau -> 0 limit of a dyadic tau
ladder under iterated Richardson steps), real symmetry of the
arguments, the heat equation through fourth-order finite differences,
and relabeling invariance.  ``verify_sector_properties`` runs the same
program for sector kernels, composing over the sector only and adding
the face boundary condition as the fifth check.
``dual_reconstruction_check`` compares the two character-weighted sums
built from exchange-symmetric kernel pairs and reports the connection
residuals of each input.

Both quadrature checks truncate their integrand to a per-axis box of
radius ``_support_radius`` about the fixed arguments: prod_k [x_k - r,
x_k + r] for the short-time check, prod_k [min(x_k, y_k) - r, max(x_k,
y_k) + r] for composition.  Full-space kernels integrate over the box
itself; sector kernels integrate over the sector part of the hull-grid
cells that meet it (see ``quadrature``).  The truncation holds for a
sector kernel by the same bound as for a full-space one.  A permutation
sum over sorted x and z is a sum of Gaussians in z - sigma(x), and by
the rearrangement inequality the identity pairing makes |z - sigma(x)|
smallest, so no sigma-term exceeds the identity Gaussian, which is
below ``drop`` wherever some |z_k - x_k| exceeds r.  The pair kernel's
bound-state tail decays in the pair separation, and
``bound_state_scale`` widens r to cover it in the box and sector alike.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .boundary_checks import _extrapolation_weights, connection_residual
from .kernels import KernelEvaluator, permutation_sum
from .permutations import enumerate_group
from .quadrature import integrate_box, integrate_sector
from .wavefunctions import Statistics


@dataclass
class SamplingSpec:
    """Deterministic sampling plan for kernel residual suites.

    ``initial_tau0`` seeds a dyadic tau ladder of ``initial_depth``
    points for the short-time check; ``bound_state_scale`` is the
    slowest exponential decay length of the kernel in the pair
    separation (zero for purely Gaussian kernels) and widens the
    truncation boxes accordingly.
    """

    seed: int = 0
    pairs: int = 3
    taus: tuple = (0.25, 0.35)
    spread: float = 1.6
    min_gap: float = 1.1
    probe_width: float = 0.5
    initial_tau0: float = 0.016
    initial_depth: int = 5
    fd_step: float = 0.012
    quad_tol: float = 1e-9
    quad_order: int = 8
    quad_start_cells: int = 4
    quad_max_doublings: int = 6
    drop: float = 1e-12
    bound_state_scale: float = 0.0

    def rng(self):
        return np.random.default_rng(self.seed)

    def initial_taus(self):
        return [self.initial_tau0 / 2**i for i in range(self.initial_depth)]


def _sample_points(spec: SamplingSpec, n: int, count: int, sector: bool):
    """Well-separated sample points, strictly descending if sector."""
    rng = spec.rng()
    out = []
    while len(out) < count:
        x = rng.uniform(-spec.spread, spec.spread, size=n)
        x = np.sort(x)[::-1]
        if np.min(np.diff(-x)) < spec.min_gap:
            continue
        if not sector:
            rng.shuffle(x)
        out.append(x.copy())
    return np.asarray(out)


def _support_radius(spec: SamplingSpec, tau: float, product: bool = False) -> float:
    """Truncation radius beyond which the integrand is below ``drop``.

    ``product`` halves the exponential decay length (two kernel factors)."""
    gauss = math.sqrt(2.0 * tau * math.log(1.0 / spec.drop))
    length = spec.bound_state_scale * (0.5 if product else 1.0)
    slow = length * math.log(1.0 / spec.drop)
    return max(gauss, slow) + 0.5


def _integrate(kernel: KernelEvaluator, integrand, box: np.ndarray,
               spec: SamplingSpec) -> float:
    """Adaptive integral of ``integrand`` over the per-axis box (n, 2): the
    box itself for a full-space kernel, the sector part of the hull-grid
    cells meeting it for a sector kernel."""
    controls = dict(tol=spec.quad_tol, order=spec.quad_order,
                    start_cells=spec.quad_start_cells,
                    max_doublings=spec.quad_max_doublings)
    if kernel.space == "sector":
        value, _ = integrate_sector(integrand, box[:, 0], box[:, 1], kernel.n, **controls)
    else:
        value, _ = integrate_box(integrand, box, **controls)
    return value


def _value(kernel: KernelEvaluator, x, y, tau: float) -> float:
    """Kernel value at one point pair."""
    return np.asarray(kernel.evaluate(np.asarray(x)[None, :], np.asarray(y)[None, :],
                                      tau)).item()


def composition_residual(kernel: KernelEvaluator, x, y, tau1: float, tau2: float,
                         spec: SamplingSpec) -> float:
    """Relative defect of K(.,tau1) * K(.,tau2) = K(.,tau1+tau2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    radius = _support_radius(spec, max(tau1, tau2), product=True)

    def integrand(z):
        return np.asarray(kernel.evaluate(x[None, :], z, tau1)) * np.asarray(
            kernel.evaluate(z, y[None, :], tau2))

    target = _value(kernel, x, y, tau1 + tau2)
    box = np.stack([np.minimum(x, y) - radius, np.maximum(x, y) + radius], axis=-1)
    value = _integrate(kernel, integrand, box, spec)
    return abs(value - target) / max(abs(target), 1e-300)


def _richardson_intercept(values) -> float:
    """Limit of a sequence sampled on a dyadic ladder tau0 / 2^i,
    assuming an expansion in integer powers of tau."""
    table = list(values)
    for k in range(1, len(table)):
        table = [(2**k * b - a) / (2**k - 1) for a, b in zip(table[:-1], table[1:])]
    return table[0]


def initial_condition_intercept(kernel: KernelEvaluator, x, spec: SamplingSpec):
    """tau -> 0 intercept of (smoothed probe - probe) on a dyadic ladder.

    The short-time limit is distributional, so it is tested weakly: the
    kernel is applied to a smooth Gaussian probe and the deviation from
    the probe value at the source point is extrapolated to tau = 0 by
    iterated Richardson steps.  Returns (intercept magnitude, ladder).
    """
    x = np.asarray(x, dtype=float)
    w = spec.probe_width

    def probe(y):
        d = np.asarray(y) - x[None, :]
        return np.exp(-np.sum(d * d, axis=-1) / (2.0 * w * w))

    ladder = []
    for tau in spec.initial_taus():
        # the probe is bounded by one, so the kernel's own support radius
        # truncates the integrand
        radius = math.sqrt(2.0 * tau * math.log(1.0 / spec.drop)) + 0.2

        def integrand(y):
            return np.asarray(kernel.evaluate(x[None, :], y, tau)) * probe(y)

        box = np.stack([x - radius, x + radius], axis=-1)
        value = _integrate(kernel, integrand, box, spec)
        ladder.append(float(value) - 1.0)  # probe(x) = 1 at its center
    return abs(_richardson_intercept(ladder)), ladder


def heat_equation_residual(kernel: KernelEvaluator, x, y, tau: float,
                           spec: SamplingSpec) -> float:
    """|d/dtau K - (1/2) Laplacian_x K| via fourth-order stencils,
    relative to the larger of the two sides.

    The stencils step by half of ``spec.fd_step`` (relative to tau in
    time): at the full step their truncation error alone reaches a few
    1e-6 at some sample points, and halving it cuts that 16-fold.
    """
    n = kernel.n
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = 0.5 * spec.fd_step
    dt = dx * tau

    def k_at(xx, tt):
        return _value(kernel, xx, y, tt)

    dtau = (-k_at(x, tau + 2 * dt) + 8 * k_at(x, tau + dt)
            - 8 * k_at(x, tau - dt) + k_at(x, tau - 2 * dt)) / (12 * dt)
    lap = 0.0
    for axis in range(n):
        e = np.zeros(n)
        e[axis] = dx
        lap += (-k_at(x + 2 * e, tau) + 16 * k_at(x + e, tau) - 30 * k_at(x, tau)
                + 16 * k_at(x - e, tau) - k_at(x - 2 * e, tau)) / (12 * dx * dx)
    lhs = dtau - 0.5 * lap
    scale = max(abs(dtau), abs(0.5 * lap), 1e-300)
    return abs(lhs) / scale


def verify_assumptions(kernel: KernelEvaluator, spec: SamplingSpec = None) -> dict:
    """Residual report for the full-space kernel contract.

    Keys: composition, initial, symmetry, heat_equation,
    permutation_invariance (None for sector kernels); each holds the
    worst sampled residual plus details.
    """
    spec = spec or SamplingSpec()
    n = kernel.n
    sector = kernel.space == "sector"
    xs = _sample_points(spec, n, spec.pairs, sector)
    ys = _sample_points(dataclasses.replace(spec, seed=spec.seed + 1), n, spec.pairs,
                        sector)
    tau1, tau2 = spec.taus

    composition = [composition_residual(kernel, x, y, tau1, tau2, spec)
                   for x, y in zip(xs, ys)]
    initial = []
    for x in xs:
        intercept, ladder = initial_condition_intercept(kernel, x, spec)
        initial.append({"intercept": intercept, "ladder": ladder})
    symmetry = []
    heat = []
    tau = tau1 + tau2
    for x, y in zip(xs, ys):
        k_xy = _value(kernel, x, y, tau)
        k_yx = _value(kernel, y, x, tau)
        scale = max(abs(k_xy), abs(k_yx), 1e-300)
        symmetry.append(abs(k_xy - k_yx) / scale)
        heat.append(heat_equation_residual(kernel, x, y, tau, spec))

    if sector:
        invariance = None
    else:
        rng = spec.rng()
        group = enumerate_group(n)
        invariance = []
        for x, y in zip(xs, ys):
            sigma = group[rng.integers(len(group))]
            k0 = _value(kernel, x, y, tau)
            k1 = _value(kernel, sigma.apply(x), sigma.apply(y), tau)
            invariance.append(abs(k0 - k1) / max(abs(k0), 1e-300))

    return {
        "kernel": kernel.label,
        "composition": {"max": max(composition), "values": composition},
        "initial": {"max": max(i["intercept"] for i in initial), "values": initial},
        "symmetry": {"max": max(symmetry), "values": symmetry},
        "heat_equation": {"max": max(heat), "values": heat},
        "permutation_invariance": None if invariance is None else
            {"max": max(invariance), "values": invariance},
    }


def face_points(spec: SamplingSpec, n: int, j: int, count: int) -> np.ndarray:
    """Sector points moved onto face j (pair coordinates averaged)."""
    pts = _sample_points(spec, n, count, sector=True)
    pts = pts.copy()
    mean = 0.5 * (pts[:, j - 1] + pts[:, j])
    pts[:, j - 1] = mean
    pts[:, j] = mean
    return pts


def face_boundary_residual(kernel: KernelEvaluator, model, j: int,
                           spec: SamplingSpec) -> float:
    """Face condition residual of a sector kernel on face j.

    Uses the kernel's analytic face operator when available, otherwise
    one-sided quadratic extrapolation with pair separations step,
    2 step, 3 step, where step is ``spec.fd_step``.  Dirichlet data
    measures the face value itself, Neumann the pair derivative.
    """
    entry = model.entry(j)
    n = kernel.n
    tau = sum(spec.taus)
    ys = _sample_points(spec, n, spec.pairs, sector=True)
    if kernel.pair_face_residual is not None and entry.kind == "robin":
        return max(kernel.pair_face_residual(y[None, :], tau) for y in ys)

    step = spec.fd_step
    pts = face_points(spec, n, j, spec.pairs)
    direction = np.zeros(n)
    direction[j - 1] = 0.5
    direction[j] = -0.5
    worst = 0.0
    for y in ys:
        def slice_at(points):
            return np.asarray(kernel.evaluate(points, y[None, :], tau))

        u = np.array([step, 2 * step, 3 * step])
        samples = np.stack([slice_at(pts + uk * direction[None, :]) for uk in u],
                           axis=1)
        wv, wd = _extrapolation_weights(u)
        value = samples @ wv
        pair_derivative = 2.0 * (samples @ wd)
        scale = max(float(np.max(np.abs(value))),
                    step * float(np.max(np.abs(pair_derivative))), 1e-300)
        if entry.kind == "dirichlet":
            resid = np.abs(slice_at(pts)) / max(scale, 1e-300)
        elif entry.kind == "neumann":
            dscale = max(float(np.max(np.abs(pair_derivative))),
                         float(np.max(np.abs(value))) / max(step, 1e-300), 1e-300)
            resid = np.abs(pair_derivative) / dscale
        else:
            resid = np.abs(pair_derivative - value / entry.value) / (
                max(float(np.max(np.abs(pair_derivative))),
                    float(np.max(np.abs(value))) / abs(entry.value), 1e-300))
        worst = max(worst, float(np.max(resid)))
    return worst


def verify_sector_properties(kernel: KernelEvaluator, model,
                             spec: SamplingSpec = None) -> dict:
    """Residual report for a sector kernel: composition over the sector,
    weak short-time limit, symmetry, heat equation, and the condition on
    every face."""
    spec = spec or SamplingSpec()
    if kernel.space != "sector":
        raise ValueError("need a sector kernel")
    base = verify_assumptions(kernel, spec)
    boundary = {j: face_boundary_residual(kernel, model, j, spec)
                for j in range(1, kernel.n)}
    base["boundary"] = {"max": max(boundary.values()), "per_face": boundary}
    return base


def dual_reconstruction_check(k_bose: KernelEvaluator, k_fermi: KernelEvaluator,
                              spec: SamplingSpec = None, coupling=None) -> dict:
    """Compare the two character-weighted sums and the inputs' connection
    conditions.

    Both sums are evaluated at sampled sector pairs; the reported
    deviation is relative to the larger sum.  The delta-type conditions
    are checked on the boson kernel and the epsilon-type ones on the
    fermion kernel whenever a finite coupling is supplied.
    """
    spec = spec or SamplingSpec()
    n = k_bose.n
    xs = _sample_points(spec, n, spec.pairs, sector=True)
    ys = _sample_points(dataclasses.replace(spec, seed=spec.seed + 5), n, spec.pairs,
                        sector=True)
    tau = sum(spec.taus)
    sum_b = permutation_sum(k_bose, Statistics.BOSE)
    sum_f = permutation_sum(k_fermi, Statistics.FERMI)

    deviations = []
    for x, y in zip(xs, ys):
        s_b = _value(sum_b, x, y, tau)
        s_f = _value(sum_f, x, y, tau)
        deviations.append(abs(s_b - s_f) / max(abs(s_b), abs(s_f), 1e-300))

    connection = {}
    if coupling is not None and coupling.kind == "robin":
        step = spec.fd_step
        plane = face_points(spec, n, 1, spec.pairs)
        y_ref = ys[0]

        def bose_slice(points):
            return np.asarray(k_bose.evaluate(points, y_ref[None, :], tau))

        def fermi_slice(points):
            return np.asarray(k_fermi.evaluate(points, y_ref[None, :], tau))

        res_b = connection_residual(bose_slice, "delta", coupling.value, plane, 1,
                                    (step, 2 * step, 3 * step))
        res_f = connection_residual(fermi_slice, "epsilon", coupling.value, plane, 1,
                                    (step, 2 * step, 3 * step))
        connection = {
            "bose_delta": {"jump": res_b.jump, "continuity": res_b.continuity},
            "fermi_epsilon": {"jump": res_f.jump, "continuity": res_f.continuity},
        }

    return {
        "max_deviation": max(deviations),
        "deviations": deviations,
        "connection": connection,
    }
