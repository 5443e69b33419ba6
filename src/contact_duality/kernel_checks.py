"""Residual suites for propagator contracts.

``verify_assumptions`` measures, for a full-space (or sector) kernel:
the composition law under adaptive quadrature, the short-time limit
against smooth probes (reported as the tau -> 0 limit of a dyadic tau
ladder under iterated Richardson steps), real symmetry of the
arguments, the heat equation through sixth-order finite differences,
and relabeling invariance.  ``verify_sector_properties`` runs the same
program for sector kernels, composing over the sector only and adding
the face boundary condition as the fifth check.
``dual_reconstruction_check`` compares the two character-weighted sums
built from exchange-symmetric kernel pairs and reports the connection
residuals of each input.

The face and connection checks act on evaluators, maps from points
(M, n) to values, such as kernel slices.  Every face value and pair
derivative comes from one one-sided extrapolation along e_j - e_{j+1},
``one_sided_face_values``, and every stencil takes its weights from one
inverse Vandermonde, ``taylor_weights``.  The connection residual
measures the jump/continuity data of the delta- and epsilon-type
interactions across a coincidence plane.

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
below ``DROP`` wherever some |z_k - x_k| exceeds r.  The pair kernel's
bound-state tail decays in the pair separation with length 2|a| for a
Robin coupling a (``bound_state_length``), which widens r to cover it in
the box and sector alike.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedN
from .kernels import KernelEvaluator, permutation_sum
from .permutations import Statistics, group_table, sort_descending
from .quadrature import integrate_box, integrate_sector

#: Smallest gap between the coordinates of a sample point.
MIN_GAP = 1.1
#: Width of the Gaussian probe of the short-time check.
PROBE_WIDTH = 0.5
#: Largest tau of the short-time check's dyadic ladder.
INITIAL_TAU0 = 0.016
#: Cells per axis the adaptive rules start from.
QUAD_START_CELLS = 4
#: Integrand size at the edge of the truncation boxes.
DROP = 1e-12
#: Times of the composition law's two steps; the heat-equation, face and
#: reconstruction checks evaluate at their sum.
TAUS = (0.25, 0.35)
#: Pair-separation step of the one-sided face stencils; the heat-equation
#: stencils step by half of it.
FD_STEP = 0.012
#: Offsets, in steps, of the centred seven-point heat-equation stencils.
HEAT_OFFSETS = np.arange(-3.0, 4.0)
#: Largest time the residual suites evaluate a kernel at: the top time
#: step of the heat-equation stencil at sum(TAUS).
SUITE_TAU_MAX = sum(TAUS) * (1.0 + HEAT_OFFSETS[-1] * 0.5 * FD_STEP)


@dataclass
class SamplingSpec:
    """Deterministic sampling plan for kernel residual suites.

    ``INITIAL_TAU0`` seeds a dyadic tau ladder of ``initial_depth``
    points for the short-time check.  The sampling interval and the
    truncation boxes follow from the kernel (``sampling_spread``,
    ``bound_state_length``).  ``quad_tol`` and ``quad_order`` are the
    adaptive integrals' tolerance and Gauss order; their refinement depth
    is the integrators' own.
    """

    seed: int = 0
    pairs: int = 3
    initial_depth: int = 5
    quad_tol: float = 1e-9
    quad_order: int = 8

    def rng(self):
        return np.random.default_rng(self.seed)

    def initial_taus(self):
        return [INITIAL_TAU0 / 2**i for i in range(self.initial_depth)]


def sampling_spread(n: int) -> float:
    """Half-width of the interval [-spread, spread] the n coordinates of a
    sample point are drawn from; three or more points at gaps of
    ``MIN_GAP`` need the wider one."""
    return 2.2 if n >= 3 else 1.6


def bound_state_length(kernel: KernelEvaluator) -> float:
    """Slowest exponential decay length of the kernel in the pair
    separation: 2|a| for a Robin pair coupling a, zero for Gaussian
    kernels (free kernels, their sums, hard-core and Neumann faces)."""
    coupling = kernel.coupling
    if coupling is not None and coupling.kind == "robin":
        return 2.0 * abs(coupling.value)
    return 0.0


def check_sampling_fit(n: int) -> None:
    """Refuse an n whose points at gaps of ``MIN_GAP`` do not fit in
    [-spread, spread], where the rejection loop of ``_sample_points``
    would never end."""
    spread = sampling_spread(n)
    if (n - 1) * MIN_GAP >= 2.0 * spread:
        raise UnsupportedN(
            f"n = {n} sample points {MIN_GAP} apart do not fit in "
            f"[-{spread}, {spread}]")


def _sample_points(spec: SamplingSpec, n: int, count: int, sector: bool):
    """Well-separated sample points, strictly descending if sector.

    Raises UnsupportedN when they do not fit (``check_sampling_fit``).
    """
    check_sampling_fit(n)
    spread = sampling_spread(n)
    rng = spec.rng()
    out = []
    while len(out) < count:
        x = rng.uniform(-spread, spread, size=n)
        x = sort_descending(x)[0]
        if np.min(np.diff(-x)) < MIN_GAP:
            continue
        if not sector:
            rng.shuffle(x)
        out.append(x.copy())
    return np.asarray(out)


def _support_radius(kernel: KernelEvaluator, tau: float) -> float:
    """Truncation radius beyond which a product of two kernel factors is
    below ``DROP``; the two factors halve the exponential decay length."""
    gauss = math.sqrt(2.0 * tau * math.log(1.0 / DROP))
    slow = 0.5 * bound_state_length(kernel) * math.log(1.0 / DROP)
    return max(gauss, slow) + 0.5


def _integrate(kernel: KernelEvaluator, integrand, box: np.ndarray,
               spec: SamplingSpec) -> float:
    """Adaptive integral of ``integrand`` over the per-axis box (n, 2): the
    box itself for a full-space kernel, the sector part of the hull-grid
    cells meeting it for a sector kernel."""
    controls = dict(tol=spec.quad_tol, order=spec.quad_order,
                    start_cells=QUAD_START_CELLS)
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
    radius = _support_radius(kernel, max(tau1, tau2))

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
    w = PROBE_WIDTH

    def probe(y):
        d = np.asarray(y) - x[None, :]
        # column by column: bitwise np.sum below 8 columns, and faster
        return np.exp(-sum(d[..., i] * d[..., i] for i in range(d.shape[-1])) / (2.0 * w * w))

    ladder = []
    for tau in spec.initial_taus():
        # the probe is bounded by one, so the kernel's own support radius
        # truncates the integrand
        radius = math.sqrt(2.0 * tau * math.log(1.0 / DROP)) + 0.2

        def integrand(y):
            return np.asarray(kernel.evaluate(x[None, :], y, tau)) * probe(y)

        box = np.stack([x - radius, x + radius], axis=-1)
        value = _integrate(kernel, integrand, box, spec)
        ladder.append(float(value) - 1.0)  # probe(x) = 1 at its center
    return abs(_richardson_intercept(ladder)), ladder


def taylor_weights(u: np.ndarray) -> np.ndarray:
    """Inverse Vandermonde of the offsets ``u``: row m maps samples at ``u``
    to the m-th Taylor coefficient at 0 of the polynomial through them."""
    return np.linalg.inv(np.vander(u, u.size, increasing=True))


def heat_equation_residual(kernel: KernelEvaluator, x, y, tau: float) -> float:
    """|d/dtau K - (1/2) Laplacian_x K| via sixth-order centred stencils,
    relative to the larger of the two sides.

    The stencils sample at ``HEAT_OFFSETS`` steps of half of ``FD_STEP``
    (relative to tau in time), weighted by rows 1 and 2 of their inverse
    Vandermonde (``taylor_weights``).  Sixth order, since d/dtau K can be
    a small fraction of K / tau, where fourth order's truncation error
    reaches several 1e-6 of it.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = 0.5 * FD_STEP
    dt = dx * tau
    _, slope, half_curvature = taylor_weights(HEAT_OFFSETS)[:3]
    centre = _value(kernel, x, y, tau)

    def samples(at):
        return np.array([centre if u == 0 else at(u) for u in HEAT_OFFSETS])

    dtau = slope @ samples(lambda u: _value(kernel, x, y, tau + u * dt)) / dt
    lap = sum(2.0 * half_curvature @ samples(lambda u: _value(kernel, x + u * e, y, tau))
              for e in dx * np.eye(kernel.n)) / (dx * dx)
    lhs = dtau - 0.5 * lap
    scale = max(abs(dtau), abs(0.5 * lap), 1e-300)
    return float(abs(lhs) / scale)


def verify_assumptions(kernel: KernelEvaluator, spec: SamplingSpec) -> dict:
    """Residual report for the full-space kernel contract.

    Keys: composition, initial, symmetry, heat_equation,
    permutation_invariance (None for sector kernels); each holds the
    worst sampled residual plus details.
    """
    n = kernel.n
    sector = kernel.space == "sector"
    xs = _sample_points(spec, n, spec.pairs, sector)
    ys = _sample_points(dataclasses.replace(spec, seed=spec.seed + 1), n, spec.pairs,
                        sector)
    tau1, tau2 = TAUS

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
        heat.append(heat_equation_residual(kernel, x, y, tau))

    if sector:
        invariance = None
    else:
        rng = spec.rng()
        images = group_table(n)[0]
        invariance = []
        for x, y in zip(xs, ys):
            image = images[rng.integers(len(images))].tolist()
            k0 = _value(kernel, x, y, tau)
            k1 = _value(kernel, x[..., image], y[..., image], tau)
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
    mean = 0.5 * (pts[:, j - 1] + pts[:, j])
    pts[:, j - 1] = mean
    pts[:, j] = mean
    return pts


def one_sided_face_values(evaluate, plane_points: np.ndarray, j: int, u: np.ndarray,
                          sign: float):
    """Value and pair derivative (d/dx_j - d/dx_{j+1}) at the plane
    x_j = x_{j+1}, extrapolated from one side.

    ``evaluate`` maps points (M, n) to values; the samples sit at the two
    or more pair separations x_j - x_{j+1} = sign * u_k from
    ``plane_points``, on the side x_j > x_{j+1} for sign +1; a separation
    of 0 samples the plane point itself.  The polynomial through them
    gives the value and slope at u = 0.  Returns (values, pair
    derivatives), one per plane point.
    """
    direction = np.zeros(plane_points.shape[1])
    direction[j - 1] = 0.5
    direction[j] = -0.5
    samples = np.stack([evaluate(plane_points + sign * uk * direction[None, :])
                        for uk in u], axis=1)  # (M, len(u))
    # rows 0 and 1 give the interpolant's value and d/du at 0; the pair
    # derivative is 2 d/du
    wv, wd = taylor_weights(u)[:2]
    return samples @ wv, 2.0 * sign * (samples @ wd)


def connection_residual(evaluate, kind: str, a: float, plane_points: np.ndarray,
                        j: int, u_offsets) -> dict:
    """Relative connection-condition residuals across the plane
    x_j = x_{j+1}: ``jump``, the condition carrying the coupling
    strength, and ``continuity``, its partner.

    ``evaluate`` maps points (M, n) to values; ``plane_points`` lie on
    the plane; ``u_offsets`` are three positive pair separations
    u = x_j - x_{j+1} at which one-sided samples are taken on each side.
    Writing V, D for the one-sided boundary values and pair derivatives
    (d/dx_j - d/dx_{j+1}),

    * kind='delta': jump condition D+ - D- = (1/a)(V+ + V-), value
      continuous;
    * kind='epsilon': jump condition V+ - V- = a (D+ + D-), derivative
      continuous.
    """
    plane_points = np.atleast_2d(np.asarray(plane_points, dtype=float))
    u = np.asarray(u_offsets, dtype=float)
    if u.shape != (3,) or np.any(u <= 0):
        raise ValueError("need three positive pair separations")
    v_plus, d_plus = one_sided_face_values(evaluate, plane_points, j, u, +1.0)
    v_minus, d_minus = one_sided_face_values(evaluate, plane_points, j, u, -1.0)

    scale = float(np.max(np.abs(np.concatenate([v_plus, v_minus]))))
    dscale = float(np.max(np.abs(np.concatenate([d_plus, d_minus]))))
    u_span = float(np.max(u))
    norm = max(scale, u_span * dscale, 1e-300)

    if kind == "delta":
        jump = np.abs((d_plus - d_minus) - (v_plus + v_minus) / a)
        cont = np.abs(v_plus - v_minus)
        jump_norm = max(dscale, scale / abs(a) if a != 0 else np.inf, 1e-300)
        return {"jump": float(np.max(jump)) / jump_norm,
                "continuity": float(np.max(cont)) / norm}
    if kind == "epsilon":
        jump = np.abs((v_plus - v_minus) - a * (d_plus + d_minus))
        cont = np.abs(d_plus - d_minus)
        jump_norm = max(scale, abs(a) * dscale, 1e-300)
        cont_norm = max(dscale, scale / u_span, 1e-300)
        return {"jump": float(np.max(jump)) / jump_norm,
                "continuity": float(np.max(cont)) / cont_norm}
    raise ValueError(f"kind must be 'delta' or 'epsilon', got {kind!r}")


def face_boundary_residual(kernel: KernelEvaluator, j: int, spec: SamplingSpec) -> float:
    """Residual on face j of the face condition a sector kernel carries,
    ``kernel.coupling``.

    Uses the kernel's analytic face operator when it has one (a Robin
    or Neumann pair kernel), otherwise one-sided quartic extrapolation
    from the plane itself and the pair separations step, ..., 4 step,
    where step is ``FD_STEP``.  Dirichlet data measures the face value
    itself, Neumann the pair derivative, and Robin data a kernel without
    the analytic operator, |(d/dx_j - d/dx_{j+1}) K - K / a|.
    """
    entry = kernel.coupling
    n = kernel.n
    tau = sum(TAUS)
    ys = _sample_points(spec, n, spec.pairs, sector=True)
    if kernel.pair_face_residual is not None:
        return max(kernel.pair_face_residual(y[None, :], tau) for y in ys)

    step = FD_STEP
    pts = face_points(spec, n, j, spec.pairs)
    worst = 0.0
    for y in ys:
        def slice_at(points):
            return np.asarray(kernel.evaluate(points, y[None, :], tau))

        value, pair_derivative = one_sided_face_values(slice_at, pts, j,
                                                       step * np.arange(5.0), 1.0)
        scale = max(float(np.max(np.abs(value))),
                    step * float(np.max(np.abs(pair_derivative))), 1e-300)
        if entry.kind == "dirichlet":
            resid = np.abs(slice_at(pts)) / scale
        elif entry.kind == "neumann":
            dscale = max(float(np.max(np.abs(pair_derivative))),
                         float(np.max(np.abs(value))) / step, 1e-300)
            resid = np.abs(pair_derivative) / dscale
        else:
            resid = np.abs(pair_derivative - value / entry.value) / (
                max(float(np.max(np.abs(pair_derivative))),
                    float(np.max(np.abs(value))) / abs(entry.value), 1e-300))
        worst = max(worst, float(np.max(resid)))
    return worst


def verify_sector_properties(kernel: KernelEvaluator, spec: SamplingSpec) -> dict:
    """Residual report for a sector kernel: composition over the sector,
    weak short-time limit, symmetry, heat equation, and the kernel's face
    condition on every face."""
    if kernel.space != "sector":
        raise ValueError("need a sector kernel")
    base = verify_assumptions(kernel, spec)
    boundary = {j: face_boundary_residual(kernel, j, spec) for j in range(1, kernel.n)}
    base["boundary"] = {"max": max(boundary.values()), "per_face": boundary}
    return base


def dual_reconstruction_check(k_bose: KernelEvaluator, k_fermi: KernelEvaluator,
                              spec: SamplingSpec) -> dict:
    """Compare the two character-weighted sums and the inputs' connection
    conditions.

    Both sums are evaluated at sampled sector pairs; the reported
    deviation is relative to the larger sum.  The delta-type conditions
    are checked on the boson kernel and the epsilon-type ones on the
    fermion kernel whenever the boson kernel carries a finite (Robin)
    coupling.
    """
    n = k_bose.n
    xs = _sample_points(spec, n, spec.pairs, sector=True)
    ys = _sample_points(dataclasses.replace(spec, seed=spec.seed + 5), n, spec.pairs,
                        sector=True)
    tau = sum(TAUS)
    sum_b = permutation_sum(k_bose, Statistics.BOSE)
    sum_f = permutation_sum(k_fermi, Statistics.FERMI)

    deviations = []
    for x, y in zip(xs, ys):
        s_b = _value(sum_b, x, y, tau)
        s_f = _value(sum_f, x, y, tau)
        deviations.append(abs(s_b - s_f) / max(abs(s_b), abs(s_f), 1e-300))

    connection = {}
    coupling = k_bose.coupling
    if coupling is not None and coupling.kind == "robin":
        step = FD_STEP
        plane = face_points(spec, n, 1, spec.pairs)
        u, a = (step, 2 * step, 3 * step), coupling.value

        def slice_of(kernel):
            return lambda points: np.asarray(kernel.evaluate(points, ys[0][None, :], tau))

        connection = {
            "bose_delta": connection_residual(slice_of(k_bose), "delta", a, plane, 1, u),
            "fermi_epsilon": connection_residual(slice_of(k_fermi), "epsilon", a, plane,
                                                 1, u),
        }

    return {
        "max_deviation": max(deviations),
        "deviations": deviations,
        "connection": connection,
    }
