"""Independent half-line heat solver used to gate the pair kernel.

A finite-volume discretization of d/dtau w = (1/2) w'' on [0, U] with
the face condition w'(0) = gamma w(0) and a far Dirichlet wall; the
half-cell treatment of the face node makes it second order in the mesh
width.  Its semi-discrete solution exp(-tau M^-1 K) w0 is evaluated
exactly in time, by shift-invert Lanczos (``evolve_half_line``).  The
solver shares nothing with the closed-form kernel it validates: the gate
evolves a kernel profile from tau0 to tau1 and compares against the
closed form at tau1.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpttrf, dpttrs

from .coupling import BoundaryCoupling
from .errors import ContactDualityError
from .kernels import relative_half_line_kernel

#: Source point of the evolved kernel profile.
GATE_SOURCE = 0.8
#: The gate evolves the closed form from GATE_TAU0 to GATE_TAU1.
GATE_TAU0 = 0.25
GATE_TAU1 = 0.5
#: Half-line truncation width: the far wall sits where the kernel's
#: Gaussian factor at GATE_TAU1 falls below machine epsilon.
GATE_WIDTH = GATE_SOURCE + math.sqrt(-2.0 * GATE_TAU1 * math.log(np.finfo(float).eps))
#: Mesh width with no bound state to resolve.
GATE_CELL = 1.2e-3
#: Largest relative error the mesh may put on a bound state's growth.
GATE_BUDGET = 5e-7
#: Lanczos shift s as a fraction of the evolved span, and s gamma^2 at
#: most on an attractive face: its bound state has M^-1 K eigenvalue
#: -gamma^2 / 2 or above on any mesh, so M + sK stays positive definite.
SHIFT_SPAN = 0.1
BOUND_SHIFT = 1.0
#: Lanczos stops when two successive approximations agree to this
#: fraction of their peak, and raises after EXPM_MAX_STEPS solves.
EXPM_TOL = 1e-14
EXPM_MAX_STEPS = 60


def _system(points: int, width: float, gamma):
    """Mass diagonal, stiffness diagonal and stiffness off-diagonal on the
    retained nodes.

    Nodes sit at u_i = i h, i = 0..points; the far wall node is
    eliminated (Dirichlet).  gamma = None eliminates the face node too
    (Dirichlet face); otherwise the face node keeps a half cell with the
    flux condition w'(0) = gamma w(0), contributing 1/h + gamma to its
    stiffness diagonal.  The stiffness is that of (1/2) w''.
    """
    h = width / points
    size = points - 1 if gamma is None else points
    diag = np.full(size, 1.0 / h)
    mass = np.full(size, h)
    if gamma is not None:
        diag[0] = 0.5 * (1.0 / h + gamma)
        mass[0] = h / 2.0
    return mass, diag, -0.5 / h


def evolve_half_line(w0: np.ndarray, width: float, gamma, tau_span: float) -> np.ndarray:
    """Exact evolution exp(-tau_span M^-1 K) w0 of retained-node values.

    Lanczos with full reorthogonalization runs on the symmetric positive
    definite Z = M^1/2 (M + sK)^-1 M^1/2 from M^1/2 w0, one ``dpttrs``
    solve per step against the ``dpttrf`` factor of M + sK; its
    projection T gives the evolution as exp(-tau_span (T^-1 - I) / s).
    Raises ContactDualityError when M + sK is not positive definite or
    the run has not converged in EXPM_MAX_STEPS solves.
    """
    points = w0.size if gamma is not None else w0.size + 1
    mass, diag, off = _system(points, width, gamma)
    s = SHIFT_SPAN * tau_span
    if gamma is not None and gamma < 0.0:
        s = min(s, BOUND_SHIFT / gamma**2)
    d, e, info = dpttrf(mass + s * diag, np.full(diag.size - 1, s * off))
    if info != 0:
        raise ContactDualityError(
            f"shift-invert matrix M + sK is not positive definite (dpttrf info={info})")
    root = np.sqrt(mass)
    basis = np.empty((EXPM_MAX_STEPS + 1, w0.size))
    norm0 = np.linalg.norm(root * w0)
    basis[0] = root * w0 / norm0
    alpha, beta, w = [], [], None
    for j in range(EXPM_MAX_STEPS):
        q = basis[:j + 1]
        z = root * dpttrs(d, e, root * q[j])[0]
        coef = q @ z
        z -= coef @ q
        z -= (q @ z) @ q
        alpha.append(coef[j])
        theta, vecs = eigh_tridiagonal(alpha, beta)
        y = vecs @ (np.exp(-tau_span * (1.0 / theta - 1.0) / s) * vecs[0])
        previous, w = w, norm0 * (y @ q) / root
        if previous is not None and np.max(np.abs(w - previous)) <= EXPM_TOL * np.max(np.abs(w)):
            return w
        beta.append(np.linalg.norm(z))
        basis[j + 1] = z / beta[-1]
    raise ContactDualityError(
        f"half-line exponential did not converge in {EXPM_MAX_STEPS} Lanczos steps")


def pair_kernel_pde_gate(entry: BoundaryCoupling) -> float:
    """Max relative deviation between the evolved and closed-form kernels.

    Starts from the closed-form relative kernel at GATE_TAU0 (a smooth
    profile), evolves the semi-discrete PDE exactly to GATE_TAU1, and
    compares with the closed form there, so it reads the mesh error
    alone.  The pair kernel must pass it before its residual suite counts.

    Without a bound state the mesh takes ``GATE_CELL``.  An attractive
    Robin face a < 0 carries the bound state e^{gamma u},
    gamma = 1 / (sqrt2 a), so for |a| < 1 the cells shrink with |a| to
    resolve its width.  The state also grows by e^g over the gate, with
    g = gamma^2 (GATE_TAU1 - GATE_TAU0) / 2.  On a mesh of width h its
    decay rate kappa solves sinh(kappa h) = gamma h, so the growth
    exponent falls short by g (gamma h)^2 / 4, which is held to
    ``GATE_BUDGET``.
    """
    h = GATE_CELL
    if entry.kind == "robin" and entry.value < 0.0:
        gamma2 = 0.5 / entry.value**2
        g = 0.5 * gamma2 * (GATE_TAU1 - GATE_TAU0)
        h = min(h * min(1.0, -entry.value), 2.0 * math.sqrt(GATE_BUDGET / (g * gamma2)))
    points = math.ceil(GATE_WIDTH / h)
    h = GATE_WIDTH / points
    kernel, _ = relative_half_line_kernel(entry)
    if entry.kind == "dirichlet":
        gamma = None
        grid = np.arange(1, points) * h
    else:
        gamma = entry.rate
        grid = np.arange(0, points) * h
    source = np.full_like(grid, GATE_SOURCE)
    w0 = kernel(grid, source, GATE_TAU0)
    evolved = evolve_half_line(w0, GATE_WIDTH, gamma, GATE_TAU1 - GATE_TAU0)
    exact = kernel(grid, source, GATE_TAU1)
    scale = float(np.max(np.abs(exact)))
    return float(np.max(np.abs(evolved - exact))) / scale
