"""Independent half-line heat solver used to gate the pair kernel.

Crank-Nicolson time stepping on a finite-volume discretization of
d/dtau w = (1/2) w'' on [0, U] with the face condition w'(0) = gamma w(0)
and a far Dirichlet wall.  The half-cell treatment of the face node
makes the scheme second order in the mesh width; the stepping is second
order in dtau.  The step matrix M + (dt/2) K is symmetric positive
definite and tridiagonal, so it is factored once as L D L^T (LAPACK
``dpttrf``) and each step is a ``dpttrs`` solve against a right-hand
side formed from the diagonals.  The solver shares nothing with the
closed-form kernel it validates: the gate evolves a kernel profile from
tau0 to tau1 and compares against the closed form at tau1.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .coupling import SQRT2, BoundaryCoupling
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
#: Mesh width and Crank-Nicolson steps with no bound state to resolve.
GATE_CELL = 1.2e-3
GATE_STEPS = 2000
#: Largest relative error each of the mesh and the time step may put on
#: the growth of a bound state (``pair_kernel_pde_gate``).
GATE_BUDGET = 5e-7


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


def evolve_half_line(w0: np.ndarray, width: float, gamma, tau_span: float,
                     steps: int) -> np.ndarray:
    """Crank-Nicolson evolution of retained-node values over tau_span.

    Raises ContactDualityError when the step matrix is not positive
    definite (a face coupling too attractive for the mesh).
    """
    points = w0.size if gamma is not None else w0.size + 1
    mass, diag, off = _system(points, width, gamma)
    dt = tau_span / steps
    d, e, info = dpttrf(mass + (dt / 2.0) * diag,
                        np.full(diag.size - 1, (dt / 2.0) * off))
    if info != 0:
        raise ContactDualityError(
            f"Crank-Nicolson step matrix is not positive definite (dpttrf info={info})")
    rhs_diag = mass - (dt / 2.0) * diag
    rhs_off = -(dt / 2.0) * off
    w = w0.copy()
    for _ in range(steps):
        r = rhs_diag * w
        r[:-1] += rhs_off * w[1:]
        r[1:] += rhs_off * w[:-1]
        w, _ = dpttrs(d, e, r, overwrite_b=True)
    return w


def pair_kernel_pde_gate(entry: BoundaryCoupling) -> float:
    """Max relative deviation between the evolved and closed-form kernels.

    Starts from the closed-form relative kernel at GATE_TAU0 (a smooth
    profile), marches the PDE to GATE_TAU1, and compares with the closed
    form there.  This is the independent gate the pair kernel must pass
    before its residual suite counts.

    Without a bound state the mesh takes ``GATE_CELL`` and
    ``GATE_STEPS``.  An attractive Robin face a < 0 carries the bound
    state e^{gamma u}, gamma = 1 / (sqrt2 a), so for |a| < 1 the cells
    shrink with |a| to resolve its width.  The state also grows by e^g
    over the gate, with g = gamma^2 (GATE_TAU1 - GATE_TAU0) / 2.  On a
    mesh of width h its decay rate kappa solves sinh(kappa h) = gamma h,
    so the growth exponent falls short by g (gamma h)^2 / 4, and
    Crank-Nicolson overshoots it by g^3 / (12 steps^2).  Each of these is
    held to ``GATE_BUDGET``, so the two (of opposite sign) stay below it
    together.
    """
    h, steps = GATE_CELL, GATE_STEPS
    if entry.kind == "robin" and entry.value < 0.0:
        gamma2 = 0.5 / entry.value**2
        g = 0.5 * gamma2 * (GATE_TAU1 - GATE_TAU0)
        h = min(h * min(1.0, -entry.value), 2.0 * math.sqrt(GATE_BUDGET / (g * gamma2)))
        steps = max(steps, math.ceil(math.sqrt(g**3 / (12.0 * GATE_BUDGET))))
    points = math.ceil(GATE_WIDTH / h)
    h = GATE_WIDTH / points
    kernel, _ = relative_half_line_kernel(entry)
    if entry.kind == "dirichlet":
        gamma = None
        grid = np.arange(1, points) * h
    else:
        gamma = 1.0 / (SQRT2 * entry.length)
        grid = np.arange(0, points) * h
    source = np.full_like(grid, GATE_SOURCE)
    w0 = kernel(grid, source, GATE_TAU0)
    evolved = evolve_half_line(w0, GATE_WIDTH, gamma, GATE_TAU1 - GATE_TAU0, steps)
    exact = kernel(grid, source, GATE_TAU1)
    scale = float(np.max(np.abs(exact)))
    return float(np.max(np.abs(evolved - exact))) / scale
