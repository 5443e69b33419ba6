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


def pair_kernel_pde_gate(entry: BoundaryCoupling, source: float = 0.8,
                         tau0: float = 0.25, tau1: float = 0.5,
                         width: float = 24.0, steps: int = 2000) -> float:
    """Max relative deviation between the evolved and closed-form kernels.

    Starts from the closed-form relative kernel at tau0 (a smooth
    profile), marches the PDE to tau1, and compares with the closed form
    there.  This is the independent gate the pair kernel must pass
    before its residual suite counts.  The mesh has 20,000 cells, and
    20,000 / |a| for an attractive Robin coupling with |a| < 1, whose
    bound state exp(u / (sqrt2 a)) narrows with |a|.
    """
    kernel, _ = relative_half_line_kernel(entry)
    points = 20000
    if entry.kind == "robin" and -1.0 < entry.value < 0.0:
        points = math.ceil(points / abs(entry.value))
    h = width / points
    if entry.kind == "dirichlet":
        gamma = None
        grid = np.arange(1, points) * h
    else:
        gamma = 0.0 if entry.kind == "neumann" else 1.0 / (SQRT2 * entry.value)
        grid = np.arange(0, points) * h
    w0 = kernel(grid, np.full_like(grid, source), tau0)
    evolved = evolve_half_line(w0, width, gamma, tau1 - tau0, steps)
    exact = kernel(grid, np.full_like(grid, source), tau1)
    scale = float(np.max(np.abs(exact)))
    return float(np.max(np.abs(evolved - exact))) / scale
