"""Independent half-line heat solver used to gate the pair kernel.

Crank-Nicolson time stepping on a finite-volume discretization of
d/dtau w = (1/2) w'' on [0, U] with the face condition w'(0) = gamma w(0)
and a far Dirichlet wall.  The half-cell treatment of the face node
makes the scheme second order in the mesh width; the stepping is second
order in dtau.  The solver shares nothing with the closed-form kernel it
validates: the gate evolves a kernel profile from tau0 to tau1 and
compares against the closed form at tau1.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .coupling import SQRT2, BoundaryCoupling
from .kernels import relative_half_line_kernel


def _system(points: int, width: float, gamma):
    """Mass diagonal and stiffness on the retained nodes.

    Nodes sit at u_i = i h, i = 0..points; the far wall node is
    eliminated (Dirichlet).  gamma = None eliminates the face node too
    (Dirichlet face); otherwise the face node keeps a half cell with the
    flux condition w'(0) = gamma w(0), contributing 1/h + gamma to its
    stiffness diagonal.
    """
    h = width / points
    if gamma is None:
        size = points - 1  # nodes 1..points-1
        diag = np.full(size, 2.0 / h)
        off = np.full(size - 1, -1.0 / h)
        mass = np.full(size, h)
    else:
        size = points  # nodes 0..points-1
        diag = np.full(size, 2.0 / h)
        diag[0] = 1.0 / h + gamma
        off = np.full(size - 1, -1.0 / h)
        mass = np.full(size, h)
        mass[0] = h / 2.0
    stiff = sparse.diags([off, diag, off], [-1, 0, 1], format="csr")
    return mass, 0.5 * stiff


def evolve_half_line(w0: np.ndarray, width: float, gamma, tau_span: float,
                     steps: int) -> np.ndarray:
    """Crank-Nicolson evolution of retained-node values over tau_span."""
    points = w0.size if gamma is not None else w0.size + 1
    mass, stiff = _system(points, width, gamma)
    dt = tau_span / steps
    m = sparse.diags(mass)
    lhs = (m + (dt / 2.0) * stiff).tocsc()
    rhs = (m - (dt / 2.0) * stiff).tocsr()
    lu = splu(lhs)
    w = w0.copy()
    for _ in range(steps):
        w = lu.solve(rhs @ w)
    return w


def pair_kernel_pde_gate(entry: BoundaryCoupling, source: float = 0.8,
                         tau0: float = 0.25, tau1: float = 0.5,
                         width: float = 24.0, points: int = 20000,
                         steps: int = 2000) -> float:
    """Max relative deviation between the evolved and closed-form kernels.

    Starts from the closed-form relative kernel at tau0 (a smooth
    profile), marches the PDE to tau1, and compares with the closed form
    there.  This is the independent gate the pair kernel must pass
    before its residual suite counts.
    """
    kernel, _ = relative_half_line_kernel(entry)
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
