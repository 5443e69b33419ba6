"""Propagation of sector states and cross-route consistency checks.

Three independent routes evolve a sector wavefunction in imaginary
time:

1. sector-kernel quadrature of psi(x, tau) = int K_M(x, y; tau) psi0(y);
2. the equivariant route: extend psi0 over all orderings, propagate with
   the full-space kernel, read off sector values;
3. the matrix exponential of a discretized sector Hamiltonian.

Routes 1 and 2 are compared with deliberately different quadrature
parameters, so their agreement reflects convergence of two distinct
integration schemes.  Route 3 also provides the real-time finite-matrix
cross-check: at matrix level the character-weighted sums of the full
delta and epsilon evolution kernels must reproduce the reduced sector
evolution exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from .errors import QuadratureNotConverged
from .grids import SectorGrid, WavefunctionGrid
from .kernels import KernelEvaluator
from .mesh import DofTable
from .operators import (
    DomainSpec,
    GridOperator,
    build_delta_bose,
    build_epsilon_fermi,
    solve,
)
from .permutations import enumerate_group, group_table, permutation_ranks
from .quadrature import sector_rule
from .wavefunctions import Statistics


@dataclass
class PropagationQuad:
    """Sector-panel quadrature plan for propagation integrals."""

    lo: float
    hi: float
    cells: int = 24
    order: int = 8

    def rule(self, n: int):
        return sector_rule(self.lo, self.hi, n, self.cells, self.order)


#: Targets per kernel evaluation in the quadrature routes; the kernel
#: matrix held at once is TARGET_BLOCK rows by the rule's points.
TARGET_BLOCK = 64


def _integrate_rule(kernel: KernelEvaluator, targets: np.ndarray, pts: np.ndarray,
                    weights: np.ndarray, tau: float) -> np.ndarray:
    """sum_j K(x_i, pts_j; tau) weights_j at every target x_i, one block of
    ``TARGET_BLOCK`` targets per kernel evaluation."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    out = np.empty(targets.shape[0], dtype=float)
    for start in range(0, targets.shape[0], TARGET_BLOCK):
        block = targets[start:start + TARGET_BLOCK]
        vals = np.asarray(kernel.evaluate(block[:, None, :], pts[None, :, :], tau))
        out[start:start + TARGET_BLOCK] = vals @ weights
    return out


def propagate_at(kernel: KernelEvaluator, psi0, tau: float, targets: np.ndarray,
                 quad: PropagationQuad) -> np.ndarray:
    """Sector-kernel propagation evaluated at target sector points."""
    if kernel.space != "sector":
        raise ValueError("need a sector kernel")
    pts, wts = quad.rule(kernel.n)
    weights = wts * np.asarray(psi0(pts))
    return _integrate_rule(kernel, targets, pts, weights, tau)


def propagate_equivariant(kernel: KernelEvaluator, stat: Statistics, psi0, tau: float,
                          targets: np.ndarray, quad: PropagationQuad) -> np.ndarray:
    """Full-space propagation of the equivariant extension of psi0.

    The integral over all orderings is carried out sector by sector: the
    relabeling change of variables maps each ordering region onto the
    fundamental sector and contributes chi(sigma) K(x, sigma z).
    """
    if kernel.space != "full":
        raise ValueError("need a full-space kernel")
    n = kernel.n
    pts, wts = quad.rule(n)
    weights = wts * np.asarray(psi0(pts))
    out = 0.0
    for sigma in enumerate_group(n):
        chi = 1 if stat is Statistics.BOSE else sigma.sign
        out = out + chi * _integrate_rule(kernel, targets, sigma.apply(pts), weights, tau)
    return out


def propagate(kernel: KernelEvaluator, psi0: WavefunctionGrid, tau: float,
              quad: PropagationQuad = None, tol: float = None) -> WavefunctionGrid:
    """Quadrature propagation of a sector wavefunction grid.

    The initial state must carry its generating profile (sampled grids
    alone cannot be evaluated at quadrature points without losing the
    order of the panel rule).  When ``tol`` is given, the integral is
    repeated on a refined panel rule and QuadratureNotConverged is
    raised if the two disagree beyond ``tol`` relative to the peak.
    """
    if psi0.space != "sector":
        raise ValueError("need a sector wavefunction")
    if psi0.profile is None:
        raise ValueError("initial state needs an analytic profile")
    grid: SectorGrid = psi0.grid
    if quad is None:
        quad = PropagationQuad(lo=0.0, hi=grid.length, cells=max(2 * grid.points, 16))
    values = propagate_at(kernel, psi0.profile, tau, grid.nodes(), quad)
    if tol is not None:
        finer = PropagationQuad(quad.lo, quad.hi, quad.cells + quad.cells // 2,
                                quad.order + 2)
        check = propagate_at(kernel, psi0.profile, tau, grid.nodes(), finer)
        err = float(np.max(np.abs(values - check)))
        scale = float(np.max(np.abs(check))) or 1.0
        if err > tol * scale:
            raise QuadratureNotConverged(
                f"propagation quadrature off by {err / scale:.2e} (tol {tol})",
                estimate=check, error=err)
        values = check
    return WavefunctionGrid(grid, values, "sector", None)


def propagate_operator(op: GridOperator, psi0_values: np.ndarray, tau: float) -> np.ndarray:
    """Imaginary-time evolution of node values by the grid Hamiltonian."""
    hat = np.sqrt(op.mass) * np.asarray(psi0_values)
    evolved = expm_multiply((-tau) * op.matrix, hat)
    return evolved / np.sqrt(op.mass)


def ground_state_projection_check(op: GridOperator, tau: float, seed: int = 0,
                                  k: int = 2) -> dict:
    """Long-time evolution against the eigensolver's ground state.

    Returns the overlap of the normalized evolved state with the ground
    eigenvector (mass inner product) and the spectral gap used.
    """
    res = solve(op, k, seed=seed)
    rng = np.random.default_rng(seed)
    center = op.dom.offset + op.dom.length / 2.0
    spreadd = op.dom.length / 4.0
    psi0 = np.exp(-np.sum((op.coords - center) ** 2, axis=-1) / (2 * spreadd**2))
    psi0 += 0.05 * rng.uniform(size=op.dimension)
    evolved = propagate_operator(op, psi0, tau)
    w = op.mass
    ground = res.vectors[:, 0]
    num = abs(float(np.sum(w * evolved * ground)))
    den = math.sqrt(float(np.sum(w * evolved**2) * np.sum(w * ground**2)))
    return {
        "overlap": num / den,
        "gap": float(res.eigenvalues[1] - res.eigenvalues[0]),
        "tau": tau,
        "eigenvalues": res.eigenvalues.tolist(),
    }


def two_stage_values(kernel: KernelEvaluator, psi0, tau1: float, tau2: float,
                     targets: np.ndarray, quad: PropagationQuad) -> np.ndarray:
    """Propagate by tau1, then by tau2, through the sector quadrature."""
    pts2, wts2 = quad.rule(kernel.n)
    stage1 = propagate_at(kernel, psi0, tau1, pts2, quad)
    return _integrate_rule(kernel, targets, pts2, wts2 * stage1, tau2)


@dataclass
class RealTimeCheck:
    """Max-norm deviations of the discrete permutation-sum identity."""

    bose_deviation: float
    fermi_deviation: float
    dimension_full: int
    dimension_cracked: int
    time: float


def _dense_kernel_matrix(op: GridOperator, t: complex) -> np.ndarray:
    """Evolution kernel exp(-i t M^{-1} A) M^{-1} in node coordinates."""
    mat = (op.matrix).toarray()
    u_hat = expm(-1j * t * mat)
    inv_sqrt = 1.0 / np.sqrt(op.mass)
    return inv_sqrt[:, None] * u_hat * inv_sqrt[None, :]


def real_time_cross_check(dom: DomainSpec, model, t: float = 0.1) -> RealTimeCheck:
    """Finite-matrix test of the dual kernel reconstruction in real time.

    Builds the unreduced full-space delta and epsilon Hamiltonians and
    the reduced sector pencil on the same staggered lattice, exponentiates
    all three, and compares the character-weighted sums of the full
    kernels at strict node pairs with the direct sector kernel (times the
    group order, which converts full-box node weights to sector ones).
    """
    n = dom.n
    images, signs = group_table(n)
    fact = math.factorial(n)

    op_red = build_delta_bose(dom, model, reduced=True)
    op_bose = build_delta_bose(dom, model, reduced=False)
    op_fermi = build_epsilon_fermi(dom, model, reduced=False)

    k_red = _dense_kernel_matrix(op_red, t)
    k_bose = _dense_kernel_matrix(op_bose, t)
    k_fermi = _dense_kernel_matrix(op_fermi, t)

    pts = op_red.lattice.size
    red_table = DofTable(op_red.dofs, pts)
    bose_table = DofTable(op_bose.dofs, pts)
    # cracked dofs are keyed by vertex and region rank
    fermi_table = DofTable(np.column_stack([op_fermi.dofs, op_fermi.region_ranks]),
                           max(pts, fact))

    def fermi_rank(tuples):
        region = permutation_ranks(np.argsort(-tuples, axis=-1, kind="stable"))
        return fermi_table.rank(np.column_stack([tuples, region]))

    strict = np.all(op_red.dofs[:, :-1] > op_red.dofs[:, 1:], axis=-1)
    strict_tuples = op_red.dofs[strict]
    red_idx = red_table.rank(strict_tuples)

    scale = float(np.max(np.abs(k_red)))
    xb_idx = bose_table.rank(strict_tuples)
    xf_idx = fermi_rank(strict_tuples)
    sum_b = np.zeros((strict_tuples.shape[0],) * 2, dtype=complex)
    sum_f = np.zeros_like(sum_b)
    for image, chi in zip(images, signs.tolist()):
        mapped = strict_tuples[:, image]
        sum_b += k_bose[np.ix_(xb_idx, bose_table.rank(mapped))]
        sum_f += chi * k_fermi[np.ix_(xf_idx, fermi_rank(mapped))]
    direct = fact * k_red[np.ix_(red_idx, red_idx)]
    dev_b = float(np.max(np.abs(sum_b - direct))) / scale
    dev_f = float(np.max(np.abs(sum_f - direct))) / scale
    return RealTimeCheck(bose_deviation=dev_b, fermi_deviation=dev_f,
                         dimension_full=op_bose.dimension,
                         dimension_cracked=op_fermi.dimension, time=t)
