"""Propagation of sector states and cross-route consistency checks.

Three independent routes evolve a sector wavefunction in imaginary
time:

1. sector-kernel quadrature of psi(x, tau) = int K_M(x, y; tau) psi0(y);
2. the equivariant route: extend psi0 over all orderings, propagate with
   the full-space kernel, read off sector values;
3. the exponential of a discretized sector Hamiltonian, applied to a
   vector (``expm_multiply``).

Routes 1 and 2 are compared with deliberately different quadrature
parameters, so their agreement reflects convergence of two distinct
integration schemes.  The real-time finite-matrix cross-check
(``real_time_cross_check``) tests the same identity at matrix level:
the character-weighted sums of the full delta and epsilon evolution
kernels must reproduce the reduced sector evolution exactly.  It reads
each kernel's entries off one eigendecomposition of its operator.

The semigroup check (``two_stage_values``) applies the rule-on-rule
kernel matrix K(pts, pts; tau) and assumes it symmetric, K(x, y) =
K(y, x), as every heat kernel is (``robin_pair_kernel`` bit for bit,
the ``kernel-properties`` symmetry gate at 1e-12).  It takes the rule
points in order of their relative coordinate x_1 - x_2, so that each
target block holds few distinct values of it, evaluates each unordered
pair of target blocks once and applies it both ways.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
# Nothing here calls expm.  It stays importable on this module because
# the benchmark's tracer (perfbench/tracing.py) wraps it here by name;
# ROADMAP item 4 drops it with that patching.
from scipy.linalg import expm  # noqa: F401
from scipy.sparse.linalg import expm_multiply

from .kernels import KernelEvaluator
from .mesh import DofTable
from .operators import (
    DomainSpec,
    GridOperator,
    build_delta_bose,
    build_epsilon_fermi,
    solve,
)
from .permutations import Statistics, group_table, permutation_ranks, sort_descending
from .quadrature import sector_rule


@dataclass
class PropagationQuad:
    """Sector-panel quadrature plan for propagation integrals."""

    lo: float
    hi: float
    cells: int
    order: int

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


def _relative_order(pts: np.ndarray) -> np.ndarray:
    """Stable order of the points by their relative coordinate x_1 - x_2."""
    return np.argsort(pts[:, 0] - pts[:, 1], kind="stable")


def _apply_on_rule(kernel: KernelEvaluator, pts: np.ndarray, weights: np.ndarray,
                   tau: float) -> np.ndarray:
    """sum_j K(pts_i, pts_j; tau) weights_j at every rule point, for a kernel
    with K(x, y) = K(y, x).

    The points are taken in ``_relative_order``, so that a block of
    ``TARGET_BLOCK`` rows holds few distinct x_1 - x_2 values (about 11
    instead of 39 on the default 13,440-point rule) and a kernel that
    tabulates its relative factor, as ``robin_pair_kernel`` does,
    evaluates a small table.  Block ``pts[s:e]`` is then evaluated
    against ``pts[s:]`` only: that slab gives the block's own rows, and
    its part right of the diagonal block, transposed, gives the later
    rows' share from this block.  Each unordered pair of blocks is
    evaluated once; only the summation order differs from
    ``_integrate_rule``.
    """
    order = _relative_order(pts)
    pts, weights = pts[order], weights[order]
    acc = np.zeros(pts.shape[0], dtype=float)
    for start in range(0, pts.shape[0], TARGET_BLOCK):
        end = start + TARGET_BLOCK
        vals = np.asarray(kernel.evaluate(pts[start:end, None, :], pts[None, start:, :], tau))
        acc[start:end] += vals @ weights[start:]
        acc[end:] += weights[start:end] @ vals[:, TARGET_BLOCK:]
    out = np.empty_like(acc)
    out[order] = acc
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
    fundamental sector and contributes chi(sigma) K(x, sigma z), one
    ``group_table`` row at a time.
    """
    if kernel.space != "full":
        raise ValueError("need a full-space kernel")
    n = kernel.n
    pts, wts = quad.rule(n)
    weights = wts * np.asarray(psi0(pts))
    images, signs = group_table(n)
    out = 0.0
    for image, sign in zip(images.tolist(), signs.tolist()):
        moved = _integrate_rule(kernel, targets, pts[..., image], weights, tau)
        out = out + stat.character(sign) * moved
    return out


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
    """Propagate by tau1, then by tau2, through the sector quadrature.

    Stage 1 is the rule-on-rule matrix K(pts, pts; tau1) applied to
    wts * psi0(pts).  It is evaluated once per unordered pair of target
    blocks (``_apply_on_rule``), which assumes the kernel symmetric in
    its arguments, K(x, y) = K(y, x).  Stage 2 evaluates the targets
    against the rule as ``propagate_at`` does.
    """
    if kernel.space != "sector":
        raise ValueError("need a sector kernel")
    pts, wts = quad.rule(kernel.n)
    stage1 = _apply_on_rule(kernel, pts, wts * np.asarray(psi0(pts)), tau1)
    return _integrate_rule(kernel, targets, pts, wts * stage1, tau2)


@dataclass
class RealTimeCheck:
    """Max-norm deviations of the discrete permutation-sum identity."""

    bose_deviation: float
    fermi_deviation: float
    dimension_full: int
    dimension_cracked: int
    time: float


def _kernel_entries(op: GridOperator, t: float, rows: np.ndarray,
                    cols: np.ndarray) -> np.ndarray:
    """Entries (rows, cols) of the evolution kernel exp(-i t M^{-1} A) M^{-1}
    in node coordinates.

    ``op.matrix`` is the real symmetric A_hat = M^{-1/2} A M^{-1/2}; with
    A_hat = V diag(lam) V^T the kernel is L diag(exp(-i t lam)) L^T,
    L = M^{-1/2} V, so one eigendecomposition gives any block of it.
    """
    lam, vec = eigh(op.matrix.toarray(), driver="evd")
    low = vec / np.sqrt(op.mass)[:, None]
    return (low[rows] * np.exp(-1j * t * lam)) @ low[cols].T


def real_time_cross_check(dom: DomainSpec, model, t: float = 0.1) -> RealTimeCheck:
    """Finite-matrix test of the dual kernel reconstruction in real time.

    Builds the unreduced full-space delta and epsilon Hamiltonians and
    the reduced sector pencil on the same staggered lattice and
    diagonalizes each once (``_kernel_entries``).  Of the full kernels it
    forms only the rows of the strict nodes and the columns of their
    group images; of the reduced one the whole matrix, whose largest
    entry sets the scale.  It compares the character-weighted sums of the
    full kernels at strict node pairs with the direct sector kernel
    (times the group order, which converts full-box node weights to
    sector ones).
    """
    n = dom.n
    images, signs = group_table(n)
    fact = math.factorial(n)

    op_red = build_delta_bose(dom, model, reduced=True)
    op_bose = build_delta_bose(dom, model, reduced=False)
    op_fermi = build_epsilon_fermi(dom, model, reduced=False)

    pts = op_red.lattice.size
    red_table = DofTable(op_red.dofs, pts)
    bose_table = DofTable(op_bose.dofs, pts)
    # cracked dofs are keyed by vertex and region rank
    fermi_table = DofTable(np.column_stack([op_fermi.dofs, op_fermi.region_ranks]),
                           max(pts, fact))

    def fermi_rank(tuples):
        region = permutation_ranks(sort_descending(tuples)[1])
        return fermi_table.rank(np.column_stack([tuples, region]))

    strict = np.all(op_red.dofs[:, :-1] > op_red.dofs[:, 1:], axis=-1)
    strict_tuples = op_red.dofs[strict]
    red_idx = red_table.rank(strict_tuples)

    every = np.arange(op_red.dimension)
    k_red = _kernel_entries(op_red, t, every, every)
    scale = float(np.max(np.abs(k_red)))
    # columns: the strict nodes' images, one group element after another
    mapped = strict_tuples[:, images].transpose(1, 0, 2).reshape(-1, n)
    k_bose = _kernel_entries(op_bose, t, bose_table.rank(strict_tuples),
                             bose_table.rank(mapped))
    k_fermi = _kernel_entries(op_fermi, t, fermi_rank(strict_tuples), fermi_rank(mapped))
    by_image = (strict_tuples.shape[0], fact, strict_tuples.shape[0])
    sum_b = k_bose.reshape(by_image).sum(axis=1)
    sum_f = (k_fermi.reshape(by_image) * signs[None, :, None]).sum(axis=1)
    direct = fact * k_red[np.ix_(red_idx, red_idx)]
    dev_b = float(np.max(np.abs(sum_b - direct))) / scale
    dev_f = float(np.max(np.abs(sum_f - direct))) / scale
    return RealTimeCheck(bose_deviation=dev_b, fermi_deviation=dev_f,
                         dimension_full=op_bose.dimension,
                         dimension_cracked=op_fermi.dimension, time=t)
