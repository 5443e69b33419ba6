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

The semigroup check (``two_stage_values``) runs on a tensor rule in the
pair coordinates u = (x_1 - x_2)/sqrt2 and c = (x_1 + x_2)/sqrt2, on
which a kernel with a free centre of mass makes the rule-on-rule matrix
a Kronecker product.  ``propagate_at``, which it is compared with,
evaluates the full kernel, so a kernel whose centre of mass does not
separate shows as a semigroup deviation.

The ``propagate`` command runs routes 1 and 2 and the semigroup check.
Only tests reach route 3 (``propagate_operator``) until ROADMAP item 13
gives it a caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
# Nothing here calls expm.  It stays importable on this module because
# the benchmark's tracer (perfbench/tracing.py) wraps it here by name;
# ROADMAP item 3, the benchmark repair, drops it.
from scipy.linalg import expm  # noqa: F401
from scipy.sparse.linalg import expm_multiply

from .coupling import SQRT2
from .kernels import KernelEvaluator, gaussian_1d
from .mesh import DofTable
from .operators import (
    DomainSpec,
    GridOperator,
    build_delta_bose,
    build_epsilon_fermi,
    solve,
)
from .permutations import Statistics, group_sum, group_table, permutation_ranks, sort_descending
from .quadrature import box_rule, sector_rule


@dataclass
class PropagationQuad:
    """Quadrature plan for propagation integrals: ``cells`` panels across
    [lo, hi], ``order`` Gauss points per panel and axis.  ``rule`` covers
    the descending sector of [lo, hi]^n; ``pair_rule`` covers the
    rectangle that bounds its n = 2 part in u = (x_1 - x_2)/sqrt2 and
    c = (x_1 + x_2)/sqrt2 with panels of the same width."""

    lo: float
    hi: float
    cells: int
    order: int

    def rule(self, n: int):
        return sector_rule(self.lo, self.hi, n, self.cells, self.order)

    def pair_rule(self):
        """(u, wu, c, wc); the rotation has unit Jacobian, so the grid's
        weights are wu_a wc_b."""
        u, wu = box_rule([[0.0, (self.hi - self.lo) / SQRT2]], self.cells, self.order)
        c, wc = box_rule([[SQRT2 * self.lo, SQRT2 * self.hi]], 2 * self.cells, self.order)
        return u[:, 0], wu, c[:, 0], wc


#: Targets per kernel evaluation in the quadrature routes; the kernel
#: matrix held at once is TARGET_BLOCK rows by the rule's points.
TARGET_BLOCK = 64


def _integrate_rule(kernel: KernelEvaluator, targets: np.ndarray, pts: np.ndarray,
                    weights: np.ndarray, tau: float) -> np.ndarray:
    """sum_j K(x_i, pts_j; tau) weights_j at every target x_i, one block of
    ``TARGET_BLOCK`` targets per kernel evaluation.  Each block is dropped
    before the next is evaluated, so one is held at a time."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    out = np.empty(targets.shape[0], dtype=float)
    for start in range(0, targets.shape[0], TARGET_BLOCK):
        block = targets[start:start + TARGET_BLOCK]
        vals = np.asarray(kernel.evaluate(block[:, None, :], pts[None, :, :], tau))
        out[start:start + TARGET_BLOCK] = vals @ weights
        del vals
    return out


def _pair_points(u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The (u, c) grid in x coordinates, x = ((c + u)/sqrt2, (c - u)/sqrt2),
    as (u.size * c.size, 2) points with c running fastest."""
    uu, cc = np.meshgrid(u, c, indexing="ij")
    return np.stack([(cc + uu) / SQRT2, (cc - uu) / SQRT2], axis=-1).reshape(-1, 2)


def _factored_stage(kernel: KernelEvaluator, u: np.ndarray, c: np.ndarray,
                    weights: np.ndarray, tau: float) -> np.ndarray:
    """sum_(a', b') K((u_a, c_b), (u_a', c_b'); tau) weights[a', b'] at every
    point of the (u, c) grid, for a kernel G(c_x - c_y) k(u_x, u_y).

    The grid's kernel matrix is then R (x) G, so the sum is
    R @ weights @ G^T.  R is the kernel on the u-line at c = 0 divided by
    G(0); G is ``gaussian_1d`` of the c differences.
    """
    line = _pair_points(u, np.zeros(1))
    rel = np.asarray(kernel.evaluate(line[:, None, :], line[None, :, :], tau))
    rel = rel / gaussian_1d(0.0, tau)
    return rel @ weights @ gaussian_1d(c[:, None] - c[None, :], tau).T


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
    fundamental sector and contributes chi(sigma) K(x, sigma z), summed
    by ``group_sum``.
    """
    if kernel.space != "full":
        raise ValueError("need a full-space kernel")
    pts, wts = quad.rule(kernel.n)
    weights = wts * np.asarray(psi0(pts))
    return group_sum(lambda moved: _integrate_rule(kernel, targets, moved, weights, tau),
                     pts, stat)


def propagate_operator(op: GridOperator, psi0_values: np.ndarray, tau: float) -> np.ndarray:
    """Imaginary-time evolution of node values by the grid Hamiltonian."""
    hat = np.sqrt(op.mass) * np.asarray(psi0_values)
    evolved = expm_multiply((-tau) * op.matrix, hat)
    return evolved / np.sqrt(op.mass)


def ground_state_projection_check(op: GridOperator, tau: float) -> dict:
    """Long-time evolution against the eigensolver's ground state.

    Returns the overlap of the normalized evolved state with the ground
    eigenvector (mass inner product) and the spectral gap used.  The two
    lowest levels are solved from seed 0, which also draws the noise
    added to the Gaussian start.
    """
    res = solve(op, 2, seed=0)
    rng = np.random.default_rng(0)
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
    """Propagate by tau1, then by tau2, through the pair rule of ``quad``:
    ``_factored_stage`` on wts * psi0 over the (u, c) grid, then the
    targets against the grid as in ``propagate_at``.  Anything but a
    two-particle sector kernel raises ValueError."""
    if kernel.space != "sector" or kernel.n != 2:
        raise ValueError(f"need a two-particle sector kernel, got a {kernel.space} "
                         f"kernel with n = {kernel.n}")
    u, wu, c, wc = quad.pair_rule()
    grid = _pair_points(u, c)
    wts = np.outer(wu, wc)
    stage1 = _factored_stage(kernel, u, c, wts * np.asarray(psi0(grid)).reshape(wts.shape),
                             tau1)
    return _integrate_rule(kernel, targets, grid, (wts * stage1).ravel(), tau2)


def _kernel_entries(op: GridOperator, t: float, rows: np.ndarray,
                    cols: np.ndarray) -> np.ndarray:
    """Entries (rows, cols) of the evolution kernel exp(-i t M^{-1} A) M^{-1}
    in node coordinates.

    ``op.matrix`` is the real symmetric A_hat = M^{-1/2} A M^{-1/2}; with
    A_hat = V diag(lam) V^T the kernel is L diag(exp(-i t lam)) L^T,
    L = M^{-1/2} V, so one eigendecomposition gives any block of it.
    The eigendecomposition overwrites a Fortran-ordered dense copy of
    A_hat, whose buffer then holds V and, scaled in place, L; L is freed
    once the two blocks' rows are gathered, before their product.  Each
    step runs the same operations on the same values as copying ones, so
    the entries are bitwise theirs.
    """
    lam, low = eigh(op.matrix.toarray(order="F"), driver="evd", overwrite_a=True)
    low /= np.sqrt(op.mass)[:, None]
    left, right = low[rows] * np.exp(-1j * t * lam), low[cols]
    del low
    return left @ right.T


def real_time_cross_check(dom: DomainSpec, model, t: float) -> dict:
    """Finite-matrix test of the dual kernel reconstruction in real time.

    Builds the unreduced full-space delta and epsilon Hamiltonians and
    the reduced sector pencil on the same staggered lattice and
    diagonalizes each once (``_kernel_entries``).  Of the full kernels it
    forms only the rows of the strict nodes and the columns of their
    group images; of the reduced one the whole matrix, whose largest
    entry sets the scale.  It compares the character-weighted sums of the
    full kernels at strict node pairs with the direct sector kernel
    (times the group order, which converts full-box node weights to
    sector ones).  Returns the max-norm deviations of the two sums,
    ``bose_deviation`` and ``fermi_deviation``, relative to that scale,
    and the ``time``.
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
    return {"bose_deviation": dev_b, "fermi_deviation": dev_f, "time": t}
