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
kernels must reproduce the reduced sector evolution exactly.  Every
kernel it forms comes from one eigendecomposition of an operator on an
orthonormal basis (``_evolution_kernel``): the reduced operator on the
identity, and each full operator on its symmetric (delta) or
antisymmetric (epsilon) block, about 1/n! of it.  An operator that
commutes with the permutations of its dofs maps that block to itself,
and the character sum sees nothing else.  How far each full operator is
from commuting is measured and reported with the sums.

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

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import expm_multiply

from .coupling import SQRT2
from .kernels import KernelEvaluator, gaussian_1d
from .mesh import DofTable
from .operators import DomainSpec, GridOperator, build_delta_bose, build_epsilon_fermi
# Nothing here calls expm or solve.  Both stay importable on this module
# because the benchmark's tracer (perfbench/tracing.py) wraps them here
# by name; ROADMAP item 3, the benchmark repair, drops them.
from scipy.linalg import expm  # noqa: F401
from .operators import solve  # noqa: F401
from .permutations import Statistics, group_sum, group_table, permutation_ranks
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


def _evolution_kernel(op: GridOperator, basis: sparse.csr_matrix, rows: np.ndarray,
                      t: float) -> np.ndarray:
    """The evolution kernel exp(-i t M^{-1} A) M^{-1} of ``op`` on the span
    of the orthonormal ``basis`` (dim, k), at the pairs of node ``rows``.

    ``op.matrix`` is the real symmetric A_hat = M^{-1/2} A M^{-1/2}; with
    B^T A_hat B = V diag(lam) V^T the kernel is L diag(exp(-i t lam)) L^T,
    L = M^{-1/2} B V, so one eigendecomposition of the dense k-row
    B^T A_hat B gives it.  The identity basis gives the whole kernel.  The
    eigendecomposition overwrites its Fortran-ordered copy of the block,
    and the rows of L are freed, once their complex transpose is formed,
    before the product.
    """
    block = (basis.T @ op.matrix @ basis).toarray(order="F")
    lam, vec = eigh(block, driver="evd", overwrite_a=True)
    low = (basis[rows] @ vec) / np.sqrt(op.mass[rows])[:, None]
    del vec
    left, right = low * np.exp(-1j * t * lam), low.T.astype(complex)
    del low
    return left @ right


def _group_action(op: GridOperator):
    """S_n acting on the dofs of an unreduced operator.

    Returns the dofs' ``DofTable`` and the (n!, dim) table whose row s
    maps each dof d to sigma_s d, sigma_s the row s of ``group_table``.
    A vertex tuple x goes to x[..., sigma]; on the cracked mesh a dof is
    keyed by its vertex and its region's rank, and the region order pi
    of x goes to sigma^-1 pi, the descending order of x[..., sigma].
    """
    images = group_table(op.dom.n)[0]
    keys = op.dofs
    moved = op.dofs[:, images]  # (dim, n!, n)
    if op.region_ranks is not None:
        keys = np.column_stack([op.dofs, op.region_ranks])
        inverse = np.argsort(images, axis=1)
        regions = permutation_ranks(inverse[:, images[op.region_ranks]]).T
        moved = np.concatenate([moved, regions[..., None]], axis=-1)
    table = DofTable(keys, max(op.lattice.size, images.shape[0]))
    return table, table.rank(moved).T


def _commutation_residual(op: GridOperator, action: np.ndarray) -> float:
    """max over sigma of |R_sigma A_hat R_sigma^T - A_hat|_max / |A_hat|_max."""
    a = op.matrix
    worst = max(abs(a[perm][:, perm] - a).max() for perm in action)
    return float(worst / abs(a).max())


def _character_basis(action: np.ndarray, chi: np.ndarray) -> sparse.csr_matrix:
    """Orthonormal basis (dim, orbits) of the vectors v with
    v[sigma d] = chi(sigma) v[d]: per orbit of the action, the sum of
    chi(sigma) e_(sigma d) over the group from its first dof d, scaled to
    unit norm, or dropped where it cancels (an odd permutation fixing d
    under the sign character)."""
    first = np.unique(action.min(axis=0))
    rows = action[:, first].ravel()
    cols = np.repeat(np.arange(first.size)[None, :], action.shape[0], axis=0).ravel()
    vals = np.repeat(chi, first.size).astype(float)
    basis = sparse.csc_matrix((vals, (rows, cols)), shape=(action.shape[1], first.size))
    norms = np.sqrt(np.asarray(basis.multiply(basis).sum(axis=0))).ravel()
    live = np.flatnonzero(norms)
    return (basis[:, live] @ sparse.diags(1.0 / norms[live])).tocsr()


def real_time_cross_check(dom: DomainSpec, model, t: float) -> dict:
    """Finite-matrix test of the dual kernel reconstruction in real time.

    Builds the unreduced full-space delta and epsilon Hamiltonians and
    the reduced sector pencil on the same staggered lattice.  Every kernel
    comes from ``_evolution_kernel``.  The reduced kernel is formed whole,
    on the identity basis; its largest entry sets the scale.  Of each full
    kernel only its character-weighted sum over the group images of the
    second argument is formed, at the strict node pairs.  With
    P = (1/n!) sum_sigma chi(sigma) R_sigma the sum is n! (K P)(x, y), and
    when A_hat and the mass commute with every R_sigma, K P is the kernel
    on an orthonormal basis of the range of P (``_character_basis``): the
    symmetric (delta, chi = 1) or antisymmetric (epsilon, chi = sign)
    block, about 1/n! of the operator.  The lumped mass is the same at
    every dof of an orbit, since the n! images of an element have one
    volume.  It compares these sums with the direct sector kernel (times
    the group order, which converts full-box node weights to sector ones).

    The block carries the whole image sum only if the operator commutes
    with the group action on its dofs; ``bose_commutation`` and
    ``fermi_commutation`` are max_sigma |R_sigma A_hat R_sigma^T -
    A_hat|_max / |A_hat|_max.  Returns these, the max-norm deviations of
    the two sums, ``bose_deviation`` and ``fermi_deviation``, relative to
    the scale, and the ``time``.
    """
    signs = group_table(dom.n)[1]
    op_red = build_delta_bose(dom, model, reduced=True)
    strict = op_red.dofs[np.all(op_red.dofs[:, :-1] > op_red.dofs[:, 1:], axis=-1)]
    red_idx = DofTable(op_red.dofs, op_red.lattice.size).rank(strict)
    dim = op_red.dimension
    k_red = _evolution_kernel(op_red, sparse.identity(dim, format="csr"), np.arange(dim), t)
    scale = float(np.max(np.abs(k_red)))
    direct = signs.size * k_red[np.ix_(red_idx, red_idx)]
    del k_red

    out = {"time": t}
    for name, build, stat in (("bose", build_delta_bose, Statistics.BOSE),
                              ("fermi", build_epsilon_fermi, Statistics.FERMI)):
        op = build(dom, model, reduced=False)
        table, action = _group_action(op)
        # a strict descending tuple lies in the identity's region, rank 0
        keys = (strict if op.region_ranks is None
                else np.column_stack([strict, np.zeros(len(strict), dtype=np.int64)]))
        basis = _character_basis(action, np.broadcast_to(stat.character(signs), signs.shape))
        sums = _evolution_kernel(op, basis, table.rank(keys), t)
        sums *= signs.size  # in place: the check holds one kernel-sized block less
        out[f"{name}_deviation"] = float(np.max(np.abs(sums - direct))) / scale
        del sums
        out[f"{name}_commutation"] = _commutation_residual(op, action)
    return out
