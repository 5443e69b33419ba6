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
the reduced kernel off one eigendecomposition of the reduced operator,
and each full kernel's character sum off one of the full operator's
symmetric (delta) or antisymmetric (epsilon) block, about 1/n! of it:
an operator that commutes with the permutations of its dofs maps that
block to itself, and the sum sees nothing else.  How far each full
operator is from commuting is measured and reported with the sums.

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
from scipy import sparse
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


def _character_sums(op: GridOperator, stat: Statistics, t: float,
                    strict: np.ndarray) -> tuple[np.ndarray, float]:
    """sum_sigma chi(sigma) K(x, sigma y) at every pair of strict
    descending vertex tuples x, y of ``strict``, K the evolution kernel
    of ``_kernel_entries`` for the unreduced ``op``, and the commutation
    residual of ``op`` (``_commutation_residual``).

    With P = (1/n!) sum_sigma chi(sigma) R_sigma, the sum is n! (K P)(x, y).
    When A_hat and the mass commute with every R_sigma, K P = M^-1/2 B
    exp(-i t B^T A_hat B) B^T M^-1/2 for an orthonormal basis B of the
    range of P (``_character_basis``), so only the dense B^T A_hat B is
    diagonalized, about dim / n! rows.  The lumped mass is the same at
    every dof of an orbit, since the n! images of an element have one
    volume; A_hat is measured by the residual.
    """
    signs = group_table(op.dom.n)[1]
    table, action = _group_action(op)
    if op.region_ranks is not None:
        # a strict descending tuple lies in the identity's region, rank 0
        strict = np.column_stack([strict, np.zeros(len(strict), dtype=np.int64)])
    rows = table.rank(strict)
    basis = _character_basis(action, np.broadcast_to(stat.character(signs), signs.shape))
    block = (basis.T @ op.matrix @ basis).toarray(order="F")
    lam, vec = eigh(block, driver="evd", overwrite_a=True)
    low = (basis[rows] @ vec) / np.sqrt(op.mass[rows])[:, None]
    del vec
    sums = (low * np.exp(-1j * t * lam)) @ low.T
    sums *= signs.size  # in place: the check holds one kernel-sized block less
    return sums, _commutation_residual(op, action)


def real_time_cross_check(dom: DomainSpec, model, t: float) -> dict:
    """Finite-matrix test of the dual kernel reconstruction in real time.

    Builds the unreduced full-space delta and epsilon Hamiltonians and
    the reduced sector pencil on the same staggered lattice.  The reduced
    kernel comes whole from one eigendecomposition (``_kernel_entries``);
    its largest entry sets the scale.  Of each full kernel only its
    character-weighted sum over the group images of the second argument
    is formed, at the strict node pairs: the sum is the kernel on the
    symmetric (delta, chi = 1) or antisymmetric (epsilon, chi = sign)
    block, so only that block, about 1/n! of the operator, is
    diagonalized (``_character_sums``).  It compares these sums with the
    direct sector kernel (times the group order, which converts full-box
    node weights to sector ones).

    The block carries the whole image sum only if the operator commutes
    with the group action on its dofs; ``bose_commutation`` and
    ``fermi_commutation`` are max_sigma |R_sigma A_hat R_sigma^T -
    A_hat|_max / |A_hat|_max.  Returns these, the max-norm deviations of
    the two sums, ``bose_deviation`` and ``fermi_deviation``, relative to
    the scale, and the ``time``.
    """
    fact = math.factorial(dom.n)

    op_red = build_delta_bose(dom, model, reduced=True)
    op_bose = build_delta_bose(dom, model, reduced=False)
    op_fermi = build_epsilon_fermi(dom, model, reduced=False)

    strict = np.all(op_red.dofs[:, :-1] > op_red.dofs[:, 1:], axis=-1)
    strict_tuples = op_red.dofs[strict]
    red_idx = DofTable(op_red.dofs, op_red.lattice.size).rank(strict_tuples)

    every = np.arange(op_red.dimension)
    k_red = _kernel_entries(op_red, t, every, every)
    scale = float(np.max(np.abs(k_red)))
    direct = fact * k_red[np.ix_(red_idx, red_idx)]
    del k_red

    deviation, commutation = {}, {}
    for name, op, stat in (("bose", op_bose, Statistics.BOSE),
                           ("fermi", op_fermi, Statistics.FERMI)):
        sums, commutation[name] = _character_sums(op, stat, t, strict_tuples)
        deviation[name] = float(np.max(np.abs(sums - direct))) / scale
        del sums
    return {"bose_deviation": deviation["bose"], "fermi_deviation": deviation["fermi"],
            "bose_commutation": commutation["bose"],
            "fermi_commutation": commutation["fermi"], "time": t}
