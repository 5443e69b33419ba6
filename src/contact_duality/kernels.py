"""Imaginary-time propagators on the full space and on the sector.

All kernels are heat kernels in units hbar = m = 1, normalized so that
d/dtau K = (1/2) Laplacian K.  The free kernel is the n-dimensional
Gaussian; the two-body pair kernel with a Robin face separates into a
free center-of-mass factor times a half-line kernel that satisfies the
face condition exactly:

    k_rel(u, v; tau) = phi(u - v) + phi(u + v)
                       - gamma e^{gamma w + gamma^2 tau / 2}
                         erfc((w + gamma tau) / sqrt(2 tau)),  w = u + v,

with phi the one-dimensional heat kernel and gamma = 1 / (sqrt(2) a).
The correction term reduces to the image sums in the Dirichlet
(a -> 0) and Neumann (1/a -> 0) limits and carries the bound state for
a < 0 through its e^{gamma^2 tau / 2} growth.  The Neumann face is this
formula at gamma = 0, where the correction is exactly zero; only the
Dirichlet face keeps a closed form of its own, the image difference.
Its erfcx/erfc calls are most of the pair kernel's cost, so when the
targets and the rule share no point axis (targets against a rule) k_rel
is tabulated over the distinct relative coordinates of each side and
gathered; equal floats give equal values, so the result is bitwise the
direct evaluation: no key is rounded and nothing is cached between
calls.

Sector kernels arise from full-space ones as character-weighted sums
over the group, ``permutations.group_sum``; conversely a sector kernel
induces the dual pair of exchange-symmetric full-space kernels through
the sorting permutation of each argument (``sort_descending``).  For
the free kernel, a product of one-body factors, the sum is the
permanent (bosons) or the determinant (fermions) of the one-body matrix
(Karlin and McGregor, Pacific J. Math. 9, 1959).  ``permutation_sum`` evaluates it from the n x n table of
one-body exponents, with no full-space evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, erfcx

from .coupling import SQRT2, BoundaryCoupling, dirichlet, neumann
from .permutations import Statistics, group_sum, group_table, sort_descending

#: log of the smallest normal double.  Closed-form permutation sums flush
#: exponents below it to exact zero: each such term is below 2.3e-308,
#: and numpy's exp is about 100 times slower on a subnormal result.
LOG_TINY = math.log(np.finfo(float).tiny)
#: log of the largest double.  An attractive Robin pair kernel's bound
#: state grows as e^{gamma^2 tau / 2}; past this exponent it overflows.
LOG_HUGE = math.log(np.finfo(float).max)


def _points(x, n):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[-1] != n:
        raise ValueError(f"points must have {n} coordinates")
    return x


@dataclass
class KernelEvaluator:
    """Vectorized propagator K(x, y; tau) with its contract metadata.

    ``evaluate`` broadcasts over leading point axes; ``space`` is
    'full' or 'sector'; ``coupling`` is the face condition of a sector
    kernel (and of the full-space kernels it induces), None for a free
    full-space kernel.
    ``pair_face_residual``, present on Robin and Neumann pair kernels
    (every face with a derivative), returns the face boundary operator
    applied to the kernel analytically.
    ``log_one_body``, when present, marks a product kernel
    K(x, y; tau) = exp(sum_i log_one_body(x_i, y_i, tau)); it acts
    elementwise on broadcastable coordinate arrays, and permutation sums
    use it to evaluate in closed form.
    """

    evaluate: callable
    space: str
    n: int
    coupling: object = None
    label: str = ""
    pair_face_residual: callable = None
    log_one_body: callable = None

    def __call__(self, x, y, tau):
        return self.evaluate(x, y, tau)


def gaussian_1d(z: np.ndarray, tau: float) -> np.ndarray:
    """One-dimensional heat kernel exp(-z^2 / (2 tau)) / sqrt(2 pi tau)."""
    return _gaussian_in_place(np.array(z, dtype=float), tau)


def _gaussian_in_place(z: np.ndarray, tau: float) -> np.ndarray:
    """Overwrite the float array z with gaussian_1d(z, tau) and return it.

    This is the one operation sequence of the Gaussian: square, divide by
    -2 tau, exp, divide by sqrt(2 pi tau).  z^2 / (-2 tau) rounds exactly
    as (-z) z / (2 tau) does, so it is bitwise the textbook expression.
    """
    np.square(z, out=z)
    np.divide(z, -2.0 * tau, out=z)
    np.exp(z, out=z)
    np.divide(z, np.sqrt(2.0 * np.pi * tau), out=z)
    return z


def free_kernel(n: int) -> KernelEvaluator:
    """Heat kernel of n free particles on the line."""

    def evaluate(x, y, tau):
        x = _points(x, n)
        y = _points(y, n)
        d2 = np.sum((x - y) ** 2, axis=-1)
        out = np.exp(-d2 / (2.0 * tau)) / (2.0 * np.pi * tau) ** (n / 2.0)
        return out

    return KernelEvaluator(evaluate=evaluate, space="full", n=n, coupling=None,
                           label=f"free[{n}]", log_one_body=log_gaussian_1d)


def log_gaussian_1d(u, v, tau: float) -> np.ndarray:
    """log of the one-dimensional heat kernel between u and v."""
    d = np.subtract(u, v, dtype=float)
    d *= d
    d *= -0.5 / tau
    d -= 0.5 * math.log(2.0 * math.pi * tau)
    return d


def relative_half_line_kernel(entry: BoundaryCoupling):
    """Half-line heat kernel k(u, v; tau) with the face condition
    du k = gamma k at u = 0, gamma = 1/(sqrt2 a), plus its u-derivative.

    Returns (kernel, derivative) callables on arrays; the derivative,
    read by the analytic face residual, is None for Dirichlet data,
    whose kernel is the image difference.  A Neumann face is the Robin
    one at 1/a = 0: gamma = 0 makes the correction exactly +0.0, so its
    values are bitwise the image sum.  A scale-invariant face has no
    constant a and raises UnsupportedCoupling.
    """
    if entry.kind == "dirichlet":
        def kernel(u, v, tau):
            return gaussian_1d(u - v, tau) - gaussian_1d(u + v, tau)

        return kernel, None
    gamma = entry.rate

    def correction(w, tau):
        # gamma * exp(gamma w + gamma^2 tau / 2) erfc((w + gamma tau)/sqrt(2 tau)),
        # evaluated through erfcx where the argument is positive to avoid
        # overflow of the two exponential factors separately.
        w = np.atleast_1d(np.asarray(w, dtype=float))
        z = (w + gamma * tau) / np.sqrt(2.0 * tau)
        out = np.empty_like(w)
        pos = z >= 0
        out[pos] = gamma * erfcx(z[pos]) * np.exp(-w[pos] ** 2 / (2.0 * tau))
        neg = ~pos
        out[neg] = gamma * np.exp(gamma * w[neg] + gamma * gamma * tau / 2.0) * erfc(z[neg])
        return out

    def kernel(u, v, tau):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        v = np.atleast_1d(np.asarray(v, dtype=float))
        return gaussian_1d(u - v, tau) + gaussian_1d(u + v, tau) - correction(u + v, tau)

    def derivative(u, v, tau):
        # d/dw of the correction is gamma * correction - 2 gamma phi(w)
        u = np.atleast_1d(np.asarray(u, dtype=float))
        v = np.atleast_1d(np.asarray(v, dtype=float))
        w = u + v
        corr = correction(w, tau)
        dcorr = gamma * corr - 2.0 * gamma * gaussian_1d(w, tau)
        return (-(u - v) * gaussian_1d(u - v, tau)
                - w * gaussian_1d(w, tau)) / tau - dcorr

    return kernel, derivative


def robin_pair_kernel(entry: BoundaryCoupling) -> KernelEvaluator:
    """Two-body sector kernel: free center of mass times the half-line
    relative kernel satisfying the face condition of ``entry`` (robin,
    dirichlet or neumann).

    The result is G(c_x - c_y) k_rel(u_x, u_y) with G = gaussian_1d,
    computed in place in the output.  When x and y both hold more than
    one point and share no point axis (an outer product in any axis
    order, such as the (b, 1, 2) x (1, M, 2) blocks of propagation),
    k_rel is evaluated once on the table of distinct relative
    coordinates, u_x by u_y, and gathered over the broadcast.  k_rel
    acts elementwise and np.unique merges only equal floats (and +0.0
    with -0.0, which k_rel does not tell apart), so the result is
    bitwise the unfactored formula's.  Single points, pairwise
    (N, 2) x (N, 2) inputs and shared axes are evaluated elementwise.
    """
    k_rel, dk_rel = relative_half_line_kernel(entry)

    def split(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        u = (x[..., 0] - x[..., 1]) / SQRT2
        c = (x[..., 0] + x[..., 1]) / SQRT2
        return u, c

    def evaluate(x, y, tau):
        ux, cx = split(x)
        uy, cy = split(y)
        out = np.subtract(cx, cy)
        if min(ux.size, uy.size) > 1 and ux.size * uy.size == out.size:
            vx, ix = np.unique(ux, return_inverse=True)
            vy, iy = np.unique(uy, return_inverse=True)
            rel = k_rel(vx[:, None], vy[None, :], tau)[ix.reshape(ux.shape),
                                                      iy.reshape(uy.shape)]
        else:
            rel = k_rel(ux, uy, tau)
        _gaussian_in_place(out, tau)
        out *= rel
        return out

    def face_residual(y, tau):
        """Robin face operator applied analytically at u = 0 (1/a = 0
        on a Neumann face).

        Returns max |(d/dx1 - d/dx2) K - (1/a) K| over an eight-point
        center-of-mass scan, scaled by the kernel magnitude.
        """
        uy, cy = split(y)
        c_scan = np.linspace(cy.min() - 1.0, cy.max() + 1.0, 8)
        cm = gaussian_1d(c_scan[:, None] - cy[None, :], tau)
        zero = np.zeros_like(uy)
        pair_derivative = SQRT2 * dk_rel(zero, uy, tau)[None, :] * cm
        value = k_rel(zero, uy, tau)[None, :] * cm
        resid = np.abs(pair_derivative - value / entry.length)
        scale = max(float(np.max(np.abs(value))), float(np.max(np.abs(pair_derivative))), 1e-300)
        return float(np.max(resid)) / scale

    return KernelEvaluator(evaluate=evaluate, space="sector", n=2, coupling=entry,
                           label=f"pair[{entry.label()}]",
                           pair_face_residual=None if dk_rel is None else face_residual)


def permutation_sum(kernel: KernelEvaluator, stat: Statistics) -> KernelEvaluator:
    """Sector kernel as the character-weighted sum over relabelings,
    sum_sigma chi(sigma) K(x, sigma y), over the rows of ``group_table``.

    For a product kernel (``kernel.log_one_body`` set) the sum is the
    permanent (Bose) or determinant (Fermi) of the one-body matrix
    k(x_i, y_j).  It is evaluated from the table t[i, j] = log k(x_i, y_j),
    built once per call on the broadcast batch shape, as
    sum_sigma chi(sigma) exp(sum_i t[i, sigma(i)]): no coordinate gathers
    and one exponential per group element.  Exponents below
    ``LOG_TINY`` are flushed to exact zero.  Other kernels are summed as
    n! full-space evaluations by ``group_sum``.  Summation order is the
    fixed lexicographic group order, so results are bitwise reproducible.

    The sum carries the face condition of ``kernel``; a free kernel's sum
    carries that of its statistics: Dirichlet for fermions, which are
    hard-core bosons (Girardeau), Neumann for bosons.
    """
    if kernel.space != "full":
        raise ValueError("permutation sum needs a full-space kernel")
    n = kernel.n
    images, signs = group_table(n)
    chars = [stat.character(sign) for sign in signs.tolist()]
    rows = images.tolist()

    def evaluate(x, y, tau):
        x = _points(x, n)
        return group_sum(lambda moved: kernel.evaluate(x, moved, tau), _points(y, n), stat)

    def evaluate_product(x, y, tau):
        x = _points(x, n)
        y = _points(y, n)
        # table[i, j] = log k(x_i, y_j), batch axes last so that every
        # entry is one contiguous array
        table = kernel.log_one_body(np.moveaxis(x, -1, 0)[:, None],
                                    np.moveaxis(y, -1, 0)[None, :], tau)
        total = np.zeros(table.shape[2:])
        exponent = np.empty_like(total)
        for chi, image in zip(chars, rows):
            np.copyto(exponent, table[0, image[0]])
            for i in range(1, n):
                exponent += table[i, image[i]]
            term = np.exp(exponent, out=np.zeros_like(total),
                          where=exponent >= LOG_TINY)
            if chi > 0:
                total += term
            else:
                total -= term
        return total

    face = kernel.coupling
    if face is None:
        face = dirichlet() if stat is Statistics.FERMI else neumann()
    return KernelEvaluator(
        evaluate=evaluate if kernel.log_one_body is None else evaluate_product,
        space="sector", n=n, coupling=face,
        label=f"sum[{stat.value},{kernel.label}]")


def dual_pair_from_sector(sector_kernel: KernelEvaluator):
    """Exchange-symmetric full-space kernels induced by a sector kernel.

    K_stat(x, y) = chi(sigma_x) chi(sigma_y) K_M(sort x, sort y) / n!,
    whose character-weighted sums both rebuild K_M on the sector.
    """
    if sector_kernel.space != "sector":
        raise ValueError("need a sector kernel")
    n = sector_kernel.n
    fact = math.factorial(n)

    def make(stat):
        def evaluate(x, y, tau):
            x = _points(x, n)
            y = _points(y, n)
            xs, _, sx = sort_descending(x)
            ys, _, sy = sort_descending(y)
            chi = stat.character(sx) * stat.character(sy)
            out = chi * np.asarray(sector_kernel.evaluate(xs, ys, tau)) / fact
            return out

        return KernelEvaluator(evaluate=evaluate, space="full", n=n,
                               coupling=sector_kernel.coupling,
                               label=f"dual[{stat.value},{sector_kernel.label}]")

    return make(Statistics.BOSE), make(Statistics.FERMI)
