"""Check of the sector folding identity for integrals.

Integrating a test function over the coincidence-free space equals
integrating its permutation-symmetrized sum over the single descending
sector: the n! ordering sectors are carried onto each other by the group
action, and the coincidence set has measure zero.  Both sides are
computed with independent adaptive quadratures and compared;
``fold_integral_check`` returns both sides and their relative residual
as the plain dict the fold-check report reads.  ``random_gaussian``
draws the anisotropic Gaussian test functions the command checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .permutations import Statistics, group_sum
from .quadrature import integrate_box, integrate_sector

#: Smallest |lhs| the residual is taken relative to.
RESIDUAL_FLOOR = 1e-12
#: Value of a test function at the edge of its support box.
SUPPORT_DROP = 1e-16


def fold_integral_check(f, box, tol: float, order: int) -> dict:
    """Compare the full-space integral of f with the folded sector integral.

    f must be vectorized over points shaped (M, n) and negligible outside
    the truncation box (n, 2); ``tol`` and ``order`` are both adaptive
    quadratures' tolerance and Gauss order.  The sector side integrates
    sum_sigma f(sigma y) over the descending sector of the cube hulling
    the box.  Returns the fold report's entry: both values, ``lhs`` and
    ``rhs``, and the relative ``residual`` |lhs - rhs| / max(|lhs|,
    RESIDUAL_FLOOR).
    """
    box = np.asarray(box, dtype=float)
    n = box.shape[0]
    lhs, _ = integrate_box(f, box, tol, order)

    def symmetrized(y):
        return group_sum(f, y, Statistics.BOSE)

    lo = float(np.min(box[:, 0]))
    hi = float(np.max(box[:, 1]))
    rhs, _ = integrate_sector(symmetrized, lo, hi, n, tol, order)
    residual = abs(lhs - rhs) / max(abs(lhs), RESIDUAL_FLOOR)
    return {"lhs": float(lhs), "rhs": float(rhs), "residual": float(residual)}


@dataclass
class GaussianTestFunction:
    """Anisotropic Gaussian exp(-(y-mu)^T A (y-mu)), A symmetric positive."""

    matrix: np.ndarray
    center: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.center = np.asarray(self.center, dtype=float)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        d = np.asarray(y, dtype=float) - self.center
        # (d A d^T)_mm as a sum over the n rows of d.T, fast for row-major
        # points and for the column-major ones a y[..., image] gather returns
        return np.exp(-(d.T * (self.matrix @ d.T)).sum(0))

    def support_box(self) -> np.ndarray:
        """Per-axis box (n, 2) outside which the function is below
        ``SUPPORT_DROP``."""
        lam_min = np.linalg.eigvalsh(self.matrix)[0]
        radius = np.sqrt(-np.log(SUPPORT_DROP) / lam_min)
        lo = self.center - radius
        hi = self.center + radius
        return np.stack([lo, hi], axis=-1)

    def exact_integral(self) -> float:
        """Closed form over all of R^n."""
        n = self.matrix.shape[0]
        return float(np.pi ** (n / 2.0) / np.sqrt(np.linalg.det(self.matrix)))


def random_gaussian(n: int, rng: np.random.Generator) -> GaussianTestFunction:
    """Random well-conditioned anisotropic Gaussian for fold checks."""
    basis = rng.normal(size=(n, n))
    q, _ = np.linalg.qr(basis)
    scales = rng.uniform(0.6, 2.5, size=n)
    mat = q @ np.diag(scales) @ q.T
    center = rng.uniform(-0.8, 0.8, size=n)
    return GaussianTestFunction(matrix=mat, center=center)
