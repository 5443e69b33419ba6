"""Check of the sector folding identity for integrals.

Integrating a test function over the coincidence-free space equals
integrating its permutation-symmetrized sum over the single descending
sector: the n! ordering sectors are carried onto each other by the group
action, and the coincidence set has measure zero.  Both sides are
computed with independent adaptive quadratures and compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .permutations import enumerate_group
from .quadrature import integrate_box, integrate_sector


@dataclass
class QuadSpec:
    """Truncation box and adaptive-quadrature controls."""

    box: np.ndarray  # (n, 2) truncation bounds per axis
    tol: float = 1e-9
    order: int = 8
    start_cells: int = 2
    max_doublings: int = 6
    floor: float = 1e-12

    def __post_init__(self):
        self.box = np.asarray(self.box, dtype=float)


@dataclass
class FoldCheckResult:
    lhs: float
    rhs: float
    residual: float
    lhs_error: float
    rhs_error: float


def fold_integral_check(f, quad: QuadSpec) -> FoldCheckResult:
    """Compare the full-space integral of f with the folded sector integral.

    f must be vectorized over points shaped (M, n).  The sector side
    integrates sum_sigma f(sigma y) over the descending sector of the
    cube hulling the truncation box.  Returns both values and the
    relative residual |lhs - rhs| / max(|lhs|, floor).
    """
    n = quad.box.shape[0]
    group = enumerate_group(n)
    lhs, lhs_err = integrate_box(
        f, quad.box, tol=quad.tol, order=quad.order,
        start_cells=quad.start_cells, max_doublings=quad.max_doublings,
    )

    def symmetrized(y):
        total = np.zeros(y.shape[0])
        for sigma in group:
            total = total + f(sigma.apply(y))
        return total

    lo = float(np.min(quad.box[:, 0]))
    hi = float(np.max(quad.box[:, 1]))
    rhs, rhs_err = integrate_sector(
        symmetrized, lo, hi, n, tol=quad.tol, order=quad.order,
        start_cells=quad.start_cells, max_doublings=quad.max_doublings,
    )
    residual = abs(lhs - rhs) / max(abs(lhs), quad.floor)
    return FoldCheckResult(lhs=float(lhs), rhs=float(rhs), residual=float(residual),
                           lhs_error=float(lhs_err), rhs_error=float(rhs_err))


@dataclass
class GaussianTestFunction:
    """Anisotropic Gaussian exp(-(y-mu)^T A (y-mu)), A symmetric positive."""

    matrix: np.ndarray
    center: np.ndarray
    linear: np.ndarray = field(default=None)  # optional odd prefactor c . y

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.center = np.asarray(self.center, dtype=float)
        if self.linear is not None:
            self.linear = np.asarray(self.linear, dtype=float)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        d = np.asarray(y, dtype=float) - self.center
        # (d A d^T)_mm as a sum over the n rows of d.T, fast for row-major
        # points and for the column-major ones Permutation.apply returns
        vals = np.exp(-(d.T * (self.matrix @ d.T)).sum(0))
        if self.linear is not None:
            vals = vals * (y @ self.linear)
        return vals

    def support_box(self, drop: float = 1e-16) -> np.ndarray:
        lam_min = np.linalg.eigvalsh(self.matrix)[0]
        radius = np.sqrt(-np.log(drop) / lam_min)
        lo = self.center - radius
        hi = self.center + radius
        return np.stack([lo, hi], axis=-1)

    def exact_integral(self) -> float:
        """Closed form over all of R^n (only for the pure Gaussian)."""
        if self.linear is not None:
            raise ValueError("no closed form with the linear prefactor")
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
