"""Geometry of n particles on a line.

The coincidence-free configuration space splits into n! open sectors, one
per ordering of the coordinates; the physical configuration space is the
single descending sector x_1 > x_2 > ... > x_n.  Normalized Jacobi
coordinates give an orthogonal frame separating the center of mass from
the relative motion, and the hyperradius is the rotation-invariant size
of the relative configuration:

    xi_j = (x_1 + ... + x_j - j x_{j+1}) / sqrt(j (j+1)),  j = 1..n-1
    xi_n = (x_1 + ... + x_n) / sqrt(n)
    r^2  = xi_1^2 + ... + xi_{n-1}^2 = (1/n) sum_{j<k} (x_j - x_k)^2

In the Jacobi frame the descending sector becomes the wedge
0 < c_1 xi_1 < c_2 xi_2 < ... with c_j = sqrt(j (j+1) / 2).

``canonicalize`` sorts one point into the sector with
``permutations.sort_descending`` and rejects points on the coincidence
set; batches are sorted and signed by ``sort_descending`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TiedCoordinates
from .permutations import Permutation, sort_descending

#: Relative tolerance below which two coordinates count as coincident.
COINCIDENCE_RTOL = 1e-12


def coincidence_tolerance(a: float, b: float) -> float:
    return COINCIDENCE_RTOL * max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class ConfigPoint:
    """Point of the coincidence-free space: pairwise distinct coordinates."""

    coords: tuple

    def __post_init__(self):
        x = np.sort(np.asarray(self.coords, dtype=float))
        for a, b in zip(x[:-1], x[1:]):
            if b - a < coincidence_tolerance(a, b):
                raise TiedCoordinates(f"coincident coordinates {a} and {b}")

    @property
    def n(self) -> int:
        return len(self.coords)

    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


@dataclass(frozen=True)
class SectorPoint:
    """Point of the descending sector x_1 > x_2 > ... > x_n."""

    coords: tuple

    def __post_init__(self):
        x = np.asarray(self.coords, dtype=float)
        for a, b in zip(x[:-1], x[1:]):
            if a - b < coincidence_tolerance(a, b):
                raise TiedCoordinates(f"not strictly decreasing at {a}, {b}")

    @property
    def n(self) -> int:
        return len(self.coords)

    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


@dataclass(frozen=True)
class JacobiPoint:
    """Jacobi image of a point: relative coordinates, hyperradius, unit
    direction on the relative sphere, and center-of-mass coordinate."""

    xi: tuple
    r: float
    unit: tuple
    cm: float

    @property
    def n(self) -> int:
        return len(self.xi)


@lru_cache(maxsize=None)
def jacobi_matrix(n: int) -> np.ndarray:
    """Orthogonal matrix J with xi = J x."""
    if n < 1:
        raise ValueError("n must be >= 1")
    mat = np.zeros((n, n))
    for j in range(1, n):
        mat[j - 1, :j] = 1.0
        mat[j - 1, j] = -j
        mat[j - 1] /= np.sqrt(j * (j + 1))
    mat[n - 1, :] = 1.0 / np.sqrt(n)
    return mat


def jacobi_transform(x: np.ndarray) -> np.ndarray:
    """xi = J x for one point or a batch shaped (..., n)."""
    x = np.asarray(x, dtype=float)
    return x @ jacobi_matrix(x.shape[-1]).T


def jacobi_inverse_transform(xi: np.ndarray) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    return xi @ jacobi_matrix(xi.shape[-1])


def to_jacobi(point) -> JacobiPoint:
    """Jacobi data of a configuration point (defined on all of R^n)."""
    x = point.array() if hasattr(point, "array") else np.asarray(point, dtype=float)
    xi = jacobi_transform(x)
    rel = xi[:-1]
    r = float(np.sqrt(np.sum(rel**2)))
    if x.shape[-1] == 2:
        unit = ()  # a single relative coordinate has no hyperangle
    elif r > 0:
        unit = tuple(rel / r)
    else:
        unit = tuple(np.zeros_like(rel))
    return JacobiPoint(xi=tuple(xi), r=r, unit=unit, cm=float(xi[-1]))


def from_jacobi(j: JacobiPoint) -> np.ndarray:
    """Cartesian coordinates recovering to_jacobi up to round-off."""
    return jacobi_inverse_transform(np.asarray(j.xi, dtype=float))


def hyperradius(x) -> float:
    """Translation-invariant size sqrt((1/n) sum_{j<k} (x_j - x_k)^2)."""
    x = x.array() if hasattr(x, "array") else np.asarray(x, dtype=float)
    return float(hyperradius_batch(x[None, :])[0])


def hyperradius_batch(x: np.ndarray) -> np.ndarray:
    """Hyperradius for a batch shaped (..., n).

    Computed from mean-centered coordinates; the textbook form
    x.x - (sum x)^2 / n cancels catastrophically near total coincidence.
    """
    x = np.asarray(x, dtype=float)
    shifted = x - x[..., :1]  # exact translation, zero for total coincidence
    centered = shifted - np.mean(shifted, axis=-1, keepdims=True)
    return np.sqrt(np.sum(centered**2, axis=-1))


def sector_wedge_coefficients(n: int) -> np.ndarray:
    """c_j = sqrt(j (j+1) / 2) scaling the Jacobi wedge inequalities."""
    j = np.arange(1, n)
    return np.sqrt(j * (j + 1) / 2.0)


def in_sector_jacobi(xi, atol: float = 0.0) -> bool:
    """Whether relative Jacobi coordinates lie in the descending wedge."""
    xi = np.asarray(xi, dtype=float)
    n = xi.shape[-1]
    scaled = sector_wedge_coefficients(n) * xi[:-1]
    chain = np.concatenate(([0.0], scaled))
    return bool(np.all(np.diff(chain) > atol))


def canonicalize(point):
    """Sort a configuration point into the descending sector.

    Returns (SectorPoint y, Permutation sigma) with y_i = x_{sigma(i)}.
    Raises TiedCoordinates when two coordinates are closer than the
    coincidence tolerance, i.e. the point effectively lies on the
    coincidence set and the sorting permutation is ambiguous.
    """
    x = point.array() if hasattr(point, "array") else np.asarray(point, dtype=float)
    y, order, _ = sort_descending(x)
    for a, b in zip(y[:-1], y[1:]):
        if a - b < coincidence_tolerance(a, b):
            raise TiedCoordinates(f"cannot order coincident coordinates {a}, {b}")
    return SectorPoint(tuple(y)), Permutation(tuple(int(i) for i in order))

