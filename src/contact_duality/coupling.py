"""Per-face contact-coupling models.

Each codimension-1 face x_j = x_{j+1} of the descending sector carries
its own boundary parameter with the dimension of length: a finite Robin
length a_j, the Neumann limit (free bosons, 1/a -> 0), the Dirichlet
limit (hard core / free fermions, a -> 0), or the scale-invariant choice
a_j = g_j r with r the hyperradius, which is translation invariant and
introduces no length scale of its own.  The same model object feeds the
sector Hamiltonian, the delta-type boson Hamiltonian (strength 1/a_j)
and the epsilon-type fermion Hamiltonian (strength a_j); that shared
parametrization is the strong-weak pairing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, UnsupportedCoupling

#: sqrt(2), the norm of the pair direction e_j - e_{j+1}: in the pair
#: coordinate u = (x_j - x_{j+1}) / sqrt(2) a Robin length a becomes the
#: half-line rate gamma = 1 / (sqrt(2) a).
SQRT2 = math.sqrt(2.0)


def hyperradius_batch(x: np.ndarray) -> np.ndarray:
    """Translation-invariant size sqrt((1/n) sum_{j<k} (x_j - x_k)^2) of
    each point of a batch shaped (..., n).

    Computed from mean-centered coordinates; the textbook form
    x.x - (sum x)^2 / n cancels catastrophically near total coincidence.
    """
    x = np.asarray(x, dtype=float)
    shifted = x - x[..., :1]  # exact translation, zero for total coincidence
    centered = shifted - np.mean(shifted, axis=-1, keepdims=True)
    return np.sqrt(np.sum(centered**2, axis=-1))


@dataclass(frozen=True)
class BoundaryCoupling:
    """One face's coupling: kind in robin|neumann|dirichlet|scale."""

    kind: str
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in ("robin", "neumann", "dirichlet", "scale"):
            raise UnsupportedCoupling(f"unknown coupling kind {self.kind!r}")
        if self.kind == "robin" and self.value == 0.0:
            raise UnsupportedCoupling("robin length must be nonzero; use dirichlet")
        if self.kind == "scale" and self.value == 0.0:
            raise UnsupportedCoupling("scale-invariant factor must be nonzero")

    @property
    def length(self) -> float:
        """Constant boundary length a of the face: the Robin a, +inf for
        Neumann (1/a = 0), 0.0 for Dirichlet.  A scale-invariant face has
        none (``coupling_values_batch`` gives its a_j point by point)."""
        if self.kind == "scale":
            raise UnsupportedCoupling("a scale-invariant face has no constant length")
        return {"robin": self.value, "neumann": math.inf, "dirichlet": 0.0}[self.kind]

    @property
    def rate(self) -> float:
        """Robin rate gamma = 1 / (sqrt2 a) of the face in the pair
        coordinate u = (x_j - x_{j+1}) / sqrt2: 0.0 for Neumann.  A
        Dirichlet or scale-invariant face has none."""
        if self.kind in ("dirichlet", "scale"):
            raise UnsupportedCoupling(f"a {self.kind} face has no Robin rate")
        return 1.0 / (SQRT2 * self.length)

    def label(self) -> str:
        if self.kind == "robin":
            return f"robin:{self.value:g}"
        if self.kind == "scale":
            return f"scale:{self.value:g}"
        return self.kind


def robin(a: float) -> BoundaryCoupling:
    return BoundaryCoupling("robin", float(a))


def neumann() -> BoundaryCoupling:
    return BoundaryCoupling("neumann")


def dirichlet() -> BoundaryCoupling:
    return BoundaryCoupling("dirichlet")


def scale_invariant(g: float) -> BoundaryCoupling:
    return BoundaryCoupling("scale", float(g))


@dataclass(frozen=True)
class CouplingModel:
    """n-1 independently specified face couplings, indexed j = 1..n-1."""

    entries: tuple

    def __post_init__(self):
        if len(self.entries) < 1:
            raise UnsupportedCoupling("need at least one face coupling")
        if self.has_scale_invariant and self.n == 2:
            # For two particles the hyperradius vanishes on the face, so a
            # coordinate-dependent coupling has no translation-invariant
            # meaning there.
            raise UnsupportedCoupling(
                "coupling.1 is scale-invariant, which requires n >= 3")

    @property
    def n(self) -> int:
        return len(self.entries) + 1

    @property
    def has_scale_invariant(self) -> bool:
        return any(e.kind == "scale" for e in self.entries)

    def entry(self, j: int) -> BoundaryCoupling:
        """Coupling of face j (1-based, pair x_j = x_{j+1})."""
        if not 1 <= j <= len(self.entries):
            raise IndexOutOfRange(f"face index {j} outside 1..{len(self.entries)}")
        return self.entries[j - 1]

    def label(self) -> str:
        return ",".join(e.label() for e in self.entries)


def uniform_model(n: int, entry: BoundaryCoupling) -> CouplingModel:
    return CouplingModel(tuple(entry for _ in range(n - 1)))


def coupling_values_batch(model: CouplingModel, j: int, points: np.ndarray) -> np.ndarray:
    """Boundary length a_j at each point of face j: g_j times the
    hyperradius for the scale-invariant model, else the face's constant
    ``BoundaryCoupling.length`` (0 for Dirichlet, +inf for Neumann).
    Face membership is not checked."""
    entry = model.entry(j)
    points = np.asarray(points, dtype=float)
    if entry.kind == "scale":
        return entry.value * hyperradius_batch(points)
    return np.full(points.shape[0], entry.length)
