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

from .coordinates import hyperradius_batch
from .errors import DegenerateRadius, IndexOutOfRange, UnsupportedCoupling

#: sqrt(2), the norm of the pair direction e_j - e_{j+1}: in the pair
#: coordinate u = (x_j - x_{j+1}) / sqrt(2) a Robin length a becomes the
#: half-line rate gamma = 1 / (sqrt(2) a).
SQRT2 = math.sqrt(2.0)

#: Hyperradius below which the scale-invariant coupling is declared
#: degenerate (total-coincidence corner).
RADIUS_TOL = 1e-12


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
            raise UnsupportedCoupling("scale-invariant coupling requires n >= 3")

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


def normal_vector(j: int, n: int) -> np.ndarray:
    """Inward normal data of face j: gradient of x_j - x_{j+1}.

    Entries (0, ..., 1, -1, ..., 0) with +1 in slot j (1-based); the
    Euclidean norm is sqrt(2).
    """
    if not 1 <= j <= n - 1:
        raise IndexOutOfRange(f"face index {j} outside 1..{n - 1}")
    vec = np.zeros(n)
    vec[j - 1] = 1.0
    vec[j] = -1.0
    return vec


@dataclass(frozen=True)
class BoundaryFace:
    """Codimension-1 face where the adjacent pair (j, j+1) coincides."""

    j: int
    n: int

    def __post_init__(self):
        normal_vector(self.j, self.n)  # validates the index

    @property
    def normal(self) -> np.ndarray:
        return normal_vector(self.j, self.n)


def coupling_value(model: CouplingModel, j: int, x):
    """Boundary length a_j at a point of face j.

    Robin returns its constant, the limits return their sentinels
    (0 for Dirichlet, +inf for Neumann), and the scale-invariant model
    returns g_j times the hyperradius of x.  The point must satisfy
    x_j = x_{j+1} within a relative tolerance of 1e-8.
    """
    entry = model.entry(j)
    x = np.asarray(x, dtype=float)
    gap = abs(x[j - 1] - x[j])
    scale = max(1.0, abs(x[j - 1]), abs(x[j]))
    if gap > 1e-8 * scale:
        raise ValueError(f"point is not on face {j}: |x_j - x_j+1| = {gap:g}")
    if entry.kind == "robin":
        return entry.value
    if entry.kind == "neumann":
        return math.inf
    if entry.kind == "dirichlet":
        return 0.0
    r = float(hyperradius_batch(x[None, :])[0])
    if r < RADIUS_TOL:
        raise DegenerateRadius("hyperradius vanishes at the total-coincidence corner")
    return entry.value * r


def coupling_values_batch(model: CouplingModel, j: int, points: np.ndarray) -> np.ndarray:
    """Vectorized a_j over face points (no face-membership check)."""
    entry = model.entry(j)
    points = np.asarray(points, dtype=float)
    m = points.shape[0]
    if entry.kind == "robin":
        return np.full(m, entry.value)
    if entry.kind == "neumann":
        return np.full(m, np.inf)
    if entry.kind == "dirichlet":
        return np.zeros(m)
    return entry.value * hyperradius_batch(points)
