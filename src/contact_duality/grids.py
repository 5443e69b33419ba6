"""Sampling grids that avoid the coincidence set.

All wavefunction grids live on the staggered lattice of cell centers
(i + 1/2) h inside a box [0, L]: pairwise-distinct index tuples never
satisfy x_j = x_k, so exchange signs are always +-1 and contact planes
run midway between node layers.  The sector grid keeps the strictly
descending tuples, the full grid all pairwise-distinct ones; the full
grid is the disjoint union of the permuted copies of the sector grid.
Node tables come from the ``mesh`` lattice helpers, ranks from
``mesh.DofTable`` and sorting signs from ``permutations``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch
from .mesh import DofTable, all_cells, staggered_lattice, weakly_descending_tuples
from .permutations import sort_descending


def staggered_coords(length: float, points: int) -> np.ndarray:
    """Cell centers (i + 1/2) h of a box [0, length] with N cells: the
    interior of the staggered lattice."""
    return staggered_lattice(length, points)[1:-1]


@dataclass(frozen=True)
class SectorGrid:
    """Strictly descending staggered tuples inside a box."""

    n: int
    length: float
    points: int

    @property
    def spacing(self) -> float:
        return self.length / self.points

    @property
    def coords_1d(self) -> np.ndarray:
        return staggered_coords(self.length, self.points)

    def node_indices(self) -> np.ndarray:
        """Strictly descending tuples, sorted: the weakly descending ones
        over range(points - n + 1) plus (n-1, ..., 0)."""
        steps = np.arange(self.n - 1, -1, -1)
        return weakly_descending_tuples(self.points - self.n + 1, self.n) + steps

    def nodes(self) -> np.ndarray:
        return self.coords_1d[self.node_indices()]

    @property
    def size(self) -> int:
        return math.comb(self.points, self.n)

    def weight(self) -> float:
        """Quadrature weight per node, h^n."""
        return self.spacing**self.n

    def rank_of(self, idx: np.ndarray) -> np.ndarray:
        """Ranks of descending index tuples in node order."""
        try:
            return DofTable(self.node_indices(), self.points).rank(idx)
        except KeyError:
            raise GridMismatch("index tuple not on the sector grid") from None


@dataclass(frozen=True)
class FullGrid:
    """Pairwise-distinct staggered tuples inside a box."""

    n: int
    length: float
    points: int

    @property
    def spacing(self) -> float:
        return self.length / self.points

    @property
    def coords_1d(self) -> np.ndarray:
        return staggered_coords(self.length, self.points)

    def sector(self) -> SectorGrid:
        return SectorGrid(n=self.n, length=self.length, points=self.points)

    def node_indices(self) -> np.ndarray:
        """Pairwise-distinct tuples in the order of ``mesh.all_cells``."""
        idx = all_cells(self.points, self.n)
        ordered = np.sort(idx, axis=-1)
        return idx[np.all(ordered[:, 1:] != ordered[:, :-1], axis=-1)]

    def nodes(self) -> np.ndarray:
        return self.coords_1d[self.node_indices()]

    @property
    def size(self) -> int:
        return math.factorial(self.n) * math.comb(self.points, self.n)

    def weight(self) -> float:
        return self.spacing**self.n

    def sector_decomposition(self):
        """Per node: rank of its sorted tuple on the sector grid and the
        sign of the descending sorting permutation."""
        sorted_idx, _, signs = sort_descending(self.node_indices())
        ranks = self.sector().rank_of(sorted_idx)
        return ranks, signs

    def transposition_map(self, j: int) -> np.ndarray:
        """Node permutation induced by swapping slots j and j+1 (0-based)."""
        idx = self.node_indices()
        swapped = idx.copy()
        swapped[:, [j, j + 1]] = swapped[:, [j + 1, j]]
        return DofTable(idx, self.points).rank(swapped)


@dataclass
class WavefunctionGrid:
    """Complex node values on a sector or full staggered grid.

    ``stat`` tags full-space functions with their exchange symmetry;
    sector functions carry none.  An optional analytic ``profile``
    remembers the smooth function the values were sampled from, which
    propagation routes use to evaluate initial data off the lattice.
    """

    grid: object
    values: np.ndarray
    space: str  # "sector" | "full"
    stat: object = None
    profile: object = None

    def __post_init__(self):
        self.values = np.asarray(self.values)
        expected = self.grid.size
        if self.values.shape != (expected,):
            raise GridMismatch(
                f"values shape {self.values.shape} does not match grid size {expected}"
            )

    def norm(self) -> float:
        return float(np.sqrt(self.grid.weight() * np.sum(np.abs(self.values) ** 2)))

    def normalized(self) -> "WavefunctionGrid":
        nrm = self.norm()
        if nrm == 0:
            raise ValueError("cannot normalize the zero function")
        return WavefunctionGrid(self.grid, self.values / nrm, self.space, self.stat,
                                self.profile)


def sample_sector_function(grid: SectorGrid, func) -> WavefunctionGrid:
    """Sample a callable (vectorized over (M, n)) on the sector grid."""
    values = np.asarray(func(grid.nodes()))
    return WavefunctionGrid(grid, values, "sector", None, profile=func)
