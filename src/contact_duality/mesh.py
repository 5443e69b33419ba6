"""Simplicial machinery on tensor-product lattices.

Every box cell of the lattice splits into n! congruent simplices, one per
ordering of the local coordinates; the ordering planes x_j = x_k of any
cell with equal interval indices are then exact unions of simplex facets.
That alignment is what lets the three dual Hamiltonians be assembled on
the same footing: every simplex is a path of n axis-aligned edges, so
the bulk kinetic term is a weighted sum of squared differences along
those edges (exactly the standard (2n+1)-point Laplacian stencil at
interior vertices, with no other coupling), and every contact term is a
facet mass term on coincidence facets.

Index conventions: a lattice with P vertex coordinates per axis has
M = P - 1 cells per axis; cells and vertices are integer tuples; an
element is a (cell, insertion order) pair, where the insertion order
``seq`` lists the axes in the order their local coordinate increases
first, carving out the region z_{seq[0]} >= ... >= z_{seq[n-1]}.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .permutations import Permutation


def uniform_lattice(length: float, points: int, offset: float = 0.0) -> np.ndarray:
    """Vertices at i h, i = 0..N, including both walls."""
    return offset + np.linspace(0.0, length, points + 1)


def staggered_lattice(length: float, points: int, offset: float = 0.0) -> np.ndarray:
    """Wall vertices plus interior vertices at (i + 1/2) h.

    Interior spacing is h = length / points; the wall cells have width
    h / 2, so coincidence planes never pass through interior vertex
    layers at distance below h.
    """
    h = length / points
    inner = (np.arange(points) + 0.5) * h
    return offset + np.concatenate(([0.0], inner, [length]))


def descending_combinations(points: int, n: int) -> np.ndarray:
    """All weakly descending index tuples over range(points), in the order
    of ``itertools.combinations_with_replacement(range(points - 1, -1, -1), n)``.

    Built column by column: each row of the first k columns is repeated
    once for every admissible next entry (from its last entry down to 0).
    """
    rows = np.arange(points - 1, -1, -1, dtype=np.int64)[:, None]
    for _ in range(n - 1):
        last = rows[:, -1]
        counts = last + 1
        starts = np.cumsum(counts) - counts
        offset = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(starts, counts)
        rows = np.column_stack([np.repeat(rows, counts, axis=0),
                                np.repeat(last, counts) - offset])
    return rows


def weakly_descending_tuples(points: int, n: int) -> np.ndarray:
    """All weakly descending index tuples over range(points), sorted rows."""
    # the combinations come in descending lexicographic order
    return np.ascontiguousarray(descending_combinations(points, n)[::-1])


def _encode(idx: np.ndarray, base: int) -> np.ndarray:
    """Pack index tuples (..., n) with entries below ``base`` into integers
    that sort like the tuples."""
    idx = np.asarray(idx, dtype=np.int64)
    flat = idx.reshape(-1, idx.shape[-1])
    out = np.zeros(flat.shape[0], dtype=np.int64)
    for k in range(flat.shape[1]):
        out = out * base + flat[:, k]
    return out.reshape(idx.shape[:-1])


class DofTable:
    """Rank lookup for a fixed set of vertex index tuples."""

    def __init__(self, tuples: np.ndarray, base: int):
        self.tuples = np.asarray(tuples, dtype=np.int64)
        self.base = base
        self._keys = _encode(self.tuples, base)
        self._order = np.argsort(self._keys)
        self._sorted = self._keys[self._order]

    @property
    def size(self) -> int:
        return self.tuples.shape[0]

    def rank(self, idx: np.ndarray) -> np.ndarray:
        keys = _encode(idx, self.base)
        pos = np.clip(np.searchsorted(self._sorted, keys), 0, self._sorted.size - 1)
        if not np.all(self._sorted[pos] == keys):
            raise KeyError("tuple not in dof table")
        return self._order[pos]

    def contains(self, idx: np.ndarray) -> np.ndarray:
        keys = _encode(idx, self.base)
        pos = np.clip(np.searchsorted(self._sorted, keys), 0, self._sorted.size - 1)
        return self._sorted[pos] == keys


@lru_cache(maxsize=None)
def _vertex_offsets(seq: tuple) -> np.ndarray:
    """Vertex index offsets of the simplex for an insertion order."""
    n = len(seq)
    offs = np.zeros((n + 1, n), dtype=np.int64)
    for m, axis in enumerate(seq):
        offs[m + 1] = offs[m]
        offs[m + 1, axis] += 1
    return offs


def local_matrices(seq: tuple, lengths: np.ndarray):
    """Volume and path-edge weights of one element.

    Vertex m+1 steps from vertex m along axis seq[m], so the
    barycentric gradients are e_{seq[m-1]}/h_{seq[m-1]} - e_{seq[m]}/h_{seq[m]}
    (one-sided at both ends) and the element stiffness form is exactly
    sum_m w[m] (u_{m+1} - u_m)^2 with w[m] = vol / h_{seq[m]}^2, h being
    ``lengths``: only the n axis-aligned path edges carry stiffness.
    """
    lengths = np.asarray(lengths, dtype=float)
    vol = float(np.prod(lengths)) / math.factorial(len(seq))
    return vol, vol / lengths[list(seq)] ** 2


def all_cells(cells_per_axis: int, n: int) -> np.ndarray:
    """All cell index tuples, shape (M^n, n)."""
    grids = np.indices((cells_per_axis,) * n).reshape(n, -1).T
    return np.ascontiguousarray(grids.astype(np.int64))


def region_orderings(cells: np.ndarray, seq: tuple) -> np.ndarray:
    """Descending axis order of each element's region.

    Axes sort by cell index (descending); ties resolve by insertion
    order, since the axis inserted first carries the larger local
    coordinate.  Rows are permutations pi with x_{pi[0]} >= x_{pi[1]} >= ...
    """
    n = len(seq)
    pos = np.empty(n, dtype=np.int64)
    for m, axis in enumerate(seq):
        pos[axis] = m
    key = cells * n - pos[None, :]  # larger key = earlier in descending order
    return np.argsort(-key, axis=-1, kind="stable")


def sector_element_mask(cells: np.ndarray, seq: tuple) -> np.ndarray:
    """Elements lying in the closed descending sector x_1 >= ... >= x_n."""
    n = len(seq)
    pos = np.empty(n, dtype=np.int64)
    for m, axis in enumerate(seq):
        pos[axis] = m
    mask = np.ones(cells.shape[0], dtype=bool)
    for i in range(n - 1):
        gt = cells[:, i] > cells[:, i + 1]
        tie_ok = (cells[:, i] == cells[:, i + 1]) & (pos[i] < pos[i + 1])
        mask &= gt | tie_ok
    return mask


def length_pattern_groups(cells: np.ndarray, widths: np.ndarray):
    """Group cells by their per-axis width pattern.

    Yields (lengths (n,), row indices).  Uniform lattices produce one
    group; staggered lattices a handful (wall cells are half width).
    """
    w = widths[cells]  # (K, n)
    rounded = np.round(w / w.max() * 2**20).astype(np.int64)
    uniq, inverse = np.unique(rounded, axis=0, return_inverse=True)
    for g in range(uniq.shape[0]):
        rows = np.nonzero(inverse == g)[0]
        yield w[rows[0]], rows


def insertion_orders(n: int):
    """All insertion orders with their Permutation objects."""
    return [(seq, Permutation(seq)) for seq in itertools.permutations(range(n))]
