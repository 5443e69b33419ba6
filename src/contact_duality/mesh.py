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
first, carving out the region z_{seq[0]} >= ... >= z_{seq[n-1]}.  A set
of elements is one array: the cells (E, n) and, per row, an index into
the (n!, n) table of ``insertion_orders``, which is the image table of
``permutations.group_table`` (``element_array``).  The per-element
helpers take one order per row, or one order for all rows.  Vertex
index tuples are ranked through ``DofTable``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .permutations import group_table


def uniform_lattice(length: float, points: int, offset: float) -> np.ndarray:
    """Vertices at i h, i = 0..N, including both walls."""
    return offset + np.linspace(0.0, length, points + 1)


def staggered_lattice(length: float, points: int, offset: float) -> np.ndarray:
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

    def rank(self, idx: np.ndarray) -> np.ndarray:
        ranks = self.find(idx)
        if np.any(ranks < 0):
            raise KeyError("tuple not in dof table")
        return ranks

    def find(self, idx: np.ndarray) -> np.ndarray:
        """Rank of each tuple, or -1 where a tuple is not in the table."""
        keys = _encode(idx, self.base)
        pos = np.clip(np.searchsorted(self._sorted, keys), 0, self._sorted.size - 1)
        return np.where(self._sorted[pos] == keys, self._order[pos], -1)


@lru_cache(maxsize=None)
def _vertex_offsets(seq: tuple) -> np.ndarray:
    """Vertex index offsets of the simplex for an insertion order."""
    n = len(seq)
    offs = np.zeros((n + 1, n), dtype=np.int64)
    for m, axis in enumerate(seq):
        offs[m + 1] = offs[m]
        offs[m + 1, axis] += 1
    return offs


def local_matrices(seqs, lengths):
    """Volumes and path-edge weights of elements with cell widths ``lengths``.

    Vertex m+1 steps from vertex m along axis seq[m], so the
    barycentric gradients are e_{seq[m-1]}/h_{seq[m-1]} - e_{seq[m]}/h_{seq[m]}
    (one-sided at both ends) and the element stiffness form is exactly
    sum_m w[m] (u_{m+1} - u_m)^2 with w[m] = vol / h_{seq[m]}^2, h being
    ``lengths``: only the n axis-aligned path edges carry stiffness.
    """
    seqs = np.asarray(seqs)
    lengths = np.asarray(lengths, dtype=float)
    vol = np.prod(lengths, axis=-1) / math.factorial(seqs.shape[-1])
    steps = np.take_along_axis(lengths, np.broadcast_to(seqs, lengths.shape), axis=-1)
    return vol, np.expand_dims(vol, -1) / steps**2


def all_cells(cells_per_axis: int, n: int) -> np.ndarray:
    """All cell index tuples, shape (M^n, n), in row-major order."""
    grids = np.indices((cells_per_axis,) * n).reshape(n, -1).T
    return np.ascontiguousarray(grids.astype(np.int64))


def region_orderings(cells: np.ndarray, seqs) -> np.ndarray:
    """Descending axis order of each element's region.

    Axes sort by cell index (descending); ties resolve by insertion
    order, since the axis inserted first carries the larger local
    coordinate.  Rows are permutations pi with x_{pi[0]} >= x_{pi[1]} >= ...
    """
    n = cells.shape[1]
    key = cells * n - np.argsort(seqs, axis=-1)  # larger key = earlier in descending order
    return np.argsort(-key, axis=-1, kind="stable")


def sector_element_mask(cells: np.ndarray, seqs) -> np.ndarray:
    """Elements lying in the closed descending sector x_1 >= ... >= x_n.

    A tied pair of axes must be inserted in increasing axis order.
    """
    pos = np.broadcast_to(np.argsort(seqs, axis=-1), cells.shape)  # step of each axis
    tie_ok = (cells[:, :-1] == cells[:, 1:]) & (pos[:, :-1] < pos[:, 1:])
    return np.all((cells[:, :-1] > cells[:, 1:]) | tie_ok, axis=1)


def element_array(cells: np.ndarray, orders: np.ndarray, sector: bool):
    """Elements as (cells (E, n), index into ``orders`` (E,)): every cell
    with every order, or with ``sector`` only the pairs in the sector, so
    a cell with tie groups of sizes k_1..k_r keeps n! / prod k_g! of them."""
    order_of = np.repeat(np.arange(len(orders)), cells.shape[0])
    cells = np.tile(cells, (len(orders), 1))
    if not sector:
        return cells, order_of
    keep = sector_element_mask(cells, orders[order_of])
    return cells[keep], order_of[keep]


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


def insertion_orders(n: int) -> np.ndarray:
    """All n! insertion orders, shape (n!, n): the read-only image table of
    ``permutations.group_table``, so an order's row index is its
    ``permutations.permutation_ranks`` rank."""
    return group_table(n)[0]
