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
index tuples are ranked through ``DofTable``, and ordered for
elimination by ``dissection_order``.
"""

from __future__ import annotations

import itertools
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
        """Rank of each tuple, or -1 where a tuple is not in the table.

        A tuple with an entry outside range(base) reads -1: its key could
        equal that of a tuple in the table."""
        idx = np.asarray(idx, dtype=np.int64)
        keys = _encode(idx, self.base)
        pos = np.clip(np.searchsorted(self._sorted, keys), 0, self._sorted.size - 1)
        inside = np.all((idx >= 0) & (idx < self.base), axis=-1)
        return np.where(inside & (self._sorted[pos] == keys), self._order[pos], -1)


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


def _sector_patterns(orders: np.ndarray) -> np.ndarray:
    """Sector membership by tie pattern: entry (k, p) tells whether a
    weakly descending cell whose adjacent pairs (i, i+1) tie exactly where
    bit i of p is set holds a sector element with insertion order
    ``orders[k]``.  Shape (n!, 2^(n-1)), from ``sector_element_mask`` on
    one cell per pattern."""
    n = orders.shape[1]
    ties = (np.arange(2 ** (n - 1))[:, None] >> np.arange(n - 1)) & 1
    # each untied step down the cell lowers the index by one
    steps = np.cumsum((1 - ties)[:, ::-1], axis=1)[:, ::-1]
    cells = np.column_stack([steps, np.zeros(len(ties), dtype=np.int64)])
    mask = sector_element_mask(np.repeat(cells, len(orders), axis=0),
                               np.tile(orders, (len(cells), 1)))
    return mask.reshape(len(cells), len(orders)).T


def element_array(cells: np.ndarray, orders: np.ndarray, sector: bool):
    """Elements as (cells (E, n), index into ``orders`` (E,)), order after
    order and, within one order, in the row order of ``cells``: every cell
    with every order, or with ``sector`` only the pairs in the sector, so
    a cell with tie groups of sizes k_1..k_r keeps n! / prod k_g! of them.

    A sector cell is weakly descending, and which orders it keeps depends
    only on its tie pattern (``_sector_patterns``), so no cell is repeated
    before the sector elements are picked."""
    if not sector:
        order_of = np.repeat(np.arange(len(orders)), cells.shape[0])
        return np.tile(cells, (len(orders), 1)), order_of
    ties = cells[:, :-1] == cells[:, 1:]
    pattern = ties.astype(np.int64) @ (1 << np.arange(cells.shape[1] - 1))
    descending = np.all(cells[:, :-1] >= cells[:, 1:], axis=1)
    order_of, rows = np.nonzero(_sector_patterns(orders)[:, pattern] & descending)
    return cells[rows], order_of


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


#: Segments of at most this many dofs are not split further.
DISSECTION_LEAF = 16

#: Least share of a segment's dofs each side of its separator keeps.
DISSECTION_SHARE = 0.35


def dissection_order(dofs: np.ndarray) -> np.ndarray:
    """Nested-dissection elimination order of dofs from their lattice tuples.

    Every stored entry of an operator joins dofs one axis step apart or
    at the same vertex, so along c . x with c in {+-1}^n the value
    changes by at most one per entry, and each plane c . x = s separates
    the dofs below it from those above it.  Each segment (at first all
    dofs) is split at the plane with the fewest dofs that leaves at
    least ``DISSECTION_SHARE`` of the segment on both sides; c_1 = +1,
    since c and -c give the same planes.  A segment of at most
    ``DISSECTION_LEAF`` dofs, or with no such plane, is a leaf.  The
    order is the post-order of the dissection tree: both halves, then
    their separator, each leaf and separator in dof order.  Entry i is
    the dof eliminated i-th.

    All segments of one tree level are split together.  Each segment
    histograms each direction over its own range of values, so the
    histograms of a level hold as many bins as the segments span.
    """
    x = np.asarray(dofs, dtype=np.int64)
    dim, n = x.shape
    signs = np.array([(1, *rest) for rest in itertools.product((1, -1), repeat=n - 1)])
    proj = x @ signs.T  # (dim, directions)
    directions = signs.shape[0]
    order = np.empty(dim, dtype=np.int64)
    # the dofs of the open segments, segment after segment, and per
    # segment its size and the first position of the order it fills
    active, sizes, starts = np.arange(dim), np.array([dim]), np.array([0])
    while active.size:
        first = np.cumsum(sizes) - sizes
        values = np.take(proj, active, axis=0)
        low = np.minimum.reduceat(values, first, axis=0)
        spans = np.maximum.reduceat(values, first, axis=0) - low + 1
        base = np.cumsum(spans).reshape(spans.shape) - spans  # first bin per direction
        bins = values + np.repeat(base - low, sizes, axis=0)
        hist = np.bincount(bins.ravel(), minlength=int(spans.sum()))
        # per bin: its segment's size and the dofs below and above it
        total = np.repeat(sizes, spans.sum(axis=1))
        below = np.cumsum(hist) - hist
        below -= np.repeat(below[base.ravel()], spans.ravel())
        above = total - below - hist
        fit = (np.minimum(below, above) >= DISSECTION_SHARE * total) & (total > DISSECTION_LEAF)
        # the first of each segment's smallest planes that fit
        key = np.where(fit, hist, dim + 1) * hist.size + np.arange(hist.size)
        best = np.minimum.reduceat(key, base[:, 0])
        split, pick = best < (dim + 1) * hist.size, best % hist.size
        plane = (np.searchsorted(base.ravel(), pick, side="right") - 1) % directions
        # side 0 below the plane, 1 above it, 2 on it or in a leaf
        height = np.take(bins, np.arange(active.size) * directions + np.repeat(plane, sizes))
        height = (height - np.repeat(pick, sizes)) * np.repeat(split, sizes)
        side = 2 - 2 * (height < 0).view(np.int8) - (height > 0).view(np.int8)
        n_below, n_above = below[pick] * split, above[pick] * split
        n_done = sizes - n_below - n_above
        # every segment's dofs below, then above, then the rest, each in
        # segment order; the rest take the end of their segment's span
        moved = np.take(active, np.argsort(side, kind="stable"))
        kept = int(np.sum(n_below + n_above))
        done_first = np.cumsum(n_done) - n_done
        order[np.repeat(starts + n_below + n_above - done_first, n_done)
              + np.arange(moved.size - kept)] = moved[kept:]
        active = moved[:kept]
        sizes = np.concatenate([n_below[split], n_above[split]])
        starts = np.concatenate([starts[split], (starts + n_below)[split]])
    return order


def insertion_orders(n: int) -> np.ndarray:
    """All n! insertion orders, shape (n!, n): the read-only image table of
    ``permutations.group_table``, so an order's row index is its
    ``permutations.permutation_ranks`` rank."""
    return group_table(n)[0]
