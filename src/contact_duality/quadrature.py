"""Deterministic panel quadrature over boxes and ordering sectors.

Integrals over a box use tensor-product Gauss-Legendre panels.  Integrals
over the descending sector {x_1 > ... > x_n} use the same panel grid,
with panels that touch the coincidence set mapped through the ordered
substitution

    z_1 = u_1,  z_2 = u_1 u_2,  ...,  z_g = u_1 ... u_g,

which carries the unit cube onto the order simplex 1 >= z_1 >= ... >= z_g
with Jacobian prod_i u_i^(g-i).  The integrand is smooth on every panel,
so refinement in the panel count converges at the full Gauss order.
Adaptive drivers double the panel count until two successive estimates
agree to the requested tolerance.

Sector bounds are either scalars, for the cube [lo, hi]^n, or per-axis
arrays of shape (n,), for a box prod_k [lo_k, hi_k].  The panel grid is
always the uniform grid on the hull cube [min lo, max hi]^n; with
per-axis bounds only the hull-grid cells that meet the box are kept.  A
kept cell holds the same points and weights as in the hull-cube rule, so
an integrand negligible outside the box integrates to the hull-cube
value.  Scalar bounds keep every cell and give the rule unchanged.

Rules are generated as a stream of blocks of at most ``EVAL_CHUNK``
points.  Adaptive integration builds, evaluates and sums one block at a
time and never holds a whole rule.  Sector cells are enumerated and
grouped by tie pattern with array operations.  ``box_rule`` and
``sector_rule`` concatenate the same blocks, so a whole rule and its
stream agree point for point and bit for bit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import QuadratureNotConverged
from .mesh import descending_combinations


@lru_cache(maxsize=None)
def _leggauss01(order: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=None)
def _ordered_cube_rule(g: int, order: int):
    """Quadrature for the descending order simplex inside [0, 1]^g.

    Returns points (M, g) with z_1 >= z_2 >= ... >= z_g and weights
    summing to 1/g!.
    """
    x1, w1 = _leggauss01(order)
    grids = np.meshgrid(*([x1] * g), indexing="ij")
    u = np.stack([grid.ravel() for grid in grids], axis=-1)
    wgrids = np.meshgrid(*([w1] * g), indexing="ij")
    w = np.prod(np.stack([grid.ravel() for grid in wgrids], axis=-1), axis=-1)
    z = np.cumprod(u, axis=-1)
    jac = np.prod(u ** np.arange(g - 1, -1, -1), axis=-1)
    return z, w * jac


@lru_cache(maxsize=None)
def _pattern_rule(pattern: tuple, order: int):
    """Local points/weights on the unit cell for a tie pattern.

    ``pattern`` is a composition of n into contiguous groups; coordinates
    within a group must descend (the cell sits on the coincidence set in
    those axes), singleton groups are unconstrained.
    """
    blocks = []
    for g in pattern:
        if g == 1:
            x1, w1 = _leggauss01(order)
            blocks.append((x1[:, None], w1))
        else:
            blocks.append(_ordered_cube_rule(g, order))
    pts = blocks[0][0]
    wts = blocks[0][1]
    for z, w in blocks[1:]:
        m0, m1 = pts.shape[0], z.shape[0]
        pts = np.concatenate(
            [np.repeat(pts, m1, axis=0), np.tile(z, (m0, 1))], axis=1
        )
        wts = (wts[:, None] * w[None, :]).ravel()
    return pts, wts


#: Most points in one block of a rule.  Adaptive integrations build,
#: evaluate and sum one block at a time, so their memory and cache
#: footprint is that of a block, not of the rule; the size is chosen so
#: that a block and its integrand temporaries stay in L2 cache.
EVAL_CHUNK = 16_384


def _box_blocks(box, cells: int, order: int):
    """Blocks of the tensor rule over a box, in row-major point order.

    The trailing axes whose tensor grid fits in a block are laid out
    whole in every block; the leading axes are stepped through.
    """
    box = np.asarray(box, dtype=float)
    n = box.shape[0]
    x1, w1 = _leggauss01(order)
    axis_pts, axis_wts = [], []
    for lo, hi in box:
        edges = np.linspace(lo, hi, cells + 1)
        h = edges[1] - edges[0]
        axis_pts.append((edges[:-1, None] + h * x1[None, :]).ravel())
        axis_wts.append(np.tile(h * w1, cells))
    m = cells * order
    lead = n
    while lead > 0 and m ** (n - lead + 1) <= EVAL_CHUNK:
        lead -= 1
    trail_index = _digits(np.arange(m ** (n - lead)), m, n - lead)
    trail_pts = [a[i][None, :] for a, i in zip(axis_pts[lead:], trail_index)]
    trail_wts = [w[i][None, :] for w, i in zip(axis_wts[lead:], trail_index)]
    rows = max(1, EVAL_CHUNK // m ** (n - lead))
    for start in range(0, m**lead, rows):
        lead_index = _digits(np.arange(start, min(start + rows, m**lead)), m, lead)
        coords = [a[i][:, None] for a, i in zip(axis_pts, lead_index)] + trail_pts
        factors = [w[i][:, None] for w, i in zip(axis_wts, lead_index)] + trail_wts
        shape = np.broadcast_shapes(*(c.shape for c in coords))
        pts = np.empty((*shape, n))
        for d, c in enumerate(coords):
            pts[..., d] = c
        # the weight is the product over axes, taken left to right
        wts = factors[0]
        for factor in factors[1:]:
            wts = wts * factor
        yield pts.reshape(-1, n), np.broadcast_to(wts, shape).ravel()


def _digits(flat: np.ndarray, base: int, k: int) -> list:
    """Row-major multi-index of flat indices into the grid (base,) * k."""
    digits = []
    for _ in range(k):
        flat, digit = np.divmod(flat, base)
        digits.append(digit)
    return digits[::-1]


def _tie_pattern(code: int, n: int) -> tuple:
    """Composition of n whose groups are the runs of tied indices; bit k
    of ``code`` says index k ties with index k + 1."""
    pattern = [1]
    for k in range(n - 1):
        if code >> k & 1:
            pattern[-1] += 1
        else:
            pattern.append(1)
    return tuple(pattern)


def _sector_blocks(lo, hi, n: int, cells: int, order: int):
    """Blocks of the sector rule: cells grouped by tie pattern in order of
    first appearance, each pattern's cells in enumeration order.

    ``lo`` and ``hi`` are scalars or per-axis arrays of shape (n,).  The
    grid is the uniform grid on the hull [min lo, max hi]; only the cells
    that meet the box prod_k [lo_k, hi_k] are kept (all of them for
    scalar bounds).
    """
    lo, hi = np.broadcast_to(lo, (n,)), np.broadcast_to(hi, (n,))
    edges = np.linspace(lo.min(), hi.max(), cells + 1)
    h = edges[1] - edges[0]
    vol = h**n
    tuples = descending_combinations(cells, n)
    tuples = tuples[np.all((edges[tuples + 1] > lo) & (edges[tuples] < hi), axis=1)]
    codes = (tuples[:, :-1] == tuples[:, 1:]) @ (1 << np.arange(n - 1))
    found, first = np.unique(codes, return_index=True)
    for code in found[np.argsort(first)]:
        local_pts, local_wts = _pattern_rule(_tie_pattern(int(code), n), order)
        local_pts = h * local_pts
        local_wts = vol * local_wts
        origins = edges[tuples[codes == code]]
        per_cell = local_wts.size
        cells_per_block = max(1, EVAL_CHUNK // per_cell)
        local_step = min(per_cell, EVAL_CHUNK)
        for start in range(0, origins.shape[0], cells_per_block):
            block = origins[start:start + cells_per_block]
            for part in range(0, per_cell, local_step):
                local = slice(part, part + local_step)
                pts = np.empty((block.shape[0], local_wts[local].size, n))
                for d in range(n):  # one axis at a time keeps numpy's inner loops long
                    np.add(block[:, d, None], local_pts[None, local, d], out=pts[..., d])
                yield pts.reshape(-1, n), np.tile(local_wts[local], block.shape[0])


def _whole(blocks):
    pts, wts = zip(*blocks)
    return np.concatenate(pts, axis=0), np.concatenate(wts)


def box_rule(box, cells: int, order: int = 6):
    """Tensor Gauss-Legendre rule over a box given as (n, 2) bounds."""
    return _whole(_box_blocks(box, cells, order))


def sector_rule(lo, hi, n: int, cells: int, order: int = 6):
    """Rule over the descending sector of the cube [lo, hi]^n.

    Panels are the cells of the uniform grid; a cell with weakly
    descending index tuple contributes its sector part, built from the
    tie pattern of repeated indices.  Per-axis bounds (arrays of shape
    (n,)) lay the grid on the hull cube [min lo, max hi]^n and keep only
    the cells that meet the box prod_k [lo_k, hi_k]; scalar bounds keep
    every cell, so their rule is unchanged.
    """
    return _whole(_sector_blocks(lo, hi, n, cells, order))


def _chunked_sum(f, blocks):
    total = 0.0
    for pts, wts in blocks:
        total = total + np.sum(wts * np.asarray(f(pts)))
    return complex(total)


def _adaptive(blocks_at, f, tol: float, floor: float, start_cells: int, max_doublings: int):
    prev = None
    cells = start_cells
    for _ in range(max_doublings + 1):
        val = _chunked_sum(f, blocks_at(cells))
        if val.imag == 0.0:
            val = val.real
        if prev is not None:
            err = abs(val - prev)
            if err <= tol * max(abs(val), floor):
                return val, err
        prev = val
        cells *= 2
    raise QuadratureNotConverged(
        f"no convergence to tol={tol} after {max_doublings} doublings",
        estimate=prev,
        error=None,
    )


def integrate_box(f, box, tol: float = 1e-9, order: int = 6,
                  start_cells: int = 2, max_doublings: int = 7, floor: float = 1e-300):
    """Adaptive tensor quadrature of a vectorized f over a box.

    f maps an (M, n) array of points to (M,) values.  Returns (value,
    error estimate); raises QuadratureNotConverged on failure.
    """
    return _adaptive(lambda c: _box_blocks(box, c, order), f, tol, floor,
                     start_cells, max_doublings)


def integrate_sector(f, lo, hi, n: int, tol: float = 1e-9,
                     order: int = 6, start_cells: int = 2, max_doublings: int = 7,
                     floor: float = 1e-300):
    """Adaptive quadrature over the descending sector of [lo, hi]^n.

    With per-axis bounds of shape (n,), each rule is ``sector_rule``'s:
    the hull-grid cells that meet the box prod_k [lo_k, hi_k], so the
    integral is over the sector part of the cells covering that box.
    Scalar bounds integrate over every cell of the cube.
    """
    return _adaptive(lambda c: _sector_blocks(lo, hi, n, c, order), f, tol, floor,
                     start_cells, max_doublings)

