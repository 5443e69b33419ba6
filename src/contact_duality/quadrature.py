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
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .errors import QuadratureNotConverged


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


def box_rule(box, cells: int, order: int = 6):
    """Tensor Gauss-Legendre rule over a box given as (n, 2) bounds."""
    box = np.asarray(box, dtype=float)
    n = box.shape[0]
    x1, w1 = _leggauss01(order)
    axis_pts, axis_wts = [], []
    for lo, hi in box:
        edges = np.linspace(lo, hi, cells + 1)
        h = edges[1] - edges[0]
        axis_pts.append((edges[:-1, None] + h * x1[None, :]).ravel())
        axis_wts.append(np.tile(h * w1, cells))
    grids = np.meshgrid(*axis_pts, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*axis_wts, indexing="ij")
    wts = np.prod(np.stack([g.ravel() for g in wgrids], axis=-1), axis=-1)
    return pts, wts


def sector_rule(lo: float, hi: float, n: int, cells: int, order: int = 6):
    """Rule over the descending sector of the cube [lo, hi]^n.

    Panels are the cells of the uniform grid; a cell with weakly
    descending index tuple contributes its sector part, built from the
    tie pattern of repeated indices.
    """
    edges = np.linspace(lo, hi, cells + 1)
    h = edges[1] - edges[0]
    by_pattern: dict = {}
    for c in itertools.combinations_with_replacement(range(cells - 1, -1, -1), n):
        pattern = []
        run = 1
        for a, b in zip(c[:-1], c[1:]):
            if a == b:
                run += 1
            else:
                pattern.append(run)
                run = 1
        pattern.append(run)
        by_pattern.setdefault(tuple(pattern), []).append(c)
    all_pts, all_wts = [], []
    vol = h**n
    for pattern, cell_list in by_pattern.items():
        local_pts, local_wts = _pattern_rule(pattern, order)
        origins = edges[np.asarray(cell_list, dtype=int)]
        pts = origins[:, None, :] + h * local_pts[None, :, :]
        all_pts.append(pts.reshape(-1, n))
        all_wts.append(np.tile(vol * local_wts, len(cell_list)))
    return np.concatenate(all_pts, axis=0), np.concatenate(all_wts)


#: Quadrature points are fed to integrands in blocks of this many rows to
#: bound peak memory on fine panel grids.
EVAL_CHUNK = 2_000_000


def _chunked_sum(f, pts, wts):
    total = 0.0
    for start in range(0, pts.shape[0], EVAL_CHUNK):
        block = slice(start, start + EVAL_CHUNK)
        total = total + np.sum(wts[block] * np.asarray(f(pts[block])))
    return complex(total)


def _adaptive(rule_at, f, tol: float, floor: float, start_cells: int, max_doublings: int):
    prev = None
    cells = start_cells
    for _ in range(max_doublings + 1):
        pts, wts = rule_at(cells)
        val = _chunked_sum(f, pts, wts)
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
    return _adaptive(lambda c: box_rule(box, c, order), f, tol, floor,
                     start_cells, max_doublings)


def integrate_sector(f, lo: float, hi: float, n: int, tol: float = 1e-9,
                     order: int = 6, start_cells: int = 2, max_doublings: int = 7,
                     floor: float = 1e-300):
    """Adaptive quadrature over the descending sector of [lo, hi]^n."""
    return _adaptive(lambda c: sector_rule(lo, hi, n, c, order), f, tol, floor,
                     start_cells, max_doublings)

