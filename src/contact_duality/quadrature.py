"""Deterministic panel quadrature over boxes and ordering sectors.

Integrals over a box use tensor-product Gauss-Legendre panels.  Integrals
over the descending sector {x_1 > ... > x_n} use the same panel grid,
with panels that touch the coincidence set mapped through the ordered
substitution

    z_1 = u_1,  z_2 = u_1 u_2,  ...,  z_g = u_1 ... u_g,

which carries the unit cube onto the order simplex 1 >= z_1 >= ... >= z_g
with Jacobian prod_i u_i^(g-i).  The integrand is smooth on every panel,
so refinement in the panel count converges at the full Gauss order.

Adaptive drivers refine locally.  They start from the uniform grid and,
in each round, split every cell whose estimate has not settled into the
2^n cells of half its width.  A cell settles when its estimate and the
sum over its children agree to its share of the requested tolerance,
and that sum is final.  Cells where the integrand is negligible or
already resolved are not evaluated again, so the work follows the
integrand instead of the grid.

Sector bounds are either scalars, for the cube [lo, hi]^n, or per-axis
arrays of shape (n,), for a box prod_k [lo_k, hi_k].  The panel grid is
always the uniform grid on the hull cube [min lo, max hi]^n; with
per-axis bounds only the hull-grid cells that meet the box are kept.  A
kept cell holds the same points and weights as in the hull-cube rule, so
an integrand negligible outside the box integrates to the hull-cube
value.  Scalar bounds keep every cell and give the rule unchanged.

Every rule is laid out one way.  ``_grid`` gives the uniform grid's
edges and the cells ``_keep`` keeps: every cell of a box, the weakly
descending cells that meet the box for a sector.  The refined children
of the adaptive drivers pass the same predicate.  ``_blocks`` streams the
points of a set of cells, grouped by tie pattern, in blocks of at most
``EVAL_CHUNK`` points, cell by cell; a cell's weights are its volume
times the weights of its pattern's rule on the unit cell.  Adaptive
integration builds, evaluates and sums one block at a time and never
holds a whole rule.  ``box_rule`` and ``sector_rule`` concatenate the
blocks of the whole grid at a given cell count, so an adaptive
integral's first round evaluates exactly their points.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import QuadratureNotConverged
from .mesh import all_cells, descending_combinations, tie_codes


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


def _edges(lo, hi, cells: int, sector: bool):
    """Per-axis edges (n, cells + 1) of the uniform grid on prod_k [lo_k,
    hi_k], or for a sector on its hull cube [min lo, max hi]^n."""
    if sector:
        lo, hi = np.full(lo.shape, lo.min()), np.full(hi.shape, hi.max())
    return np.stack([np.linspace(a, b, cells + 1) for a, b in zip(lo, hi)])


def _keep(edges, tuples, lo, hi, sector: bool):
    """Mask of the cells ``tuples`` of the grid ``edges`` that meet the box
    prod_k [lo_k, hi_k] and, on a sector grid, are weakly descending.  On
    a box grid every cell meets the box."""
    axes = np.arange(tuples.shape[1])
    keep = np.all((edges[axes, tuples + 1] > lo) & (edges[axes, tuples] < hi), axis=1)
    if sector:
        keep &= np.all(tuples[:, :-1] >= tuples[:, 1:], axis=1)
    return keep


def _grid(lo, hi, n: int, cells: int, sector: bool):
    """Edges of the uniform grid at ``cells`` per axis and its kept cells:
    every cell of the box prod_k [lo_k, hi_k] in ``all_cells`` order, or
    for a sector the weakly descending cells of the hull grid that meet
    the box, in ``descending_combinations`` order.  Scalar bounds are the
    cube."""
    lo, hi = np.broadcast_to(lo, (n,)), np.broadcast_to(hi, (n,))
    edges = _edges(lo, hi, cells, sector)
    if sector:
        tuples = descending_combinations(cells, n)
    else:
        tuples = all_cells(cells, n)
    return edges, tuples[_keep(edges, tuples, lo, hi, sector)]


def _pattern_groups(tuples):
    """(tie pattern, row indices) of the cells ``tuples``, patterns in order
    of first appearance and each pattern's rows in order."""
    n = tuples.shape[1]
    codes = tie_codes(tuples)
    found, first = np.unique(codes, return_index=True)
    for code in found[np.argsort(first)]:
        yield _tie_pattern(int(code), n), np.flatnonzero(codes == code)


def _blocks(edges, tuples, order: int, sector: bool):
    """The rule over the cells ``tuples`` (m, n) of the grid with per-axis
    edges ``edges`` (n, cells + 1), in blocks of at most ``EVAL_CHUNK``
    points: the sector part of each cell for a sector grid, from the rule
    of its tie pattern, the whole cell for a box.

    Sector cells are grouped by tie pattern in order of first appearance,
    each pattern's cells in order; box cells come in order.  Yields
    (rows, pts, wts): the rows of ``tuples`` a block holds, its points
    cell by cell, and the weights of one cell's points in the block, the
    same for every cell of the block.
    """
    n = tuples.shape[1]
    h = edges[:, 1] - edges[:, 0]
    vol = np.prod(h)
    origins = edges[np.arange(n), tuples]
    groups = (_pattern_groups(tuples) if sector
              else [((1,) * n, np.arange(tuples.shape[0]))])
    for pattern, rows in groups:
        local_pts, local_wts = _pattern_rule(pattern, order)
        local_pts, local_wts = h * local_pts, vol * local_wts
        per_cell = local_pts.shape[0]
        cells_per_block = max(1, EVAL_CHUNK // per_cell)
        local_step = min(per_cell, EVAL_CHUNK)
        for start in range(0, rows.size, cells_per_block):
            block = rows[start:start + cells_per_block]
            for part in range(0, per_cell, local_step):
                local = slice(part, part + local_step)
                pts = np.empty((block.size, local_pts[local].shape[0], n))
                for d in range(n):  # one axis at a time keeps numpy's inner loops long
                    np.add(origins[block, d, None], local_pts[None, local, d],
                           out=pts[..., d])
                yield block, pts.reshape(-1, n), local_wts[local]


def _rule(lo, hi, n: int, cells: int, order: int, sector: bool):
    """The blocks of the whole uniform grid, concatenated."""
    pts, wts = [], []
    for rows, block_pts, block_wts in _blocks(*_grid(lo, hi, n, cells, sector),
                                               order, sector):
        pts.append(block_pts)
        wts.append(np.tile(block_wts, rows.size))
    return np.concatenate(pts, axis=0), np.concatenate(wts)


def box_rule(box, cells: int, order: int):
    """Tensor Gauss-Legendre rule over a box given as (n, 2) bounds, cell
    by cell in row-major cell order."""
    box = np.asarray(box, dtype=float)
    return _rule(box[:, 0], box[:, 1], box.shape[0], cells, order, sector=False)


def sector_rule(lo, hi, n: int, cells: int, order: int):
    """Rule over the descending sector of the cube [lo, hi]^n.

    Panels are the cells of the uniform grid; a cell with weakly
    descending index tuple contributes its sector part, built from the
    tie pattern of repeated indices.  Per-axis bounds (arrays of shape
    (n,)) lay the grid on the hull cube [min lo, max hi]^n and keep only
    the cells that meet the box prod_k [lo_k, hi_k]; scalar bounds keep
    every cell, so their rule is unchanged.
    """
    return _rule(lo, hi, n, cells, order, sector=True)


def _cell_sums(f, edges, tuples, order: int, sector: bool):
    """Integral of f over each cell ``tuples`` (m, n) of the grid with
    per-axis edges ``edges`` (n, cells + 1): over the sector part of the
    cell for a sector grid, over the whole cell for a box.  Points are
    evaluated one block of ``_blocks`` at a time.
    """
    sums = np.zeros(tuples.shape[0])
    for rows, pts, wts in _blocks(edges, tuples, order, sector):
        values = np.asarray(f(pts))
        if np.iscomplexobj(values):
            raise TypeError("adaptive quadrature integrates real-valued f only")
        sums[rows] += values.reshape(rows.size, -1) @ wts
    return sums


def _volume_share(tuples, cells: int, sector: bool):
    """Share of each cell ``tuples`` in the volume of the grid's domain at
    ``cells`` per axis: the whole cube for a box, its descending sector
    for a sector grid, where a cell with tied indices holds 1/prod g! of
    its volume for tie groups of sizes g."""
    n = tuples.shape[1]
    if not sector:
        return np.full(tuples.shape[0], float(cells) ** -n)
    run = np.ones(tuples.shape[0])
    ties = np.ones(tuples.shape[0])
    for k in range(1, n):
        run = np.where(tuples[:, k] == tuples[:, k - 1], run + 1.0, 1.0)
        ties *= run
    return math.factorial(n) / ties / float(cells) ** n


#: Most rounds of cell splitting an adaptive integral makes.
MAX_DOUBLINGS = 7


def _adaptive(f, lo, hi, n: int, sector: bool, tol: float, order: int,
              start_cells: int):
    """Cell-local adaptive quadrature over the box prod_k [lo_k, hi_k], or
    over the sector part of the hull-grid cells that meet it, starting
    from the cells ``_grid`` keeps at ``start_cells`` per axis.

    Each round evaluates the 2^n children 2t + a (a in {0, 1}^n) of every
    unsettled cell t that ``_keep`` keeps.  A cell settles when its
    estimate and its children's sum differ by at most tol |I| (v + w) / 2,
    where |I| is the current total, v the cell's share of the domain
    volume and w its share of the current integral of |f|: each share
    sums to at most one over the cells, so the settled differences sum to
    at most tol |I|.  The children's sum of a settled cell is final.  The
    share w lets the cells of a narrow peak settle at tol relative to
    their own integral instead of at the volume share, which would demand
    far more there.  Cells still unsettled after ``MAX_DOUBLINGS`` rounds
    raise QuadratureNotConverged, whose message gives the running
    estimate.
    """
    lo, hi = np.broadcast_to(lo, (n,)), np.broadcast_to(hi, (n,))
    offsets = all_cells(2, n)
    cells = start_cells
    edges, tuples = _grid(lo, hi, n, cells, sector)
    values = _cell_sums(f, edges, tuples, order, sector)
    total = error = mass = 0.0
    for _ in range(MAX_DOUBLINGS):
        share = _volume_share(tuples, cells, sector)
        cells *= 2
        edges = _edges(lo, hi, cells, sector)
        children = (2 * tuples[:, None, :] + offsets).reshape(-1, n)
        parents = np.repeat(np.arange(tuples.shape[0]), offsets.shape[0])
        kept = _keep(edges, children, lo, hi, sector)
        children, parents = children[kept], parents[kept]
        child_values = _cell_sums(f, edges, children, order, sector)
        refined = np.bincount(parents, child_values, minlength=tuples.shape[0])
        change = np.abs(refined - values)
        estimate = total + float(refined.sum())
        absolute = np.abs(refined)
        weight = absolute / max(mass + float(absolute.sum()), 1e-300)
        settled = change <= 0.5 * tol * abs(estimate) * (share + weight)
        total += float(refined[settled].sum())
        error += float(change[settled].sum())
        mass += float(absolute[settled].sum())
        unsettled = ~settled[parents]
        tuples, values = children[unsettled], child_values[unsettled]
        if tuples.shape[0] == 0:
            return total, error
    raise QuadratureNotConverged(
        f"no convergence to tol={tol} after {MAX_DOUBLINGS} doublings; "
        f"running estimate {total + float(values.sum())!r}")


def integrate_box(f, box, tol: float, order: int, start_cells: int = 2):
    """Adaptive tensor quadrature of a real vectorized f over a box.

    f maps an (M, n) array of points to (M,) real values; a complex f
    raises TypeError.  Starting from ``box_rule``'s cells at
    ``start_cells`` per axis, only the cells whose estimate has not
    settled are split, at most ``MAX_DOUBLINGS`` times.  Returns (value,
    error estimate) as floats; raises QuadratureNotConverged on failure.
    """
    box = np.asarray(box, dtype=float)
    return _adaptive(f, box[:, 0], box[:, 1], box.shape[0], False, tol, order,
                     start_cells)


def integrate_sector(f, lo, hi, n: int, tol: float, order: int, start_cells: int = 2):
    """Adaptive quadrature of a real f over the descending sector of [lo, hi]^n.

    Starts from ``sector_rule``'s cells at ``start_cells`` per axis and
    splits only the cells whose estimate has not settled, at most
    ``MAX_DOUBLINGS`` times, keeping the children that are weakly
    descending and meet the box.  With per-axis bounds of shape (n,) the
    grid lies on the hull cube [min lo, max hi]^n and the integral is over
    the sector part of the cells covering the box prod_k [lo_k, hi_k];
    scalar bounds integrate over the whole cube.  Volume shares are
    shares of the hull cube's sector, so a kept cell settles as in the
    hull-cube integral.  Returns (value, error estimate) as floats.
    """
    return _adaptive(f, lo, hi, n, True, tol, order, start_cells)
