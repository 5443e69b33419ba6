"""Equivariant extension and the boson-fermion map.

The exchange statistics is a one-dimensional unitary character of the
symmetric group, trivial (Bose) or the sign (Fermi): ``Statistics``
and its ``character`` live in ``permutations``.  A wavefunction on the
descending sector extends to the coincidence-free space via

    psi_stat(x) = chi(sigma) psi(sigma x) / sqrt(n!),

where sigma sorts x into the sector, and the two extensions of the same
sector function are related node by node through the product of pair
signs: multiplying a totally symmetric function by prod sgn(x_j - x_k)
yields the totally antisymmetric one with identical probability density.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GridMismatch, NotEquivariant
from .grids import FullGrid, WavefunctionGrid
from .permutations import Statistics, sort_descending

#: Relative tolerance for the exchange-symmetry check; extension itself is
#: exact arithmetic, so only round-off accumulates.
EQUIVARIANCE_RTOL = 1e-10


def _require(cond: bool, message: str):
    if not cond:
        raise GridMismatch(message)


def extend(psi: WavefunctionGrid, stat: Statistics) -> WavefunctionGrid:
    """Extend a sector wavefunction equivariantly to the full grid, the
    symmetric closure of its sector grid.

    On the region sorted by sigma the output equals
    chi(sigma) psi(sigma x) / sqrt(n!); the n! copies each carry 1/n! of
    the squared norm, so the norm is preserved.
    """
    _require(psi.space == "sector", "extend expects a sector wavefunction")
    sector = psi.grid
    full = FullGrid(n=sector.n, length=sector.length, points=sector.points)
    ranks, signs = full.sector_decomposition()
    norm = math.sqrt(math.factorial(sector.n))
    values = stat.character(signs) * psi.values[ranks] / norm
    return WavefunctionGrid(full, values, "full", stat)


def equivariance_residual(psi: WavefunctionGrid, stat: Statistics):
    """Worst violation of psi(tau x) = chi(tau) psi(x) over adjacent swaps.

    Checking the adjacent transpositions suffices: they generate the
    group and the character is a homomorphism.  Returns (residual,
    node index of the worst pair, swap index).
    """
    _require(psi.space == "full", "equivariance is defined on full grids")
    grid = psi.grid
    scale = float(np.max(np.abs(psi.values))) or 1.0
    worst = (0.0, -1, -1)
    chi = stat.character(-1)  # every swap is odd
    for j in range(grid.n - 1):
        perm = grid.transposition_map(j)
        dev = np.abs(psi.values[perm] - chi * psi.values)
        k = int(np.argmax(dev))
        if dev[k] > worst[0]:
            worst = (float(dev[k]), k, j)
    return worst[0] / scale, worst[1], worst[2]


def check_equivariant(psi: WavefunctionGrid, stat: Statistics):
    residual, node, swap = equivariance_residual(psi, stat)
    if residual > EQUIVARIANCE_RTOL:
        raise NotEquivariant(
            f"exchange symmetry violated: relative residual {residual:.3e} "
            f"at node {node} under swap of slots {swap},{swap + 1}",
            node=node, partner=swap, residual=residual,
        )


def restrict(psi: WavefunctionGrid, stat: Statistics) -> WavefunctionGrid:
    """Left inverse of extend: sector values times sqrt(n!).

    Verifies the exchange symmetry first and reports the offending node
    pair if it fails.
    """
    check_equivariant(psi, stat)
    full = psi.grid
    sector = full.sector()
    idx = full.node_indices()
    on_sector = np.all(idx[:, :-1] > idx[:, 1:], axis=-1)
    order = sector.rank_of(idx[on_sector])
    values = np.empty(sector.size, dtype=psi.values.dtype)
    values[order] = psi.values[on_sector] * math.sqrt(math.factorial(full.n))
    return WavefunctionGrid(sector, values, "sector", None)


def bf_map(psi_b: WavefunctionGrid) -> WavefunctionGrid:
    """Map a Bose function to its Fermi partner: each node value times the
    sign of the permutation sorting the node, which is the product of
    pair signs sgn(x_j - x_k), j < k.

    Node magnitudes are untouched, so probability densities agree, and
    applying the map twice returns the input.
    """
    check_equivariant(psi_b, Statistics.BOSE)
    _, _, signs = sort_descending(psi_b.grid.node_indices())
    return WavefunctionGrid(psi_b.grid, signs * psi_b.values, "full", Statistics.FERMI)
