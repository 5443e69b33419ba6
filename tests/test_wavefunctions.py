import itertools
import math

import numpy as np
import pytest

from contact_duality.errors import GridMismatch, NotEquivariant
from contact_duality.grids import FullGrid, SectorGrid, WavefunctionGrid, sample_sector_function
from contact_duality.permutations import Statistics
from contact_duality.wavefunctions import (
    bf_map,
    check_equivariant,
    extend,
    restrict,
)


def random_sector_state(n, points, seed, length=3.0):
    grid = SectorGrid(n=n, length=length, points=points)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
    return WavefunctionGrid(grid, values, "sector")


def test_grid_tables_and_ranks_match_itertools():
    for n in (2, 3, 4):
        points = 6
        sector = SectorGrid(n=n, length=3.0, points=points)
        full = FullGrid(n=n, length=3.0, points=points)
        sector_ref = sorted(itertools.combinations(range(points - 1, -1, -1), n))
        full_ref = [t for t in itertools.product(range(points), repeat=n)
                    if len(set(t)) == n]
        assert [tuple(t) for t in sector.node_indices().tolist()] == sector_ref
        assert [tuple(t) for t in full.node_indices().tolist()] == full_ref
        assert sector.size == len(sector_ref) and full.size == len(full_ref)
        np.testing.assert_array_equal(sector.coords_1d,
                                      (np.arange(points) + 0.5) * 3.0 / points)

        rank = {t: k for k, t in enumerate(sector_ref)}
        picked = np.random.default_rng(n).permutation(len(sector_ref))[:10]
        wanted = np.asarray(sector_ref)[picked]
        np.testing.assert_array_equal(sector.rank_of(wanted),
                                      [rank[tuple(t)] for t in wanted.tolist()])
        with pytest.raises(GridMismatch):
            sector.rank_of(np.arange(n)[None, :])  # ascending: not a sector node

        full_rank = {t: k for k, t in enumerate(full_ref)}
        for j in range(n - 1):
            swapped = [t[:j] + (t[j + 1], t[j]) + t[j + 2:] for t in full_ref]
            np.testing.assert_array_equal(full.transposition_map(j),
                                          [full_rank[t] for t in swapped])
        ranks, signs = full.sector_decomposition()
        sorted_ref = [tuple(sorted(t, reverse=True)) for t in full_ref]
        np.testing.assert_array_equal(ranks, [rank[t] for t in sorted_ref])
        pair_signs = [math.prod(1 if t[a] > t[b] else -1 for a, b in
                                itertools.combinations(range(n), 2)) for t in full_ref]
        np.testing.assert_array_equal(signs, pair_signs)


def test_extend_two_body_values():
    psi = random_sector_state(2, 6, seed=0)
    grid = psi.grid
    for stat, sign in ((Statistics.BOSE, 1.0), (Statistics.FERMI, -1.0)):
        ext = extend(psi, stat)
        full_idx = ext.grid.node_indices()
        sector_idx = grid.node_indices()
        ranks = {tuple(t): k for k, t in enumerate(sector_idx)}
        for m, t in enumerate(full_idx):
            if t[0] < t[1]:  # below the diagonal: value from the mirrored node
                expected = sign * psi.values[ranks[(t[1], t[0])]] / math.sqrt(2)
                np.testing.assert_allclose(ext.values[m], expected)


def test_extend_preserves_norm_and_equivariance():
    for n in (2, 3):
        psi = random_sector_state(n, 6, seed=n).normalized()
        for stat in Statistics:
            ext = extend(psi, stat)
            np.testing.assert_allclose(ext.norm(), 1.0, rtol=1e-12)
            check_equivariant(ext, stat)


def test_restrict_round_trip():
    for n in (2, 3):
        for stat in Statistics:
            psi = random_sector_state(n, 5, seed=10 * n)
            back = restrict(extend(psi, stat), stat)
            np.testing.assert_allclose(back.values, psi.values, rtol=1e-13)


def test_restrict_rejects_generic_function():
    grid = FullGrid(n=2, length=3.0, points=5)
    rng = np.random.default_rng(2)
    psi = WavefunctionGrid(grid, rng.normal(size=grid.size), "full", Statistics.BOSE)
    with pytest.raises(NotEquivariant) as err:
        restrict(psi, Statistics.BOSE)
    assert err.value.residual > 1e-3


def test_bf_map_is_extension_identity():
    # Both statistics extensions of one sector function are related by
    # the pair-sign product, node by node.
    for n in (2, 3):
        psi = random_sector_state(n, 6, seed=n + 100)
        bose = extend(psi, Statistics.BOSE)
        fermi = extend(psi, Statistics.FERMI)
        mapped = bf_map(bose)
        np.testing.assert_allclose(mapped.values, fermi.values, atol=1e-12)
        assert mapped.stat is Statistics.FERMI


def test_bf_map_probability_and_involution():
    psi = random_sector_state(3, 5, seed=9)
    bose = extend(psi, Statistics.BOSE)
    fermi = bf_map(bose)
    np.testing.assert_allclose(np.abs(fermi.values), np.abs(bose.values), rtol=1e-14)
    # applying the sign product twice is the identity off the coincidence set
    again = WavefunctionGrid(fermi.grid, bf_map_values_back(fermi), "full", Statistics.BOSE)
    np.testing.assert_allclose(again.values, bose.values, rtol=1e-14)


def _pair_sign_product(x) -> np.ndarray:
    """prod_{j<k} sgn(x_j - x_k) over the last axis."""
    out = np.ones(x.shape[:-1])
    for j, k in itertools.combinations(range(x.shape[-1]), 2):
        out = out * np.sign(x[..., j] - x[..., k])
    return out


def bf_map_values_back(fermi_state):
    return _pair_sign_product(fermi_state.grid.nodes()) * fermi_state.values


def test_bf_map_signs_are_pair_sign_products():
    for n, points in ((2, 7), (3, 6), (4, 6)):
        bose = extend(random_sector_state(n, points, seed=n), Statistics.BOSE)
        fermi = bf_map(bose)
        np.testing.assert_array_equal(fermi.values,
                                      _pair_sign_product(bose.grid.nodes()) * bose.values)


def test_two_body_sign_example():
    # Nodes (0.3, 0.7) and (0.7, 0.3) on a [0, 1] grid with 10 cells.
    grid = FullGrid(n=2, length=1.0, points=10)
    psi = sample_sector_function(grid.sector(), lambda x: np.exp(-np.sum(x, axis=-1)))
    bose = extend(psi, Statistics.BOSE)
    fermi = bf_map(bose)
    nodes = bose.grid.nodes()
    k_below = int(np.where((np.abs(nodes[:, 0] - 0.35) < 1e-9)
                           & (np.abs(nodes[:, 1] - 0.75) < 1e-9))[0][0])
    k_above = int(np.where((np.abs(nodes[:, 0] - 0.75) < 1e-9)
                           & (np.abs(nodes[:, 1] - 0.35) < 1e-9))[0][0])
    np.testing.assert_allclose(fermi.values[k_below], -bose.values[k_below])
    np.testing.assert_allclose(fermi.values[k_above], bose.values[k_above])
