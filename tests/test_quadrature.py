import itertools
import math
import tracemalloc

import numpy as np
import pytest

from contact_duality.errors import QuadratureNotConverged
from contact_duality.folding import (
    FoldCheckResult,
    GaussianTestFunction,
    QuadSpec,
    fold_integral_check,
    random_gaussian,
)
from contact_duality import quadrature
from contact_duality.quadrature import (
    EVAL_CHUNK,
    _box_blocks,
    _ordered_cube_rule,
    _pattern_rule,
    _sector_blocks,
    box_rule,
    integrate_box,
    integrate_sector,
    sector_rule,
)


def test_ordered_cube_rule_volume():
    # The descending order simplex of the unit cube has volume 1/g!.
    for g in (1, 2, 3, 4):
        pts, wts = _ordered_cube_rule(g, 6)
        np.testing.assert_allclose(np.sum(wts), 1.0 / math.factorial(g), rtol=1e-12)
        assert np.all(np.diff(pts, axis=-1) <= 1e-15)


def test_ordered_cube_rule_polynomial():
    # integral of z1 over {1 >= z1 >= z2 >= 0} is 1/3
    pts, wts = _ordered_cube_rule(2, 8)
    np.testing.assert_allclose(np.sum(wts * pts[:, 0]), 1.0 / 3.0, rtol=1e-12)
    np.testing.assert_allclose(np.sum(wts * pts[:, 1]), 1.0 / 6.0, rtol=1e-12)


def test_box_rule_weights_sum_to_volume():
    box = np.array([[0.0, 2.0], [-1.0, 1.0]])
    _, wts = box_rule(box, 3, order=4)
    np.testing.assert_allclose(np.sum(wts), 4.0, rtol=1e-13)


def test_integrate_gaussian_box():
    f = lambda x: np.exp(-np.sum(x**2, axis=-1))
    box = np.array([[-7.0, 7.0], [-7.0, 7.0]])
    val, err = integrate_box(f, box, tol=1e-11, order=8)
    np.testing.assert_allclose(val, np.pi, rtol=1e-10)


def test_sector_of_symmetric_function():
    # For a symmetric integrand the sector integral is 1/n! of the box one.
    f = lambda x: np.exp(-np.sum(x**2, axis=-1))
    for n in (2, 3):
        full, _ = integrate_box(f, np.array([[-6.0, 6.0]] * n), tol=1e-10, order=8)
        sect, _ = integrate_sector(f, -6.0, 6.0, n, tol=1e-10, order=8)
        np.testing.assert_allclose(sect, full / math.factorial(n), rtol=1e-9)


def test_sector_rule_total_weight():
    _, wts = sector_rule(0.0, 1.0, 3, 4, order=4)
    np.testing.assert_allclose(np.sum(wts), 1.0 / 6.0, rtol=1e-12)


def _whole_box_rule(box, cells, order):
    """The tensor rule built whole: a meshgrid of the per-axis panel rules."""
    x1, w1 = np.polynomial.legendre.leggauss(order)
    x1, w1 = (x1 + 1.0) / 2.0, w1 / 2.0
    axis_pts, axis_wts = [], []
    for lo, hi in box:
        edges = np.linspace(lo, hi, cells + 1)
        h = edges[1] - edges[0]
        axis_pts.append((edges[:-1, None] + h * x1[None, :]).ravel())
        axis_wts.append(np.tile(h * w1, cells))
    pts = np.stack([g.ravel() for g in np.meshgrid(*axis_pts, indexing="ij")], axis=-1)
    wts = np.prod(np.stack([g.ravel() for g in np.meshgrid(*axis_wts, indexing="ij")],
                           axis=-1), axis=-1)
    return pts, wts


def _whole_sector_rule(lo, hi, n, cells, order):
    """The sector rule built whole, grouping cells by tie pattern one
    index tuple at a time."""
    edges = np.linspace(lo, hi, cells + 1)
    h = edges[1] - edges[0]
    by_pattern = {}
    for c in itertools.combinations_with_replacement(range(cells - 1, -1, -1), n):
        runs = [len(list(group)) for _, group in itertools.groupby(c)]
        by_pattern.setdefault(tuple(runs), []).append(c)
    all_pts, all_wts = [], []
    for pattern, cell_list in by_pattern.items():
        local_pts, local_wts = _pattern_rule(pattern, order)
        origins = edges[np.asarray(cell_list, dtype=int)]
        all_pts.append((origins[:, None, :] + h * local_pts[None, :, :]).reshape(-1, n))
        all_wts.append(np.tile(h**n * local_wts, len(cell_list)))
    return np.concatenate(all_pts, axis=0), np.concatenate(all_wts)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("chunk", [EVAL_CHUNK, 100, 7])
def test_blocks_concatenate_to_the_whole_rule(monkeypatch, chunk):
    # Streamed blocks are the whole rule cut in order: points, weights
    # and their order agree bitwise, and no block exceeds EVAL_CHUNK.
    monkeypatch.setattr(quadrature, "EVAL_CHUNK", chunk)
    box = np.array([[-1.3, 2.1], [0.5, 0.9], [-3.0, -1.0], [0.0, 1.0]])
    for n in (1, 2, 3, 4):
        for cells, order in ((1, 4), (3, 3), (5, 2), (6, 6)):
            if n == 4 and cells * order > 12:
                continue
            for blocks, rule, whole in (
                    (_sector_blocks(-1.3, 2.1, n, cells, order),
                     sector_rule(-1.3, 2.1, n, cells, order),
                     _whole_sector_rule(-1.3, 2.1, n, cells, order)),
                    (_box_blocks(box[:n], cells, order), box_rule(box[:n], cells, order),
                     _whole_box_rule(box[:n], cells, order))):
                blocks = list(blocks)
                assert all(0 < w.size <= chunk and p.shape == (w.size, n)
                           for p, w in blocks)
                pts = np.concatenate([p for p, _ in blocks])
                wts = np.concatenate([w for _, w in blocks])
                for got in ((pts, wts), rule):
                    assert _same_bits(got[0], whole[0]) and _same_bits(got[1], whole[1])


def test_integrate_sector_memory_is_bounded_by_the_block():
    # At 32 panels per axis the whole n=3 order-8 sector rule holds over
    # 90 MB of points and weights; integrating over it block by block
    # allocates a small fraction of that.
    n, order, cells = 3, 8, 32
    points = sum(w.size for _, w in _sector_blocks(-6.0, 6.0, n, cells, order))
    assert points * (n + 1) * 8 > 90e6
    f = lambda x: np.exp(-np.sum(x * x, axis=-1))
    tracemalloc.start()
    try:
        value, _ = integrate_sector(f, -6.0, 6.0, n, tol=1e-6, order=order,
                                    start_cells=cells // 2, max_doublings=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(value, np.pi**1.5 / 6.0, rtol=1e-9)
    assert peak < 20e6


def test_not_converged_raises():
    rng = np.random.default_rng(0)
    f = lambda x: rng.normal(size=x.shape[0])  # noise never converges
    with pytest.raises(QuadratureNotConverged):
        integrate_box(f, np.array([[0.0, 1.0]]), tol=1e-12, max_doublings=2)


def test_fold_identity_gaussian_n2():
    f = GaussianTestFunction(matrix=np.eye(2), center=np.zeros(2))
    spec = QuadSpec(box=f.support_box(), tol=1e-10, order=8)
    res = fold_integral_check(f, spec)
    np.testing.assert_allclose(res.lhs, np.pi, rtol=1e-9)
    np.testing.assert_allclose(res.rhs, np.pi, rtol=1e-9)
    assert res.residual <= 1e-9


def test_fold_identity_gaussian_n3():
    f = GaussianTestFunction(matrix=np.eye(3), center=np.zeros(3))
    spec = QuadSpec(box=f.support_box(), tol=1e-9, order=8)
    res = fold_integral_check(f, spec)
    np.testing.assert_allclose(res.lhs, np.pi**1.5, rtol=1e-8)
    assert res.residual <= 1e-8


def test_fold_identity_asymmetric_integrand():
    # The identity holds for arbitrary test functions, not only symmetric.
    f = GaussianTestFunction(matrix=np.diag([1.0, 2.0]), center=np.array([0.3, -0.2]),
                             linear=np.array([1.0, 0.0]))
    spec = QuadSpec(box=f.support_box(), tol=1e-10, order=8)
    res = fold_integral_check(f, spec)
    assert isinstance(res, FoldCheckResult)
    assert res.residual <= 1e-8
    assert abs(res.lhs) > 1e-3  # genuinely asymmetric, nonzero integral


def test_fold_identity_random_family():
    rng = np.random.default_rng(42)
    for n, tol in ((2, 1e-8), (3, 1e-7)):
        for _ in range(3):
            f = random_gaussian(n, rng)
            spec = QuadSpec(box=f.support_box(), tol=1e-9, order=8)
            res = fold_integral_check(f, spec)
            assert res.residual <= tol


def test_random_gaussian_exact_integral():
    rng = np.random.default_rng(1)
    f = random_gaussian(2, rng)
    spec = QuadSpec(box=f.support_box(), tol=1e-10, order=8)
    res = fold_integral_check(f, spec)
    np.testing.assert_allclose(res.lhs, f.exact_integral(), rtol=1e-8)
