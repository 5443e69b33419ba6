import contextlib
import dataclasses
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
from contact_duality.kernel_checks import (
    SamplingSpec,
    _sample_points,
    initial_condition_intercept,
)
from contact_duality.kernels import free_kernel, permutation_sum
from contact_duality.permutations import Statistics, group_table
from contact_duality.quadrature import (
    EVAL_CHUNK,
    _blocks,
    _grid,
    _ordered_cube_rule,
    _pattern_rule,
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
    """The tensor rule built whole, cell by cell in row-major cell order:
    each cell holds the unit-cell tensor rule scaled to it, with weights
    its volume times the unit-cell weights."""
    n = len(box)
    edges = np.stack([np.linspace(lo, hi, cells + 1) for lo, hi in box])
    h = edges[:, 1] - edges[:, 0]
    local_pts, local_wts = _pattern_rule((1,) * n, order)
    origins = edges[np.arange(n), list(itertools.product(range(cells), repeat=n))]
    pts = (origins[:, None, :] + h * local_pts[None, :, :]).reshape(-1, n)
    return pts, np.tile(np.prod(h) * local_wts, cells**n)


def _whole_sector_rule(lo, hi, n, cells, order):
    """The sector rule built whole, grouping cells by tie pattern one
    index tuple at a time, with weights each cell's volume times its
    pattern's unit-cell weights.  Per-axis bounds keep the cells of the
    grid on the hull [min lo, max hi] that meet the box."""
    lo, hi = np.broadcast_to(lo, (n,)), np.broadcast_to(hi, (n,))
    edges = np.linspace(lo.min(), hi.max(), cells + 1)
    h = edges[1] - edges[0]
    by_pattern = {}
    for c in itertools.combinations_with_replacement(range(cells - 1, -1, -1), n):
        if not all(edges[t + 1] > a and edges[t] < b for t, a, b in zip(c, lo, hi)):
            continue
        runs = [len(list(group)) for _, group in itertools.groupby(c)]
        by_pattern.setdefault(tuple(runs), []).append(c)
    all_pts, all_wts = [], []
    for pattern, cell_list in by_pattern.items():
        local_pts, local_wts = _pattern_rule(pattern, order)
        origins = edges[np.asarray(cell_list, dtype=int)]
        all_pts.append((origins[:, None, :] + h * local_pts[None, :, :]).reshape(-1, n))
        all_wts.append(np.tile(np.prod([h] * n) * local_wts, len(cell_list)))
    return np.concatenate(all_pts, axis=0), np.concatenate(all_wts)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("chunk", [EVAL_CHUNK, 100, 7])
def test_blocks_concatenate_to_the_whole_rule(monkeypatch, chunk):
    # Streamed blocks are the whole rule cut in order: points, weights
    # and their order agree bitwise, and no block exceeds EVAL_CHUNK.
    # Per-axis sector bounds: a box about a descending point whose hull
    # is the scalar case's [-1.3, 2.1].
    monkeypatch.setattr(quadrature, "EVAL_CHUNK", chunk)
    box = np.array([[-1.3, 2.1], [0.5, 0.9], [-3.0, -1.0], [0.0, 1.0]])
    lo = np.array([0.2, -0.6, -1.1, -1.3])
    hi = np.array([2.1, 1.0, 0.3, -0.4])
    for n in (1, 2, 3, 4):
        for cells, order in ((1, 4), (3, 3), (5, 2), (6, 6)):
            if n == 4 and cells * order > 12:
                continue
            for grid, sector, rule, whole in (
                    (_grid(-1.3, 2.1, n, cells, True), True,
                     sector_rule(-1.3, 2.1, n, cells, order),
                     _whole_sector_rule(-1.3, 2.1, n, cells, order)),
                    (_grid(lo[:n], hi[:n], n, cells, True), True,
                     sector_rule(lo[:n], hi[:n], n, cells, order),
                     _whole_sector_rule(lo[:n], hi[:n], n, cells, order)),
                    (_grid(box[:n, 0], box[:n, 1], n, cells, False), False,
                     box_rule(box[:n], cells, order),
                     _whole_box_rule(box[:n], cells, order))):
                blocks = list(_blocks(*grid, order, sector))
                assert all(0 < p.shape[0] == rows.size * w.size <= chunk
                           and p.shape[1] == n for rows, p, w in blocks)
                pts = np.concatenate([p for _, p, _ in blocks])
                wts = np.concatenate([np.tile(w, rows.size) for rows, _, w in blocks])
                for got in ((pts, wts), rule):
                    assert _same_bits(got[0], whole[0]) and _same_bits(got[1], whole[1])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_first_adaptive_round_evaluates_the_whole_rule(n):
    # The adaptive drivers start from the rules' own layout: their first
    # round evaluates the points of box_rule and sector_rule at
    # start_cells, in order and bit for bit.
    box = np.array([[-1.3, 2.1], [0.5, 0.9], [-3.0, -1.0]])[:n]
    calls = []

    def f(x):
        calls.append(x.copy())
        return np.exp(-np.sum(x * x, axis=-1))

    kw = dict(tol=1e-3, order=3, start_cells=3, max_doublings=1)
    for integrate, args, rule in (
            (integrate_box, (box,), box_rule(box, 3, order=3)),
            (integrate_sector, (-1.3, 2.1, n), sector_rule(-1.3, 2.1, n, 3, order=3)),
            (integrate_sector, (box[:, 0], box[:, 1], n),
             sector_rule(box[:, 0], box[:, 1], n, 3, order=3))):
        calls.clear()
        with contextlib.suppress(QuadratureNotConverged):
            integrate(f, *args, **kw)
        first = np.concatenate(calls)[:rule[0].shape[0]]
        assert _same_bits(first, rule[0])


@pytest.mark.parametrize("n", [2, 3])
def test_box_clipped_sector_matches_the_hull_cube(n):
    # A Gaussian below 1e-16 outside the box integrates over the cells
    # that meet the box to its value over the whole hull cube.
    center = np.array([1.0, -0.5, -2.0])[:n]
    width = 0.1
    radius = width * math.sqrt(2.0 * math.log(1e16))
    f = lambda z: np.exp(-np.sum((z - center) ** 2, axis=-1) / (2.0 * width**2))
    lo, hi = center - radius, center + radius
    kw = dict(tol=1e-11, order=8, start_cells=4, max_doublings=6)
    clipped, _ = integrate_sector(f, lo, hi, n, **kw)
    hull, _ = integrate_sector(f, lo.min(), hi.max(), n, **kw)
    np.testing.assert_allclose(clipped, hull, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(clipped, (2.0 * np.pi * width**2) ** (n / 2), rtol=1e-12)
    assert sector_rule(lo, hi, n, 16)[1].size < sector_rule(lo.min(), hi.max(), n, 16)[1].size


#: Kernel points the short-time check below evaluates when its sector
#: integrals run over every cell of the hull cube.
HULL_CUBE_POINTS = 14_381_280


def test_short_time_check_evaluates_under_half_the_hull_cube_points():
    # The n=3 Fermi suite at the benchmark's settings: its sector
    # integrals need only the cells that meet the truncation box.
    spec = SamplingSpec(seed=0, pairs=2, quad_tol=1e-5, quad_order=6,
                        initial_depth=3)
    kernel = permutation_sum(free_kernel(3), Statistics.FERMI)
    points = []

    def evaluate(x, y, tau):
        values = kernel.evaluate(x, y, tau)
        points.append(np.size(values))
        return values

    counted = dataclasses.replace(kernel, evaluate=evaluate)
    x = _sample_points(spec, 3, spec.pairs, sector=True)[0]
    intercept, _ = initial_condition_intercept(counted, x, spec)
    assert intercept < 1e-4
    assert 0 < sum(points) < HULL_CUBE_POINTS / 2


def test_integrate_sector_memory_is_bounded_by_the_block():
    # At 32 panels per axis the whole n=3 order-8 sector rule holds over
    # 90 MB of points and weights; integrating over it block by block
    # allocates a small fraction of that.
    n, order, cells = 3, 8, 32
    points = sum(p.shape[0] for _, p, _ in _blocks(*_grid(-6.0, 6.0, n, cells, True),
                                                    order, True))
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
    with pytest.raises(QuadratureNotConverged, match="running estimate"):
        integrate_box(f, np.array([[0.0, 1.0]]), tol=1e-12, max_doublings=2)


@pytest.mark.parametrize("n, count", [(2, 40), (3, 6)])
def test_random_gaussians_meet_the_tolerance(n, count):
    # Box and symmetrized-sector integrals of random Gaussians are within
    # tol of the closed form at every tolerance from 1e-6 to 1e-10.
    rng = np.random.default_rng(n)
    rows = group_table(n)[0].tolist()
    for _ in range(count):
        g = random_gaussian(n, rng)
        box = g.support_box()
        exact = g.exact_integral()
        symmetrized = lambda y: sum(g(y[..., image]) for image in rows)
        for tol in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
            kw = dict(tol=tol, order=8, max_doublings=6)
            full, _ = integrate_box(g, box, **kw)
            sect, _ = integrate_sector(symmetrized, box[:, 0].min(), box[:, 1].max(), n,
                                       **kw)
            assert abs(full - exact) <= tol * exact
            assert abs(sect - exact) <= tol * exact


def test_narrow_peak_is_refined_locally():
    # A Gaussian of width 0.05 in [-8, 8]^2 needs 8 doublings; only the
    # cells about the peak are split, so under half the points of the
    # uniform rule at that depth reach f.
    center = np.array([1.3, -0.7])
    calls = []

    def f(x):
        calls.append(x.shape[0])
        return np.exp(-np.sum((x - center) ** 2, axis=-1) / (2.0 * 0.05**2))

    box = np.array([[-8.0, 8.0], [-8.0, 8.0]])
    kw = dict(tol=1e-8, order=6, start_cells=2)
    with pytest.raises(QuadratureNotConverged):
        integrate_box(f, box, max_doublings=7, **kw)
    calls.clear()
    value, _ = integrate_box(f, box, max_doublings=8, **kw)
    np.testing.assert_allclose(value, 2.0 * np.pi * 0.05**2, rtol=1e-8)
    uniform = (2 * 2**8 * 6) ** 2
    assert sum(calls) < uniform / 2


def test_integrators_return_python_floats():
    f = lambda x: np.exp(-np.sum(x * x, axis=-1))
    results = (integrate_box(f, np.array([[-6.0, 6.0]] * 2), tol=1e-8),
               integrate_sector(f, -6.0, 6.0, 2, tol=1e-8),
               integrate_sector(f, np.array([-6.0, -5.0]), np.array([6.0, 5.0]), 2,
                                tol=1e-8))
    for value, error in results:
        assert type(value) is float and type(error) is float


def test_complex_integrand_raises():
    f = lambda x: np.exp(1j * x[:, 0])
    with pytest.raises(TypeError):
        integrate_box(f, np.array([[0.0, 1.0]]), tol=1e-8)


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
    g = GaussianTestFunction(matrix=np.diag([1.0, 2.0]), center=np.array([0.3, -0.2]))

    def f(y):
        return g(y) * y[:, 0]  # odd prefactor

    spec = QuadSpec(box=g.support_box(), tol=1e-10, order=8)
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


def test_gaussian_test_function_matches_pointwise_form():
    # row- and column-major points give the pointwise exp(-d.A.d)
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        f = random_gaussian(n, rng)
        y = rng.normal(size=(50, n))
        expected = [np.exp(-(p - f.center) @ f.matrix @ (p - f.center)) for p in y]
        for points in (y, np.asfortranarray(y)):
            np.testing.assert_allclose(f(points), expected, rtol=1e-13)
