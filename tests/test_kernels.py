import dataclasses

import numpy as np
import pytest

from contact_duality import kernels
from contact_duality.coupling import SQRT2, dirichlet, neumann, robin
from contact_duality.errors import CapExceeded
from contact_duality.kernels import (
    dual_pair_from_sector,
    free_kernel,
    gaussian_1d,
    permutation_sum,
    relative_half_line_kernel,
    robin_pair_kernel,
)
from contact_duality.permutations import Statistics, group_table
from contact_duality.quadrature import integrate_box, sector_rule


def test_free_kernel_normalization():
    k = free_kernel(1)
    np.testing.assert_allclose(
        k(np.array([[0.4]]), np.array([[0.4]]), 1.0 / (2 * np.pi)), 1.0, rtol=1e-14)


def test_free_kernel_probability_conservation():
    k = free_kernel(2)
    x = np.array([0.3, -0.6])
    val, _ = integrate_box(lambda y: np.asarray(k(x[None, :], y, 0.5)),
                           np.stack([x - 8, x + 8], axis=-1), tol=1e-11, order=8)
    np.testing.assert_allclose(val, 1.0, rtol=1e-10)


def test_free_kernel_composition_by_quadrature():
    k = free_kernel(1)
    x = np.array([0.2])
    y = np.array([-0.5])
    val, _ = integrate_box(
        lambda z: np.asarray(k(x[None, :], z, 0.5)) * np.asarray(k(z, y[None, :], 0.5)),
        np.array([[-9.0, 9.0]]), tol=1e-11, order=8)
    np.testing.assert_allclose(val, k(x[None, :], y[None, :], 1.0).item(), rtol=1e-9)


def test_relative_kernel_limits():
    u = np.array([0.5, 1.5])
    v = np.array([0.7, 0.2])
    tau = 0.3
    kd, _ = relative_half_line_kernel(dirichlet())
    np.testing.assert_allclose(
        kd(u, v, tau), gaussian_1d(u - v, tau) - gaussian_1d(u + v, tau), rtol=1e-14)
    np.testing.assert_allclose(kd(np.zeros(2), v, tau), 0.0, atol=1e-16)
    kn, _ = relative_half_line_kernel(neumann())
    np.testing.assert_allclose(
        kn(u, v, tau), gaussian_1d(u - v, tau) + gaussian_1d(u + v, tau), rtol=1e-14)
    # Neumann face: the central difference of the even extension is zero
    h = 1e-4
    np.testing.assert_allclose((kn(np.full(2, h), v, tau) - kn(np.full(2, -h), v, tau)) / (2 * h),
                               0.0, atol=1e-12)


def test_relative_kernel_face_condition_exact():
    for a in (-1.0, 1.0, -2.3, 0.4):
        k, dk = relative_half_line_kernel(robin(a))
        gamma = 1.0 / (np.sqrt(2.0) * a)
        v = np.linspace(0.05, 4.0, 9)
        for tau in (0.05, 0.4, 2.0):
            bc = dk(np.zeros_like(v), v, tau) - gamma * k(np.zeros_like(v), v, tau)
            assert np.max(np.abs(bc)) < 1e-12


def test_relative_kernel_matches_robin_limits():
    # tiny and huge coupling lengths approach the image-sum kernels
    u = np.array([0.6])
    v = np.array([0.9])
    kd, _ = relative_half_line_kernel(dirichlet())
    k_small, _ = relative_half_line_kernel(robin(1e-9))
    np.testing.assert_allclose(k_small(u, v, 0.4), kd(u, v, 0.4), rtol=1e-6)
    kn, _ = relative_half_line_kernel(neumann())
    k_big, _ = relative_half_line_kernel(robin(1e9))
    np.testing.assert_allclose(k_big(u, v, 0.4), kn(u, v, 0.4), rtol=1e-6)


def test_relative_kernel_bound_state_growth():
    # attractive coupling: long-time behavior dominated by the bound state
    a = -1.0
    gamma = 1.0 / (np.sqrt(2.0) * a)
    k, _ = relative_half_line_kernel(robin(a))
    u, v = np.array([0.8]), np.array([1.3])
    taus = np.array([20.0, 24.0])
    vals = np.array([k(u, v, t)[0] for t in taus])
    rate = np.log(vals[1] / vals[0]) / (taus[1] - taus[0])
    np.testing.assert_allclose(rate, gamma**2 / 2.0, rtol=1e-3)
    amp = vals[0] / np.exp(gamma**2 / 2.0 * taus[0])
    expected = 2.0 * abs(gamma) * np.exp(gamma * (u[0] + v[0]))
    np.testing.assert_allclose(amp, expected, rtol=1e-2)


def test_pair_kernel_face_residual():
    pk = robin_pair_kernel(robin(-1.0))
    y = np.array([[1.0, 0.1], [0.4, -0.9]])
    assert pk.pair_face_residual(y, 0.5) < 1e-12


def test_pair_kernel_records_its_coupling():
    assert robin_pair_kernel(dirichlet()).coupling.kind == "dirichlet"
    assert robin_pair_kernel(neumann()).coupling.kind == "neumann"
    assert robin_pair_kernel(robin(-2.0)).coupling.value == -2.0


def _relative(points):
    return (points[..., 0] - points[..., 1]) / SQRT2


def _count_error_function_arguments(monkeypatch):
    """Count the arguments passed to erfcx and erfc inside the kernels."""
    seen = []
    for name in ("erfcx", "erfc"):
        inner = getattr(kernels, name)

        def counted(z, inner=inner):
            seen.append(np.size(z))
            return inner(z)

        monkeypatch.setattr(kernels, name, counted)
    return seen


def test_pair_kernel_table_is_bitwise_the_direct_path():
    # Targets against a point set (the propagation broadcast) tabulate the
    # relative factor over distinct relative coordinates; one target at a
    # time evaluates it directly.  Equal floats give equal values, so the
    # two agree bit for bit, on the face u = 0 and where the attractive
    # correction takes its erfc branch (w + gamma tau < 0) too.
    rule, _ = sector_rule(-7.0, 7.0, 2, 20, 8)
    face = np.stack([np.linspace(-2.0, 2.0, 5)] * 2, axis=-1)
    near = face + np.array([0.01, -0.01])
    pts = np.concatenate([rule, face, near])
    targets = np.concatenate([rule[::1500], face[::2], near[::2], face[:1]])
    attractive = np.min(_relative(targets)[:, None] + _relative(pts)[None, :])
    assert attractive + 0.4 / (SQRT2 * -1.0) < 0
    for entry in (robin(1.0), robin(-1.0), robin(0.05), robin(-0.05), dirichlet(),
                  neumann()):
        pk = robin_pair_kernel(entry)
        for tau in (0.05, 0.4, 2.0):
            table = pk(targets[:, None, :], pts[None, :, :], tau)
            direct = np.stack([pk(x[None, :], pts, tau) for x in targets])
            assert table.shape == direct.shape == (targets.shape[0], pts.shape[0])
            assert np.array_equal(table, direct), (entry, tau)


@pytest.mark.parametrize("a", [1.0, -1.0])
def test_pair_kernel_error_functions_see_distinct_relative_coordinates(monkeypatch, a):
    # 64 targets against the 13,440-point sector rule: the special
    # functions see at most one argument per pair of distinct relative
    # coordinates, not one per (target, point) pair.
    rule, _ = sector_rule(-7.0, 7.0, 2, 20, 8)
    targets = rule[:64]
    seen = _count_error_function_arguments(monkeypatch)
    robin_pair_kernel(robin(a))(targets[:, None, :], rule[None, :, :], 0.4)
    distinct = np.unique(_relative(rule)).size
    assert 0 < sum(seen) <= 64 * distinct < 64 * rule.shape[0]


def test_pair_kernel_pairwise_points_stay_elementwise(monkeypatch):
    # (N, 2) x (N, 2) pairs each x with its own y: no table, one special
    # function argument per pair, and the unfactored formula bit for bit.
    rng = np.random.default_rng(11)
    x = -np.sort(-rng.uniform(-2.0, 2.0, size=(40, 2)), axis=-1)
    y = -np.sort(-rng.uniform(-2.0, 2.0, size=(40, 2)), axis=-1)
    k_rel, _ = relative_half_line_kernel(robin(-1.0))
    cx = (x[:, 0] + x[:, 1]) / SQRT2
    cy = (y[:, 0] + y[:, 1]) / SQRT2
    formula = gaussian_1d(cx - cy, 0.4) * k_rel(_relative(x), _relative(y), 0.4)
    seen = _count_error_function_arguments(monkeypatch)
    values = robin_pair_kernel(robin(-1.0))(x, y, 0.4)
    assert sum(seen) == 40
    assert values.shape == (40,)
    assert np.array_equal(values, formula)


def test_permutation_sum_face_values():
    kf = free_kernel(2)
    x_face = np.array([[0.5, 0.5]])
    y = np.array([[1.2, -0.3]])
    bose = permutation_sum(kf, Statistics.BOSE)
    fermi = permutation_sum(kf, Statistics.FERMI)
    np.testing.assert_allclose(bose(x_face, y, 0.7).item(),
                               2.0 * kf(x_face, y, 0.7).item(), rtol=1e-14)
    assert abs(fermi(x_face, y, 0.7).item()) < 1e-16


def test_permutation_sum_cap():
    with pytest.raises(CapExceeded):
        permutation_sum(free_kernel(9), Statistics.BOSE)


def _loop_sum(kernel, stat, x, y, tau):
    """The defining sum over the group: sum_sigma chi(sigma) K(x, sigma y)."""
    images, signs = group_table(kernel.n)
    total = 0.0
    for image, sign in zip(images, signs):
        chi = 1 if stat is Statistics.BOSE else sign
        total = total + chi * kernel(x, y[..., image], tau)
    return total


def test_determinant_permanent_identity():
    # The closed-form free-kernel sums (permanent for bosons, determinant
    # for fermions) agree with the defining loop to 1e-13 of the Bose sum.
    rng = np.random.default_rng(3)
    for n in (2, 3, 4, 5):
        k = free_kernel(n)
        base = np.sort(rng.normal(size=n))[::-1]
        tied = base.copy()
        tied[1] = tied[0] - 1e-6
        spread = np.linspace(3.0, -3.0, n) + 0.1 * rng.normal(size=n)
        cases = [
            # single points
            (base[None, :], np.sort(rng.normal(size=n))[::-1][None, :], 0.45),
            # the (b, 1, n) x (1, M, n) broadcast of propagate_at
            (rng.normal(size=(4, 1, n)), rng.normal(size=(1, 50, n)), 0.3),
            # next to a coincidence plane, where the Fermi sum cancels
            (tied + 1e-7 * rng.normal(size=(20, n)), base[None, :] + 0.3, 0.45),
            # tau = 0.004: every term but a few underflows
            (spread[None, :], spread + 0.05 * rng.normal(size=(30, n)), 0.004),
        ]
        for x, y, tau in cases:
            bose = permutation_sum(k, Statistics.BOSE)(x, y, tau)
            for stat in Statistics:
                closed = permutation_sum(k, stat)(x, y, tau)
                loop = _loop_sum(k, stat, x, y, tau)
                assert closed.shape == loop.shape
                assert np.all(np.abs(closed - loop) <= 1e-13 * bose), (n, stat, tau)


def test_permutation_sum_uses_the_one_body_factor():
    # The free kernel's one-body factor selects the closed form, which
    # makes no full-space evaluation; without it the sum is the n! loop.
    k = free_kernel(3)
    calls = []
    inner = k.evaluate

    def counted(x, y, tau):
        calls.append(1)
        return inner(x, y, tau)

    k.evaluate = counted
    x = np.array([[1.0, 0.2, -0.9]])
    y = np.array([[0.8, 0.1, -1.2]])
    closed = permutation_sum(k, Statistics.FERMI)(x, y, 0.3)
    assert not calls
    loop = permutation_sum(dataclasses.replace(k, log_one_body=None),
                           Statistics.FERMI)(x, y, 0.3)
    assert len(calls) == 6
    np.testing.assert_allclose(closed, loop, rtol=1e-14)


def test_dual_pair_reconstruction_identity():
    pk = robin_pair_kernel(robin(-1.0))
    k_bose, k_fermi = dual_pair_from_sector(pk)
    xs = np.array([[0.9, -0.2]])
    ys = np.array([[1.4, 0.1]])
    tau = 0.5
    images, signs = group_table(2)
    sum_b = sum(k_bose(xs, ys[:, image], tau).item() for image in images)
    sum_f = sum(sign * k_fermi(xs, ys[:, image], tau).item()
                for image, sign in zip(images, signs))
    direct = pk(xs, ys, tau).item()
    np.testing.assert_allclose(sum_b, direct, rtol=1e-14)
    np.testing.assert_allclose(sum_f, direct, rtol=1e-14)


def test_dual_pair_exchange_symmetry():
    pk = robin_pair_kernel(robin(0.8))
    k_bose, k_fermi = dual_pair_from_sector(pk)
    x = np.array([[0.4, -0.7]])
    sx = np.array([[-0.7, 0.4]])
    y = np.array([[1.1, 0.3]])
    np.testing.assert_allclose(k_bose(sx, y, 0.3).item(),
                               k_bose(x, y, 0.3).item(), rtol=1e-14)
    np.testing.assert_allclose(k_fermi(sx, y, 0.3).item(),
                               -k_fermi(x, y, 0.3).item(), rtol=1e-14)


def test_sector_heat_kernels_positive():
    # free-boson and Neumann-face sector kernels are genuine heat kernels
    rng = np.random.default_rng(8)
    bose = permutation_sum(free_kernel(2), Statistics.BOSE)
    pair = robin_pair_kernel(neumann())
    for _ in range(25):
        x = np.sort(rng.uniform(-2, 2, size=2))[::-1]
        y = np.sort(rng.uniform(-2, 2, size=2))[::-1]
        tau = rng.uniform(0.05, 2.0)
        assert bose(x[None, :], y[None, :], tau).item() > 0
        assert pair(x[None, :], y[None, :], tau).item() > 0


def test_sector_kernel_symmetry_in_arguments():
    # The semigroup check evaluates K(pts, pts) once per unordered block
    # pair, so K(x, y) == K(y, x) must hold bit for bit, on the table path
    # ((b, 1, 2) x (1, M, 2) blocks) and on the direct one (pairwise points).
    rule, _ = sector_rule(-7.0, 7.0, 2, 20, 8)
    face = np.stack([np.linspace(-2.0, 2.0, 5)] * 2, axis=-1)
    x = np.concatenate([rule[::150], face])
    y = np.concatenate([rule[75::150], face[::-1]])
    assert x.shape == y.shape
    for entry in (robin(-1.0), robin(1.0), dirichlet(), neumann(), robin(-1.3)):
        pk = robin_pair_kernel(entry)
        for tau in (0.05, 0.6, 2.0):
            table = pk(x[:, None, :], y[None, :, :], tau)
            assert np.array_equal(table, pk(y[:, None, :], x[None, :, :], tau).T)
            assert np.array_equal(pk(x, y, tau), pk(y, x, tau))


@pytest.mark.parametrize("stat", [Statistics.BOSE, Statistics.FERMI])
def test_free_permutation_sums_are_symmetric_in_arguments(stat):
    # n = 2: each term sums the same two exponents either way, bit for bit;
    # n = 3: swapping the arguments reorders each term's three exponents
    rng = np.random.default_rng(17)
    for n, rtol in ((2, 0.0), (3, 1e-15)):
        kernel = permutation_sum(free_kernel(n), stat)
        x = -np.sort(-rng.uniform(-2.0, 2.0, size=(30, n)), axis=-1)
        y = -np.sort(-rng.uniform(-2.0, 2.0, size=(40, n)), axis=-1)
        xy = kernel(x[:, None, :], y[None, :, :], 0.3)
        yx = kernel(y[:, None, :], x[None, :, :], 0.3).T
        assert np.max(np.abs(xy - yx)) <= rtol * np.max(np.abs(xy))
