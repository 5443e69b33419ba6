import dataclasses

import numpy as np
import pytest

from contact_duality.coupling import dirichlet, neumann, robin
from contact_duality.errors import CapExceeded
from contact_duality.kernels import (
    dual_pair_from_sector,
    free_kernel,
    gaussian_1d,
    permutation_sum,
    relative_half_line_kernel,
    robin_pair_kernel,
)
from contact_duality.permutations import enumerate_group
from contact_duality.quadrature import integrate_box
from contact_duality.wavefunctions import Statistics


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
    kn, dkn = relative_half_line_kernel(neumann())
    np.testing.assert_allclose(
        kn(u, v, tau), gaussian_1d(u - v, tau) + gaussian_1d(u + v, tau), rtol=1e-14)
    np.testing.assert_allclose(dkn(np.zeros(2), v, tau), 0.0, atol=1e-16)


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


def test_pair_kernel_accepts_floats():
    assert robin_pair_kernel(0.0).coupling.kind == "dirichlet"
    assert robin_pair_kernel(np.inf).coupling.kind == "neumann"
    assert robin_pair_kernel(-2.0).coupling.value == -2.0


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
        permutation_sum(free_kernel(5), Statistics.BOSE, cap=4)


def _loop_sum(kernel, stat, x, y, tau):
    """The defining sum over the group: sum_sigma chi(sigma) K(x, sigma y)."""
    total = 0.0
    for sigma in enumerate_group(kernel.n):
        chi = 1 if stat is Statistics.BOSE else sigma.sign
        total = total + chi * kernel(x, sigma.apply(y), tau)
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
    sum_b = sum(k_bose(xs, s.apply(ys[0])[None, :], tau).item()
                for s in enumerate_group(2))
    sum_f = sum(s.sign * k_fermi(xs, s.apply(ys[0])[None, :], tau).item()
                for s in enumerate_group(2))
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
    pk = robin_pair_kernel(robin(-1.3))
    x = np.array([[0.7, -0.4]])
    y = np.array([[1.5, 0.2]])
    np.testing.assert_allclose(pk(x, y, 0.6).item(), pk(y, x, 0.6).item(),
                               rtol=1e-14)
