import itertools
import math

import numpy as np
import pytest

from contact_duality.errors import CapExceeded
from contact_duality.permutations import (
    Permutation,
    Statistics,
    group_sum,
    group_table,
    permutation_ranks,
    permutation_signs_batch,
    sort_descending,
)


def _group(n: int):
    """S_n as ``Permutation`` objects built from the ``group_table`` rows."""
    return [Permutation(tuple(row)) for row in group_table(n)[0].tolist()]


def _compose(sigma, tau) -> Permutation:
    """Product with sigma(tau x) = (sigma tau) x: images tau(sigma(i))."""
    return Permutation(tuple(tau.images[i] for i in sigma.images))


def _pair_sign_product(x) -> np.ndarray:
    """Reference sign: prod_{j<k} sgn(x_j - x_k) over the last axis."""
    x = np.asarray(x)
    out = np.ones(x.shape[:-1], dtype=np.int64)
    for j, k in itertools.combinations(range(x.shape[-1]), 2):
        out = out * np.sign(x[..., j] - x[..., k]).astype(np.int64)
    return out


def _cycle_sign(images) -> int:
    """Reference sign from the cycle decomposition: -1 per even-length cycle."""
    seen = [False] * len(images)
    sign = 1
    for start in range(len(images)):
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = images[i]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def test_group_table():
    for n in range(1, 7):
        images, signs = group_table(n)
        reference = list(itertools.permutations(range(n)))
        assert images.shape == (math.factorial(n), n) and signs.shape == (len(reference),)
        assert [tuple(row) for row in images.tolist()] == reference
        assert signs.tolist() == [_cycle_sign(p) for p in reference]
        np.testing.assert_array_equal(permutation_ranks(images), np.arange(len(reference)))
        np.testing.assert_array_equal(permutation_signs_batch(images), signs)
        assert [p.images for p in _group(n)] == reference
        assert [p.sign for p in _group(n)] == signs.tolist()
        with pytest.raises(ValueError):
            images[0, 0] = 1
        with pytest.raises(ValueError):
            signs[0] = -1
    # batches of any leading shape rank and sign row by row
    rows = group_table(4)[0][[[5, 0], [23, 11]]]
    np.testing.assert_array_equal(permutation_ranks(rows), [[5, 0], [23, 11]])
    np.testing.assert_array_equal(permutation_signs_batch(rows),
                                  group_table(4)[1][[[5, 0], [23, 11]]])


def test_apply_convention():
    # (sigma x)_i = x_{sigma(i)}
    sigma = Permutation((2, 0, 1))
    x = np.array([10.0, 20.0, 30.0])
    np.testing.assert_array_equal(sigma.apply(x), [30.0, 10.0, 20.0])


def test_composition_action_law():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 5):
        perms = _group(n)
        for _ in range(20):
            sigma = perms[rng.integers(len(perms))]
            tau = perms[rng.integers(len(perms))]
            x = rng.normal(size=n)
            lhs = sigma.apply(tau.apply(x))
            rhs = _compose(sigma, tau).apply(x)
            np.testing.assert_allclose(lhs, rhs)


def test_sign_homomorphism_exhaustive():
    for n in (2, 3, 4):
        for sigma in _group(n):
            for tau in _group(n):
                assert _compose(sigma, tau).sign == sigma.sign * tau.sign


def test_enumeration_counts():
    assert len(_group(3)) == 6
    signs = [p.sign for p in _group(3)]
    assert signs.count(1) == 3 and signs.count(-1) == 3
    even = [p for p in _group(3) if p.sign == 1]
    assert len(even) == 3
    assert [p.images for p in _group(2) if p.sign == 1] == [(0, 1)]


def test_coset_partition():
    # A_n and A_n tau partition S_n for any transposition tau.
    for n in (2, 3, 4, 5):
        full = {p.images for p in _group(n)}
        even = [p for p in _group(n) if p.sign == 1]
        tau = Permutation((n - 1, *range(1, n - 1), 0))  # swap of slots 0 and n-1
        odd = {_compose(p, tau).images for p in even}
        even_set = {p.images for p in even}
        assert even_set.isdisjoint(odd)
        assert even_set | odd == full
        assert len(even_set) + len(odd) == math.factorial(n)


def test_enumeration_cap():
    images, signs = group_table(8)
    assert images.shape == (math.factorial(8), 8) and signs.shape == (math.factorial(8),)
    with pytest.raises(CapExceeded):
        group_table(9)
    with pytest.raises(ValueError):
        group_table(0)


def test_character_values():
    assert Permutation((1, 0, 2)).sign == -1 and Permutation((1, 2, 0)).sign == 1
    for n in range(1, 6):
        signs = group_table(n)[1]
        np.testing.assert_array_equal(Statistics.FERMI.character(signs), signs)
        assert [Statistics.FERMI.character(s) for s in signs.tolist()] == signs.tolist()
        # Bose sums multiply by a scalar, never by a ones array
        assert Statistics.BOSE.character(signs) == 1
        assert [Statistics.BOSE.character(s) for s in signs.tolist()] == [1] * len(signs)


def test_character_homomorphism_exhaustive():
    for n in (2, 3, 4):
        images, signs = group_table(n)
        rows = list(zip(images.tolist(), signs.tolist()))
        for stat in Statistics:
            for sigma, sign_sigma in rows:
                for tau, sign_tau in rows:
                    product = Permutation(tuple(tau[i] for i in sigma))
                    assert stat.character(product.sign) == (
                        stat.character(sign_sigma) * stat.character(sign_tau))


def test_invalid_images_rejected():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_sort_descending_values_order_and_sign():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4, 5):
        for x in (rng.normal(size=(30, n)), rng.integers(-50, 50, size=(30, n))):
            y, order, sign = sort_descending(x)
            assert y.dtype == x.dtype and order.shape == x.shape
            assert sign.dtype == np.int64 and sign.shape == (30,)
            np.testing.assert_array_equal(y, -np.sort(-x, axis=-1))
            np.testing.assert_array_equal(y, np.take_along_axis(x, order, axis=-1))
            distinct = np.all(np.diff(np.sort(x, axis=-1), axis=-1) != 0, axis=-1)
            np.testing.assert_array_equal(sign[distinct], _pair_sign_product(x)[distinct])
            np.testing.assert_array_equal(sign, permutation_signs_batch(order))


def test_sort_descending_single_point_and_batch_shapes():
    x = np.array([1.0, 3.0, 2.0])
    y, order, sign = sort_descending(x)
    np.testing.assert_array_equal(y, [3.0, 2.0, 1.0])
    np.testing.assert_array_equal(order, [1, 2, 0])
    assert sign.shape == () and int(sign) == 1  # the 3-cycle is even
    for dtype in (np.float32, np.int32, np.int64):
        y, _, _ = sort_descending(np.array([[0, 2, 1]], dtype=dtype))
        assert y.dtype == dtype
        np.testing.assert_array_equal(y, [[2, 1, 0]])
    batch = np.arange(24.0).reshape(2, 3, 4)
    y, order, sign = sort_descending(batch)
    assert y.shape == (2, 3, 4) and sign.shape == (2, 3)
    np.testing.assert_array_equal(y, batch[..., ::-1])
    np.testing.assert_array_equal(sign, np.ones((2, 3)))  # (3, 2, 1, 0) is even


def test_sort_descending_breaks_ties_stably():
    # equal values keep their slot order
    y, order, sign = sort_descending(np.array([[2, 5, 2, 5], [1, 1, 1, 1]]))
    np.testing.assert_array_equal(y, [[5, 5, 2, 2], [1, 1, 1, 1]])
    np.testing.assert_array_equal(order, [[1, 3, 0, 2], [0, 1, 2, 3]])
    np.testing.assert_array_equal(sign, [-1, 1])


@pytest.mark.parametrize("stat", [Statistics.BOSE, Statistics.FERMI])
@pytest.mark.parametrize("n", [2, 3])
def test_group_sum_is_bitwise_the_row_loop(n, stat):
    # the loops group_sum replaced, at the shapes their callers pass
    rng = np.random.default_rng(n)
    images, signs = group_table(n)
    weights = np.arange(1.0, n + 1.0)  # no symmetry that hides the order
    # targets (B, 1, n) against points (1, M, n), as in permutation_sum
    x, y = rng.normal(size=(5, 1, n)), rng.normal(size=(1, 7, n))

    def kernel(moved):
        return np.exp(-np.sum(weights * (x - moved) ** 2, axis=-1))

    loop = np.zeros((5, 7))
    for image, sign in zip(images.tolist(), signs.tolist()):
        loop = loop + stat.character(sign) * np.asarray(kernel(y[..., image]))
    summed = group_sum(kernel, y, stat)
    assert summed.shape == loop.shape and summed.tobytes() == loop.tobytes()
    # points (M, n) and a function to (M,), as in the fold check and the
    # equivariant propagation route
    pts = rng.normal(size=(11, n))

    def integrand(z):
        return np.sin(z @ weights) + z[:, 0]

    loop = 0.0
    for image, sign in zip(images.tolist(), signs.tolist()):
        loop = loop + stat.character(sign) * integrand(pts[..., image])
    summed = group_sum(integrand, pts, stat)
    assert summed.shape == (11,) and summed.tobytes() == loop.tobytes()
    # a constant sums to the group order (Bose) or to zero (Fermi)
    ones = group_sum(lambda z: np.ones(z.shape[0]), pts, stat)
    expected = math.factorial(n) if stat is Statistics.BOSE else 0.0
    assert np.array_equal(ones, np.full(11, expected))
