import itertools
import math

import numpy as np
import pytest

from contact_duality.errors import CapExceeded
from contact_duality.permutations import (
    Permutation,
    adjacent_transposition,
    enumerate_group,
    group_table,
    identity,
    permutation_matrix,
    permutation_ranks,
    permutation_signs_batch,
    transposition,
)


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
        assert [p.images for p in enumerate_group(n)] == reference
        assert [p.sign for p in enumerate_group(n)] == signs.tolist()
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
        perms = enumerate_group(n)
        for _ in range(20):
            sigma = perms[rng.integers(len(perms))]
            tau = perms[rng.integers(len(perms))]
            x = rng.normal(size=n)
            lhs = sigma.apply(tau.apply(x))
            rhs = sigma.compose(tau).apply(x)
            np.testing.assert_allclose(lhs, rhs)


def test_sign_homomorphism_exhaustive():
    for n in (2, 3, 4):
        for sigma in enumerate_group(n):
            for tau in enumerate_group(n):
                assert sigma.compose(tau).sign == sigma.sign * tau.sign


def test_inverse_and_identity():
    rng = np.random.default_rng(3)
    for n in (2, 4, 6):
        perms = enumerate_group(n)
        sigma = perms[rng.integers(len(perms))]
        assert sigma.compose(sigma.inverse()).is_identity()
        assert sigma.inverse().compose(sigma).is_identity()
        assert identity(n).sign == 1


def test_enumeration_counts():
    assert len(enumerate_group(3)) == 6
    signs = [p.sign for p in enumerate_group(3)]
    assert signs.count(1) == 3 and signs.count(-1) == 3
    even = [p for p in enumerate_group(3) if p.sign == 1]
    assert len(even) == 3
    assert [p.images for p in enumerate_group(2) if p.sign == 1] == [(0, 1)]


def test_coset_partition():
    # A_n and A_n tau partition S_n for any transposition tau.
    for n in (2, 3, 4, 5):
        full = {p.images for p in enumerate_group(n)}
        even = [p for p in enumerate_group(n) if p.sign == 1]
        tau = transposition(n, 0, n - 1)
        odd = {p.compose(tau).images for p in even}
        even_set = {p.images for p in even}
        assert even_set.isdisjoint(odd)
        assert even_set | odd == full
        assert len(even_set) + len(odd) == math.factorial(n)


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        enumerate_group(9)
    assert len(enumerate_group(5, cap=5)) == 120
    with pytest.raises(CapExceeded):
        enumerate_group(5, cap=4)


def test_permutation_matrix_matches_apply():
    sigma = adjacent_transposition(4, 1)
    x = np.arange(4.0)
    np.testing.assert_array_equal(permutation_matrix(sigma) @ x, sigma.apply(x))


def test_invalid_images_rejected():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
