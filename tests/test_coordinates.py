import numpy as np
import pytest

from contact_duality.coordinates import (
    ConfigPoint,
    SectorPoint,
    canonicalize,
    from_jacobi,
    hyperradius,
    in_sector_jacobi,
    jacobi_matrix,
    to_jacobi,
)
from contact_duality.errors import TiedCoordinates


def test_two_body_jacobi_values():
    j = to_jacobi(ConfigPoint((1.0, 0.0)))
    np.testing.assert_allclose(j.xi, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-14)
    np.testing.assert_allclose(j.r, 0.70711, atol=5e-6)
    assert j.unit == ()  # one relative coordinate, no hyperangle


def test_three_body_jacobi_values():
    j = to_jacobi(ConfigPoint((1.0, 0.0, -1.0)))
    np.testing.assert_allclose(j.xi[0], 0.70711, atol=5e-6)
    np.testing.assert_allclose(j.xi[1], 3 / np.sqrt(6), rtol=1e-12)
    np.testing.assert_allclose(j.xi[2], 0.0, atol=1e-14)
    np.testing.assert_allclose(j.r, np.sqrt(2), rtol=1e-12)

    shifted = to_jacobi(ConfigPoint((2.0, 1.0, 0.0)))
    np.testing.assert_allclose(shifted.xi[:2], j.xi[:2], rtol=1e-12)
    np.testing.assert_allclose(shifted.r, j.r, rtol=1e-12)
    np.testing.assert_allclose(shifted.cm, 3 / np.sqrt(3), rtol=1e-12)


def test_jacobi_matrix_is_orthogonal():
    for n in (2, 3, 4, 6):
        mat = jacobi_matrix(n)
        np.testing.assert_allclose(mat @ mat.T, np.eye(n), atol=1e-13)


def test_norm_preservation_random():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5):
        for _ in range(25):
            x = rng.normal(size=n) * 3
            xi = np.asarray(to_jacobi(x).xi)
            np.testing.assert_allclose(
                np.linalg.norm(xi), np.linalg.norm(x), rtol=1e-12
            )


def test_round_trip():
    x = np.array([1.0, 0.0, -1.0])
    j = to_jacobi(ConfigPoint(tuple(x)))
    np.testing.assert_allclose(from_jacobi(j), x, atol=1e-13)


def test_pure_center_of_mass_inverse():
    from contact_duality.coordinates import JacobiPoint

    c = 2.0
    j = JacobiPoint(xi=(0.0, 0.0, c), r=0.0, unit=(0.0, 0.0), cm=c)
    x = from_jacobi(j)
    np.testing.assert_allclose(x, np.full(3, c / np.sqrt(3)), rtol=1e-12)
    with pytest.raises(TiedCoordinates):
        ConfigPoint(tuple(x))


def test_hyperradius_values():
    np.testing.assert_allclose(hyperradius([1.0, 0.0, -1.0]), np.sqrt(2), rtol=1e-12)
    assert hyperradius([0.7, 0.7, 0.7]) == 0.0
    base = hyperradius([1.0, 0.0, -1.0])
    np.testing.assert_allclose(hyperradius([6.0, 5.0, 4.0]), base, rtol=1e-12)


def test_canonicalize_examples():
    y, sigma = canonicalize(np.array([0.0, 1.0]))
    assert y.coords == (1.0, 0.0)
    assert sigma.sign == -1

    y, sigma = canonicalize(np.array([3.0, 2.0, 1.0]))
    assert y.coords == (3.0, 2.0, 1.0)
    assert sigma.images == (0, 1, 2) and sigma.sign == 1

    # Sorting (1, 3, 2) descending needs the cyclic rotation (2, 3, 1),
    # which is even; its sign agrees with the pair-sign product +1.
    y, sigma = canonicalize(np.array([1.0, 3.0, 2.0]))
    assert y.coords == (3.0, 2.0, 1.0)
    assert sigma.sign == 1

    # A single adjacent swap is odd.
    y, sigma = canonicalize(np.array([3.0, 1.0, 2.0]))
    assert y.coords == (3.0, 2.0, 1.0)
    assert sigma.sign == -1


def test_canonicalize_applies_as_documented():
    rng = np.random.default_rng(5)
    for _ in range(30):
        x = rng.normal(size=4)
        y, sigma = canonicalize(x)
        np.testing.assert_allclose(sigma.apply(x), y.array())


def test_canonicalize_rejects_ties():
    with pytest.raises(TiedCoordinates):
        canonicalize(np.array([1.0, 1.0, 0.0]))


def test_sector_membership_equivalence():
    rng = np.random.default_rng(13)
    for n in (2, 3, 4):
        hits = 0
        for _ in range(300):
            x = rng.normal(size=n)
            descending = bool(np.all(np.diff(x) < 0))
            hits += descending
            xi = np.asarray(to_jacobi(x).xi)
            assert in_sector_jacobi(xi) == descending
        assert hits > 0


def test_sector_point_validation():
    SectorPoint((3.0, 1.0, 0.0))
    with pytest.raises(TiedCoordinates):
        SectorPoint((1.0, 1.0, 0.0))
    with pytest.raises(TiedCoordinates):
        SectorPoint((0.0, 1.0))
