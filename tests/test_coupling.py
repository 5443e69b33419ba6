import math

import numpy as np
import pytest

from contact_duality.coupling import (
    CouplingModel,
    coupling_values_batch,
    dirichlet,
    hyperradius_batch,
    neumann,
    robin,
    scale_invariant,
    uniform_model,
)
from contact_duality.errors import IndexOutOfRange, UnsupportedCoupling


def test_hyperradius_values():
    # (1, 0, -1), total coincidence, and (1, 0, -1) translated by 5
    r = hyperradius_batch(np.array([[1.0, 0.0, -1.0], [0.7, 0.7, 0.7], [6.0, 5.0, 4.0]]))
    np.testing.assert_allclose(r[0], np.sqrt(2), rtol=1e-12)
    assert r[1] == 0.0
    np.testing.assert_allclose(r[2], r[0], rtol=1e-12)


def test_scale_invariant_value():
    model = uniform_model(3, scale_invariant(2.0))
    x = np.array([0.5, 0.5, -1.0])
    a = coupling_values_batch(model, 1, x[None, :])[0]
    np.testing.assert_allclose(a, 2.0 * np.sqrt(1.5), rtol=1e-12)
    np.testing.assert_allclose(a, 2.44949, atol=5e-6)


def test_scale_invariant_translation_invariance():
    model = uniform_model(3, scale_invariant(1.5))
    rng = np.random.default_rng(3)
    for _ in range(10):
        c = rng.normal() * 5
        x = np.array([0.2, 0.2, -0.7])
        np.testing.assert_allclose(
            coupling_values_batch(model, 1, x[None, :])[0],
            coupling_values_batch(model, 1, (x + c)[None, :])[0],
            rtol=1e-12,
        )


def test_robin_constant_model():
    model = uniform_model(3, robin(-1.0))
    assert coupling_values_batch(model, 2, np.array([[1.0, 0.3, 0.3]]))[0] == -1.0
    assert coupling_values_batch(model, 1, np.array([[0.5, 0.5, 0.0]]))[0] == -1.0


def test_limit_sentinels():
    model = CouplingModel((neumann(), dirichlet()))
    assert math.isinf(coupling_values_batch(model, 1, np.array([[1.0, 1.0, 0.0]]))[0])
    assert coupling_values_batch(model, 2, np.array([[2.0, 1.0, 1.0]]))[0] == 0.0


def test_length_of_every_kind():
    assert robin(-1.5).length == -1.5
    assert neumann().length == math.inf
    assert dirichlet().length == 0.0 and math.copysign(1.0, dirichlet().length) == 1.0
    with pytest.raises(UnsupportedCoupling, match="no constant length"):
        scale_invariant(2.0).length


def test_coupling_values_are_bitwise_the_per_kind_constants():
    # every constant face reads its length; the scale-invariant one g r
    pts = np.array([[1.0, 1.0, -0.5], [0.3, 0.3, 0.2], [2.0, 2.0, 2.0], [-1.0, -1.0, -4.0]])
    cases = ((robin(-1.5), np.full(4, -1.5)), (robin(0.25), np.full(4, 0.25)),
             (neumann(), np.full(4, np.inf)), (dirichlet(), np.zeros(4)),
             (scale_invariant(2.0), 2.0 * hyperradius_batch(pts)))
    for entry, expected in cases:
        got = coupling_values_batch(uniform_model(3, entry), 1, pts)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), entry


def test_scale_invariant_needs_three_bodies():
    with pytest.raises(UnsupportedCoupling):
        uniform_model(2, scale_invariant(1.0))


def test_entry_validation():
    with pytest.raises(UnsupportedCoupling):
        robin(0.0)
    model = uniform_model(4, robin(2.0))
    assert model.n == 4
    with pytest.raises(IndexOutOfRange):
        model.entry(4)
    assert model.label() == "robin:2,robin:2,robin:2"
