import numpy as np
import pytest

from states import robin_residual, state_at

from contact_duality.coupling import CouplingModel, dirichlet, robin, uniform_model
from contact_duality.kernel_checks import connection_residual, one_sided_face_values
from contact_duality.operators import (
    DomainSpec,
    build_delta_bose,
    build_epsilon_fermi,
    build_sector,
    solve,
)
from contact_duality.permutations import Statistics


def sector_ground(points):
    dom = DomainSpec(n=2, length=10.0, points=points)
    res = solve(build_sector(dom, uniform_model(2, robin(-1.0))), 1)
    return res.operator, res.vectors[:, 0]


def test_robin_residual_shrinks_quadratically():
    values = []
    for points in (30, 60, 120):
        values.append(robin_residual(*sector_ground(points), 1))
    order = np.log2(values[0] / values[1]), np.log2(values[1] / values[2])
    assert values[-1] < 3e-3
    assert min(order) > 1.3


def test_robin_residual_negative_control():
    op, _ = sector_ground(40)
    rng = np.random.default_rng(0)
    assert robin_residual(op, rng.normal(size=op.dimension), 1) > 1.0


def test_dirichlet_faces_carry_no_dofs():
    # a Dirichlet face's nodes are eliminated at assembly, so the state's
    # extension by zero meets the face condition exactly
    for n, entries in ((2, (dirichlet(),)), (3, (dirichlet(), robin(-1.0))),
                       (3, (robin(-1.0), dirichlet()))):
        dom = DomainSpec(n=n, length=np.pi, points=12)
        model = CouplingModel(entries)
        for build in (build_sector, build_epsilon_fermi):
            dofs = build(dom, model).dofs
            for j, entry in enumerate(entries, start=1):
                tied = dofs[:, j - 1] == dofs[:, j]
                assert np.any(tied) != (entry.kind == "dirichlet")


def test_connection_residuals_on_eigenstates():
    dom = DomainSpec(n=2, length=10.0, points=80)
    model = uniform_model(2, robin(-1.0))
    h = dom.spacing
    out = {}
    for kind, build, stat in (("delta", build_delta_bose, Statistics.BOSE),
                              ("epsilon", build_epsilon_fermi, Statistics.FERMI)):
        res = solve(build(dom, model), 1)
        ev = state_at(res.operator, res.vectors[:, 0], stat)
        t = res.operator.lattice[12:70:9]
        plane = np.stack([t, t], axis=-1)
        out[kind] = connection_residual(ev, kind, -1.0, plane, 1,
                                        (2 * h, 4 * h, 6 * h))
    # equivariance makes the partner continuity condition exact
    assert out["delta"]["continuity"] < 1e-12
    assert out["epsilon"]["continuity"] < 1e-12
    assert out["delta"]["jump"] < 0.08
    assert out["epsilon"]["jump"] < 0.08


def test_connection_residual_refinement():
    model = uniform_model(2, robin(-1.0))
    jumps = []
    for points in (40, 80, 160):
        dom = DomainSpec(n=2, length=10.0, points=points)
        res = solve(build_delta_bose(dom, model), 1)
        ev = state_at(res.operator, res.vectors[:, 0], Statistics.BOSE)
        h = dom.spacing
        t = res.operator.lattice[points // 8: 7 * points // 8: max(points // 10, 1)]
        plane = np.stack([t, t], axis=-1)
        jumps.append(connection_residual(ev, "delta", -1.0, plane, 1,
                                         (2 * h, 4 * h, 6 * h))["jump"])
    assert jumps[2] < jumps[1] < jumps[0]
    assert jumps[0] / jumps[2] > 6.0  # roughly second order over two doublings


def test_connection_residual_smooth_negative_control():
    smooth = lambda pts: np.exp(-0.1 * np.sum((pts - 5.0) ** 2, axis=-1))
    plane = np.stack([np.linspace(3.0, 7.0, 5)] * 2, axis=-1)
    res = connection_residual(smooth, "delta", -1.0, plane, 1, (0.05, 0.1, 0.15))
    assert res["jump"] > 0.5  # no derivative jump in a smooth function
    # a mirror-asymmetric smooth function fails the epsilon jump relation too
    lopsided = lambda pts: np.exp(-0.1 * (pts[:, 0] - 4.0) ** 2
                                  - 0.25 * (pts[:, 1] - 6.0) ** 2)
    res_eps = connection_residual(lopsided, "epsilon", -0.7, plane, 1,
                                  (0.05, 0.1, 0.15))
    assert res_eps["jump"] > 0.5


def test_connection_residual_validates_inputs():
    smooth = lambda pts: np.ones(pts.shape[0])
    plane = np.array([[1.0, 1.0]])
    with pytest.raises(ValueError):
        connection_residual(smooth, "delta", -1.0, plane, 1, (0.1, 0.2))
    with pytest.raises(ValueError):
        connection_residual(smooth, "nope", -1.0, plane, 1, (0.1, 0.2, 0.3))


def test_symmetry_reduction_equivalence_on_one_state():
    # one Bose-equivariant state: the full-space connection conditions and
    # the sector Robin condition hold or fail together
    dom = DomainSpec(n=2, length=10.0, points=80)
    model = uniform_model(2, robin(-1.0))
    res = solve(build_delta_bose(dom, model), 1)
    op, values = res.operator, res.vectors[:, 0]

    # sector side: the reduced values are sector node values
    sector_res = robin_residual(op, values, 1)
    # full side: connection conditions of the symmetric extension
    ev = state_at(op, values, Statistics.BOSE)
    h = dom.spacing
    t = res.operator.lattice[12:70:9]
    plane = np.stack([t, t], axis=-1)
    conn = connection_residual(ev, "delta", -1.0, plane, 1, (2 * h, 4 * h, 6 * h))
    assert sector_res < 0.05 and conn["jump"] < 0.08

    # mismatched state: a free-boson eigenstate fails both measurements
    from contact_duality.coupling import neumann

    free = solve(build_delta_bose(dom, uniform_model(2, neumann())), 1)
    values_free = free.vectors[:, 0]
    ev_free = state_at(op, values_free, Statistics.BOSE)
    conn_free = connection_residual(ev_free, "delta", -1.0, plane, 1,
                                    (2 * h, 4 * h, 6 * h))
    assert robin_residual(op, values_free, 1) > 0.3
    assert conn_free["jump"] > 0.3


def test_robin_residual_scale_invariant_model():
    # coupling varies along the face; pinned total-coincidence dofs are
    # absent from the operator and must not break the stencil lookup
    from contact_duality.coupling import scale_invariant

    dom = DomainSpec(n=3, length=6.0, points=18)
    model = uniform_model(3, scale_invariant(1.0))
    op = build_sector(dom, model)
    res = solve(op, 1)
    assert robin_residual(op, res.vectors[:, 0], 1) < 0.2
    assert robin_residual(op, res.vectors[:, 0], 2) < 0.2


def test_one_sided_face_values_match_the_explicit_stencils():
    # separations (0, 2h, 4h) give the second-order (-3, 4, -1) / (2h)
    # pair derivative, (0, 2h) the first-order (s1 - s0) / h
    h = 0.1
    plane = np.array([[1.3, 1.3], [2.0, 2.0], [-0.4, -0.4]])
    f = lambda pts: np.sin(pts[:, 0]) * np.exp(0.3 * pts[:, 1]) + pts[:, 0] ** 3

    def samples(u):
        return [f(plane + np.array([0.5 * uk, -0.5 * uk])) for uk in u]

    s0, s1, s2 = samples((0.0, 2 * h, 4 * h))
    value, slope = one_sided_face_values(f, plane, 1, np.array([0.0, 2 * h, 4 * h]), 1.0)
    np.testing.assert_allclose(value, s0, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(slope, (-3.0 * s0 + 4.0 * s1 - s2) / (2.0 * h),
                               rtol=1e-12, atol=1e-12)
    value, slope = one_sided_face_values(f, plane, 1, np.array([0.0, 2 * h]), 1.0)
    np.testing.assert_allclose(value, s0, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(slope, (s1 - s0) / h, rtol=1e-12, atol=1e-12)


def test_robin_residual_on_the_staggered_lattice():
    # the delta state's face nodes reach the first interior layer (h/2, h/2),
    # whose stencil would leave the box; only face nodes whose two shifted
    # nodes are interior dofs count, as in the explicit stencil
    dom = DomainSpec(n=2, length=10.0, points=80)
    model = uniform_model(2, robin(-1.0))
    res = solve(build_delta_bose(dom, model), 1)
    op = res.operator
    values = res.vectors[:, 0]
    value = {tuple(t): v for t, v in zip(op.dofs.tolist(), values)}
    assert (1, 1) in value and (2, 0) not in value
    h = dom.spacing
    worst = 0.0
    for i in range(3, op.lattice.size - 3):
        s0, s1, s2 = value[(i, i)], value[(i + 1, i - 1)], value[(i + 2, i - 2)]
        worst = max(worst, abs((-3.0 * s0 + 4.0 * s1 - s2) / (2.0 * h) - s0 / -1.0))
    expected = worst / float(np.max(np.abs(values)))
    assert robin_residual(op, values, 1) == pytest.approx(expected, rel=1e-12)
