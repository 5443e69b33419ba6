import numpy as np
import pytest

from contact_duality.boundary_checks import (
    MeshFunction,
    connection_residual,
    one_sided_face_values,
    reduced_state_evaluator,
    robin_residual,
)
from contact_duality.coupling import dirichlet, robin, uniform_model
from contact_duality.operators import (
    DomainSpec,
    build_delta_bose,
    build_epsilon_fermi,
    build_sector,
    solve,
)
from contact_duality.permutations import Statistics


def sector_ground(points, entry=robin(-1.0), length=10.0):
    dom = DomainSpec(n=2, length=length, points=points)
    op = build_sector(dom, uniform_model(2, entry))
    res = solve(op, 1)
    return MeshFunction(op, res.vectors[:, 0])


def test_robin_residual_shrinks_quadratically():
    values = []
    for points in (30, 60, 120):
        fn = sector_ground(points)
        values.append(robin_residual(fn, 1))
    order = np.log2(values[0] / values[1]), np.log2(values[1] / values[2])
    assert values[-1] < 3e-3
    assert min(order) > 1.3


def test_robin_residual_negative_control():
    fn = sector_ground(40)
    rng = np.random.default_rng(0)
    bad = MeshFunction(fn.op, rng.normal(size=fn.op.dimension))
    assert robin_residual(bad, 1) > 1.0


def test_dirichlet_residual_is_zero():
    fn = sector_ground(40, entry=dirichlet(), length=np.pi)
    assert robin_residual(fn, 1) == 0.0


def test_connection_residuals_on_eigenstates():
    dom = DomainSpec(n=2, length=10.0, points=80)
    model = uniform_model(2, robin(-1.0))
    h = dom.spacing
    out = {}
    for kind, build, stat in (("delta", build_delta_bose, Statistics.BOSE),
                              ("epsilon", build_epsilon_fermi, Statistics.FERMI)):
        res = solve(build(dom, model), 1)
        fn = MeshFunction(res.operator, res.vectors[:, 0])
        ev = reduced_state_evaluator(fn, stat)
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
        fn = MeshFunction(res.operator, res.vectors[:, 0])
        ev = reduced_state_evaluator(fn, Statistics.BOSE)
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
    fn = MeshFunction(res.operator, res.vectors[:, 0])

    # sector side: the reduced values are sector node values
    sector_res = robin_residual(fn, 1)
    # full side: connection conditions of the symmetric extension
    ev = reduced_state_evaluator(fn, Statistics.BOSE)
    h = dom.spacing
    t = res.operator.lattice[12:70:9]
    plane = np.stack([t, t], axis=-1)
    conn = connection_residual(ev, "delta", -1.0, plane, 1, (2 * h, 4 * h, 6 * h))
    assert sector_res < 0.05 and conn["jump"] < 0.08

    # mismatched state: a free-boson eigenstate fails both measurements
    from contact_duality.coupling import neumann

    free = solve(build_delta_bose(dom, uniform_model(2, neumann())), 1)
    fn_free = MeshFunction(res.operator, free.vectors[:, 0])
    ev_free = reduced_state_evaluator(fn_free, Statistics.BOSE)
    conn_free = connection_residual(ev_free, "delta", -1.0, plane, 1,
                                    (2 * h, 4 * h, 6 * h))
    assert robin_residual(fn_free, 1) > 0.3
    assert conn_free["jump"] > 0.3


def test_coarse_grid_first_order_fallback_warns():
    import warnings as _warnings

    from contact_duality.operators import GridOperator

    # drop the second stencil layer from the dof set so only the two-layer
    # first-order stencil fits
    fn = sector_ground(8, length=8.0)
    op = fn.op
    second_layer = (op.dofs[:, 0] - op.dofs[:, 1]) == 4
    idx = np.nonzero(~second_layer)[0]
    trimmed = GridOperator(
        matrix=op.matrix[idx][:, idx].tocsr(), mass=op.mass[idx],
        dofs=op.dofs[idx], coords=op.coords[idx], lattice=op.lattice,
        formulation=op.formulation, dom=op.dom, model=op.model, reduced=op.reduced,
        region_ranks=op.region_ranks)
    fn_trimmed = MeshFunction(trimmed, fn.values[idx])
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        value = robin_residual(fn_trimmed, 1)
    assert any("first-order" in str(w.message) for w in caught)
    assert np.isfinite(value)


def test_robin_residual_scale_invariant_model():
    # coupling varies along the face; pinned total-coincidence dofs are
    # absent from the operator and must not break the stencil lookup
    from contact_duality.coupling import scale_invariant

    dom = DomainSpec(n=3, length=6.0, points=18)
    model = uniform_model(3, scale_invariant(1.0))
    op = build_sector(dom, model)
    res = solve(op, 1)
    fn = MeshFunction(op, res.vectors[:, 0])
    assert robin_residual(fn, 1) < 0.2
    assert robin_residual(fn, 2) < 0.2


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


def test_mesh_function_reads_nan_off_its_dofs():
    fn = sector_ground(40, entry=dirichlet(), length=np.pi)
    lattice = fn.op.lattice
    h = fn.op.dom.spacing
    i, k = fn.op.dofs[7]
    at = lambda a, b: fn(np.array([[a, b]]))[0]
    assert at(lattice[i], lattice[k]) == fn.values[7]  # a dof reads its value
    assert np.isnan(at(lattice[-1], lattice[k]))       # wall node
    assert np.isnan(at(lattice[20], lattice[20]))      # eliminated Dirichlet face node
    assert np.isnan(at(lattice[i] + 0.3 * h, lattice[k]))  # off the lattice
    assert np.isnan(at(lattice[k], lattice[i]))        # ascending tuple
    assert np.isnan(at(lattice[i], -h))                # outside the box


def test_robin_residual_on_the_staggered_lattice():
    # the delta state's face nodes reach the first interior layer (h/2, h/2),
    # whose stencil would leave the box; only face nodes whose two shifted
    # nodes are interior dofs count, as in the explicit stencil
    dom = DomainSpec(n=2, length=10.0, points=80)
    model = uniform_model(2, robin(-1.0))
    res = solve(build_delta_bose(dom, model), 1)
    op = res.operator
    fn = MeshFunction(op, res.vectors[:, 0])
    value = {tuple(t): v for t, v in zip(op.dofs.tolist(), fn.values)}
    assert (1, 1) in value and (2, 0) not in value
    h = dom.spacing
    worst = 0.0
    for i in range(3, op.lattice.size - 3):
        s0, s1, s2 = value[(i, i)], value[(i + 1, i - 1)], value[(i + 2, i - 2)]
        worst = max(worst, abs((-3.0 * s0 + 4.0 * s1 - s2) / (2.0 * h) - s0 / -1.0))
    expected = worst / float(np.max(np.abs(fn.values)))
    assert robin_residual(fn, 1) == pytest.approx(expected, rel=1e-12)
