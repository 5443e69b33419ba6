import numpy as np
import pytest
from scipy.linalg import expm

from contact_duality.coupling import robin, uniform_model
from contact_duality.kernels import (
    dual_pair_from_sector,
    free_kernel,
    permutation_sum,
    robin_pair_kernel,
)
from contact_duality.operators import (
    DomainSpec,
    build_delta_bose,
    build_epsilon_fermi,
    build_sector,
)
from contact_duality.permutations import Statistics
from contact_duality.propagation import (
    TARGET_BLOCK,
    PropagationQuad,
    _apply_on_rule,
    _integrate_rule,
    _kernel_entries,
    _relative_order,
    ground_state_projection_check,
    propagate_at,
    propagate_equivariant,
    real_time_cross_check,
    two_stage_values,
)


def gaussian_profile(centers):
    centers = np.asarray(centers, dtype=float)

    def profile(z):
        d = np.asarray(z) - centers[None, :]
        return np.exp(-np.sum(d * d, axis=-1))

    return profile


def test_routes_agree_free_sum():
    # sector-kernel route vs equivariant full-space route with distinct
    # quadrature parameters
    psi0 = gaussian_profile([1.0, -1.0])
    targets = np.array([[1.2, -0.8], [0.6, -1.4], [2.0, 0.5]])
    kfull = free_kernel(2)
    ksect = permutation_sum(kfull, Statistics.BOSE)
    quad_a = PropagationQuad(-7.0, 7.0, 24, 8)
    quad_b = PropagationQuad(-7.0, 7.0, 30, 10)
    va = propagate_at(ksect, psi0, 0.4, targets, quad_a)
    vb = propagate_equivariant(kfull, Statistics.BOSE, psi0, 0.4, targets, quad_b)
    assert np.max(np.abs(va - vb)) / np.max(np.abs(va)) < 1e-8


def test_routes_agree_pair_kernel():
    psi0 = gaussian_profile([1.0, -1.0])
    targets = np.array([[1.3, -0.5], [0.8, -1.1]])
    sector = robin_pair_kernel(robin(-1.0))
    k_bose, _ = dual_pair_from_sector(sector)
    quad_a = PropagationQuad(-8.0, 8.0, 24, 8)
    quad_b = PropagationQuad(-8.0, 8.0, 32, 10)
    va = propagate_at(sector, psi0, 0.4, targets, quad_a)
    vb = propagate_equivariant(k_bose, Statistics.BOSE, psi0, 0.4, targets, quad_b)
    assert np.max(np.abs(va - vb)) / np.max(np.abs(va)) < 1e-8


def test_semigroup_property():
    psi0 = gaussian_profile([1.0, -1.0])
    targets = np.array([[1.2, -0.8], [0.5, -1.5]])
    sector = permutation_sum(free_kernel(2), Statistics.BOSE)
    quad = PropagationQuad(-6.5, 6.5, 16, 8)
    one = propagate_at(sector, psi0, 0.4, targets, quad)
    two = two_stage_values(sector, psi0, 0.2, 0.2, targets, quad)
    assert np.max(np.abs(one - two)) / np.max(np.abs(one)) < 1e-7


@pytest.mark.parametrize("kernel", [robin_pair_kernel(robin(-1.0)),
                                    permutation_sum(free_kernel(2), Statistics.BOSE)],
                         ids=["pair", "free_bose"])
@pytest.mark.parametrize("cells, order, size", [
    (2, 4, 48),    # smaller than one block
    (3, 8, 384),   # six whole blocks
    (6, 6, 756),   # eleven blocks and a partial one
])
def test_symmetric_stage_matches_the_rectangular_one(kernel, cells, order, size):
    # the rule-on-rule stage evaluates each unordered block pair once; it
    # must equal evaluating every target block against the whole rule
    assert TARGET_BLOCK == 64
    pts, wts = PropagationQuad(-6.0, 6.0, cells, order).rule(2)
    assert pts.shape[0] == size
    weights = wts * gaussian_profile([1.0, -1.0])(pts)
    rect = _integrate_rule(kernel, pts, pts, weights, 0.2)
    sym = _apply_on_rule(kernel, pts, weights, 0.2)
    assert np.max(np.abs(sym - rect)) <= 1e-14 * np.max(np.abs(rect))


def test_relative_order_groups_the_default_rule():
    # the rule-on-rule stage takes the default propagate rule by x1 - x2;
    # its blocks then hold few distinct relative coordinates (39.3 on
    # average in the rule's own order)
    pts, _ = PropagationQuad(-7.0, 7.0, 20, 8).rule(2)
    assert pts.shape[0] == 13440
    rel = (pts[:, 0] - pts[:, 1])[_relative_order(pts)]
    counts = [np.unique(rel[s:s + TARGET_BLOCK]).size
              for s in range(0, rel.size, TARGET_BLOCK)]
    assert np.mean(counts) <= 16


@pytest.mark.parametrize("build, reduced", [
    (build_delta_bose, True),
    (build_delta_bose, False),
    (build_epsilon_fermi, False),
], ids=["reduced", "delta", "cracked_epsilon"])
def test_kernel_entries_match_the_matrix_exponential(build, reduced):
    # exp(-i t M^-1 A) M^-1 from one eigendecomposition against expm
    dom = DomainSpec(n=2, length=6.0, points=10)
    op = build(dom, uniform_model(2, robin(-1.0)), reduced=reduced)
    t = 0.1
    inv_sqrt = 1.0 / np.sqrt(op.mass)
    oracle = inv_sqrt[:, None] * expm(-1j * t * op.matrix.toarray()) * inv_sqrt[None, :]
    rng = np.random.default_rng(0)
    rows = rng.permutation(op.dimension)[:20]
    cols = np.arange(op.dimension)[::-1]
    entries = _kernel_entries(op, t, rows, cols)
    assert entries.shape == (rows.size, cols.size)
    want = oracle[np.ix_(rows, cols)]
    assert np.max(np.abs(entries - want)) <= 1e-12 * np.max(np.abs(want))


def test_ground_state_projection():
    dom = DomainSpec(n=2, length=10.0, points=40)
    op = build_sector(dom, uniform_model(2, robin(-1.0)))
    out = ground_state_projection_check(op, tau=80.0)
    assert out["overlap"] >= 1.0 - 1e-4


def test_real_time_identity():
    dom = DomainSpec(n=2, length=6.0, points=10)
    chk = real_time_cross_check(dom, uniform_model(2, robin(-1.0)), t=0.1)
    assert chk.bose_deviation < 1e-8
    assert chk.fermi_deviation < 1e-8
    assert chk.dimension_cracked > chk.dimension_full


def test_quadrature_route_against_matrix_exponential():
    # the analytic-kernel route agrees with the discretized-operator route
    # when the state stays away from the confining walls
    from contact_duality.propagation import propagate_operator

    length, points = 16.0, 160
    dom = DomainSpec(n=2, length=length, points=points)
    op = build_sector(dom, uniform_model(2, robin(-1.0)))

    center = np.array([length / 2 + 1.0, length / 2 - 1.0])

    def psi0(z):
        d = np.asarray(z) - center[None, :]
        return np.exp(-np.sum(d * d, axis=-1))

    tau = 0.3
    evolved = propagate_operator(op, psi0(op.coords), tau)
    kernel = robin_pair_kernel(robin(-1.0))
    quad = PropagationQuad(length / 2 - 6.5, length / 2 + 6.5, 26, 8)
    strict = op.dofs[:, 0] - op.dofs[:, 1] >= 1
    inner = strict & (np.max(np.abs(op.coords - length / 2), axis=-1) < 3.0)
    targets = op.coords[inner]
    direct = propagate_at(kernel, psi0, tau, targets, quad)
    scale = float(np.max(np.abs(direct)))
    dev = float(np.max(np.abs(direct - evolved[inner]))) / scale
    assert dev < 5e-3  # discretization-limited agreement
