import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh, expm

from contact_duality import cli, propagation
from contact_duality.configio import validate_config
from contact_duality.coupling import dirichlet, neumann, robin, uniform_model
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
from contact_duality.mesh import DofTable
from contact_duality.permutations import (
    Statistics,
    group_table,
    permutation_ranks,
    sort_descending,
)
from contact_duality.propagation import (
    TARGET_BLOCK,
    PropagationQuad,
    _evolution_kernel,
    _factored_stage,
    _integrate_rule,
    _pair_points,
    propagate_at,
    propagate_equivariant,
    real_time_cross_check,
    two_stage_values,
)
from states import ground_state_projection_check


EPS = np.finfo(float).eps


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


@pytest.mark.parametrize("kernel", [
    robin_pair_kernel(robin(-1.0)),
    robin_pair_kernel(robin(1.0)),
    robin_pair_kernel(dirichlet()),
    robin_pair_kernel(neumann()),
    permutation_sum(free_kernel(2), Statistics.BOSE),
    permutation_sum(free_kernel(2), Statistics.FERMI),
], ids=["robin-1", "robin+1", "dirichlet", "neumann", "free_bose", "free_fermi"])
@pytest.mark.parametrize("cells, order", [(2, 4), (3, 8), (6, 6)])
def test_factored_stage_matches_the_brute_force_one(kernel, cells, order):
    # R @ W @ G^T on the (u, c) grid equals evaluating the kernel between
    # every pair of its points
    u, wu, c, wc = PropagationQuad(-6.0, 6.0, cells, order).pair_rule()
    assert (u.size, c.size) == (cells * order, 2 * cells * order)
    grid = _pair_points(u, c)
    weights = np.outer(wu, wc) * gaussian_profile([1.0, -1.0])(grid).reshape(u.size, c.size)
    brute = _integrate_rule(kernel, grid, grid, weights.ravel(), 0.2)
    factored = _factored_stage(kernel, u, c, weights, 0.2).ravel()
    assert np.max(np.abs(factored - brute)) <= 1e-14 * np.max(np.abs(brute))


@pytest.mark.parametrize("kernel", [free_kernel(2),
                                    permutation_sum(free_kernel(3), Statistics.BOSE)],
                         ids=["full_space", "three_particles"])
def test_two_stage_values_refuses_all_but_a_pair_sector_kernel(kernel):
    quad = PropagationQuad(-6.0, 6.0, 2, 4)
    targets = np.zeros((1, kernel.n))
    with pytest.raises(ValueError, match=f"n = {kernel.n}"):
        two_stage_values(kernel, gaussian_profile([0.0] * kernel.n), 0.2, 0.2,
                         targets, quad)


def test_rule_routes_keep_their_kernel_evaluations():
    # The benchmark's tracer times kernel evaluation by wrapping
    # ``kernel.evaluate``; these are its calls and points on the default
    # rule.  Stage 1 is the 160 x 160 relative matrix, 25,600 points;
    # stage 2 is one 6-target block against the 160 x 320 pair grid,
    # 307,200 points, and ``propagate_at`` one against the 13,440-point
    # sector rule, 80,640.  Work moved out of ``evaluate`` would change
    # these counts.
    calls, points = [], []
    pk = robin_pair_kernel(robin(-1.0))

    def counted(x, y, tau):
        values = pk.evaluate(x, y, tau)
        calls.append(1)
        points.append(np.size(values))
        return values

    kernel = dataclasses.replace(pk, evaluate=counted)
    quad = PropagationQuad(-7.0, 7.0, 20, 8)
    targets = np.array([[1.3, -0.3], [0.5, -1.2], [2.0, 1.0],
                        [0.1, 0.0], [-0.2, -1.5], [1.1, 0.9]])
    psi0 = gaussian_profile([1.0, -1.0])
    two_stage_values(kernel, psi0, 0.2, 0.2, targets, quad)
    assert (len(calls), sum(points)) == (2, 160**2 + 6 * 51_200)
    calls.clear()
    points.clear()
    propagate_at(kernel, psi0, 0.4, targets, quad)
    assert (len(calls), sum(points)) == (1, 80_640)


@pytest.mark.parametrize("build, reduced", [
    (build_delta_bose, True),
    (build_delta_bose, False),
    (build_epsilon_fermi, False),
], ids=["reduced", "delta", "cracked_epsilon"])
def test_kernel_entries_match_the_matrix_exponential(build, reduced):
    # exp(-i t M^-1 A) M^-1 from one eigendecomposition on the identity
    # basis against expm
    dom = DomainSpec(n=2, length=6.0, points=10)
    op = build(dom, uniform_model(2, robin(-1.0)), reduced=reduced)
    t = 0.1
    inv_sqrt = 1.0 / np.sqrt(op.mass)
    oracle = inv_sqrt[:, None] * expm(-1j * t * op.matrix.toarray()) * inv_sqrt[None, :]
    rng = np.random.default_rng(0)
    rows = rng.permutation(op.dimension)[:20]
    entries = _evolution_kernel(op, sparse.identity(op.dimension, format="csr"), rows, t)
    assert entries.shape == (rows.size, rows.size)
    want = oracle[np.ix_(rows, rows)]
    assert np.max(np.abs(entries - want)) <= 1e-12 * np.max(np.abs(want))
    # the in-place eigendecomposition and the freed rows are bitwise the
    # expression that copies at every step
    lam, vec = eigh(op.matrix.toarray(), driver="evd")
    low = vec / np.sqrt(op.mass)[:, None]
    assert np.array_equal(entries, (low[rows] * np.exp(-1j * t * lam)) @ low[rows].T)


def traced_peak(call):
    """tracemalloc peak of one call, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_two_stage_values_hold_one_kernel_block():
    # the factored first stage holds no kernel block; the second stage's
    # 2 x 51,200 targets-by-grid block stays below one 64 x 13,440 block
    # of the default sector rule
    psi0 = gaussian_profile([1.0, -1.0])
    targets = np.array([[1.2, -0.8], [0.6, -1.4]])
    quad = PropagationQuad(-7.0, 7.0, 20, 8)
    points = quad.rule(2)[0].shape[0]
    block = TARGET_BLOCK * points * 8
    kernel = robin_pair_kernel(robin(-1.0))
    peak = traced_peak(lambda: two_stage_values(kernel, psi0, 0.2, 0.2, targets, quad))
    assert points == 13_440
    assert peak < 1.0 * block, (peak, block)


def test_real_time_check_frees_its_dense_copies():
    # the benchmark's 24-point box: only the 300-row reduced operator and
    # symmetry blocks are made dense, each eigendecomposition overwrites
    # its copy, the rows of L are freed before the kernel product, and
    # each image sum is freed once compared.  The peak reads 5.7 MiB; the
    # bound leaves 1.8 MiB of margin (the whole unreduced operators'
    # eigendecompositions peaked at 16.4 MiB)
    dom = DomainSpec(n=2, length=6.0, points=24)
    model = uniform_model(2, robin(-1.0))
    peak = traced_peak(lambda: real_time_cross_check(dom, model, t=0.1))
    assert peak < 7.5 * 2**20, peak / 2**20


def whole_operator_image_sums(op, stat, t, strict):
    """sum_sigma chi(sigma) K(x, sigma y) at the strict tuples' pairs from
    the whole unreduced operator's eigendecomposition (the identity
    basis): the kernel's rows at the strict nodes and its columns at their
    group images, one group element after another, summed with the
    character.  On the cracked mesh a node is keyed by its vertex and the
    rank of its sorting permutation."""
    n = op.dom.n
    images, signs = group_table(n)
    if op.region_ranks is None:
        rank = DofTable(op.dofs, op.lattice.size).rank
    else:
        table = DofTable(np.column_stack([op.dofs, op.region_ranks]),
                         max(op.lattice.size, len(images)))

        def rank(tuples):
            region = permutation_ranks(sort_descending(tuples)[1])
            return table.rank(np.column_stack([tuples, region]))

    mapped = strict[:, images].transpose(1, 0, 2).reshape(-1, n)
    nodes = np.concatenate([rank(strict), rank(mapped)])
    k = _evolution_kernel(op, sparse.identity(op.dimension, format="csr"), nodes, t)
    k = k[:len(strict), len(strict):]
    chi = np.broadcast_to(stat.character(signs), signs.shape)
    return (k.reshape(len(strict), len(images), len(strict)) * chi[None, :, None]).sum(axis=1)


@pytest.mark.parametrize("n, points, a, t", [
    (2, 10, -1.0, 0.1),
    (2, 12, 1.0, -0.3),
    (2, 24, -0.5, 1.0),
    (2, 24, -1.0, 1.0),
    (3, 6, -1.0, 0.1),
    (3, 8, 1.0, -0.3),
])
def test_character_blocks_carry_the_whole_image_sum(n, points, a, t, monkeypatch):
    # the sums the check reads off the symmetric and antisymmetric blocks
    # equal the whole operators' ones to rounding: 1e-13 of the scale, or
    # 16 eps of the largest phase |t| |A_hat|_1 where that is more.  Both
    # routes round each eigenvalue by about eps |A_hat|, so at t = 1 on
    # the 24-point box they differ by up to 1.1e-13, 6 eps of that phase;
    # over 60 coupling, grid, time and BLAS-thread cases no difference
    # passed 8 eps of it
    kernels = []

    def spy(op, basis, rows, time):
        out = _evolution_kernel(op, basis, rows, time)
        kernels.append((op, out.copy()))
        return out

    monkeypatch.setattr(propagation, "_evolution_kernel", spy)
    dom = DomainSpec(n=n, length=6.0, points=points)
    chk = real_time_cross_check(dom, uniform_model(n, robin(a)), t)
    (red, k_red), bose, fermi = kernels
    strict = red.dofs[np.all(red.dofs[:, :-1] > red.dofs[:, 1:], axis=-1)]
    scale = np.max(np.abs(k_red))
    for (op, block), stat in ((bose, Statistics.BOSE), (fermi, Statistics.FERMI)):
        sums = len(group_table(n)[1]) * block
        want = whole_operator_image_sums(op, stat, t, strict)
        phase = abs(t) * abs(op.matrix).sum(axis=0).max()
        assert np.max(np.abs(sums - want)) <= max(1e-13, 16 * EPS * phase) * scale
    assert chk["bose_commutation"] <= 1e-14 and chk["fermi_commutation"] <= 1e-14


@pytest.mark.parametrize("n, points", [(2, 12), (3, 6)])
def test_real_time_check_diagonalizes_no_unreduced_operator_whole(n, points, monkeypatch):
    # one eigendecomposition each of the reduced operator and the two
    # blocks: one row per orbit, the distinct sorted vertex tuples for
    # delta and n! cracked nodes, none of them fixed, for epsilon
    dom = DomainSpec(n=n, length=6.0, points=points)
    model = uniform_model(n, robin(-1.0))
    bose = build_delta_bose(dom, model, reduced=False)
    fermi = build_epsilon_fermi(dom, model, reduced=False)
    blocks = [build_delta_bose(dom, model).dimension,
              len(np.unique(np.sort(bose.dofs), axis=0)),
              fermi.dimension // len(group_table(n)[0])]
    sizes = []

    def spy(a, **kwargs):
        sizes.append(a.shape[0])
        return eigh(a, **kwargs)

    monkeypatch.setattr(propagation, "eigh", spy)
    real_time_cross_check(dom, model, 0.1)
    assert sizes == blocks
    assert max(sizes) < min(bose.dimension, fermi.dimension) / 1.5


def _perturb_unreduced(monkeypatch, name, change):
    """Route the unreduced builds of ``propagation.<name>`` through
    ``change``; reduced builds pass through."""
    build = getattr(propagation, name)

    def perturbed(dom, model, reduced=True):
        return build(dom, model, reduced=True) if reduced else change(build, dom, model)

    monkeypatch.setattr(propagation, name, perturbed)


def _off_diagonal_bump(build, dom, model):
    # one stored pair (i, j), (j, i) raised, its group images not: A_hat
    # stays symmetric but no longer commutes with the permutations
    op = build(dom, model, reduced=False)
    a = op.matrix.tolil()
    i = int(np.flatnonzero(op.dofs[:, 0] != op.dofs[:, 1])[0])
    j = next(k for k in a.rows[i] if k != i)
    bump = 1e-6 * abs(op.matrix).max()
    a[i, j] += bump
    a[j, i] += bump
    return dataclasses.replace(op, matrix=a.tocsr())


def _facet_weight_change(build, dom, model):
    # every facet weight changed alike: the operator still commutes, but
    # it is another coupling's than the reduced one's
    return build(dom, uniform_model(dom.n, robin(-1.1)), reduced=False)


@pytest.mark.parametrize("name, stat", [("build_delta_bose", "bose"),
                                        ("build_epsilon_fermi", "fermi")])
@pytest.mark.parametrize("change", [_off_diagonal_bump, _facet_weight_change],
                         ids=["asymmetric", "symmetric"])
def test_realtime_gates_catch_a_perturbed_unreduced_operator(monkeypatch, name, stat,
                                                             change):
    # an operator that does not commute fails its commutation gate; one
    # that commutes with the wrong facet weight passes it and fails its
    # deviation gate; the other statistics' gates pass either way
    monkeypatch.setattr(cli, "dual_reconstruction_check",
                        lambda *args: {"max_deviation": 0.0})
    _perturb_unreduced(monkeypatch, name, change)
    cfg = validate_config("command = dual-kernels\nn = 2\ncoupling = robin:-1\n"
                          "realtime = yes\nrealtime_points = 10\n")
    art = cli.run_dual_kernels(cfg)
    failed = {g.name for g in art.gates if not g.passed}
    residual = art.report["realtime"][f"{stat}_commutation"]
    if change is _off_diagonal_bump:
        assert f"realtime_{stat}_commutation" in failed and residual > 1e-7
        assert failed <= {f"realtime_{stat}", f"realtime_{stat}_commutation"}
    else:
        assert failed == {f"realtime_{stat}"} and residual <= 1e-14


def test_ground_state_projection():
    # long-time evolution by the grid Hamiltonian (route 3) lands on the
    # eigensolver's ground state
    dom = DomainSpec(n=2, length=10.0, points=40)
    op = build_sector(dom, uniform_model(2, robin(-1.0)))
    out = ground_state_projection_check(op, tau=80.0)
    assert out["overlap"] >= 1.0 - 1e-4


def test_real_time_identity():
    dom = DomainSpec(n=2, length=6.0, points=10)
    model = uniform_model(2, robin(-1.0))
    chk = real_time_cross_check(dom, model, t=0.1)
    assert chk["bose_deviation"] < 1e-8
    assert chk["fermi_deviation"] < 1e-8
    assert chk["bose_commutation"] <= 1e-14 and chk["fermi_commutation"] <= 1e-14
    assert (build_epsilon_fermi(dom, model, reduced=False).dimension
            > build_delta_bose(dom, model, reduced=False).dimension)


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
