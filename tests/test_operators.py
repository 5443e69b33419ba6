import itertools

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh

from contact_duality.coupling import (
    CouplingModel,
    dirichlet,
    neumann,
    robin,
    scale_invariant,
    uniform_model,
)
from contact_duality.errors import GridTooCoarse, NotConverged, UnsupportedCoupling
from contact_duality.mesh import DofTable
from contact_duality.operators import (
    DomainSpec,
    GridOperator,
    _Accumulator,
    build_delta_bose,
    build_epsilon_fermi,
    build_sector,
    content_hash,
    gershgorin_shift,
    inertia_count,
    solve,
)
from contact_duality.permutations import group_table, permutation_signs_batch
from contact_duality.spectra import seeded_shift


def box_level(k, length):
    return 0.5 * (k * np.pi / length) ** 2


def test_free_fermion_ladder():
    # Dirichlet faces + hard walls: antisymmetrized single-particle levels
    dom = DomainSpec(n=2, length=np.pi, points=64)
    res = solve(build_sector(dom, uniform_model(2, dirichlet())), 4)
    exact = sorted(box_level(a, np.pi) + box_level(b, np.pi)
                   for a in range(1, 5) for b in range(a + 1, 6))[:4]
    np.testing.assert_allclose(res.eigenvalues, exact, rtol=5e-3)


def test_free_boson_ladder():
    dom = DomainSpec(n=2, length=np.pi, points=64)
    res = solve(build_sector(dom, uniform_model(2, neumann())), 4)
    exact = sorted(box_level(a, np.pi) + box_level(b, np.pi)
                   for a in range(1, 5) for b in range(a, 6))[:4]
    np.testing.assert_allclose(res.eigenvalues, exact, rtol=5e-3)


def test_robin_bound_state_large_box():
    # with walls far away the relative ground energy approaches -1/(4 a^2)
    length = 40.0
    dom = DomainSpec(n=2, length=length, points=240)
    res = solve(build_sector(dom, uniform_model(2, robin(-1.0))), 1)
    e_cm = np.pi**2 / (4.0 * length**2)
    np.testing.assert_allclose(res.eigenvalues[0] - e_cm, -0.25, rtol=5e-3)


def test_all_three_formulations_agree():
    dom = DomainSpec(n=2, length=10.0, points=48)
    model = uniform_model(2, robin(-1.0))
    e = {}
    for name, build in (("sector", build_sector), ("delta", build_delta_bose),
                        ("fermi", build_epsilon_fermi)):
        e[name] = solve(build(dom, model), 4).eigenvalues
    np.testing.assert_allclose(e["sector"], e["delta"], rtol=2e-3)
    np.testing.assert_allclose(e["delta"], e["fermi"], rtol=1e-12)


def test_structural_strong_weak_pairing():
    # the same model drives both full-space builders; their reductions
    # coincide entry by entry (the coupling pairing is exact by construction)
    dom = DomainSpec(n=3, length=6.0, points=12)
    model = CouplingModel((robin(-1.0), robin(2.0)))
    a = build_delta_bose(dom, model).matrix
    b = build_epsilon_fermi(dom, model).matrix
    assert abs(a - b).max() < 1e-13 * abs(a).max()


def _project_unreduced(full, red):
    """Unreduced form and mass restricted to the span of the reduced dofs.

    A reduced dof c extends to the box as c[sorted v] on every vertex v
    (delta), or as sgn(pi) c[v sorted by pi] on the copy of v in region pi
    of the cracked mesh (epsilon).  Returns S^T H S and S^T D S with
    H = D^{1/2} A D^{1/2} the unnormalized form of the full operator.
    """
    table = DofTable(red.dofs, red.lattice.size)
    if full.region_ranks is None:
        cols = table.rank(-np.sort(-full.dofs, axis=-1))
        vals = np.ones(full.dimension)
    else:  # region ranks follow the itertools.permutations order
        pis = np.asarray(list(itertools.permutations(range(red.dom.n))))[full.region_ranks]
        cols = table.rank(np.take_along_axis(full.dofs, pis, axis=-1))
        vals = permutation_signs_batch(pis).astype(float)
    s = np.zeros((full.dimension, red.dimension))
    s[np.arange(full.dimension), cols] = vals
    root = np.sqrt(full.mass)
    h = root[:, None] * full.matrix.toarray() * root[None, :]
    return s.T @ h @ s, s.T @ (full.mass[:, None] * s)


@pytest.mark.parametrize("build", [build_delta_bose, build_epsilon_fermi])
@pytest.mark.parametrize("dom, model", [
    (DomainSpec(n=2, length=6.0, points=8), uniform_model(2, robin(1.0))),
    (DomainSpec(n=2, length=6.0, points=8), uniform_model(2, robin(-1.0))),
    (DomainSpec(n=3, length=6.0, points=6), CouplingModel((robin(-1.0), robin(-2.0)))),
    (DomainSpec(n=3, length=6.0, points=6), uniform_model(3, scale_invariant(1.0))),
])
def test_reduced_operator_is_projected_full_box_operator(build, dom, model):
    # the full-box loop over every ordering region (the cracked mesh for
    # epsilon) restricted to (anti)symmetric states checks the reduced
    # sector-element assembly independently
    red = build(dom, model)
    h, d = _project_unreduced(build(dom, model, reduced=False), red)
    np.testing.assert_array_equal(d, np.diag(np.diag(d)))
    np.testing.assert_allclose(np.diag(d), red.mass, rtol=1e-14)
    np.testing.assert_allclose(eigh(h, d, eigvals_only=True),
                               np.linalg.eigvalsh(red.matrix.toarray()), rtol=1e-12)


def test_cracked_dofs_lie_in_their_regions():
    # a cracked dof's vertex, permuted by its region's row of the group
    # table, is weakly descending
    dom = DomainSpec(n=3, length=6.0, points=6)
    op = build_epsilon_fermi(dom, CouplingModel((robin(-1.0), robin(-2.0))), reduced=False)
    images = group_table(3)[0][op.region_ranks]
    ordered = np.take_along_axis(op.dofs, images, axis=-1)
    assert np.all(ordered[:, :-1] >= ordered[:, 1:])
    assert sorted(set(op.region_ranks.tolist())) == list(range(6))


def test_stored_pattern_does_not_depend_on_rounding():
    # a diagonal entry that sums to exactly 0.0 is still stored
    acc = _Accumulator(3)
    acc.edges(np.array([0, 1]), np.array([1, 2]), np.array([1.0, 2.0]))
    acc.diagonal(np.array([0]), np.array([-1.0]))
    m = acc.matrix().tocoo()
    assert sorted(zip(m.row.tolist(), m.col.tolist())) == [
        (0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)]
    np.testing.assert_array_equal(m.toarray(), [[0, -1, 0], [-1, 3, -2], [0, -2, 2]])
    # on this operator the diagonal at the total-coincidence vertex sums
    # to rounding error; every row still stores its diagonal
    op = build_sector(DomainSpec(n=4, length=4.0, points=6), uniform_model(4, robin(-1.0)))
    coo = op.matrix.tocoo()
    assert np.count_nonzero(coo.row == coo.col) == op.dimension


def test_operator_symmetry():
    dom = DomainSpec(n=3, length=6.0, points=10)
    for build in (build_sector, build_delta_bose, build_epsilon_fermi):
        op = build(dom, CouplingModel((robin(-1.0), robin(-2.0))))
        assert op.symmetry_residual(seed=3) < 1e-12


def test_neumann_limit_is_free_bose():
    dom = DomainSpec(n=2, length=np.pi, points=48)
    free = solve(build_sector(dom, uniform_model(2, neumann())), 3).eigenvalues
    bose = solve(build_delta_bose(dom, uniform_model(2, neumann())), 3).eigenvalues
    np.testing.assert_allclose(free, bose, rtol=2e-3)


def test_dirichlet_limit_is_free_fermi():
    dom = DomainSpec(n=2, length=np.pi, points=48)
    sect = solve(build_sector(dom, uniform_model(2, dirichlet())), 3).eigenvalues
    fermi = solve(build_epsilon_fermi(dom, uniform_model(2, dirichlet())), 3).eigenvalues
    np.testing.assert_allclose(sect, fermi, rtol=2e-3)


def test_convergence_order_two():
    model = uniform_model(2, robin(-1.0))
    energies = []
    for points in (24, 48, 96):
        dom = DomainSpec(n=2, length=10.0, points=points)
        energies.append(solve(build_sector(dom, model), 1).eigenvalues[0])
    order = np.log2(abs(energies[0] - energies[1]) / abs(energies[1] - energies[2]))
    assert 1.7 <= order <= 2.3


def test_distinct_couplings_differ():
    dom = DomainSpec(n=3, length=6.0, points=14)
    uniform = solve(build_sector(dom, CouplingModel((robin(-1.0), robin(-1.0)))), 2)
    mixed = solve(build_sector(dom, CouplingModel((robin(-1.0), robin(-2.0)))), 2)
    assert abs(uniform.eigenvalues[0] - mixed.eigenvalues[0]) > 1e-3


def test_coupling_preconditions():
    dom = DomainSpec(n=2, length=6.0, points=12)
    with pytest.raises(UnsupportedCoupling):
        build_delta_bose(dom, uniform_model(2, dirichlet()))
    with pytest.raises(UnsupportedCoupling):
        build_epsilon_fermi(dom, uniform_model(2, neumann()))
    with pytest.raises(GridTooCoarse):
        DomainSpec(n=2, length=6.0, points=4)


def test_harmonic_confinement_smoke():
    # harmonic pair with a Neumann face: two free oscillator quanta;
    # the wide box only truncates exponentially small tails
    dom = DomainSpec(n=2, length=16.0, points=96, confinement="harmonic", omega=1.0)
    res = solve(build_sector(dom, uniform_model(2, neumann())), 2)
    np.testing.assert_allclose(res.eigenvalues[0], 1.0, rtol=5e-3)
    np.testing.assert_allclose(res.eigenvalues[1], 2.0, rtol=5e-3)


def test_scale_invariant_assembly():
    dom = DomainSpec(n=3, length=6.0, points=12)
    model = uniform_model(3, scale_invariant(1.0))
    op = build_sector(dom, model)
    assert op.symmetry_residual() < 1e-12
    res = solve(op, 2)
    assert res.eigenvalues[0] > 0  # repulsive scale-invariant coupling


def test_solver_determinism():
    dom = DomainSpec(n=2, length=10.0, points=32)
    op = build_sector(dom, uniform_model(2, robin(-1.0)))
    a = solve(op, 3, seed=5)
    b = solve(op, 3, seed=5)
    np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
    np.testing.assert_array_equal(a.vectors, b.vectors)


def test_solver_residuals_small():
    dom = DomainSpec(n=2, length=10.0, points=32)
    op = build_sector(dom, uniform_model(2, robin(1.0)))
    res = solve(op, 4)
    assert np.max(res.residuals) < 1e-8


def test_content_hash_distinguishes():
    dom = DomainSpec(n=2, length=10.0, points=32)
    h1 = content_hash(dom, uniform_model(2, robin(-1.0)))
    h2 = content_hash(dom, uniform_model(2, robin(-2.0)))
    assert h1 != h2 and len(h1) == 12


def test_content_hash_full_precision():
    # six-significant-digit labels used to give these three one key
    dom = DomainSpec(n=2, length=10.0, points=32)
    near = DomainSpec(n=2, length=10.0000001, points=32)
    keys = {content_hash(dom, uniform_model(2, robin(-1.0))),
            content_hash(dom, uniform_model(2, robin(-1.0000001))),
            content_hash(near, uniform_model(2, robin(-1.0)))}
    assert len(keys) == 3
    assert content_hash(DomainSpec(n=2, length=10, points=32),
                        uniform_model(2, robin(-1))) == content_hash(
        dom, uniform_model(2, robin(-1.0)))


SMALL_OPERATORS = [
    (build_sector, DomainSpec(n=2, length=6.0, points=12), uniform_model(2, robin(-1.0))),
    (build_delta_bose, DomainSpec(n=2, length=6.0, points=10), uniform_model(2, robin(1.0))),
    (build_sector, DomainSpec(n=3, length=6.0, points=8),
     CouplingModel((robin(-1.0), robin(-2.0)))),
    (build_epsilon_fermi, DomainSpec(n=3, length=6.0, points=7),
     CouplingModel((robin(-1.0), scale_invariant(1.0)))),
]


@pytest.mark.parametrize("build, dom, model", SMALL_OPERATORS)
def test_inertia_counts_match_dense_spectrum(build, dom, model):
    op = build(dom, model)
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    k = 4
    res = solve(op, k)
    np.testing.assert_allclose(res.eigenvalues, dense[:k], rtol=1e-10)
    assert res.below_shift == np.count_nonzero(dense < res.shift) == 0
    assert res.below_top == np.count_nonzero(dense < res.top_shift) == k
    # between every pair of neighbouring levels, and beyond them
    probes = np.concatenate([[dense[0] - 1.0], 0.5 * (dense[:12] + dense[1:13])])
    for probe in probes:
        assert inertia_count(op.matrix, probe) == np.count_nonzero(dense < probe)


def test_shift_above_ground_level_is_rejected():
    dom = DomainSpec(n=3, length=6.0, points=8)
    op = build_sector(dom, CouplingModel((robin(-1.0), robin(-2.0))))
    plain = solve(op, 4)
    bad = 0.5 * (plain.eigenvalues[0] + plain.eigenvalues[1])
    retried = solve(op, 4, shift=bad)
    assert retried.rejected_shift == bad
    assert retried.shift == plain.shift == gershgorin_shift(op.matrix)
    np.testing.assert_allclose(retried.eigenvalues, plain.eigenvalues, rtol=1e-10)
    assert (retried.below_shift, retried.below_top) == (0, 4)


def test_seeded_and_gershgorin_shifts_agree():
    model = CouplingModel((robin(-1.0), robin(-2.0)))
    coarse = solve(build_sector(DomainSpec(n=3, length=6.0, points=8), model), 5)
    op = build_sector(DomainSpec(n=3, length=6.0, points=16), model)
    shift = seeded_shift(coarse.eigenvalues)
    seeded = solve(op, 5, shift=shift)
    plain = solve(op, 5)
    assert seeded.shift == shift and seeded.rejected_shift is None
    assert plain.shift < shift < seeded.eigenvalues[0]
    np.testing.assert_allclose(seeded.eigenvalues, plain.eigenvalues, rtol=1e-10)
    assert np.max(seeded.residuals) < 1e-8


def test_degenerate_cut_fails_certificate():
    # a double eigenvalue at the k-th place leaves the lowest k ambiguous:
    # both shifts count 3 levels below the cut and the solve refuses
    dom = DomainSpec(n=2, length=6.0, points=6)
    diag = np.array([1.0, 2.0, 2.0, 3.0, 4.0, 5.0])
    op = GridOperator(matrix=sparse.diags(diag).tocsr(), mass=np.ones(6),
                      dofs=np.zeros((6, 2), dtype=int), coords=np.zeros((6, 2)),
                      lattice=np.zeros(7), formulation="sector", dom=dom,
                      model=uniform_model(2, robin(-1.0)))
    with pytest.raises(NotConverged) as err:
        solve(op, 2, shift=0.5)
    attempts = err.value.diagnostics["attempts"]
    assert [a["below_shift"] for a in attempts] == [0, 0]
    assert [a["below_top"] for a in attempts] == [3, 3]
    np.testing.assert_allclose(solve(op, 3).eigenvalues, [1.0, 2.0, 2.0], rtol=1e-14)


def test_eigenvector_equivariance_through_extension():
    # reduced boson eigenvectors extend symmetrically, fermion ones
    # antisymmetrically; their strict-node magnitudes coincide level by level
    from contact_duality.boundary_checks import MeshFunction, reduced_state_evaluator

    dom = DomainSpec(n=2, length=10.0, points=24)
    model = uniform_model(2, robin(-1.0))
    rb = solve(build_delta_bose(dom, model), 2)
    rf = solve(build_epsilon_fermi(dom, model), 2)
    ev_b = reduced_state_evaluator(MeshFunction(rb.operator, rb.vectors[:, 0]), False)
    ev_f = reduced_state_evaluator(MeshFunction(rf.operator, rf.vectors[:, 0]), True)
    lat = rb.operator.lattice
    pts = np.array([[lat[5], lat[9]], [lat[9], lat[5]], [lat[3], lat[11]]])
    vb = ev_b(pts)
    vf = ev_f(pts)
    np.testing.assert_allclose(vb[0], vb[1], rtol=1e-12)   # symmetric
    np.testing.assert_allclose(vf[0], -vf[1], rtol=1e-12)  # antisymmetric
    np.testing.assert_allclose(np.abs(vb), np.abs(vf), rtol=1e-9)


def test_four_body_smoke():
    # n = 4 is supported for smoke checks only; the three constructions
    # still agree on a tiny grid
    dom = DomainSpec(n=4, length=4.0, points=7)
    model = uniform_model(4, robin(-1.0))
    e_s = solve(build_sector(dom, model), 2).eigenvalues
    e_d = solve(build_delta_bose(dom, model), 2).eigenvalues
    np.testing.assert_allclose(e_s, e_d, rtol=0.05)
    with pytest.raises(ValueError):
        DomainSpec(n=5, length=4.0, points=7)
