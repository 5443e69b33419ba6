import itertools

import dataclasses

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from contact_duality import operators
from contact_duality.coupling import (
    CouplingModel,
    dirichlet,
    neumann,
    robin,
    scale_invariant,
    uniform_model,
)
from contact_duality.errors import GridTooCoarse, NotConverged, UnsupportedCoupling
from contact_duality.mesh import DofTable, dissection_order
from contact_duality.operators import (
    DomainSpec,
    GridOperator,
    _Accumulator,
    build_delta_bose,
    build_epsilon_fermi,
    build_sector,
    content_hash,
    gershgorin_shift,
    midpoint_cut,
    prolong,
    solve,
)
from contact_duality.permutations import group_table, permutation_signs_batch


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
    # the same model drives both full-space builders; their reductions are
    # bitwise equal, which lets the spectral reports solve only the delta one
    cases = [
        (DomainSpec(n=3, length=6.0, points=12), uniform_model(3, robin(-1.0))),
        (DomainSpec(n=3, length=6.0, points=12), CouplingModel((robin(-1.0), robin(2.0)))),
        (DomainSpec(n=3, length=6.0, points=8), uniform_model(3, scale_invariant(1.0))),
        (DomainSpec(n=2, length=8.0, points=12, confinement="harmonic", omega=1.0),
         uniform_model(2, robin(-1.0))),
    ]
    for dom, model in cases:
        a = build_delta_bose(dom, model)
        b = build_epsilon_fermi(dom, model)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a.matrix, part), getattr(b.matrix, part))
        assert np.array_equal(a.mass, b.mass)
        assert np.array_equal(a.dofs, b.dofs)


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


@pytest.mark.parametrize("dom, model", [
    (DomainSpec(n=2, length=6.0, points=8), uniform_model(2, dirichlet())),
    (DomainSpec(n=3, length=6.0, points=6), CouplingModel((dirichlet(), robin(-1.0)))),
    (DomainSpec(n=3, length=6.0, points=6), CouplingModel((robin(-1.0), dirichlet()))),
])
def test_cracked_dirichlet_faces_project_onto_the_reduced_operator(dom, model):
    # the delta builder refuses Dirichlet faces; the cracked epsilon mesh
    # drops the face values on both sides of the crack, and the reduced
    # operator drops them on the sector face
    test_reduced_operator_is_projected_full_box_operator(build_epsilon_fermi, dom, model)


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


@pytest.mark.parametrize("build, dom, model, reduced", [
    (build_sector, DomainSpec(n=3, length=6.0, points=8),
     CouplingModel((robin(-1.0), robin(-2.0))), True),
    (build_delta_bose, DomainSpec(n=4, length=4.0, points=6), uniform_model(4, robin(-1.0)), True),
    (build_delta_bose, DomainSpec(n=3, length=6.0, points=6),
     CouplingModel((robin(-1.0), scale_invariant(1.0))), False),
    (build_epsilon_fermi, DomainSpec(n=2, length=6.0, points=8), uniform_model(2, robin(-1.0)),
     False),
    (build_epsilon_fermi, DomainSpec(n=3, length=6.0, points=6),
     CouplingModel((dirichlet(), robin(-1.0))), False),
])
def test_dense_dof_ranks_match_unique_and_searchsorted(monkeypatch, build, dom, model, reduced):
    # the reduced, unreduced and cracked key sets of real builds
    seen = []

    def recorded(keys, size):
        table = rank_table(keys, size)
        seen.append((keys.copy(), size, *table))
        return table

    rank_table = operators._rank_table
    monkeypatch.setattr(operators, "_rank_table", recorded)
    op = build(dom, model) if reduced else build(dom, model, reduced=False)
    (keys, size, rank, dof_keys), = seen
    assert rank.shape == (size,) and 0 <= keys.min() and keys.max() < size
    np.testing.assert_array_equal(dof_keys, np.unique(keys))
    np.testing.assert_array_equal(rank[keys], np.searchsorted(dof_keys, keys))
    assert rank.dtype == dof_keys.dtype == np.searchsorted(dof_keys, keys).dtype
    assert dof_keys.size >= op.dimension


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
    assert op.symmetry_residual(seed=0) < 1e-12
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


def count_factors(monkeypatch) -> list:
    """Shifts of every LU factor ``operators`` makes from here on."""
    shifts = []

    def counted(a, shift):
        shifts.append(shift)
        return factor(a, shift)

    factor = operators._factor
    monkeypatch.setattr(operators, "_factor", counted)
    return shifts


def fallback_solve(monkeypatch, op, k):
    """The Gershgorin-path solve of ``op``: no coarse grid gives a cut."""
    with monkeypatch.context() as patch:
        patch.setattr(operators, "_coarse_cut", lambda *args: None)
        return solve(op, k)


def fields(cert: dict, *keys) -> tuple:
    return tuple(cert[key] for key in keys)


@pytest.mark.parametrize("build, dom, model", SMALL_OPERATORS)
def test_inertia_counts_match_dense_spectrum(build, dom, model):
    op = build(dom, model)
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    k = 4
    # too few cells for a coarser grid: the Gershgorin estimate places the cut
    res = solve(op, k)
    cert = res.certificate
    np.testing.assert_allclose(res.eigenvalues, dense[:k], rtol=1e-10)
    assert fields(cert, "path", "factors", "rejected_cut") == ("fallback", 2, None)
    assert cert["below_cut"] == np.count_nonzero(dense < cert["cut"]) == k
    assert cert["shift"] < dense[0]
    # between every pair of neighbouring levels, and beyond them, in dof
    # order and in the dissection order every solve factors in
    order = dissection_order(op.dofs)
    ordered = op.matrix[order][:, order]
    probes = np.concatenate([[dense[0] - 1.0], 0.5 * (dense[:12] + dense[1:13])])
    for probe in probes:
        for a in (op.matrix, ordered):
            count = operators._negative_pivots(operators._factor(a, probe))
            assert count == np.count_nonzero(dense < probe)


@pytest.mark.parametrize("build, dom, model", SMALL_OPERATORS)
def test_inertia_count_empties_the_cached_factor_copies(build, dom, model):
    # reading lu.U caches CSC copies of L and U on the factor; the count
    # empties them, and lu.solve, which reads SuperLU's own storage, keeps
    # bitwise the values of a factor whose copies were never made
    op = build(dom, model)
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    cut = 0.5 * (dense[3] + dense[4])
    order = dissection_order(op.dofs)
    for a in (op.matrix, op.matrix[order][:, order]):
        untouched, lu = operators._factor(a, cut), operators._factor(a, cut)
        assert operators._negative_pivots(lu) == 4
        for copy in (lu.L, lu.U):
            assert copy.shape == op.matrix.shape
            assert copy.nnz == copy.data.size == copy.indices.size == 0
            assert not np.any(copy.indptr)
        rhs = np.random.default_rng(1).uniform(-1.0, 1.0, size=(op.dimension, 3))
        assert np.array_equal(lu.solve(rhs), untouched.solve(rhs))


@pytest.mark.parametrize("build, dom, model", SMALL_OPERATORS)
def test_cut_between_levels_certifies_from_one_factor(monkeypatch, build, dom, model):
    op = build(dom, model)
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    k = 4
    factors = count_factors(monkeypatch)
    cut = midpoint_cut(dense, k)
    res = solve(op, k, cut=cut)
    cert = res.certificate
    assert factors == [cut]
    np.testing.assert_allclose(res.eigenvalues, dense[:k], rtol=1e-10)
    assert cert["below_cut"] == np.count_nonzero(dense < cut) == k
    assert fields(cert, "path", "cut", "factors", "rejected_cut") == ("cut", cut, 1, None)
    assert np.max(res.eigenvalues) + np.linalg.norm(res.residuals) < cut
    assert cert["shift"] is None
    # a cut between lambda_{k+1} and lambda_{k+2} counts one level more:
    # all k + 1 are solved and certified from the one factor, and the
    # lowest k are returned
    factors.clear()
    above = midpoint_cut(dense, k + 1)
    res = solve(op, k, cut=above)
    cert = res.certificate
    assert factors == [above]
    np.testing.assert_allclose(res.eigenvalues, dense[:k], rtol=1e-10)
    assert cert["below_cut"] == np.count_nonzero(dense < above) == k + 1
    assert fields(cert, "path", "cut", "factors", "rejected_cut") == ("cut", above, 1, None)
    assert dense[k] + np.linalg.norm(res.residuals) < above
    assert cert["shift"] is None
    # a cut below lambda_k, or one that counts more levels than the cap,
    # counts a number out of range, and the Gershgorin estimate places
    # the cut instead
    cap = k + operators.EXTRA_LEVELS
    for wrong in (midpoint_cut(dense, k - 1), midpoint_cut(dense, cap + 1)):
        factors.clear()
        res = solve(op, k, cut=wrong)
        cert = res.certificate
        below = np.count_nonzero(dense < wrong)
        assert not k <= below <= cap
        assert cert["rejected_cut"] == {"cut": wrong, "below_cut": below, "reason": "count"}
        assert fields(cert, "path", "below_cut") == ("fallback", k)
        assert dense[k - 1] < cert["cut"] < dense[k] and cert["shift"] < dense[0]
        assert factors == [wrong, cert["shift"], cert["cut"]] and cert["factors"] == 3
        np.testing.assert_allclose(res.eigenvalues, dense[:k], rtol=1e-10)


def test_shift_above_ground_level_is_rejected():
    # a cut between lambda_1 and lambda_2 counts one level, not four
    dom = DomainSpec(n=3, length=6.0, points=8)
    op = build_sector(dom, CouplingModel((robin(-1.0), robin(-2.0))))
    plain = solve(op, 4)
    bad = 0.5 * (plain.eigenvalues[0] + plain.eigenvalues[1])
    retried = solve(op, 4, cut=bad)
    cert = retried.certificate
    assert cert["rejected_cut"] == {"cut": bad, "below_cut": 1, "reason": "count"}
    # the same estimate places the same cut as without the bad one
    assert fields(cert, "shift", "cut", "below_cut") == fields(
        plain.certificate, "shift", "cut", "below_cut")
    assert cert["factors"] == plain.certificate["factors"] + 1 == 3
    np.testing.assert_allclose(retried.eigenvalues, plain.eigenvalues, rtol=1e-10)


@pytest.mark.parametrize("dom, model", [
    (DomainSpec(n=2, length=6.0, points=12), uniform_model(2, robin(-1.0))),
    (DomainSpec(n=3, length=6.0, points=8), CouplingModel((robin(-1.0), robin(-2.0)))),
])
def test_ritz_value_within_its_residual_of_the_cut_fails_the_interval_test(
        monkeypatch, dom, model):
    # a cut counting 3 whose 3rd Ritz value lies within the residual norm
    # of the block below it certifies nothing; the cut the Gershgorin
    # estimate places returns the same levels.  A cut at the computed 3rd
    # level hits this case only at some seeds, by rounding, so the cut
    # attempt's residuals are widened to reach the midpoint cut instead
    op = build_sector(dom, model)
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    cut = midpoint_cut(dense, 3)
    lanczos = operators._lanczos

    def widened(a, k, sigma, which, lu, v0, tol):
        pairs, applications = lanczos(a, k, sigma, which, lu, v0, tol)
        if sigma == cut:
            vals, vecs, residuals = pairs
            pairs = vals, vecs, np.full_like(residuals, cut - vals[-1])
        return pairs, applications

    monkeypatch.setattr(operators, "_lanczos", widened)
    res = solve(op, 3, cut=cut)
    cert = res.certificate
    assert cert["rejected_cut"] == {"cut": cut, "below_cut": 3, "reason": "interval"}
    assert fields(cert, "path", "below_cut", "factors") == ("fallback", 3, 3)
    np.testing.assert_allclose(res.eigenvalues, dense[:3], rtol=1e-10)


def test_unconverged_cut_falls_back(monkeypatch):
    op = build_sector(DomainSpec(n=3, length=6.0, points=8),
                      CouplingModel((robin(-1.0), robin(-2.0))))
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    k = 4
    cut = midpoint_cut(dense, k)
    runs = []

    def flaky(*args, **kwargs):
        runs.append(kwargs["which"])
        if len(runs) == 1:
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(operators, "eigsh", flaky)
    res = solve(op, k, cut=cut)
    # the cut's run, the estimate's and the run at the estimate's cut
    assert runs == ["SA", "LM", "SA"]
    cert = res.certificate
    assert cert["rejected_cut"] == {"cut": cut, "below_cut": k, "reason": "not converged"}
    assert fields(cert, "path", "below_cut", "factors") == ("fallback", k, 3)
    np.testing.assert_allclose(res.eigenvalues, dense[:k], rtol=1e-10)

    # when the estimate does not converge either, every attempt is reported
    def failing(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(operators, "eigsh", failing)
    with pytest.raises(NotConverged) as err:
        solve(op, k, cut=cut)
    attempts = err.value.diagnostics["attempts"]
    assert [a["reason"] for a in attempts] == ["not converged"] * 2
    assert fields(attempts[0], "cut", "below_cut") == (cut, k)
    assert fields(attempts[1], "cut", "below_cut", "factors") == (None, None, 1)
    assert attempts[1]["shift"] < dense[0]


def test_seeded_and_gershgorin_shifts_agree(monkeypatch):
    # the coarse grid solved for k + 1 levels cuts the fine spectrum
    model = CouplingModel((robin(-1.0), robin(-2.0)))
    coarse = solve(build_sector(DomainSpec(n=3, length=6.0, points=8), model), 6)
    op = build_sector(DomainSpec(n=3, length=6.0, points=16), model)
    cut = midpoint_cut(coarse.eigenvalues, 5)
    assert cut == 0.5 * (coarse.eigenvalues[4] + coarse.eigenvalues[5])
    factors = count_factors(monkeypatch)
    seeded = solve(op, 5, cut=cut)
    assert factors == [cut]
    plain = solve(op, 5)
    assert fields(seeded.certificate, "cut", "below_cut", "factors", "rejected_cut") == (
        cut, 5, 1, None)
    assert plain.certificate["path"] == "fallback"
    assert plain.certificate["shift"] < seeded.eigenvalues[0]
    assert seeded.eigenvalues[-1] < cut
    np.testing.assert_allclose(seeded.eigenvalues, plain.eigenvalues, rtol=1e-10)
    assert np.max(seeded.residuals) < 1e-8


@pytest.mark.parametrize("build", [build_sector, build_delta_bose])
def test_warm_start_from_coarser_eigenvectors(build):
    model = CouplingModel((robin(-1.0), robin(-2.0)))
    coarse = solve(build(DomainSpec(n=3, length=6.0, points=8), model), 6)
    op = build(DomainSpec(n=3, length=6.0, points=16), model)
    cut = midpoint_cut(coarse.eigenvalues, 5)
    warm = solve(op, 4, cut=cut, coarse=coarse)
    cold = solve(op, 4, cut=cut)
    for res in (warm, cold):
        assert fields(res.certificate, "path", "cut", "factors") == ("cut", cut, 1)
    assert warm.certificate["below_cut"] == cold.certificate["below_cut"] == 5
    assert 0 < warm.certificate["opinv_applications"] <= cold.certificate["opinv_applications"]
    np.testing.assert_allclose(warm.eigenvalues, cold.eigenvalues, rtol=1e-10)
    # the coarse ground state, prolonged, is the fine one to within 1%
    fine, prolonged = warm.vectors[:, 0], prolong(coarse, op)[:, 0]
    w = op.mass
    overlap = abs(np.sum(w * fine * prolonged)) / np.sqrt(
        np.sum(w * fine**2) * np.sum(w * prolonged**2))
    assert overlap >= 0.99


def test_prolong_injects_at_shared_sector_vertices():
    # every even 16-cell vertex is an 8-cell vertex and takes its value
    model = CouplingModel((robin(-1.0), robin(-2.0)))
    coarse = solve(build_sector(DomainSpec(n=3, length=6.0, points=8), model), 3)
    op = build_sector(DomainSpec(n=3, length=6.0, points=16), model)
    values = prolong(coarse, op)
    even = np.all(op.dofs % 2 == 0, axis=-1)
    rank = DofTable(coarse.operator.dofs, coarse.operator.lattice.size).rank(op.dofs[even] // 2)
    np.testing.assert_allclose(values[even], coarse.vectors[rank], rtol=1e-12, atol=1e-14)


ROBIN_N64 = (DomainSpec(n=2, length=10.0, points=64), uniform_model(2, robin(-1.0)))


@pytest.mark.parametrize("build", [build_sector, build_delta_bose])
def test_one_shot_solve_is_seeded_from_a_coarser_grid(monkeypatch, build):
    op = build(*ROBIN_N64)
    k = 5
    # the 16-cell grid, solved for k + 1 levels, gives the cut
    coarse = solve(build(dataclasses.replace(ROBIN_N64[0], points=16), ROBIN_N64[1]), k + 1)
    factors = count_factors(monkeypatch)
    starts = []

    def start_vector(op, k, seed, coarse):
        starts.append((op.dom.points, None if coarse is None else coarse.operator.dom.points))
        return make_start(op, k, seed, coarse)

    make_start = operators._start_vector
    monkeypatch.setattr(operators, "_start_vector", start_vector)
    res = solve(op, k)
    cert = res.certificate
    cut = midpoint_cut(coarse.eigenvalues, k)
    assert fields(cert, "path", "cut", "below_cut", "factors") == ("cut", cut, k, 1)
    assert cert["rejected_cut"] is None and cert["shift"] is None
    # one factor of the fine operator, after the coarse grid's two
    assert len(factors) == 3 and factors[-1] == cut
    # the fine run starts from the grid its cut came from; that grid's
    # cut comes from the Gershgorin estimate, whose vectors start its run
    assert starts == [(16, None), (64, 16)]
    plain = fallback_solve(monkeypatch, op, k)
    assert plain.certificate["path"] == "fallback"
    np.testing.assert_allclose(res.eigenvalues, plain.eigenvalues, rtol=1e-10)


def at_tolerance(monkeypatch, tol, call):
    """``call()`` with the Lanczos run at a cut stopping at ARPACK's ``tol``."""
    with monkeypatch.context() as patch:
        patch.setattr(operators, "LANCZOS_TOL", tol)
        return call()


def assert_tolerance_keeps_the_solve(monkeypatch, call):
    """The solve at ``LANCZOS_TOL`` against one to machine precision."""
    loose, exact = call(), at_tolerance(monkeypatch, 0, call)
    np.testing.assert_allclose(loose.eigenvalues, exact.eigenvalues, rtol=1e-12, atol=0)
    assert np.max(loose.residuals) < 1e-9
    assert fields(loose.certificate, "path", "below_cut", "factors") == fields(
        exact.certificate, "path", "below_cut", "factors")
    # a one-shot solve's cut comes from a coarse solve at the same tolerance
    assert loose.certificate["cut"] == pytest.approx(exact.certificate["cut"], rel=1e-12)
    assert loose.certificate["opinv_applications"] <= exact.certificate["opinv_applications"]


@pytest.mark.parametrize("build", [build_sector, build_delta_bose])
def test_lanczos_tolerance_keeps_the_ladder_rungs(monkeypatch, build):
    # the benchmark ladder's 12-cell rung (Gershgorin path) and its
    # 24-cell rung, cut and started from the 12-cell one
    model = CouplingModel((robin(-1.0), robin(-2.0)))
    ops = {points: build(DomainSpec(n=3, length=6.0, points=points), model) for points in (12, 24)}
    rung = solve(ops[12], 8, seed=1)
    cut = midpoint_cut(rung.eigenvalues, 7)
    assert_tolerance_keeps_the_solve(monkeypatch, lambda: solve(ops[12], 8, seed=1))
    assert_tolerance_keeps_the_solve(
        monkeypatch, lambda: solve(ops[24], 7, seed=1, cut=cut, coarse=rung))


def test_lanczos_tolerance_keeps_the_one_shot_solve(monkeypatch):
    op = build_sector(DomainSpec(n=2, length=10.0, points=256), uniform_model(2, robin(-1.0)))
    assert_tolerance_keeps_the_solve(monkeypatch, lambda: solve(op, 5, seed=1))


def test_seeded_shift_above_ground_level_falls_back_to_gershgorin(monkeypatch):
    op = build_sector(*ROBIN_N64)
    k = 4
    plain = fallback_solve(monkeypatch, op, k)
    bad = 0.5 * (plain.eigenvalues[0] + plain.eigenvalues[1])
    # a coarse rung that cuts the fine spectrum above lambda_1 only, with
    # no coarse result to start from
    monkeypatch.setattr(operators, "_coarse_cut", lambda op, k, seed: (bad, None))
    res = solve(op, k)
    cert = res.certificate
    assert cert["rejected_cut"] == {"cut": bad, "below_cut": 1, "reason": "count"}
    assert fields(cert, "path", "shift", "cut") == (
        "fallback", plain.certificate["shift"], plain.certificate["cut"])
    assert fields(cert, "below_cut", "factors") == (k, 3)
    np.testing.assert_allclose(res.eigenvalues, plain.eigenvalues, rtol=1e-10)


@pytest.mark.parametrize("error", [NotConverged, GridTooCoarse])
def test_failed_coarse_rung_leaves_the_gershgorin_solve(monkeypatch, error):
    op = build_sector(*ROBIN_N64)
    k = 4
    plain = fallback_solve(monkeypatch, op, k)

    def failing(coarse_op, k, **kwargs):
        assert coarse_op.dom.points == 16 and k == 5
        raise error("coarse rung failed")

    # the coarse rung solves through the module's name; the fine solve
    # below is the function imported before the patch
    monkeypatch.setattr(operators, "solve", failing)
    res = solve(op, k)
    cert = res.certificate
    assert fields(cert, "path", "shift", "cut", "rejected_cut") == (
        "fallback", plain.certificate["shift"], plain.certificate["cut"], None)
    assert fields(cert, "below_cut", "factors") == (k, 2)
    np.testing.assert_array_equal(res.eigenvalues, plain.eigenvalues)


def test_coarse_grid_with_too_few_dofs_gives_no_seed():
    # the 6-cell coarse grid has 15 sector dofs, too few for 17 levels
    # and the one more its own estimate needs
    op = build_sector(DomainSpec(n=2, length=10.0, points=24), uniform_model(2, robin(-1.0)))
    cert = solve(op, 16).certificate
    assert fields(cert, "path", "below_cut", "rejected_cut") == ("fallback", 16, None)


def test_seeded_one_shot_solve_needs_few_fine_level_applications(monkeypatch):
    op = build_sector(DomainSpec(n=2, length=10.0, points=256), uniform_model(2, robin(-1.0)))
    applications = []

    class CountingFactor:
        def __init__(self, lu):
            self.lu = lu

        def __getattr__(self, name):
            return getattr(self.lu, name)

        def solve(self, rhs):
            applications.append(rhs.shape)
            return self.lu.solve(rhs)

    def factor(a, shift):
        lu = operators_factor(a, shift)
        return CountingFactor(lu) if lu is not None and a.shape == op.matrix.shape else lu

    operators_factor = operators._factor
    monkeypatch.setattr(operators, "_factor", factor)
    cert = solve(op, 5).certificate
    assert fields(cert, "path", "below_cut", "factors", "rejected_cut") == ("cut", 5, 1, None)
    # 761-788 applications from the Gershgorin shift, by seed
    assert 0 < len(applications) <= 100
    assert cert["opinv_applications"] == len(applications)


def test_degenerate_cut_fails_certificate():
    # a double eigenvalue at the k-th place leaves the lowest k ambiguous:
    # no cut splits it, and the Gershgorin estimate's cut lands on the
    # double level, so the solve refuses
    dom = DomainSpec(n=2, length=6.0, points=6)
    diag = np.array([1.0, 2.0, 2.0, 3.0, 4.0, 5.0])
    op = GridOperator(matrix=sparse.diags(diag).tocsr(), mass=np.ones(6),
                      dofs=np.zeros((6, 2), dtype=int), coords=np.zeros((6, 2)),
                      lattice=np.zeros(7), formulation="sector", dom=dom,
                      model=uniform_model(2, robin(-1.0)), reduced=True, region_ranks=None)
    # the cut at 2.5 counts 3, in range, but the 2nd and 3rd Ritz values
    # do not split
    for cut, below, reason in ((1.5, 1, "count"), (2.5, 3, "split")):
        with pytest.raises(NotConverged) as err:
            solve(op, 2, cut=cut)
        attempts = err.value.diagnostics["attempts"]
        assert fields(attempts[0], "cut", "below_cut", "reason") == (cut, below, reason)
        assert fields(attempts[1], "reason", "factors") == ("count", 2)
        assert attempts[1]["cut"] == pytest.approx(2.0)
    np.testing.assert_allclose(solve(op, 3).eigenvalues, [1.0, 2.0, 2.0], rtol=1e-14)
    certified = solve(op, 3, cut=2.5).certificate
    assert fields(certified, "cut", "below_cut", "factors") == (2.5, 3, 1)


@pytest.mark.parametrize("build, dom, model", [
    (build_sector, DomainSpec(n=2, length=10.0, points=16), uniform_model(2, robin(-1.0))),
    (build_delta_bose, DomainSpec(n=3, length=6.0, points=12),
     CouplingModel((robin(-1.0), robin(-2.0)))),
])
def test_gershgorin_estimate_places_a_certified_cut(build, dom, model):
    # too few cells for a coarser grid: the estimate's cut splits the k-th
    # level from the (k+1)-th, and one count there certifies the solve
    op = build(dom, model)
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    k = 3
    res = solve(op, k)
    cert = res.certificate
    assert fields(cert, "path", "factors", "below_cut") == ("fallback", 2, k)
    assert dense[k - 1] < cert["cut"] < dense[k]
    np.testing.assert_allclose(res.eigenvalues, dense[:k], rtol=1e-10)


def test_every_path_reports_the_same_certificate_keys():
    op = build_sector(DomainSpec(n=3, length=6.0, points=8),
                      CouplingModel((robin(-1.0), robin(-2.0))))
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    k = 4
    certs = [solve(op, k, cut=midpoint_cut(dense, k)).certificate, solve(op, k).certificate,
             solve(op, k, cut=midpoint_cut(dense, 1)).certificate]
    assert [cert["path"] for cert in certs] == ["cut", "fallback", "fallback"]
    assert certs[2]["rejected_cut"] is not None
    assert {tuple(cert) for cert in certs} == {(
        "path", "cut", "below_cut", "shift", "factors", "fill", "opinv_applications",
        "rejected_cut")}


def test_misplaced_estimate_cut_is_refused(monkeypatch):
    # the estimate only places a cut: one that counts a single level below
    # it certifies nothing, with or without a cut before it
    op = build_sector(DomainSpec(n=3, length=6.0, points=8),
                      CouplingModel((robin(-1.0), robin(-2.0))))
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    k = 4
    wrong = midpoint_cut(dense, 1)
    estimate = {"shift": dense[0] - 1.0, "cut": wrong, "start": None, "factors": 1,
                "fill": 0, "opinv_applications": 0}
    monkeypatch.setattr(operators, "_gershgorin_cut", lambda a, k, v0: dict(estimate))
    for cut in (None, midpoint_cut(dense, k - 1)):
        tried = [wrong] if cut is None else [cut, wrong]
        with pytest.raises(NotConverged) as err:
            solve(op, k, cut=cut)
        attempts = err.value.diagnostics["attempts"]
        assert [attempt["cut"] for attempt in attempts] == tried
        assert [attempt["reason"] for attempt in attempts] == ["count"] * len(tried)
        assert attempts[-1]["shift"] == estimate["shift"]
        assert attempts[-1]["factors"] == 2


def test_gershgorin_shift_leaves_a_noncanonical_matrix_alone():
    op = build_sector(DomainSpec(n=2, length=6.0, points=12), uniform_model(2, robin(-1.0)))
    a = op.matrix.copy()
    # each row's entries reversed: the same matrix with unsorted indices
    for row in range(a.shape[0]):
        span = slice(a.indptr[row], a.indptr[row + 1])
        a.indices[span], a.data[span] = a.indices[span][::-1].copy(), a.data[span][::-1].copy()
    a.has_sorted_indices = False
    before = [array.copy() for array in (a.indices, a.indptr, a.data)]
    shift = gershgorin_shift(a)
    assert not a.has_sorted_indices
    for array, copy in zip((a.indices, a.indptr, a.data), before):
        assert array.tobytes() == copy.tobytes()
    assert shift == pytest.approx(gershgorin_shift(op.matrix), rel=1e-14)
    assert shift < np.linalg.eigvalsh(op.matrix.toarray())[0]


def test_fallback_holds_one_factor_at_a_time(monkeypatch):
    # the estimate's factor is released before the cut's is made, and its
    # L and U, which only a count reads, are never read
    op = build_delta_bose(DomainSpec(n=3, length=6.0, points=12),
                          CouplingModel((robin(-1.0), robin(-2.0))))
    alive, peak, read = [0], [0], []

    class TrackedFactor:
        def __init__(self, lu, shift):
            self.lu, self.shift = lu, shift
            alive[0] += 1
            peak[0] = max(peak[0], alive[0])

        def __del__(self):
            alive[0] -= 1

        def __getattr__(self, name):
            if name in ("L", "U"):
                read.append(self.shift)
            return getattr(self.lu, name)

    def factor(a, shift):
        return TrackedFactor(operators_factor(a, shift), shift)

    operators_factor = operators._factor
    monkeypatch.setattr(operators, "_factor", factor)
    cert = solve(op, 3).certificate
    assert fields(cert, "path", "factors") == ("fallback", 2)
    assert (peak[0], alive[0]) == (1, 0)
    assert read and set(read) == {cert["cut"]}


def test_eigenvector_equivariance_through_extension():
    # reduced boson eigenvectors extend symmetrically, fermion ones
    # antisymmetrically; their strict-node magnitudes coincide level by level
    from states import state_at

    from contact_duality.permutations import Statistics

    dom = DomainSpec(n=2, length=10.0, points=24)
    model = uniform_model(2, robin(-1.0))
    rb = solve(build_delta_bose(dom, model), 2)
    rf = solve(build_epsilon_fermi(dom, model), 2)
    ev_b = state_at(rb.operator, rb.vectors[:, 0], Statistics.BOSE)
    ev_f = state_at(rf.operator, rf.vectors[:, 0], Statistics.FERMI)
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
