import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from contact_duality.coupling import SQRT2, dirichlet, neumann, robin
from contact_duality.errors import ContactDualityError, UnsupportedN
from contact_duality import heat_solver
from contact_duality.heat_solver import GATE_WIDTH, evolve_half_line, pair_kernel_pde_gate
from contact_duality import kernel_checks
from contact_duality.kernel_checks import (
    SamplingSpec,
    bound_state_length,
    dual_reconstruction_check,
    face_boundary_residual,
    sampling_spread,
    verify_assumptions,
    verify_sector_properties,
)
from contact_duality.kernels import (
    KernelEvaluator,
    dual_pair_from_sector,
    free_kernel,
    permutation_sum,
    relative_half_line_kernel,
    robin_pair_kernel,
)
from contact_duality.permutations import Statistics


def test_free_kernel_assumptions_two_body():
    rep = verify_assumptions(free_kernel(2), SamplingSpec(pairs=2))
    assert rep["composition"]["max"] < 1e-6
    assert rep["initial"]["max"] < 1e-6
    assert rep["symmetry"]["max"] < 1e-12
    assert rep["heat_equation"]["max"] < 1e-6
    assert rep["permutation_invariance"]["max"] < 1e-12


def test_sampling_refuses_points_that_cannot_fit():
    # (n - 1) * MIN_GAP >= 2 * spread: no draw is accepted, so none is tried
    with pytest.raises(UnsupportedN, match="do not fit"):
        verify_assumptions(free_kernel(5), SamplingSpec(pairs=1))


def test_sampling_plan_follows_from_the_kernel():
    # the sampling interval widens from three particles on
    assert [sampling_spread(n) for n in (2, 3, 4)] == [1.6, 2.2, 2.2]
    # the pair kernel's bound-state tail decays over 2|a|, in the sector
    # kernel and in both full-space kernels it induces
    for a in (-1.0, 1.0):
        pk = robin_pair_kernel(robin(a))
        assert [bound_state_length(k) for k in (pk, *dual_pair_from_sector(pk))] == [2.0] * 3
    # Gaussian kernels: free kernels, their sums and the hard-core pair
    gaussian = [free_kernel(2), robin_pair_kernel(dirichlet()),
                *dual_pair_from_sector(permutation_sum(free_kernel(3), Statistics.FERMI))]
    gaussian += [permutation_sum(free_kernel(3), stat) for stat in Statistics]
    assert [bound_state_length(k) for k in gaussian] == [0.0] * len(gaussian)


def test_broken_kernel_negative_control():
    base = free_kernel(2)
    broken = KernelEvaluator(
        evaluate=lambda x, y, tau: 1.3 * np.asarray(base.evaluate(x, y, tau)),
        space="full", n=2, label="broken")
    rep = verify_assumptions(broken, SamplingSpec(pairs=1, initial_depth=3))
    assert rep["composition"]["max"] > 0.2  # wrong normalization shows up O(1)


def test_pair_kernel_properties():
    pk = robin_pair_kernel(robin(-1.0))
    spec = SamplingSpec(pairs=2, quad_tol=1e-7)
    rep = verify_sector_properties(pk, spec)
    assert rep["composition"]["max"] < 1e-5
    assert rep["boundary"]["max"] < 1e-8
    assert rep["initial"]["max"] < 1e-6
    assert rep["heat_equation"]["max"] < 1e-6


def test_pair_kernel_pde_gate():
    # strong attraction (|a| < 1) refines the gate's mesh with 1/|a|, and
    # below a = -0.12 the bound state's growth sets it; the evolution is
    # exact in time, so each reading is the mesh error alone
    for a in (-1.0, 1.0, -0.3, -0.5, -0.1, -0.05):
        assert pair_kernel_pde_gate(robin(a)) < 1e-6


def test_pde_gate_limits():
    assert pair_kernel_pde_gate(dirichlet()) < 1e-6
    assert pair_kernel_pde_gate(neumann()) < 1e-6


HALF_LINE_FACES = [robin(1.0), robin(-1.0), dirichlet(), neumann(), robin(-0.1)]


def _half_line_profile(entry, points):
    """The gate's profile at tau = 0.25 on `points` cells of GATE_WIDTH,
    with the face's gamma (None for Dirichlet)."""
    kernel, _ = relative_half_line_kernel(entry)
    h = GATE_WIDTH / points
    if entry.kind == "dirichlet":
        gamma, grid = None, np.arange(1, points) * h
    else:
        gamma = 0.0 if entry.kind == "neumann" else 1.0 / (SQRT2 * entry.value)
        grid = np.arange(0, points) * h
    return kernel(grid, np.full_like(grid, 0.8), 0.25), gamma


@pytest.mark.parametrize("entry", HALF_LINE_FACES)
def test_half_line_exponential_matches_dense_expm(entry):
    # reference: the finite-volume system as dense matrices, evolved by
    # scipy's expm of -tau M^-1 K
    points, span = 600, 0.25
    w0, gamma = _half_line_profile(entry, points)
    h = GATE_WIDTH / points
    mass = np.full(w0.size, h)
    stiff = np.diag(np.full(w0.size, 1.0 / h)) - np.diag(np.full(w0.size - 1, 0.5 / h), 1)
    stiff = stiff + np.triu(stiff, 1).T
    if gamma is not None:
        mass[0] = h / 2.0
        stiff[0, 0] = 0.5 * (1.0 / h + gamma)
    ref = expm(-span * stiff / mass[:, None]) @ w0
    got = evolve_half_line(w0, GATE_WIDTH, gamma, span)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("entry", HALF_LINE_FACES)
def test_half_line_exponential_is_a_semigroup(entry):
    # two half spans (with their own shift) land where one full span does:
    # a time-stepping error of either would show
    w0, gamma = _half_line_profile(entry, 600)
    full = evolve_half_line(w0, GATE_WIDTH, gamma, 0.25)
    half = evolve_half_line(w0, GATE_WIDTH, gamma, 0.125)
    twice = evolve_half_line(half, GATE_WIDTH, gamma, 0.125)
    assert np.max(np.abs(twice - full)) <= 1e-12 * np.max(np.abs(full))


def test_evolve_half_line_refuses_an_indefinite_step_matrix(monkeypatch):
    # the shift's bound-state cap keeps M + sK positive definite on every
    # face; without it, the shift dtau / 10 makes this far too attractive
    # face's first pivot of M + sK negative
    monkeypatch.setattr(heat_solver, "BOUND_SHIFT", np.inf)
    with pytest.raises(ContactDualityError, match="positive definite"):
        evolve_half_line(np.ones(2000), 24.0, -1e4, 0.25)


def test_evolve_half_line_refuses_an_unconverged_exponential(monkeypatch):
    monkeypatch.setattr(heat_solver, "EXPM_MAX_STEPS", 2)
    w0, gamma = _half_line_profile(robin(-1.0), 600)
    with pytest.raises(ContactDualityError, match="did not converge in 2"):
        evolve_half_line(w0, GATE_WIDTH, gamma, 0.25)


def test_sector_sum_properties_bose():
    kernel = permutation_sum(free_kernel(2), Statistics.BOSE)
    rep = verify_sector_properties(kernel, SamplingSpec(pairs=2))
    assert rep["composition"]["max"] < 1e-6
    # the face derivative's stencil starts on the plane: within the
    # command's default gate.boundary
    assert rep["boundary"]["max"] <= 1e-8


def test_face_residual_stencils_on_a_robin_face(monkeypatch):
    # A Robin pair kernel stripped of its analytic face operator goes
    # through the one-sided stencils, as a kernel without a closed form
    # would: the residual falls with the step at about the stencil's
    # order, and a face of the opposite sign fails.
    kernel = dataclasses.replace(robin_pair_kernel(robin(-1.0)), pair_face_residual=None)
    spec = SamplingSpec(pairs=2)
    res_h = face_boundary_residual(kernel, 1, spec)
    monkeypatch.setattr(kernel_checks, "FD_STEP", kernel_checks.FD_STEP / 2)
    res_h2 = face_boundary_residual(kernel, 1, spec)
    assert 0.0 < res_h2 <= res_h / 3.0 and res_h < 1e-3
    mismatched = dataclasses.replace(kernel, coupling=robin(1.0))
    assert face_boundary_residual(mismatched, 1, spec) > 0.5


def test_sector_sum_mismatched_model_control():
    # a Bose sum of free kernels checked against a hard-core face fails
    kernel = permutation_sum(free_kernel(2), Statistics.BOSE)
    rep = verify_sector_properties(dataclasses.replace(kernel, coupling=dirichlet()),
                                   SamplingSpec(pairs=2))
    assert rep["boundary"]["max"] > 0.3


def test_dual_reconstruction_hard_core():
    sector = permutation_sum(free_kernel(2), Statistics.FERMI)
    k_bose, _ = dual_pair_from_sector(sector)
    rep = dual_reconstruction_check(k_bose, free_kernel(2), SamplingSpec(pairs=3))
    assert rep["max_deviation"] < 1e-10


def test_dual_reconstruction_finite_coupling():
    pk = robin_pair_kernel(robin(-1.0))
    k_bose, k_fermi = dual_pair_from_sector(pk)
    rep = dual_reconstruction_check(k_bose, k_fermi, SamplingSpec(pairs=2))
    assert rep["max_deviation"] < 1e-6
    assert rep["connection"]["bose_delta"]["jump"] < 1e-3
    assert rep["connection"]["bose_delta"]["continuity"] < 1e-10
    assert rep["connection"]["fermi_epsilon"]["jump"] < 1e-3
    assert rep["connection"]["fermi_epsilon"]["continuity"] < 1e-3
