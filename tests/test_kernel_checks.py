import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from contact_duality.coupling import SQRT2, dirichlet, neumann, robin, uniform_model
from contact_duality.errors import ContactDualityError
from contact_duality.heat_solver import evolve_half_line, pair_kernel_pde_gate
from contact_duality.kernel_checks import (
    SamplingSpec,
    dual_reconstruction_check,
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
from contact_duality.wavefunctions import Statistics


def test_free_kernel_assumptions_two_body():
    rep = verify_assumptions(free_kernel(2), SamplingSpec(pairs=2))
    assert rep["composition"]["max"] < 1e-6
    assert rep["initial"]["max"] < 1e-6
    assert rep["symmetry"]["max"] < 1e-12
    assert rep["heat_equation"]["max"] < 1e-6
    assert rep["permutation_invariance"]["max"] < 1e-12


def test_broken_kernel_negative_control():
    base = free_kernel(2)
    broken = KernelEvaluator(
        evaluate=lambda x, y, tau: 1.3 * np.asarray(base.evaluate(x, y, tau)),
        space="full", n=2, label="broken")
    rep = verify_assumptions(broken, SamplingSpec(pairs=1, initial_depth=3))
    assert rep["composition"]["max"] > 0.2  # wrong normalization shows up O(1)


def test_pair_kernel_properties():
    pk = robin_pair_kernel(robin(-1.0))
    spec = SamplingSpec(pairs=2, bound_state_scale=2.0, quad_tol=1e-7,
                        quad_max_doublings=7)
    rep = verify_sector_properties(pk, uniform_model(2, robin(-1.0)), spec)
    assert rep["composition"]["max"] < 1e-5
    assert rep["boundary"]["max"] < 1e-8
    assert rep["initial"]["max"] < 1e-6
    assert rep["heat_equation"]["max"] < 1e-6


def test_pair_kernel_pde_gate():
    # strong attraction (|a| < 1) refines the gate's mesh with 1/|a|
    for a in (-1.0, 1.0, -0.3, -0.5):
        assert pair_kernel_pde_gate(robin(a)) < 1e-6


def test_pde_gate_limits():
    assert pair_kernel_pde_gate(dirichlet()) < 1e-6
    assert pair_kernel_pde_gate(neumann()) < 1e-6


def _splu_evolve(w0, width, gamma, tau_span, steps):
    """Reference Crank-Nicolson stepping: the finite-volume system as
    sparse matrices, a SuperLU factor and a CSR right-hand side."""
    points = w0.size if gamma is not None else w0.size + 1
    h = width / points
    size = w0.size
    diag = np.full(size, 2.0 / h)
    mass = np.full(size, h)
    if gamma is not None:
        diag[0] = 1.0 / h + gamma
        mass[0] = h / 2.0
    off = np.full(size - 1, -1.0 / h)
    stiff = 0.5 * sparse.diags([off, diag, off], [-1, 0, 1], format="csr")
    dt = tau_span / steps
    m = sparse.diags(mass)
    lu = splu((m + (dt / 2.0) * stiff).tocsc())
    rhs = (m - (dt / 2.0) * stiff).tocsr()
    w = w0.copy()
    for _ in range(steps):
        w = lu.solve(rhs @ w)
    return w


@pytest.mark.parametrize("entry", [robin(1.0), robin(-1.0), dirichlet(), neumann()])
def test_tridiagonal_stepping_matches_splu_reference(entry):
    kernel, _ = relative_half_line_kernel(entry)
    width, points = 24.0, 20000
    h = width / points
    if entry.kind == "dirichlet":
        gamma, grid = None, np.arange(1, points) * h
    else:
        gamma = 0.0 if entry.kind == "neumann" else 1.0 / (SQRT2 * entry.value)
        grid = np.arange(0, points) * h
    w0 = kernel(grid, np.full_like(grid, 0.8), 0.25)
    got = evolve_half_line(w0, width, gamma, 0.025, 200)
    ref = _splu_evolve(w0, width, gamma, 0.025, 200)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_evolve_half_line_refuses_an_indefinite_step_matrix():
    # a face coupling far too attractive for the mesh makes the first
    # diagonal entry of M + (dt/2) K negative
    with pytest.raises(ContactDualityError, match="positive definite"):
        evolve_half_line(np.ones(2000), 24.0, -1e4, 0.25, 10)


def test_sector_sum_properties_bose():
    kernel = permutation_sum(free_kernel(2), Statistics.BOSE)
    rep = verify_sector_properties(kernel, uniform_model(2, neumann()),
                                   SamplingSpec(pairs=2))
    assert rep["composition"]["max"] < 1e-6
    assert rep["boundary"]["max"] < 1e-3  # finite-difference face derivative


def test_sector_sum_mismatched_model_control():
    # a Bose sum of free kernels checked against a hard-core face fails
    kernel = permutation_sum(free_kernel(2), Statistics.BOSE)
    rep = verify_sector_properties(kernel, uniform_model(2, dirichlet()),
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
    rep = dual_reconstruction_check(k_bose, k_fermi,
                                    SamplingSpec(pairs=2, bound_state_scale=2.0),
                                    coupling=robin(-1.0))
    assert rep["max_deviation"] < 1e-6
    assert rep["connection"]["bose_delta"]["jump"] < 1e-3
    assert rep["connection"]["bose_delta"]["continuity"] < 1e-10
    assert rep["connection"]["fermi_epsilon"]["jump"] < 1e-3
    assert rep["connection"]["fermi_epsilon"]["continuity"] < 1e-3
