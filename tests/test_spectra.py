import numpy as np
import pytest

from contact_duality.coupling import CouplingModel, robin, scale_invariant, uniform_model
from contact_duality.errors import UnsupportedCoupling
from contact_duality.operators import DomainSpec
from contact_duality.spectra import (
    FORMULATIONS,
    convergence_order,
    duality_report,
    richardson_extrapolate,
    scale_invariance_report,
)


def test_convergence_order_estimator():
    # E(h) = E* + c h^2 on a doubling ladder gives exactly order 2
    exact, c = -0.3, 0.7
    e = [exact + c * h**2 for h in (0.4, 0.2, 0.1)]
    order = convergence_order(*e)
    np.testing.assert_allclose(order, 2.0, rtol=1e-12)
    np.testing.assert_allclose(richardson_extrapolate(e[1], e[2], order), exact,
                               rtol=1e-12)


def test_duality_report_structure_and_gates():
    dom = DomainSpec(n=2, length=10.0, points=16)
    rep = duality_report(dom, uniform_model(2, robin(-1.0)), k=4, refinements=3)
    assert len(rep.levels) == 3
    for pair, devs in rep.pair_deviations.items():
        assert len(devs) == 3
        assert devs[-1] <= 0.005
    # eigenvalue convergence order close to two for every formulation
    for form in FORMULATIONS:
        assert 1.6 <= rep.eigenvalue_orders[form][0] <= 2.4
    # mapped boson eigenvectors match fermion ones
    for row in rep.bf_check:
        assert row["overlap_deviation"] <= 1e-6
    rows = rep.table_rows()
    assert rows[0][0] == "sector" and len(rows) == 3 * 3 * 4
    as_dict = rep.to_dict()
    assert as_dict["kind"] == "duality_report"
    assert len(as_dict["content_hash"]) == 12


def test_duality_report_three_body_distinct():
    dom = DomainSpec(n=3, length=6.0, points=8)
    model = CouplingModel((robin(-1.0), robin(-2.0)))
    rep = duality_report(dom, model, k=3, refinements=3)
    assert rep.pair_deviations[("sector", "delta_bose")][-1] < 0.01
    assert rep.pair_deviations[("delta_bose", "epsilon_fermi")][-1] < 1e-12


def test_duality_report_certifies_and_solves_each_operator_once(monkeypatch):
    from contact_duality import spectra

    calls = []

    def counted(op, k, **kwargs):
        calls.append((op, kwargs.get("shift")))
        return spectra_solve(op, k, **kwargs)

    spectra_solve = spectra.solve
    monkeypatch.setattr(spectra, "solve", counted)
    dom = DomainSpec(n=3, length=6.0, points=6)
    model = CouplingModel((robin(-1.0), robin(-2.0)))
    rep = duality_report(dom, model, k=3, refinements=3)
    # the reduced delta and epsilon operators are bitwise equal
    assert [op.formulation for op, _ in calls] == ["sector", "delta_bose"] * 3
    assert rep.identical_by_construction == ["delta_bose|epsilon_fermi"]
    assert rep.to_dict()["identical_by_construction"] == ["delta_bose|epsilon_fermi"]
    for lv in rep.levels:
        assert lv["reused"] == {"epsilon_fermi": "delta_bose"}
        assert lv["eigenvalues"]["epsilon_fermi"] == lv["eigenvalues"]["delta_bose"]
        for form in FORMULATIONS:
            cert = lv["certificates"][form]
            assert (cert["below_shift"], cert["below_top"]) == (0, 3)
            assert cert["rejected_shift"] is None
    # finer levels are shifted from the coarser level's eigenvalues
    assert [shift is None for _, shift in calls] == [True, True] + [False] * 4
    assert rep.pair_deviations[("delta_bose", "epsilon_fermi")] == [0.0] * 3

    # the scale-invariance report solves five domain/model cases
    calls.clear()
    scale = scale_invariance_report(DomainSpec(n=3, length=6.0, points=6),
                                    uniform_model(3, scale_invariant(1.0)), dilation=2.0, k=3)
    solved = [op for op, _ in calls]
    assert [op.formulation for op in solved] == ["sector", "delta_bose"] * 5
    assert not any(spectra._same_operator(a, b)
                   for i, a in enumerate(solved) for b in solved[i + 1:])
    assert scale.base["epsilon_fermi"] == scale.base["delta_bose"]


def test_scale_invariance_report():
    dom = DomainSpec(n=3, length=6.0, points=12)
    model = uniform_model(3, scale_invariant(1.0))
    rep = scale_invariance_report(dom, model, dilation=2.0, k=3)
    for form in FORMULATIONS:
        assert rep.scaled_deviation[form] < 1e-10
        assert rep.translation_deviation[form] < 1e-10
        assert rep.control_deviation[form] > 0.05
    d = rep.to_dict()
    assert d["kind"] == "scale_invariance_report"


def test_scale_invariance_requires_scale_model():
    dom = DomainSpec(n=3, length=6.0, points=10)
    with pytest.raises(UnsupportedCoupling):
        scale_invariance_report(dom, uniform_model(3, robin(-1.0)), 2.0, k=2)
    dom2 = DomainSpec(n=2, length=6.0, points=10)
    with pytest.raises(UnsupportedCoupling):
        scale_invariance_report(dom2, uniform_model(2, robin(-1.0)), 2.0, k=2)


def test_scale_invariance_unit_dilation_is_identity():
    dom = DomainSpec(n=3, length=6.0, points=10)
    model = uniform_model(3, scale_invariant(1.0))
    rep = scale_invariance_report(dom, model, dilation=1.0, k=2)
    for form in FORMULATIONS:
        assert rep.scaled_deviation[form] < 1e-12


def test_duality_report_harmonic_confinement():
    # the external potential is identical across formulations, so the
    # spectra agree under harmonic confinement as well
    dom = DomainSpec(n=2, length=16.0, points=32, confinement="harmonic",
                     omega=1.0)
    rep = duality_report(dom, uniform_model(2, robin(-1.0)), k=3, refinements=2)
    assert rep.pair_deviations[("sector", "delta_bose")][-1] < 0.01


def test_bf_overlap_compares_subspaces_for_degenerate_levels():
    # within a degenerate group individual vectors may rotate freely; only
    # the spanned subspace matters
    from contact_duality.operators import SpectrumResult, build_delta_bose, solve
    from contact_duality.spectra import bf_overlap_deviations

    dom = DomainSpec(n=2, length=6.0, points=12)
    op = build_delta_bose(dom, uniform_model(2, robin(-1.0)))
    res = solve(op, 3)
    v = res.vectors[:, :2]
    theta = 0.6
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    degenerate = np.array([1.0, 1.0 + 1e-12, 5.0])
    res_b = SpectrumResult(eigenvalues=degenerate.copy(),
                           residuals=np.zeros(3), operator=op,
                           vectors=np.column_stack([v, res.vectors[:, 2]]))
    res_f = SpectrumResult(eigenvalues=degenerate.copy(),
                           residuals=np.zeros(3), operator=op,
                           vectors=np.column_stack([v @ rot, res.vectors[:, 2]]))
    rows = bf_overlap_deviations(res_b, res_f)
    groups = {row["level_index"]: row for row in rows}
    assert groups[0]["group_size"] == 2
    assert groups[0]["overlap_deviation"] < 1e-9
    assert groups[2]["group_size"] == 1
