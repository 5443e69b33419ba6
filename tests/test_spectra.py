import numpy as np
import pytest

from contact_duality.coupling import (
    CouplingModel,
    neumann,
    robin,
    scale_invariant,
    uniform_model,
)
from contact_duality.errors import UnsupportedCoupling
from contact_duality.operators import EXTRA_LEVELS, DomainSpec
from contact_duality.spectra import (
    FORMULATIONS,
    convergence_order,
    duality_report,
    richardson_extrapolate,
    scale_invariance_report,
    table_rows,
)


def _scale_report(dom, model, dilation, k):
    """The scale-invariance report at the command's settings: a robin:-1
    control, the box shifted by 0.37 of its length, seed 0."""
    return scale_invariance_report(dom, model, dilation, k,
                                   uniform_model(dom.n, robin(-1.0)), None, 0)


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
    rep = duality_report(dom, uniform_model(2, robin(-1.0)), k=4, refinements=3, seed=0)
    assert len(rep["levels"]) == 3
    for pair, devs in rep["pair_deviations"].items():
        assert len(devs) == 3
        assert devs[-1] <= 0.005
    # eigenvalue convergence order close to two for every formulation
    for form in FORMULATIONS:
        assert 1.6 <= rep["eigenvalue_orders"][form][0] <= 2.4
    # mapped boson eigenvectors match fermion ones
    for row in rep["bf_check"]:
        assert row["overlap_deviation"] <= 1e-6
    rows = table_rows(rep)
    assert rows[0][0] == "sector" and len(rows) == 3 * 3 * 4
    assert rep["kind"] == "duality_report"
    assert len(rep["content_hash"]) == 12


def test_extrapolated_spectrum_is_ascending():
    # n=3, a=+1: the per-index Richardson values of the close levels 4 and
    # 5 cross (sector 2.223342 then 2.221997), so the report sorts them
    rep = duality_report(DomainSpec(n=3, length=6.0, points=12),
                         uniform_model(3, robin(1.0)), k=5, refinements=3, seed=0)
    for form in FORMULATIONS:
        ladder = [lv["eigenvalues"][form] for lv in rep["levels"]]
        per_index = [richardson_extrapolate(mid, fine, convergence_order(coarse, mid, fine))
                     for coarse, mid, fine in zip(*ladder)]
        assert per_index != sorted(per_index)
        assert rep["extrapolated"][form] == sorted(per_index)


def test_duality_report_three_body_distinct():
    dom = DomainSpec(n=3, length=6.0, points=8)
    model = CouplingModel((robin(-1.0), robin(-2.0)))
    rep = duality_report(dom, model, k=3, refinements=3, seed=0)
    assert rep["pair_deviations"]["sector|delta_bose"][-1] < 0.01
    assert rep["pair_deviations"]["delta_bose|epsilon_fermi"][-1] < 1e-12


def fallback_solve(monkeypatch, op, k):
    """The Gershgorin-path solve of ``op``: no coarse grid gives a cut."""
    from contact_duality import operators

    with monkeypatch.context() as patch:
        patch.setattr(operators, "_coarse_cut", lambda *args: None)
        return operators.solve(op, k)


def record_solves(monkeypatch) -> list:
    """(operator, levels, cut, LU factors made, result) of every solve the
    reports make from here on."""
    from contact_duality import operators, spectra

    calls, factors = [], []

    def factor(a, shift):
        factors.append(shift)
        return operators_factor(a, shift)

    def counted(op, k, cut=None, **kwargs):
        start = len(factors)
        result = spectra_solve(op, k, cut=cut, **kwargs)
        calls.append((op, k, cut, len(factors) - start, result))
        return result

    operators_factor, spectra_solve = operators._factor, spectra.solve
    monkeypatch.setattr(operators, "_factor", factor)
    monkeypatch.setattr(spectra, "solve", counted)
    return calls


def assert_certified(cert: dict, levels: int, extra: int = 0):
    """A cut certificate counts exactly ``extra`` levels above those solved."""
    assert cert["opinv_applications"] > 0
    if cert["path"] == "cut":
        assert 0 <= extra <= EXTRA_LEVELS
        assert (cert["below_cut"], cert["factors"], cert["rejected_cut"]) == (
            levels + extra, 1, None)
        assert cert["cut"] is not None and cert["shift"] is None
    else:
        assert cert["path"] == "fallback" and cert["shift"] < cert["cut"]
        assert cert["below_cut"] == levels
        assert cert["factors"] == 2 + (cert["rejected_cut"] is not None)


def test_duality_report_certifies_and_solves_each_operator_once(monkeypatch):
    from contact_duality.operators import midpoint_cut

    calls = record_solves(monkeypatch)
    dom = DomainSpec(n=3, length=6.0, points=6)
    model = CouplingModel((robin(-1.0), robin(-2.0)))
    rep = duality_report(dom, model, k=3, refinements=3, seed=0)
    # the reduced delta and epsilon operators are bitwise equal
    assert [op.formulation for op, *_ in calls] == ["sector", "delta_bose"] * 3
    assert rep["identical_by_construction"] == ["delta_bose|epsilon_fermi"]
    # rung l >= 1 solves k + 2 - l levels, rung 0 two more than rung 1,
    # and each reports the lowest k
    assert [levels for _, levels, *_ in calls] == [6, 6, 4, 4, 3, 3]
    # the 12-cell delta count takes in one level above the 4 it solves
    extras = [0, 0, 0, 1, 0, 0]
    for i, lv in enumerate(rep["levels"]):
        assert lv["reused"] == {"epsilon_fermi": "delta_bose"}
        assert lv["eigenvalues"]["epsilon_fermi"] == lv["eigenvalues"]["delta_bose"]
        for (op, levels, _, factors, result), extra in zip(calls[2 * i:2 * i + 2],
                                                            extras[2 * i:2 * i + 2]):
            form = op.formulation
            assert len(lv["eigenvalues"][form]) == len(lv["residuals"][form]) == 3
            assert lv["eigenvalues"][form] == result.eigenvalues[:3].tolist()
            assert lv["certificates"][form] == result.certificate
            assert result.certificate["factors"] == factors
            assert_certified(lv["certificates"][form], levels, extra)
        assert lv["certificates"]["epsilon_fermi"] == lv["certificates"]["delta_bose"]
    # the 12-cell rung is cut midway between the 6-cell rung's two levels
    # above the 4 it needs, the 24-cell rung midway between the 12-cell
    # rung's top two levels
    assert [cut for _, _, cut, _, _ in calls[:2]] == [None, None]
    for (_, levels, cut, _, _), (_, _, _, _, coarse) in zip(calls[2:], calls):
        above = 1 if coarse.operator.dom.points == 6 else 0
        assert cut == midpoint_cut(coarse.eigenvalues, levels + above)
    # the finest rung's cuts hold, and so does the 12-cell delta cut, whose
    # count takes in one level more; the 12-cell sector levels move by
    # more than the gap above its cut, so that count is 3 and it falls back
    assert [result.certificate["path"] for *_, result in calls] == (
        ["fallback"] * 3 + ["cut"] * 3)
    assert calls[2][-1].certificate["rejected_cut"]["below_cut"] == 3
    assert rep["pair_deviations"]["delta_bose|epsilon_fermi"] == [0.0] * 3

    # the scale-invariance report solves five domain/model cases
    calls.clear()
    scale = _scale_report(DomainSpec(n=3, length=6.0, points=6),
                                    uniform_model(3, scale_invariant(1.0)), dilation=2.0, k=3)
    solved = [op for op, *_ in calls]
    assert [op.formulation for op in solved] == ["sector", "delta_bose"] * 5
    def same(a, b):
        ma, mb = a.matrix, b.matrix
        return (ma.shape == mb.shape and np.array_equal(ma.indptr, mb.indptr)
                and np.array_equal(ma.indices, mb.indices)
                and np.array_equal(ma.data, mb.data) and np.array_equal(a.mass, b.mass))

    assert not any(same(a, b) for i, a in enumerate(solved) for b in solved[i + 1:])
    assert scale["base"]["epsilon_fermi"] == scale["base"]["delta_bose"]
    assert all(len(values) == 3 for values in scale["base"].values())
    # the base case is solved for k + 1 levels; the dilated and shifted
    # cases are cut from its midpoint scaled by 1/lambda^2 and by 1; the
    # controls take the cut solve finds itself (none on this grid)
    assert [levels for _, levels, *_ in calls] == [4] * 2 + [3] * 8
    base = [result.eigenvalues for *_, result in calls[:2]]
    assert [cut for _, _, cut, _, _ in calls[2:6]] == (
        [midpoint_cut(b, 3) / 4.0 for b in base] + [midpoint_cut(b, 3) for b in base])
    assert [cut for _, _, cut, _, _ in calls[6:] + calls[:2]] == [None] * 6
    for op, levels, cut, factors, result in calls:
        assert_certified(result.certificate, levels)
        if cut is not None:
            assert (result.certificate["cut"], factors) == (cut, 1)
            reference = fallback_solve(monkeypatch, op, 3).eigenvalues
            np.testing.assert_allclose(result.eigenvalues, reference, rtol=1e-10)


def test_ladder_makes_one_factor_per_solve(monkeypatch):
    calls = record_solves(monkeypatch)
    k = 4
    rep = duality_report(DomainSpec(n=2, length=6.0, points=8), uniform_model(2, robin(-1.0)),
                         k=k, refinements=3, seed=0)
    # rung 0 has no coarser grid and takes the Gershgorin path; every
    # later rung makes one factor per formulation, at its cut
    assert [factors for _, _, _, factors, _ in calls] == [2, 2, 1, 1, 1, 1]
    assert [levels for _, levels, *_ in calls] == [7, 7, 5, 5, 4, 4]
    for lv in rep["levels"]:
        for form in FORMULATIONS:
            assert len(lv["eigenvalues"][form]) == len(lv["residuals"][form]) == k
    reported = {(lv["points"], form): lv["eigenvalues"][form] for lv in rep["levels"]
                for form in FORMULATIONS}
    for op, levels, cut, _, result in calls[2:]:
        cert = result.certificate
        assert (cert["cut"], cert["below_cut"], cert["rejected_cut"]) == (cut, levels, None)
        reference = fallback_solve(monkeypatch, op, levels)
        assert reference.certificate["path"] == "fallback"
        np.testing.assert_allclose(result.eigenvalues, reference.eigenvalues, rtol=1e-10)
        np.testing.assert_allclose(reported[op.dom.points, op.formulation],
                                   reference.eigenvalues[:k], rtol=1e-10)


def test_every_rung_of_a_three_body_ladder_holds_its_cut(monkeypatch):
    calls = record_solves(monkeypatch)
    k = 3
    rep = duality_report(DomainSpec(n=3, length=6.0, points=8),
                         CouplingModel((robin(-1.0), robin(-2.0))), k=k, refinements=3, seed=0)
    # the 16-cell rung's cut lies one level above the 4 it needs, and its
    # count takes that level in; both finer rungs make one factor per
    # formulation, at their cut
    assert [levels for _, levels, *_ in calls] == [6, 6, 4, 4, 3, 3]
    assert [factors for _, _, _, factors, _ in calls] == [2, 2, 1, 1, 1, 1]
    assert [result.certificate["below_cut"] for *_, result in calls[2:]] == [5, 5, 3, 3]
    reported = {(lv["points"], form): lv["eigenvalues"][form] for lv in rep["levels"]
                for form in FORMULATIONS}
    for op, levels, cut, _, result in calls[2:]:
        cert = result.certificate
        assert (cert["path"], cert["cut"], cert["factors"], cert["rejected_cut"]) == (
            "cut", cut, 1, None)
        reference = fallback_solve(monkeypatch, op, levels)
        np.testing.assert_allclose(result.eigenvalues, reference.eigenvalues, rtol=1e-10)
        np.testing.assert_allclose(reported[op.dom.points, op.formulation],
                                   reference.eigenvalues[:k], rtol=1e-10)


def test_duality_report_solves_no_more_levels_than_a_rung_has():
    # the 6-cell sector operator has 15 dofs, so rung 0 solves 13 levels,
    # the most its estimate's one more level leaves, instead of k + 2 = 15,
    # and the 12-cell rung gets no sector cut from it
    rep = duality_report(DomainSpec(n=2, length=6.0, points=6), uniform_model(2, robin(-1.0)),
                         k=13, refinements=2, seed=0)
    assert [len(lv["eigenvalues"]["sector"]) for lv in rep["levels"]] == [13, 13]
    first = rep["levels"][0]["certificates"]
    assert (first["sector"]["below_cut"], first["delta_bose"]["below_cut"]) == (13, 15)
    second = rep["levels"][1]["certificates"]["sector"]
    assert (second["path"], second["rejected_cut"]) == ("fallback", None)


def test_reports_never_build_the_epsilon_operator(monkeypatch):
    from contact_duality import spectra

    built = []
    build = spectra.cached_build

    def counted(formulation, dom, model):
        built.append(formulation)
        return build(formulation, dom, model)

    monkeypatch.setattr(spectra, "cached_build", counted)
    duality_report(DomainSpec(n=2, length=6.0, points=6), uniform_model(2, robin(-1.0)),
                   k=2, refinements=2, seed=0)
    _scale_report(DomainSpec(n=3, length=6.0, points=6),
                            uniform_model(3, scale_invariant(1.0)), dilation=2.0, k=2)
    # two duality levels and five scale-invariance cases
    assert built == ["sector", "delta_bose"] * 7


def test_reports_refuse_a_neumann_face_for_the_epsilon_model():
    # the epsilon operator is never built, but its builder's checks still run
    with pytest.raises(UnsupportedCoupling, match="epsilon builder"):
        duality_report(DomainSpec(n=2, length=6.0, points=6), uniform_model(2, neumann()),
                       k=2, refinements=1, seed=0)
    with pytest.raises(UnsupportedCoupling, match="epsilon builder"):
        _scale_report(DomainSpec(n=3, length=6.0, points=6),
                                CouplingModel((scale_invariant(1.0), neumann())),
                                dilation=2.0, k=2)


def test_reports_refuse_an_epsilon_model_before_any_solve(monkeypatch):
    from contact_duality import spectra

    def unreachable(*args, **kwargs):
        raise AssertionError("solved before the model was checked")

    monkeypatch.setattr(spectra, "solve", unreachable)
    with pytest.raises(UnsupportedCoupling, match="epsilon builder"):
        duality_report(DomainSpec(n=3, length=6.0, points=6),
                       CouplingModel((neumann(), robin(-1.0))), k=2, refinements=2, seed=0)
    with pytest.raises(UnsupportedCoupling, match="epsilon builder"):
        _scale_report(DomainSpec(n=3, length=6.0, points=6),
                      CouplingModel((scale_invariant(1.0), neumann())), dilation=2.0, k=2)


def test_scale_invariance_report():
    dom = DomainSpec(n=3, length=6.0, points=12)
    model = uniform_model(3, scale_invariant(1.0))
    rep = _scale_report(dom, model, dilation=2.0, k=3)
    for form in FORMULATIONS:
        assert rep["scaled_deviation"][form] < 1e-10
        assert rep["translation_deviation"][form] < 1e-10
        assert rep["control_deviation"][form] > 0.05
    assert rep["kind"] == "scale_invariance_report"


def test_scale_invariance_requires_scale_model():
    dom = DomainSpec(n=3, length=6.0, points=10)
    with pytest.raises(UnsupportedCoupling):
        _scale_report(dom, uniform_model(3, robin(-1.0)), 2.0, k=2)
    dom2 = DomainSpec(n=2, length=6.0, points=10)
    with pytest.raises(UnsupportedCoupling):
        _scale_report(dom2, uniform_model(2, robin(-1.0)), 2.0, k=2)


def test_scale_invariance_unit_dilation_is_identity():
    dom = DomainSpec(n=3, length=6.0, points=10)
    model = uniform_model(3, scale_invariant(1.0))
    rep = _scale_report(dom, model, dilation=1.0, k=2)
    for form in FORMULATIONS:
        assert rep["scaled_deviation"][form] < 1e-12


def test_duality_report_harmonic_confinement():
    # the external potential is identical across formulations, so the
    # spectra agree under harmonic confinement as well
    dom = DomainSpec(n=2, length=16.0, points=32, confinement="harmonic",
                     omega=1.0)
    rep = duality_report(dom, uniform_model(2, robin(-1.0)), k=3, refinements=2, seed=0)
    assert rep["pair_deviations"]["sector|delta_bose"][-1] < 0.01


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
                           vectors=np.column_stack([v, res.vectors[:, 2]]),
                           certificate=None)
    res_f = SpectrumResult(eigenvalues=degenerate.copy(),
                           residuals=np.zeros(3), operator=op,
                           vectors=np.column_stack([v @ rot, res.vectors[:, 2]]),
                           certificate=None)
    rows = bf_overlap_deviations(res_b, res_f)
    groups = {row["level_index"]: row for row in rows}
    assert groups[0]["group_size"] == 2
    assert groups[0]["overlap_deviation"] < 1e-9
    assert groups[2]["group_size"] == 1
