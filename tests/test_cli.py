import json

import pytest

from contact_duality import cli
from contact_duality.cli import main
from contact_duality.configio import parse_coupling_entry, validate_config
from contact_duality.errors import ConfigError


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


DUALITY_CFG = """
command = duality
n = 2
length = 10.0
points = 12
coupling.1 = robin:-1
levels = 3
refinements = 3
seed = 3
"""


def test_config_parsing_and_validation():
    cfg = validate_config(DUALITY_CFG)
    assert cfg.command == "duality"
    assert cfg["points"] == 12
    model = cfg.coupling_model()
    assert model.entry(1).value == -1.0


def test_config_rejects_unknown_and_missing():
    with pytest.raises(ConfigError, match="bogus"):
        validate_config(DUALITY_CFG + "bogus = 1\n")
    with pytest.raises(ConfigError, match="length"):
        validate_config("command = duality\nn = 2\npoints = 12\ncoupling.1 = robin:-1\n")
    with pytest.raises(ConfigError, match="coupling"):
        validate_config("command = duality\nn = 3\nlength = 6\npoints = 8\n"
                        "coupling.1 = robin:-1\n")
    with pytest.raises(ConfigError):
        validate_config("command = duality\nn = 2\nlength = ten\npoints = 12\n"
                        "coupling.1 = robin:-1\n")


def test_coupling_entry_grammar():
    assert parse_coupling_entry("robin:-2.5").value == -2.5
    assert parse_coupling_entry("neumann").kind == "neumann"
    assert parse_coupling_entry("dirichlet").kind == "dirichlet"
    assert parse_coupling_entry("scale:1.5").value == 1.5
    with pytest.raises(ConfigError):
        parse_coupling_entry("spline:3")


def test_duality_run_and_determinism(tmp_path):
    cfg = write(tmp_path, "d.cfg", DUALITY_CFG)
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["duality", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["duality", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    csvs1 = sorted(out1.glob("spectra_*.csv"))
    csvs2 = sorted(out2.glob("spectra_*.csv"))
    assert len(csvs1) == 1 and csvs1[0].name == csvs2[0].name
    assert csvs1[0].read_bytes() == csvs2[0].read_bytes()
    report = json.loads((out1 / "report.json").read_text())
    assert report["schema_version"] == 1
    assert all(g["passed"] for g in report["gates"])
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["config_sha256"]


def test_exit_codes(tmp_path):
    bad = write(tmp_path, "bad.cfg", DUALITY_CFG + "mystery = 1\n")
    assert main(["duality", "--config", bad, "--out", str(tmp_path / "x")]) == 2

    # Dirichlet sentinel under the delta builder is a config-level error
    dd = write(tmp_path, "dd.cfg", """
command = spectrum
n = 2
length = 6.0
points = 10
formulation = delta_bose
coupling.1 = dirichlet
""")
    assert main(["spectrum", "--config", dd, "--out", str(tmp_path / "y")]) == 2

    # command mismatch between config and invocation
    cfg = write(tmp_path, "d.cfg", DUALITY_CFG)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "z")]) == 2


def test_gate_failure_exit_one(tmp_path):
    cfg = write(tmp_path, "strict.cfg", DUALITY_CFG + "gate.pairwise = 1e-9\n")
    out = tmp_path / "strict"
    assert main(["duality", "--config", cfg, "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert not all(g["passed"] for g in report["gates"])


def test_fold_check_run(tmp_path):
    cfg = write(tmp_path, "fold.cfg", """
command = fold-check
n = 2
count = 2
seed = 11
gate.residual = 1e-8
""")
    out = tmp_path / "fold"
    assert main(["fold-check", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "fold_residuals.plot.csv").exists()


def test_spectrum_run(tmp_path):
    cfg = write(tmp_path, "s.cfg", """
command = spectrum
n = 2
length = 10.0
points = 16
formulation = sector
coupling.1 = robin:-1
levels = 3
""")
    out = tmp_path / "spec"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    rows = next(iter(sorted(out.glob("spectra_*.csv")))).read_text().splitlines()
    assert rows[0] == "formulation,level,h,index,eigenvalue,residual"
    assert len(rows) == 4
    cert = json.loads((out / "report.json").read_text())["certificate"]
    assert (cert["below_shift"], cert["below_top"]) == (0, 3)
    assert cert["shift"] < cert["top_shift"]


def test_propagate_run(tmp_path):
    cfg = write(tmp_path, "p.cfg", """
command = propagate
n = 2
coupling = robin:-1
tau = 0.4
quad_cells = 16
quad_order = 8
""")
    out = tmp_path / "prop"
    assert main(["propagate", "--config", cfg, "--out", str(out)]) == 0


def test_kernel_properties_run(tmp_path):
    cfg = write(tmp_path, "k.cfg", """
command = kernel-properties
n = 2
kernel = free
pairs = 2
""")
    out = tmp_path / "kp"
    assert main(["kernel-properties", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["composition"]["max"] < 1e-6


def test_kernel_properties_pair_run(tmp_path):
    cfg = write(tmp_path, "kp.cfg", """
command = kernel-properties
n = 2
kernel = pair
coupling = robin:-1
pairs = 2
quad_tol = 1e-7
gate.composition = 1e-5
""")
    out = tmp_path / "kpp"
    assert main(["kernel-properties", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pde_gate"] < 1e-6
    assert report["boundary"]["max"] < 1e-8


@pytest.mark.parametrize("seed", [19, 48])
def test_kernel_properties_pair_heat_gate_at_hard_seeds(tmp_path, seed):
    # sample points where the heat-equation stencils used to exceed 1e-6
    cfg = write(tmp_path, "kph.cfg", f"""
command = kernel-properties
n = 2
kernel = pair
coupling = robin:-1
pairs = 2
quad_tol = 1e-7
gate.composition = 1e-5
seed = {seed}
""")
    out = tmp_path / "kph"
    assert main(["kernel-properties", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["heat_equation"]["max"] < 1e-6


def test_kernel_properties_single_pair(tmp_path):
    # one sample pair: every kernel evaluation returns a length-1 array
    cfg = write(tmp_path, "k1.cfg", """
command = kernel-properties
n = 2
kernel = free
statistics = fermi
pairs = 1
""")
    out = tmp_path / "k1"
    assert main(["kernel-properties", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["heat_equation"]["values"]) == 1


def test_removed_solver_knobs_are_rejected(tmp_path):
    with pytest.raises(ConfigError, match="solver_tol"):
        validate_config(DUALITY_CFG + "solver_tol = 1e-10\n")
    cfg = write(tmp_path, "d.cfg", DUALITY_CFG)
    with pytest.raises(SystemExit):
        main(["duality", "--config", cfg, "--threads", "2"])


def test_dual_kernels_run_with_realtime(tmp_path):
    cfg = write(tmp_path, "dk.cfg", """
command = dual-kernels
n = 2
coupling = robin:-1
pairs = 2
realtime = true
realtime_points = 10
""")
    out = tmp_path / "dk"
    assert main(["dual-kernels", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["realtime"]["bose_deviation"] < 1e-8


def test_dual_kernels_realtime_rejects_dirichlet(tmp_path, monkeypatch):
    # refused as a config error before any kernel is built or checked
    def fail(*args, **kwargs):
        raise AssertionError("kernel work before the config was rejected")

    monkeypatch.setattr(cli, "dual_reconstruction_check", fail)
    monkeypatch.setattr(cli, "permutation_sum", fail)
    cfg = write(tmp_path, "dkd.cfg", """
command = dual-kernels
n = 2
coupling = dirichlet
realtime = true
""")
    assert main(["dual-kernels", "--config", cfg, "--out", str(tmp_path / "dkd")]) == 2


def test_scale_invariance_run(tmp_path):
    cfg = write(tmp_path, "si.cfg", """
command = scale-invariance
n = 3
length = 6.0
points = 10
coupling.1 = scale:1
coupling.2 = scale:1
levels = 2
dilation = 2.0
""")
    out = tmp_path / "si"
    assert main(["scale-invariance", "--config", cfg, "--out", str(out)]) == 0
