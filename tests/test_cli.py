import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import contact_duality
from contact_duality import cli, configio, reporting
from contact_duality.cli import main
from contact_duality.configio import parse_coupling_entry, validate_config
from contact_duality.errors import ConfigError, NotConverged
from contact_duality.reporting import Gate


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
    # under pytest numpy may come first; the record says so either way
    blas = manifest["blas_threads"]
    assert blas == contact_duality.blas_threads
    assert set(blas) == {"openblas_num_threads", "set_by_package", "numpy_already_imported"}
    assert not blas["set_by_package"] or blas["openblas_num_threads"] == "1"


#: The variables OpenBLAS reads its thread count from, in its order.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def import_cli_afresh(**thread_vars):
    """Import ``contact_duality.cli`` in a new interpreter where of the BLAS
    variables only ``thread_vars`` are set; return the variables after the
    import, the package's record and, on Linux, the native thread count."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(thread_vars)
    src = str(pathlib.Path(contact_duality.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import json, os, sys\n"
        "import contact_duality.cli\n"
        "from contact_duality import blas_threads\n"
        "tasks = len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else None\n"
        f"env = {{var: os.environ.get(var) for var in {BLAS_VARS!r}}}\n"
        "print(json.dumps({'env': env, 'record': blas_threads, 'tasks': tasks}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_one_blas_thread_by_default():
    seen = import_cli_afresh()
    assert seen["env"] == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                           "OMP_NUM_THREADS": None}
    # a numpy import ahead of the default would read True here
    assert seen["record"] == {"openblas_num_threads": "1", "set_by_package": True,
                              "numpy_already_imported": False}


@pytest.mark.skipif(sys.platform != "linux", reason="counts threads in /proc/self/task")
def test_default_leaves_no_blas_worker_threads():
    # numpy's and scipy's OpenBLAS each start a pool unless the default
    # came before they loaded
    assert import_cli_afresh()["tasks"] == 1


@pytest.mark.parametrize("thread_vars", [{"OPENBLAS_NUM_THREADS": "2"},
                                         {"OMP_NUM_THREADS": "2"}])
def test_user_blas_thread_count_is_kept(thread_vars):
    seen = import_cli_afresh(**thread_vars)
    assert seen["env"] == {var: thread_vars.get(var) for var in BLAS_VARS}
    assert seen["record"] == {"openblas_num_threads": thread_vars.get("OPENBLAS_NUM_THREADS"),
                              "set_by_package": False, "numpy_already_imported": False}


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
    # 16 cells are too few for a coarser grid to cut the spectrum, so the
    # Gershgorin estimate places the cut
    assert (cert["path"], cert["below_cut"], cert["rejected_cut"]) == ("fallback", 3, None)
    assert cert["factors"] == 2 and cert["shift"] < cert["cut"]


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


#: direct, equivariant and route_deviation of ``propagate`` at schema
#: defaults, by seed: values of the sector-rule routes, which the
#: semigroup stage does not touch
PROPAGATE_ROUTES = {
    1: ([
        0.43531251322601516, 0.4737125524142428, 0.467658040139293,
        0.5263819656360776, 0.5252635665173488, 0.43913171293401787,
    ], [
        0.43531251322603265, 0.47371255241424703, 0.4676580401392802,
        0.5263819656360957, 0.5252635665173502, 0.4391317129340077,
    ], 3.437928440333657e-14),
    2: ([
        0.3078247892427024, 0.29794359239410073, 0.541820436661199,
        0.5132076856343715, 0.41240980553614065, 0.5429270423122106,
    ], [
        0.3078247892426911, 0.29794359239410856, 0.5418204366612094,
        0.5132076856343686, 0.4124098055361699, 0.5429270423122172,
    ], 5.3882703234461703e-14),
    3: ([
        0.41800129889243715, 0.2880582090265854, 0.3123286357365797,
        0.48154664661365826, 0.364656147706328, 0.43183481662279727,
    ], [
        0.4180012988924294, 0.2880582090265816, 0.31232863573659153,
        0.48154664661364843, 0.3646561477063258, 0.43183481662278744,
    ], 2.4553956081733728e-14),
    7: ([
        0.4774833877165966, 0.24317134225951972, 0.2932430285670669,
        0.42671300303323934, 0.3524476560890851, 0.5396303540189582,
    ], [
        0.4774833877165876, 0.2431713422595097, 0.2932430285670708,
        0.42671300303321763, 0.35244765608904777, 0.5396303540189719,
    ], 6.923073266802191e-14),
}


@pytest.mark.parametrize("seed", sorted(PROPAGATE_ROUTES))
def test_propagate_defaults_hold_the_semigroup_to_rounding(tmp_path, seed):
    # the factored semigroup stage reads 2.7e-14 to 6.5e-14 at these seeds
    cfg = write(tmp_path, "p.cfg", f"command = propagate\nn = 2\nseed = {seed}\n")
    out = tmp_path / "prop"
    assert main(["propagate", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["semigroup_deviation"] <= 2e-13
    routes = (report["direct"], report["equivariant"], report["route_deviation"])
    assert routes == PROPAGATE_ROUTES[seed]


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


def test_kernel_properties_neumann_pair_passes_default_gates(tmp_path):
    # the Neumann pair kernel is the Robin one at 1/a = 0 and carries the
    # analytic face residual, which is exactly 0; a one-sided stencil read
    # about 3e-7 against the default 1e-8 gate
    cfg = write(tmp_path, "kpn.cfg", """
command = kernel-properties
n = 2
kernel = pair
coupling = neumann
""")
    out = tmp_path / "kpn"
    assert main(["kernel-properties", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["boundary"]["max"] == 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_kernel_properties_free_bose_passes_default_gates(tmp_path, n):
    # the Bose sum meets the Neumann face exactly; a face stencil that
    # starts off the plane read 2.3e-7 at n = 2 against the default 1e-8
    cfg = write(tmp_path, "kfb.cfg", f"""
command = kernel-properties
kernel = free
statistics = bose
n = {n}
""")
    out = tmp_path / "kfb"
    assert main(["kernel-properties", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["boundary"]["max"] <= 1e-8


def test_every_command_has_one_runner_and_one_schema():
    assert set(cli.RUNNERS) == set(configio.SCHEMAS)
    with pytest.raises(ConfigError, match="unknown command 'nope'"):
        validate_config("command = nope\nn = 2\n")


@pytest.mark.parametrize("seed", [19, 48, 3206])
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


SPECTRUM_BASE = {"command": "spectrum", "n": "2", "length": "6.0", "points": "10"}


@pytest.mark.parametrize("changes, key", [
    ({"n": "5"}, "n"),
    ({"n": "0"}, "n"),
    ({"length": "-6"}, "length"),
    ({"points": "3"}, "points"),
    ({"confinement": "harmonic"}, "omega"),
])
@pytest.mark.parametrize("command", ["spectrum", "duality", "scale-invariance"])
def test_out_of_range_domain_is_a_config_error(tmp_path, capsys, command, changes, key):
    values = {**SPECTRUM_BASE, "command": command, **changes}
    n = int(values["n"])
    lines = [f"{k} = {v}" for k, v in values.items()]
    lines += [f"coupling.{j} = robin:-1" for j in range(1, n)]
    with pytest.raises(ConfigError, match=f"key '{key}'"):
        validate_config("\n".join(lines) + "\n")
    cfg = write(tmp_path, "bad.cfg", "\n".join(lines) + "\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command, n", [
    ("kernel-properties", 0), ("kernel-properties", 1),
    ("dual-kernels", 0), ("dual-kernels", 1),
    ("fold-check", 0),
])
def test_particle_number_below_the_command_minimum(tmp_path, capsys, command, n):
    text = f"command = {command}\nn = {n}\n"
    with pytest.raises(ConfigError, match="key 'n'"):
        validate_config(text)
    cfg = write(tmp_path, "bad.cfg", text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_kernel_properties_with_too_many_particles_to_sample(tmp_path, capsys):
    # five points 1.1 apart do not fit in [-2.2, 2.2]: refused, not sampled forever
    cfg = write(tmp_path, "k5.cfg", "command = kernel-properties\nn = 5\nkernel = free\n")
    assert main(["kernel-properties", "--config", cfg, "--out", str(tmp_path / "k5")]) == 2
    assert "do not fit" in capsys.readouterr().err


@pytest.mark.parametrize("command, key", [
    ("spectrum", "levels"),
    ("duality", "levels"),
    ("duality", "refinements"),
    ("scale-invariance", "levels"),
    ("fold-check", "count"),
    ("kernel-properties", "pairs"),
    ("dual-kernels", "pairs"),
    ("fold-check", "quad_order"),
    ("kernel-properties", "quad_order"),
    ("kernel-properties", "initial_depth"),
    ("propagate", "quad_order"),
    ("propagate", "quad_cells"),
])
def test_zero_count_is_a_config_error(tmp_path, capsys, command, key):
    if command in ("fold-check", "kernel-properties", "dual-kernels", "propagate"):
        lines = [f"command = {command}", "n = 2"]
    else:
        n = 3 if command == "scale-invariance" else 2
        kind = "scale:1" if command == "scale-invariance" else "robin:-1"
        lines = [f"command = {command}", f"n = {n}", "length = 6.0", "points = 8"]
        lines += [f"coupling.{j} = {kind}" for j in range(1, n)]
    text = "\n".join([*lines, f"{key} = 0"]) + "\n"
    with pytest.raises(ConfigError, match=f"key '{key}'"):
        validate_config(text)
    cfg = write(tmp_path, "zero.cfg", text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"config error: key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("changes, key", [
    ({"tau": "0"}, "tau"),
    ({"tau": "-0.4"}, "tau"),
    ({"width": "0"}, "width"),
    ({"quad_lo": "7"}, "quad_lo"),
    ({"center1": "-1", "center2": "1"}, "center1"),
])
def test_propagate_geometry_is_a_config_error(tmp_path, capsys, changes, key):
    # no time step, no initial state, an empty rule or targets sampled
    # outside the sector: refused by key before any kernel is evaluated
    lines = ["command = propagate", "n = 2", *(f"{k} = {v}" for k, v in changes.items())]
    text = "\n".join(lines) + "\n"
    with pytest.raises(ConfigError, match=f"key '{key}'"):
        validate_config(text)
    cfg = write(tmp_path, "bad.cfg", text)
    assert main(["propagate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config error: key '{key}'" in err and "Traceback" not in err


@pytest.mark.parametrize("changes, key", [
    ({"center1": "50"}, "center1"),
    ({"center2": "-50"}, "center2"),
    ({"width": "1e-4"}, "width"),
    ({"tau": "1e-300"}, "tau"),
])
def test_propagate_to_zero_everywhere_is_a_config_error(tmp_path, capsys, changes, key):
    # an initial state zero on every rule point (its center outside the
    # rule's box, or narrower than the rule's spacing), or a kernel that
    # underflows at every target, leaves nothing to compare the routes by
    lines = ["command = propagate", "n = 2", *(f"{k} = {v}" for k, v in changes.items())]
    cfg = write(tmp_path, "zero.cfg", "\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["propagate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: key '{key}'" in err and "Traceback" not in err
    assert not out.exists()


def test_bound_state_growth_is_refused_at_the_largest_double():
    # gamma^2 tau / 2 = tau / (4 a^2) against log(DBL_MAX) = 709.78 at
    # a = -0.001: refused at the limit, taken just below it; a repulsive
    # face of the same length has no bound state to overflow
    limit = math.log(sys.float_info.max) * 4e-6
    base = "command = propagate\nn = 2\ncoupling = robin:-0.001\n"
    validate_config(base + f"tau = {limit * 0.999!r}\n")
    with pytest.raises(ConfigError, match="key 'coupling'"):
        validate_config(base + f"tau = {limit * 1.001!r}\n")
    validate_config("command = propagate\nn = 2\ncoupling = robin:0.001\n")


def test_overflowing_report_is_strict_json(tmp_path):
    # values that overflowed where validation could not foresee it are
    # written as null, and their gates fail
    artifacts = reporting.RunArtifacts(
        report={"route_deviation": math.inf, "two_stage": [1.0, math.nan, -math.inf]},
        gates=[Gate("routes", math.nan, 1e-8), Gate("semigroup", 0.0, 1e-7)])
    out = tmp_path / "prop"
    assert reporting.write_run(out, artifacts, "command = propagate\n", 0.0) == 1

    def refuse(token):
        raise AssertionError(f"non-standard JSON constant {token}")

    report = json.loads((out / "report.json").read_text(), parse_constant=refuse)
    assert report["route_deviation"] is None
    assert report["two_stage"] == [1.0, None, None]
    assert [gate["passed"] for gate in report["gates"]] == [False, True]
    assert report["gates"][0]["value"] is None
    json.loads((out / "manifest.json").read_text(), parse_constant=refuse)


def test_manifest_records_peak_memory(tmp_path, monkeypatch):
    # ru_maxrss of this process, in MB; null where there is no resource module
    resource = pytest.importorskip("resource")
    unit = 1024.0 ** 2 if sys.platform == "darwin" else 1024.0

    def maxrss_mb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit

    artifacts = reporting.RunArtifacts(report={}, gates=[])
    before = maxrss_mb()
    assert reporting.write_run(tmp_path / "a", artifacts, "", 0.0) == 0
    peak = json.loads((tmp_path / "a" / "manifest.json").read_text())["peak_rss_mb"]
    assert before - 0.05 <= peak <= maxrss_mb() + 0.05
    assert 10.0 < peak < 100_000.0
    monkeypatch.setattr(reporting, "resource", None)
    reporting.write_run(tmp_path / "b", artifacts, "", 0.0)
    assert json.loads((tmp_path / "b" / "manifest.json").read_text())["peak_rss_mb"] is None


#: Valid settings each case below changes one value of.
UNUSABLE_BASE = {
    "spectrum": {"n": "2", "length": "6.0", "points": "10", "coupling.1": "robin:-1"},
    "duality": {"n": "2", "length": "6.0", "points": "10", "coupling.1": "robin:-1"},
    "scale-invariance": {"n": "3", "length": "6.0", "points": "10",
                         "coupling.1": "scale:1", "coupling.2": "scale:1"},
    "dual-kernels": {"n": "2", "coupling": "robin:-1", "realtime": "yes"},
    "kernel-properties": {"n": "2", "kernel": "pair"},
    "propagate": {"n": "2"},
    "fold-check": {"n": "2"},
}


@pytest.mark.parametrize("command, changes, key", [
    # the pair kernel has no scale-invariant face
    ("kernel-properties", {"coupling": "scale:1"}, "coupling"),
    ("propagate", {"coupling": "scale:1"}, "coupling"),
    # the real-time check's box and the dilation
    ("dual-kernels", {"realtime_length": "-1"}, "realtime_length"),
    ("dual-kernels", {"realtime_points": "3"}, "realtime_points"),
    ("scale-invariance", {"dilation": "0"}, "dilation"),
    ("scale-invariance", {"dilation": "-1"}, "dilation"),
    # non-finite floats and couplings, and a tolerance that is not positive
    ("spectrum", {"length": "nan"}, "length"),
    ("spectrum", {"length": "inf"}, "length"),
    ("spectrum", {"offset": "nan"}, "offset"),
    ("spectrum", {"confinement": "harmonic", "omega": "nan"}, "omega"),
    ("spectrum", {"coupling.1": "robin:nan"}, "coupling.1"),
    ("spectrum", {"coupling.1": "robin:inf"}, "coupling.1"),
    ("scale-invariance", {"dilation": "nan"}, "dilation"),
    ("scale-invariance", {"translation": "nan"}, "translation"),
    ("kernel-properties", {"coupling": "robin:nan"}, "coupling"),
    ("kernel-properties", {"quad_tol": "0"}, "quad_tol"),
    ("kernel-properties", {"quad_tol": "-1"}, "quad_tol"),
    ("fold-check", {"quad_tol": "0"}, "quad_tol"),
    # at t = 0 every propagator is the identity and the gates compare nothing
    ("dual-kernels", {"realtime_time": "0"}, "realtime_time"),
    # the free kernel takes no coupling
    ("kernel-properties", {"kernel": "free", "coupling": "robin:5"}, "coupling"),
    # keys the selected mode ignores
    ("kernel-properties", {"statistics": "fermi"}, "statistics"),
    ("dual-kernels", {"realtime": "no", "realtime_points": "3"}, "realtime_points"),
    ("dual-kernels", {"realtime": "no", "realtime_length": "-5"}, "realtime_length"),
    ("dual-kernels", {"realtime": "no", "realtime_time": "0"}, "realtime_time"),
    ("spectrum", {"confinement": "box", "omega": "3"}, "omega"),
    # the pair kernel is two-body
    ("propagate", {"n": "3"}, "n"),
    ("dual-kernels", {"n": "3"}, "n"),
    ("kernel-properties", {"n": "3"}, "n"),
    # dual kernels take dirichlet or robin, and the real-time check builds
    # the delta operator
    ("dual-kernels", {"coupling": "neumann"}, "coupling"),
    ("dual-kernels", {"coupling": "scale:1"}, "coupling"),
    ("dual-kernels", {"coupling": "dirichlet"}, "coupling"),
    # six sample points 1.1 apart do not fit, and S_9 passes the group cap
    ("kernel-properties", {"kernel": "free", "n": "6"}, "n"),
    ("fold-check", {"n": "9"}, "n"),
    # faces the builders refuse, a missing face and a zero Robin length
    ("duality", {"coupling.1": "scale:1"}, "coupling.1"),
    ("duality", {"coupling.1": "dirichlet"}, "coupling.1"),
    ("duality", {"n": "3"}, "coupling.2"),
    ("spectrum", {"formulation": "epsilon_fermi", "coupling.1": "neumann"}, "coupling.1"),
    ("spectrum", {"coupling.1": "robin:0"}, "coupling.1"),
    # the scale-invariance report needs n = 3, a scale face and a control
    # every builder takes
    ("scale-invariance", {"coupling.1": "robin:-1", "coupling.2": "robin:-1"}, "coupling.1"),
    ("scale-invariance", {"n": "4", "coupling.3": "scale:1"}, "n"),
    ("scale-invariance", {"control": "dirichlet"}, "control"),
    # the identity dilation leaves the box unchanged: every control gate reads 0
    ("scale-invariance", {"dilation": "1"}, "dilation"),
    # numpy's generators take no negative seed
    ("spectrum", {"seed": "-1"}, "seed"),
    ("duality", {"seed": "-1"}, "seed"),
    ("scale-invariance", {"seed": "-1"}, "seed"),
    ("kernel-properties", {"seed": "-1"}, "seed"),
    ("dual-kernels", {"seed": "-1"}, "seed"),
    ("propagate", {"seed": "-1"}, "seed"),
    ("fold-check", {"seed": "-1"}, "seed"),
    # robin:-0.001 has gamma = -707: its bound state grows by e^{1e5} at
    # the propagation's tau = 0.4 and at the suites' 0.6, past the double
    # range, so every run would fail with nulls in its report
    ("propagate", {"coupling": "robin:-0.001"}, "coupling"),
    ("kernel-properties", {"coupling": "robin:-0.001"}, "coupling"),
    ("dual-kernels", {"coupling": "robin:-0.001"}, "coupling"),
    # a bool, a choice and a command outside their values, and a face
    # index outside 1..n-1
    ("dual-kernels", {"realtime": "maybe"}, "realtime"),
    ("spectrum", {"formulation": "bogus"}, "formulation"),
    ("spectrum", {"command": "bogus"}, "command"),
    ("spectrum", {"coupling.2": "robin:1"}, "coupling.2"),
    ("spectrum", {"coupling.0": "robin:1"}, "coupling.0"),
])
def test_unusable_value_is_a_config_error(tmp_path, capsys, command, changes, key):
    # refused by key before any operator, kernel or rule is built
    values = {"command": command, **UNUSABLE_BASE[command], **changes}
    text = "".join(f"{k} = {v}\n" for k, v in values.items())
    with pytest.raises(ConfigError, match=f"key '{key}'"):
        validate_config(text)
    cfg = write(tmp_path, "bad.cfg", text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config error: key '{key}'" in err and "Traceback" not in err


def test_negative_realtime_time_is_valid():
    # a backward real-time check compares nonidentity propagators
    values = {"command": "dual-kernels", **UNUSABLE_BASE["dual-kernels"],
              "realtime_time": "-0.1"}
    cfg = validate_config("".join(f"{k} = {v}\n" for k, v in values.items()))
    assert cfg["realtime_time"] == -0.1


#: A small run per command whose gates pass: the valid settings above,
#: with duality's box and ladder those of ``DUALITY_CFG``.
SMALL_RUNS = {**UNUSABLE_BASE,
              "duality": {"n": "2", "length": "10.0", "points": "12",
                          "coupling.1": "robin:-1", "levels": "3", "refinements": "3"}}


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_every_command_writes_the_same_report_twice(tmp_path, command):
    # a config fixes every number a report holds: two runs of it write
    # byte-identical report.json files (dual-kernels with its real-time
    # check)
    values = {"command": command, **SMALL_RUNS[command]}
    cfg = write(tmp_path, "run.cfg", "".join(f"{k} = {v}\n" for k, v in values.items()))
    reports = []
    for out in (tmp_path / "r1", tmp_path / "r2"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command", ["spectrum", "duality"])
def test_more_levels_than_dofs_is_a_config_error(tmp_path, capsys, command):
    # n=2 N=6 has 15 sector dofs and fewer on the staggered lattices
    text = (f"command = {command}\nn = 2\nlength = 6.0\npoints = 6\n"
            "coupling.1 = robin:-1\nlevels = 100\n")
    cfg = write(tmp_path, "many.cfg", text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: key 'levels'" in err and "Traceback" not in err


@pytest.mark.parametrize("text, message", [
    ("command = spectrum\nn 2\n", "line 2: expected 'key = value'"),
    ("command = spectrum\n = 2\n", "line 2: empty key"),
    ("command = spectrum\nn = 2\nn = 3\n", "duplicate key 'n'"),
    ("n = 2\nlength = 6.0\n", "missing required key 'command'"),
    ("command = spectrum\ncoupling.one = robin:1\n", "unknown key 'coupling.one'"),
])
def test_malformed_config_text_exits_two(tmp_path, capsys, text, message):
    with pytest.raises(ConfigError, match=message):
        validate_config(text)
    cfg = write(tmp_path, "bad.cfg", text)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err and "Traceback" not in err


def test_unreadable_config_exits_two(tmp_path, capsys):
    missing = str(tmp_path / "missing.cfg")
    assert main(["spectrum", "--config", missing, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "missing.cfg" in err
    assert not (tmp_path / "out").exists()


def test_failed_run_exits_one(tmp_path, capsys, monkeypatch):
    def failing(cfg):
        raise NotConverged("no cut or shift gave a certified lowest-k spectrum")

    monkeypatch.setitem(cli.RUNNERS, "spectrum", failing)
    text = "".join(f"{k} = {v}\n" for k, v in
                   {"command": "spectrum", **UNUSABLE_BASE["spectrum"]}.items())
    cfg = write(tmp_path, "s.cfg", text)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "run failed: no cut or shift gave a certified lowest-k spectrum\n"
    assert not (tmp_path / "out").exists()


def test_dual_kernels_default_dirichlet_run_prints_its_gates(tmp_path, capsys):
    # the default coupling: the free-fermion permutation sum as the sector
    # kernel, and --verbose prints one line per gate
    cfg = write(tmp_path, "dk.cfg", "command = dual-kernels\nn = 2\npairs = 2\n")
    out = tmp_path / "dk"
    assert main(["dual-kernels", "--config", cfg, "--out", str(out), "--verbose"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["coupling"] == "dirichlet" and "realtime" not in report
    lines = capsys.readouterr().out.splitlines()
    gates = [line for line in lines if line.startswith("  gate ")]
    assert [g["name"] for g in report["gates"]] == ["deviation"]
    assert gates == [f"  gate deviation: {report['max_deviation']!r} vs "
                     f"{report['gates'][0]['tolerance']!r} [pass]"]
    assert lines[-1] == f"dual-kernels: all gates passed; artifacts in {out}"


def short_ladder(refinements: int) -> str:
    """DUALITY_CFG with fewer rungs and the same finest grid, 48 cells."""
    points = 12 * 2 ** (3 - refinements)
    return DUALITY_CFG.replace("points = 12", f"points = {points}").replace(
        "refinements = 3", f"refinements = {refinements}")


def test_config_file_is_closed_under_dev_mode(tmp_path):
    # -X dev reports a file object left to the garbage collector
    cfg = write(tmp_path, "d.cfg", short_ladder(1))
    env = dict(os.environ)
    src = str(pathlib.Path(contact_duality.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "dev", "-m", "contact_duality.cli",
                           "duality", "--config", cfg, "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "ResourceWarning" not in proc.stderr


@pytest.mark.parametrize("refinements", [1, 2])
def test_short_ladder_has_no_orders(tmp_path, refinements):
    # orders and extrapolation take three rungs; shorter ladders still run
    cfg = write(tmp_path, "d.cfg", short_ladder(refinements))
    out = tmp_path / "d"
    assert main(["duality", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["levels"]) == refinements
    assert report["eigenvalue_orders"] == {} and report["extrapolated"] == {}
    pairs = ["sector|delta_bose", "sector|epsilon_fermi", "delta_bose|epsilon_fermi"]
    assert report["pair_deviation_orders"] == {pair: [] for pair in pairs}
    # no order gate, only the pairwise and overlap ones
    assert [g["name"] for g in report["gates"]] == [
        *(f"pairwise[{pair}]" for pair in pairs), "bf_overlap_deviation"]
