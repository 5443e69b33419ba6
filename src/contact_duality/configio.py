"""Flat key-value experiment configs.

One config file describes one experiment: lines of ``key = value`` with
``#`` comments, dotted keys for grouped settings, and a ``command`` key
selecting the experiment type.  Every command declares its schema, and
the keys of ``SCHEMAS`` are the commands; unknown keys are rejected by
name so configs stay diff-able and honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coupling import (
    SQRT2,
    BoundaryCoupling,
    CouplingModel,
    dirichlet,
    neumann,
    robin,
    scale_invariant,
    uniform_model,
)
from .errors import CapExceeded, ConfigError, GridTooCoarse, UnsupportedCoupling, UnsupportedN
from .kernel_checks import SUITE_TAU_MAX, TAUS, check_sampling_fit
from .kernels import LOG_HUGE
from .operators import DomainSpec, check_model
from .permutations import group_table
from .spectra import FORMULATIONS, check_scale_model

#: Commands that build a ``DomainSpec`` and a coupling model.
SPECTRAL_COMMANDS = ("spectrum", "duality", "scale-invariance")

#: Smallest particle number of the commands with no domain.
MIN_N = {"kernel-properties": 2, "dual-kernels": 2, "fold-check": 1}

#: Counts that must be at least 1 in every schema that has them.
POSITIVE_COUNTS = ("levels", "count", "pairs", "refinements", "quad_order",
                   "quad_cells", "initial_depth")

#: Floats that must be above 0 in every schema that has them.
POSITIVE_FLOATS = ("quad_tol", "dilation", "tau", "width")

#: Keys a setting leaves unused, as (key, setting, value, reason): a
#: config that gives the key while the setting has that value is refused,
#: so no report carries a value that did not act.
UNUSED_KEYS = (
    ("coupling", "kernel", "free", "the free kernel takes no coupling"),
    ("statistics", "kernel", "pair", "the pair kernel takes no statistics"),
    ("realtime_points", "realtime", False, "used only with realtime = yes"),
    ("realtime_length", "realtime", False, "used only with realtime = yes"),
    ("realtime_time", "realtime", False, "used only with realtime = yes"),
    ("omega", "confinement", "box", "used only with confinement = harmonic"),
)

_BOOL = {"true": True, "false": False, "yes": True, "no": False}


def parse_config_text(text: str) -> dict:
    """Parse the flat key = value grammar into a string map."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"duplicate key {key!r}")
        out[key] = value
    return out


def parse_coupling_entry(text: str) -> BoundaryCoupling:
    token = text.strip().lower()
    if token == "neumann":
        return neumann()
    if token == "dirichlet":
        return dirichlet()
    if token.startswith("robin:"):
        return robin(float(token.split(":", 1)[1]))
    if token.startswith("scale:"):
        return scale_invariant(float(token.split(":", 1)[1]))
    raise ConfigError(
        f"coupling {text!r} not understood; use robin:A, neumann, dirichlet, scale:G"
    )


@dataclass
class Field:
    kind: str  # int | float | str | bool | coupling
    default: object = None
    required: bool = False
    choices: tuple = None


def _convert(key: str, raw: str, spec: Field):
    try:
        if spec.kind == "int":
            return int(raw)
        if spec.kind == "bool":
            if raw.lower() not in _BOOL:
                raise ValueError(raw)
            return _BOOL[raw.lower()]
        if spec.kind == "float":
            value = float(raw)
        elif spec.kind == "coupling":
            value = parse_coupling_entry(raw)
        else:
            value = raw
    except (ValueError, ConfigError) as err:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {spec.kind}") from err
    except UnsupportedCoupling as err:  # robin:0 or scale:0
        raise ConfigError(f"key {key!r}: {err}") from err
    # float() takes nan and inf; an infinite Robin length is written neumann
    if spec.kind in ("float", "coupling") and not math.isfinite(
            getattr(value, "value", value)):
        raise ConfigError(f"key {key!r}: must be finite, got {raw!r}")
    if spec.choices and value not in spec.choices:
        raise ConfigError(f"key {key!r}: must be one of {spec.choices}, got {value!r}")
    return value


_COMMON = {
    "command": Field("str", required=True),
    "seed": Field("int", 0),
    "n": Field("int", required=True),
}

_DOMAIN = {
    "confinement": Field("str", "box", choices=("box", "harmonic")),
    "length": Field("float", required=True),
    "omega": Field("float", 0.0),
    "offset": Field("float", 0.0),
    "points": Field("int", required=True),
}

SCHEMAS = {
    "spectrum": {
        **_COMMON, **_DOMAIN,
        "formulation": Field("str", "sector", choices=FORMULATIONS),
        "levels": Field("int", 5),
        "gate.residual": Field("float", 1e-8),
    },
    "duality": {
        **_COMMON, **_DOMAIN,
        "levels": Field("int", 5),
        "refinements": Field("int", 3),
        "gate.pairwise": Field("float", 0.005),
        "gate.order_min": Field("float", 1.7),
        "gate.order_max": Field("float", 2.3),
        "gate.overlap": Field("float", 1e-6),
    },
    "scale-invariance": {
        **_COMMON, **_DOMAIN,
        "levels": Field("int", 4),
        "dilation": Field("float", 2.0),
        "translation": Field("float", None),
        "control": Field("coupling", robin(-1.0)),
        "gate.scaled": Field("float", 0.005),
        "gate.translation": Field("float", 1e-8),
        "gate.control_min": Field("float", 0.05),
    },
    "kernel-properties": {
        **_COMMON,
        "kernel": Field("str", "free", choices=("free", "pair")),
        "coupling": Field("coupling", robin(-1.0)),
        "pairs": Field("int", 3),
        "statistics": Field("str", "none", choices=("none", "bose", "fermi")),
        "quad_tol": Field("float", 1e-9),
        "quad_order": Field("int", 8),
        "initial_depth": Field("int", 5),
        "gate.composition": Field("float", 1e-6),
        "gate.initial": Field("float", 1e-6),
        "gate.symmetry": Field("float", 1e-12),
        "gate.heat": Field("float", 1e-6),
        "gate.invariance": Field("float", 1e-12),
        "gate.boundary": Field("float", 1e-8),
        "gate.pde": Field("float", 1e-6),
    },
    "dual-kernels": {
        **_COMMON,
        "coupling": Field("coupling", dirichlet()),
        "pairs": Field("int", 3),
        "realtime": Field("bool", False),
        "realtime_points": Field("int", 12),
        "realtime_length": Field("float", 6.0),
        "realtime_time": Field("float", 0.1),
        "gate.deviation": Field("float", 1e-6),
        "gate.realtime": Field("float", 1e-8),
    },
    "propagate": {
        **_COMMON,
        "coupling": Field("coupling", robin(-1.0)),
        "tau": Field("float", 0.4),
        "quad_lo": Field("float", -7.0),
        "quad_hi": Field("float", 7.0),
        "quad_cells": Field("int", 20),
        "quad_order": Field("int", 8),
        "center1": Field("float", 1.0),
        "center2": Field("float", -1.0),
        "width": Field("float", 1.0),
        "gate.routes": Field("float", 1e-8),
        "gate.semigroup": Field("float", 1e-7),
    },
    "fold-check": {
        **_COMMON,
        "count": Field("int", 10),
        "quad_tol": Field("float", 1e-9),
        "quad_order": Field("int", 8),
        "gate.residual": Field("float", 1e-8),
    },
}


@dataclass
class ExperimentConfig:
    """Validated experiment settings plus derived objects."""

    command: str
    values: dict
    couplings: dict

    def __getitem__(self, key):
        return self.values[key]

    def domain(self) -> DomainSpec:
        if self.command == "dual-kernels":  # the box of the real-time check
            return DomainSpec(n=2, length=self["realtime_length"],
                              points=self["realtime_points"])
        return DomainSpec(
            n=self["n"], length=self["length"], points=self["points"],
            confinement=self["confinement"], omega=self["omega"],
            offset=self["offset"],
        )

    def coupling_model(self) -> CouplingModel:
        n = self["n"]
        entries = []
        for j in range(1, n):
            if j not in self.couplings:
                raise ConfigError(f"key 'coupling.{j}': missing (faces are 1..{n - 1})")
            entries.append(self.couplings[j])
        return CouplingModel(tuple(entries))


def validate_config(text: str) -> ExperimentConfig:
    """Validate raw config text against the active command's schema."""
    raw = parse_config_text(text)
    command = raw.get("command")
    if command is None:
        raise ConfigError("missing required key 'command'")
    if command not in SCHEMAS:
        raise ConfigError(f"key 'command': unknown command {command!r}")
    schema = SCHEMAS[command]

    values = {}
    couplings = {}
    for key, raw_value in raw.items():
        if key.startswith("coupling.") and command in SPECTRAL_COMMANDS:
            try:
                j = int(key.split(".", 1)[1])
            except ValueError:
                raise ConfigError(f"unknown key {key!r}")
            couplings[j] = _convert(key, raw_value, Field("coupling"))
            continue
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for command {command!r}")
        values[key] = _convert(key, raw_value, schema[key])

    for key, spec in schema.items():
        if key in values:
            continue
        if spec.required:
            raise ConfigError(f"missing required key {key!r}")
        values[key] = spec.default

    for key in POSITIVE_COUNTS:
        if key in values and values[key] < 1:
            raise ConfigError(f"key {key!r}: must be at least 1, got {values[key]}")
    for key in POSITIVE_FLOATS:
        if key in values and values[key] <= 0:
            raise ConfigError(f"key {key!r}: must be positive, got {values[key]}")
    if values["seed"] < 0:  # numpy's generators take no negative seed
        raise ConfigError(f"key 'seed': must be non-negative, got {values['seed']}")

    for key, setting, value, reason in UNUSED_KEYS:
        if key in raw and values.get(setting) == value:
            raise ConfigError(f"key {key!r}: {reason}")

    cfg = ExperimentConfig(command=command, values=values, couplings=couplings)
    n = values["n"]
    realtime = command == "dual-kernels" and values["realtime"]
    if command in SPECTRAL_COMMANDS or realtime:
        # DomainSpec's messages start with the offending field
        _refuse(("realtime_" if realtime else "") + "{}", cfg.domain)
    if command in SPECTRAL_COMMANDS:
        for j in couplings:
            if not 1 <= j <= n - 1:
                raise ConfigError(f"key 'coupling.{j}': face index outside 1..{n - 1}")
        _refuse("{}", cfg.coupling_model)
        _check_builders(command, values, cfg.coupling_model())
    elif command in MIN_N:
        if n < MIN_N[command]:
            raise ConfigError(f"key 'n': {command} needs n >= {MIN_N[command]}, got {n}")
        if command != "fold-check":
            _refuse("n", check_sampling_fit, n)
        # the commands use the table; building it here applies the group cap
        _refuse("n", group_table, n)
    elif command == "propagate":
        _check_propagate(values)
    if command == "scale-invariance" and values["dilation"] == 1:
        # the identity dilation leaves the box as it is, so no control
        # deviation can reach its floor
        raise ConfigError("key 'dilation': must differ from 1, the identity dilation")
    if realtime and values["realtime_time"] == 0:
        # every propagator is the identity at t = 0; a negative t is a
        # valid backward check
        raise ConfigError("key 'realtime_time': must be nonzero, got 0")
    _check_kernels(command, values)
    return cfg


def _refuse(key: str, check, *args) -> None:
    """Run a library check on config values; its refusal becomes a
    ConfigError naming ``key``, where ``{}`` stands for the field the
    refusal's message starts with."""
    try:
        check(*args)
    except (ValueError, GridTooCoarse, UnsupportedCoupling, UnsupportedN,
            CapExceeded) as err:
        raise ConfigError(f"key {key.format(str(err).split()[0])!r}: {err}") from err


def _check_builders(command: str, values: dict, model: CouplingModel) -> None:
    """Refuse a model a builder the spectral command runs cannot take: the
    configured formulation for a spectrum, all three for the reports, and
    for scale-invariance the report's own model rule and the control."""
    n = values["n"]
    builds = (values["formulation"],) if command == "spectrum" else FORMULATIONS
    for form in builds:
        _refuse("{}", check_model, form, model, n)
    if command == "scale-invariance":
        _refuse("{}", check_scale_model, model)
        control = uniform_model(n, values["control"])
        for form in FORMULATIONS:
            _refuse("control", check_model, form, control, n)


def _check_kernels(command: str, values: dict) -> None:
    """Refuse couplings and particle numbers the kernel commands cannot
    take.  The pair kernel (propagate, kernel-properties with the pair
    kernel, dual-kernels with a robin coupling) is two-body and has no
    scale-invariant face, and an attractive Robin face must keep its
    bound state's growth e^{gamma^2 tau / 2}, gamma = 1 / (sqrt2 a), in
    the double range up to the largest time the command evaluates the
    kernel at; dual kernels take dirichlet or robin, and their real-time
    check builds the two dual operators."""
    coupling = values.get("coupling")
    pair = (command == "propagate" or values.get("kernel") == "pair"
            or command == "dual-kernels" and coupling.kind == "robin")
    if pair and coupling.kind == "scale":
        raise ConfigError("key 'coupling': the pair kernel takes robin, neumann or dirichlet")
    if pair and values["n"] != 2:
        raise ConfigError(f"key 'n': the pair kernel is two-body, got n = {values['n']}")
    if pair and coupling.length < 0:
        tau = {"propagate": values.get("tau"), "kernel-properties": SUITE_TAU_MAX,
               "dual-kernels": sum(TAUS)}[command]
        gamma = 1.0 / (SQRT2 * coupling.length)
        growth = gamma * gamma * tau / 2.0
        if growth >= LOG_HUGE:
            raise ConfigError(
                f"key 'coupling': the bound state of {coupling.label()} grows by "
                f"e^{growth:.4g} at tau = {tau:.4g}, past the largest double "
                f"(e^{LOG_HUGE:.4g})")
    if command != "dual-kernels":
        return
    if coupling.kind not in ("dirichlet", "robin"):
        raise ConfigError("key 'coupling': dual kernels take dirichlet or robin")
    if values["realtime"]:
        for form in ("delta_bose", "epsilon_fermi"):
            _refuse("coupling", check_model, form, uniform_model(2, coupling), 2)


def _check_propagate(values: dict) -> None:
    """Refuse a propagation rule with no cells and targets sampled outside
    the sector."""
    lo, hi = values["quad_lo"], values["quad_hi"]
    if not lo < hi:
        raise ConfigError(f"key 'quad_lo': must be below quad_hi = {hi}, got {lo}")
    if not values["center1"] >= values["center2"]:
        raise ConfigError(f"key 'center1': the sector needs center1 >= center2 = "
                          f"{values['center2']}, got {values['center1']}")
