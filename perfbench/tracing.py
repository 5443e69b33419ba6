"""Span recording at the package's module boundaries.

``install(recorder)`` replaces public functions with wrappers that
record a span per call: the names ``cli`` and ``spectra`` import from
``operators``, the kernel factories ``cli`` imports (their evaluators
are wrapped too), the quadrature rules and integrators, the mesh
functions ``operators`` calls, ``Permutation.apply`` and the check,
propagation and reporting entry points.  No source file is changed; the
wrappers live only in the traced process.

A span is ``[name, start, end, parent, op, attrs]``: ``parent`` is the
index of the enclosing span (or -1), ``op`` the name of the CLI op that
was running (or None during set-up), and ``attrs`` holds counts taken
from the call's arguments and result.  Spans stay in memory until
``Recorder.dump`` writes them out.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time

import numpy as np


class Recorder:
    """In-memory span list with a stack of open spans."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, {}])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int, attrs=None):
        span = self.spans[index]
        span[2] = time.perf_counter()
        if attrs:
            span[5].update(attrs)
        self.stack.pop()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def _wrap(recorder: Recorder, func, name: str, counts=None, on_result=None):
    """Wrapper recording one span per call of ``func``.

    ``counts(args, kwargs, result)`` returns span attributes;
    ``on_result(result)`` may wrap the returned object.
    """

    @functools.wraps(func)
    def traced(*args, **kwargs):
        index = recorder.open(name)
        attrs = None
        try:
            result = func(*args, **kwargs)
            if counts is not None:
                attrs = counts(args, kwargs, result)
        finally:
            recorder.close(index, attrs)
        return on_result(result) if on_result is not None else result

    return traced


def _wrap_generator(recorder: Recorder, func, name: str, counts):
    """Wrapper recording one span per item a generator function yields."""

    @functools.wraps(func)
    def traced(*args, **kwargs):
        inner = func(*args, **kwargs)
        while True:
            index = recorder.open(name)
            attrs = None
            try:
                item = next(inner)
                attrs = counts(item)
            except StopIteration:
                return
            finally:
                recorder.close(index, attrs)
            yield item

    return traced


def _patch(recorder, owner, attr, name, counts=None, on_result=None):
    setattr(owner, attr, _wrap(recorder, getattr(owner, attr), name, counts, on_result))


def _matrix_digest(matrix) -> str:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.asarray(matrix.shape, dtype=np.int64).tobytes())
    for part in (matrix.indptr, matrix.indices, matrix.data):
        digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


def _build_counts(args, kwargs, op):
    return {"dofs": int(op.dimension), "nnz": int(op.matrix.nnz),
            "reduced": bool(op.reduced)}


def _solve_counts(args, kwargs, result):
    matrix = result.operator.matrix
    return {"dim": int(matrix.shape[0]), "digest": _matrix_digest(matrix)}


def _rule_counts(args, kwargs, result):
    return {"points": int(result[0].shape[0])}


def _expm_counts(args, kwargs, result):
    return {"dim": int(np.shape(args[0])[0])}


def install(recorder: Recorder):
    """Wrap the package's module boundaries with span recorders."""
    from contact_duality import (
        cli,
        folding,
        kernel_checks,
        mesh,
        operators,
        permutations,
        propagation,
        quadrature,
        spectra,
    )

    def kernel_evaluator(kind):
        def wrap_evaluator(kernel):
            kernel.evaluate = _wrap(
                recorder, kernel.evaluate, "kernels.evaluate",
                lambda a, k, r: {"kind": kind, "points": int(np.size(r))})
            return kernel
        return wrap_evaluator

    # operators: builds and solves, at the names their callers import
    for module in (cli, spectra):
        _patch(recorder, module, "cached_build", "operators.build", _build_counts)
        _patch(recorder, module, "solve", "operators.solve", _solve_counts)
    for attr in ("build_delta_bose", "build_epsilon_fermi"):
        _patch(recorder, propagation, attr, "operators.build", _build_counts)
    _patch(recorder, propagation, "solve", "operators.solve", _solve_counts)

    # mesh functions operators calls, and the elements they yield
    for attr in ("all_cells", "insertion_orders", "local_matrices", "region_orderings",
                 "sector_element_mask", "staggered_lattice", "uniform_lattice",
                 "weakly_descending_tuples"):
        _patch(recorder, operators, attr, "mesh.call")
    operators.length_pattern_groups = _wrap_generator(
        recorder, operators.length_pattern_groups, "mesh.call",
        lambda item: {"elements": int(len(item[1]))})
    _patch(recorder, mesh.DofTable, "__init__", "mesh.call")
    _patch(recorder, mesh.DofTable, "rank", "mesh.call")

    # spectra
    _patch(recorder, cli, "duality_report", "spectra.duality_report")
    _patch(recorder, spectra, "bf_overlap_deviations", "spectra.bf_check")

    # kernels: evaluators made by the factories cli calls
    for attr, kind in (("free_kernel", "free"), ("robin_pair_kernel", "pair"),
                       ("permutation_sum", "permutation_sum")):
        _patch(recorder, cli, attr, "kernels.factory",
               on_result=kernel_evaluator(kind))
    _patch(recorder, cli, "dual_pair_from_sector", "kernels.factory",
           on_result=lambda pair: tuple(kernel_evaluator("dual")(k) for k in pair))

    # permutations
    _patch(recorder, permutations.Permutation, "apply", "permutations.apply")

    # quadrature: rule construction and adaptive integration
    for attr in ("sector_rule", "box_rule"):
        _patch(recorder, quadrature, attr, "quadrature.rule", _rule_counts)
    _patch(recorder, propagation, "sector_rule", "quadrature.rule", _rule_counts)
    for module in (kernel_checks, folding):
        for attr in ("integrate_box", "integrate_sector"):
            _patch(recorder, module, attr, "quadrature.integrate",
                   lambda a, k, r: {"ok": True})

    # checks, PDE gate, folding, propagation
    for attr in ("verify_sector_properties", "verify_assumptions",
                 "dual_reconstruction_check"):
        _patch(recorder, cli, attr, "kernel_checks.suite")
    _patch(recorder, cli, "pair_kernel_pde_gate", "heat_solver.pde_gate")
    _patch(recorder, cli, "fold_integral_check", "folding.fold_check")
    for attr in ("propagate_at", "propagate_equivariant", "two_stage_values"):
        _patch(recorder, cli, attr, "propagation.route")
    _patch(recorder, cli, "real_time_cross_check", "propagation.realtime")
    _patch(recorder, propagation, "expm", "propagation.expm", _expm_counts)

    # configs and artifacts
    _patch(recorder, cli, "validate_config", "configio.validate")
    _patch(recorder, cli, "write_run", "reporting.write")
