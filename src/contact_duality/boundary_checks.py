"""Residual measurements of boundary and connection conditions.

These checks act on discrete states (eigenvectors of the grid
Hamiltonians) or on arbitrary evaluators (kernel slices), always through
one-sided second-order stencils along the pair direction
e_j - e_{j+1}.  The Robin residual measures the sector boundary
condition, the probability flux the normal component of the current,
and the connection residual the jump/continuity data of the delta- and
epsilon-type interactions across a coincidence plane.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .coupling import CouplingModel, coupling_values_batch
from .errors import GridTooCoarse
from .mesh import DofTable
from .operators import GridOperator
from .permutations import permutation_signs_batch

#: Quadratic extrapolation to the plane from three one-sided samples at
#: parameters u_1 < u_2 < u_3: value and slope of the interpolant at 0.
def _extrapolation_weights(u: np.ndarray):
    v = np.vander(u, 3, increasing=True)  # columns 1, u, u^2
    inv = np.linalg.inv(v)
    return inv[0], inv[1]  # value weights, slope weights


@dataclass
class MeshFunction:
    """Node values attached to a grid operator's degrees of freedom."""

    op: GridOperator
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.op.dimension,):
            raise ValueError("values do not match operator dimension")
        self._table = DofTable(self.op.dofs, self.op.lattice.size)

    def lookup(self, tuples: np.ndarray) -> np.ndarray:
        return self.values[self._table.rank(tuples)]


def _face_stencil_layers(fn: MeshFunction, j: int, layers: int):
    op = fn.op
    n = op.dom.n
    dofs = op.dofs
    tie = dofs[:, j - 1] == dofs[:, j]
    n_ties = np.zeros(dofs.shape[0], dtype=int)
    for i in range(n - 1):
        n_ties += dofs[:, i] == dofs[:, i + 1]
    face = tie & (n_ties == 1)
    face_tuples = dofs[face]
    if face_tuples.shape[0] == 0:
        raise GridTooCoarse(f"no usable interior nodes on face {j}")
    keep = np.ones(face_tuples.shape[0], dtype=bool)
    shifted_all = []
    for s in range(1, layers):
        shifted = face_tuples.copy()
        shifted[:, j - 1] += s
        shifted[:, j] -= s
        descending = np.all(shifted[:, :-1] >= shifted[:, 1:], axis=-1)
        in_range = (shifted[:, j - 1] < op.lattice.size - 1) & (shifted[:, j] > 0)
        keep &= descending & in_range & fn._table.contains(shifted)
        shifted_all.append(shifted)
    if not np.any(keep):
        raise GridTooCoarse(f"stencil does not fit inside the sector on face {j}")
    face_tuples = face_tuples[keep]
    cols = [fn.lookup(face_tuples)]
    for shifted in shifted_all:
        cols.append(fn.lookup(shifted[keep]))
    coords = op.lattice[face_tuples]
    return coords, np.stack(cols, axis=1), face_tuples


def _face_stencil(fn: MeshFunction, j: int):
    """Face nodes of face j with their inward stencil values.

    Returns (face coords, stencil values (m, layers), face tuples).
    Face nodes carry exactly the one tie t_j = t_{j+1}; stencil node s
    shifts the tied pair apart by s lattice steps.  Prefers the
    second-order three-layer stencil; on grids too coarse to fit it the
    two-layer first-order one is used with a logged warning.
    """
    try:
        return _face_stencil_layers(fn, j, 3)
    except GridTooCoarse:
        out = _face_stencil_layers(fn, j, 2)
        warnings.warn(
            f"face {j}: falling back to the first-order one-sided stencil; "
            "refine the grid for second-order residuals", stacklevel=3)
        return out


def _pair_derivative(stencil: np.ndarray, h: float) -> np.ndarray:
    """One-sided (d/dx_j - d/dx_{j+1}) at the face from stencil layers.

    A lattice step apart in the tied pair scales the derivative by h;
    three layers give the second-order formula, two the first-order one.
    """
    if stencil.shape[1] >= 3:
        return (-3.0 * stencil[:, 0] + 4.0 * stencil[:, 1]
                - stencil[:, 2]) / (2.0 * h)
    return (stencil[:, 1] - stencil[:, 0]) / h


def robin_residual(fn: MeshFunction, j: int, model: CouplingModel) -> float:
    """Worst-case residual of the face-j boundary condition.

    For a Robin face: |(d/dx_j - d/dx_{j+1}) psi - psi / a_j| over face
    nodes, scaled by max |psi|; a Neumann face drops the 1/a term; a
    Dirichlet face measures the face values themselves (identically zero
    here because those nodes are eliminated at assembly).
    """
    op = fn.op
    entry = model.entry(j)
    scale = float(np.max(np.abs(fn.values)))
    if scale == 0.0:
        raise ValueError("zero state")
    if entry.kind == "dirichlet":
        # face nodes were eliminated; the extension by zero satisfies the
        # condition exactly
        return 0.0
    coords, stencil, _ = _face_stencil(fn, j)
    h = op.dom.spacing
    pair_derivative = _pair_derivative(stencil, h)
    if entry.kind == "neumann":
        res = np.abs(pair_derivative)
    else:
        a = coupling_values_batch(model, j, coords)
        res = np.abs(pair_derivative - stencil[:, 0] / a)
    return float(np.max(res)) / scale


def probability_flux(fn: MeshFunction, j: int) -> float:
    """Worst normal component of the probability current on face j.

    Computes max |Im(conj(psi) (d/dx_j - d/dx_{j+1}) psi)| over face
    nodes, scaled by max |psi|^2; it vanishes identically for real
    states and to O(h^2) for any state obeying a real Robin condition.
    """
    op = fn.op
    scale = float(np.max(np.abs(fn.values)) ** 2)
    if scale == 0.0:
        raise ValueError("zero state")
    _, stencil, _ = _face_stencil(fn, j)
    h = op.dom.spacing
    pair_derivative = _pair_derivative(stencil, h)
    flux = np.abs(np.imag(np.conj(stencil[:, 0]) * pair_derivative))
    return float(np.max(flux)) / scale


@dataclass
class ConnectionResidual:
    """Relative residuals of a two-sided connection condition."""

    jump: float        # the condition carrying the coupling strength
    continuity: float  # the partner continuity condition
    scale: float


def connection_residual(evaluate, kind: str, a: float, plane_points: np.ndarray,
                        j: int, u_offsets) -> ConnectionResidual:
    """Connection-condition residuals across the plane x_j = x_{j+1}.

    ``evaluate`` maps points (M, n) to values; ``plane_points`` lie on
    the plane; ``u_offsets`` are three positive pair separations
    u = x_j - x_{j+1} at which one-sided samples are taken on each side.
    Writing V, D for the one-sided boundary values and pair derivatives
    (d/dx_j - d/dx_{j+1}),

    * kind='delta': jump condition D+ - D- = (1/a)(V+ + V-), value
      continuous;
    * kind='epsilon': jump condition V+ - V- = a (D+ + D-), derivative
      continuous.
    """
    plane_points = np.atleast_2d(np.asarray(plane_points, dtype=float))
    u = np.asarray(u_offsets, dtype=float)
    if u.shape != (3,) or np.any(u <= 0):
        raise ValueError("need three positive pair separations")
    wv, wd = _extrapolation_weights(u)
    n = plane_points.shape[1]
    direction = np.zeros(n)
    direction[j - 1] = 0.5
    direction[j] = -0.5

    def one_side(sign):
        samples = []
        for uk in u:
            samples.append(evaluate(plane_points + sign * uk * direction[None, :]))
        samples = np.stack(samples, axis=1)  # (M, 3)
        value = samples @ wv
        # d/du of the interpolant; the physical pair derivative is
        # (d/dx_j - d/dx_{j+1}) = 2 d/du
        slope = samples @ wd
        return value, 2.0 * sign * slope

    v_plus, d_plus = one_side(+1.0)
    v_minus, d_minus = one_side(-1.0)

    scale = float(np.max(np.abs(np.concatenate([v_plus, v_minus]))))
    dscale = float(np.max(np.abs(np.concatenate([d_plus, d_minus]))))
    u_span = float(np.max(u))
    norm = max(scale, u_span * dscale, 1e-300)

    if kind == "delta":
        jump = np.abs((d_plus - d_minus) - (v_plus + v_minus) / a)
        cont = np.abs(v_plus - v_minus)
        jump_norm = max(dscale, scale / abs(a) if a != 0 else np.inf, 1e-300)
        return ConnectionResidual(
            jump=float(np.max(jump)) / jump_norm,
            continuity=float(np.max(cont)) / norm,
            scale=norm,
        )
    if kind == "epsilon":
        jump = np.abs((v_plus - v_minus) - a * (d_plus + d_minus))
        cont = np.abs(d_plus - d_minus)
        jump_norm = max(scale, abs(a) * dscale, 1e-300)
        cont_norm = max(dscale, scale / u_span, 1e-300)
        return ConnectionResidual(
            jump=float(np.max(jump)) / jump_norm,
            continuity=float(np.max(cont)) / cont_norm,
            scale=norm,
        )
    raise ValueError(f"kind must be 'delta' or 'epsilon', got {kind!r}")


def reduced_state_evaluator(fn: MeshFunction, antisymmetric: bool):
    """Full-space evaluator of a reduced state at lattice points.

    The symmetric extension returns the stored value of the descending
    representative; the antisymmetric one multiplies by the sign of the
    sorting permutation.  Points must be strict lattice vertices.
    """
    op = fn.op
    lattice = op.lattice

    min_gap = float(np.min(np.diff(lattice)))

    def evaluate(points):
        points = np.atleast_2d(points)
        idx = np.searchsorted(lattice, points.ravel() - 0.25 * min_gap)
        idx = np.clip(idx, 0, lattice.size - 1).reshape(points.shape)
        if not np.allclose(lattice[idx], points, atol=0.25 * min_gap):
            raise ValueError("points are not lattice vertices")
        order = np.argsort(-idx, axis=-1, kind="stable")
        sorted_idx = np.take_along_axis(idx, order, axis=-1)
        vals = fn.lookup(sorted_idx)
        if antisymmetric:
            vals = vals * permutation_signs_batch(order)
        return vals

    return evaluate
