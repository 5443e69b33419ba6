"""Residual measurements of boundary and connection conditions.

These checks act on evaluators, maps from points (M, n) to values:
kernel slices, or discrete states (eigenvectors of the grid
Hamiltonians) through ``MeshFunction``, which reads NaN off its dofs.
Every face value and pair derivative comes from the one one-sided
extrapolation along the pair direction e_j - e_{j+1},
``one_sided_face_values``.  The Robin residual measures the sector
boundary condition, and the connection residual the jump/continuity
data of the delta- and epsilon-type interactions across a coincidence
plane."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .coupling import coupling_values_batch
from .errors import GridTooCoarse
from .mesh import DofTable
from .operators import GridOperator
from .permutations import Statistics, sort_descending


@dataclass
class MeshFunction:
    """Node values attached to a grid operator's degrees of freedom.

    Called on points (M, n), it returns the value of the dof at each
    point, and NaN where a point is not a dof vertex: off the lattice
    (by more than a quarter of its smallest gap), at a node eliminated
    at assembly, or at a tuple the operator does not hold, such as an
    ascending one of a reduced operator.
    """

    op: GridOperator
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.op.dimension,):
            raise ValueError("values do not match operator dimension")
        self._table = DofTable(self.op.dofs, self.op.lattice.size)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        lattice = self.op.lattice
        tol = 0.25 * float(np.min(np.diff(lattice)))
        points = np.atleast_2d(points)
        idx = np.clip(np.searchsorted(lattice, points - tol), 0, lattice.size - 1)
        on_lattice = np.all(np.abs(lattice[idx] - points) <= tol, axis=-1)
        ranks = np.where(on_lattice, self._table.find(idx), -1)
        return np.where(ranks >= 0, self.values[ranks], np.nan)


def robin_residual(fn: MeshFunction, j: int) -> float:
    """Worst-case residual of the face-j boundary condition of the
    operator's coupling model, ``fn.op.model``.

    For a Robin face: |(d/dx_j - d/dx_{j+1}) psi - psi / a_j| over face
    nodes, scaled by max |psi|; a Neumann face (a_j = inf) measures the
    pair derivative alone; a Dirichlet face measures the face values
    themselves (identically zero here because those nodes are eliminated
    at assembly).  Face nodes carry exactly the one tie t_j = t_{j+1};
    ``one_sided_face_values`` reads each at pair separations 0, 2h, 4h
    (the tied pair moved a lattice step apart per 2h), and the nodes
    whose samples are all dofs count.  On grids where no face node fits
    that second-order stencil, the first-order one at 0, 2h is used with
    a logged warning.
    """
    op = fn.op
    scale = float(np.max(np.abs(fn.values)))
    if scale == 0.0:
        raise ValueError("zero state")
    if op.model.entry(j).kind == "dirichlet":
        # face nodes were eliminated; the extension by zero satisfies the
        # condition exactly
        return 0.0
    ties = op.dofs[:, :-1] == op.dofs[:, 1:]
    face = op.lattice[op.dofs[ties[:, j - 1] & (ties.sum(axis=1) == 1)]]
    h = op.dom.spacing
    for u in ((0.0, 2 * h, 4 * h), (0.0, 2 * h)):
        value, pair_derivative = one_sided_face_values(fn, face, j, np.array(u), 1.0)
        fits = np.isfinite(pair_derivative)
        if np.any(fits):
            break
    else:
        raise GridTooCoarse(f"stencil does not fit inside the sector on face {j}")
    if len(u) == 2:
        warnings.warn(
            f"face {j}: falling back to the first-order one-sided stencil; "
            "refine the grid for second-order residuals", stacklevel=2)
    a = coupling_values_batch(op.model, j, face[fits])
    res = np.abs(pair_derivative[fits] - value[fits] / a)
    return float(np.max(res)) / scale


def taylor_weights(u: np.ndarray) -> np.ndarray:
    """Inverse Vandermonde of the offsets ``u``: row m maps samples at ``u``
    to the m-th Taylor coefficient at 0 of the polynomial through them."""
    return np.linalg.inv(np.vander(u, u.size, increasing=True))


def one_sided_face_values(evaluate, plane_points: np.ndarray, j: int, u: np.ndarray,
                          sign: float):
    """Value and pair derivative (d/dx_j - d/dx_{j+1}) at the plane
    x_j = x_{j+1}, extrapolated from one side.

    ``evaluate`` maps points (M, n) to values; the samples sit at the two
    or more pair separations x_j - x_{j+1} = sign * u_k from
    ``plane_points``, on the side x_j > x_{j+1} for sign +1; a separation
    of 0 samples the plane point itself.  The polynomial through them
    gives the value and slope at u = 0.  Returns (values, pair
    derivatives), one per plane point.
    """
    direction = np.zeros(plane_points.shape[1])
    direction[j - 1] = 0.5
    direction[j] = -0.5
    samples = np.stack([evaluate(plane_points + sign * uk * direction[None, :])
                        for uk in u], axis=1)  # (M, len(u))
    # rows 0 and 1 give the interpolant's value and d/du at 0; the pair
    # derivative is 2 d/du
    wv, wd = taylor_weights(u)[:2]
    return samples @ wv, 2.0 * sign * (samples @ wd)


def connection_residual(evaluate, kind: str, a: float, plane_points: np.ndarray,
                        j: int, u_offsets) -> dict:
    """Relative connection-condition residuals across the plane
    x_j = x_{j+1}: ``jump``, the condition carrying the coupling
    strength, and ``continuity``, its partner.

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
    v_plus, d_plus = one_sided_face_values(evaluate, plane_points, j, u, +1.0)
    v_minus, d_minus = one_sided_face_values(evaluate, plane_points, j, u, -1.0)

    scale = float(np.max(np.abs(np.concatenate([v_plus, v_minus]))))
    dscale = float(np.max(np.abs(np.concatenate([d_plus, d_minus]))))
    u_span = float(np.max(u))
    norm = max(scale, u_span * dscale, 1e-300)

    if kind == "delta":
        jump = np.abs((d_plus - d_minus) - (v_plus + v_minus) / a)
        cont = np.abs(v_plus - v_minus)
        jump_norm = max(dscale, scale / abs(a) if a != 0 else np.inf, 1e-300)
        return {"jump": float(np.max(jump)) / jump_norm,
                "continuity": float(np.max(cont)) / norm}
    if kind == "epsilon":
        jump = np.abs((v_plus - v_minus) - a * (d_plus + d_minus))
        cont = np.abs(d_plus - d_minus)
        jump_norm = max(scale, abs(a) * dscale, 1e-300)
        cont_norm = max(dscale, scale / u_span, 1e-300)
        return {"jump": float(np.max(jump)) / jump_norm,
                "continuity": float(np.max(cont)) / cont_norm}
    raise ValueError(f"kind must be 'delta' or 'epsilon', got {kind!r}")


def reduced_state_evaluator(fn: MeshFunction, stat: Statistics):
    """Full-space evaluator of a reduced state at lattice points.

    Returns the value of the descending representative times the
    character of the sorting permutation: the symmetric extension for
    BOSE, the antisymmetric one for FERMI.  Like ``fn``, it reads NaN
    where the representative is not a dof vertex.
    """

    def evaluate(points):
        sorted_points, _, signs = sort_descending(np.atleast_2d(points))
        return stat.character(signs) * fn(sorted_points)

    return evaluate
