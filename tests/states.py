"""Grid-operator eigenvectors read as states, for the face tests.

A state is an operator's dof values; both readers address them by
vertex index tuples through ``mesh.DofTable``, and a tuple that is not
a dof (a wall node, a node eliminated at assembly, an ascending tuple
of a reduced operator) reads NaN or is skipped.
"""

import numpy as np

from contact_duality.coupling import coupling_values_batch
from contact_duality.mesh import DofTable
from contact_duality.permutations import sort_descending


def state_at(op, values, stat):
    """Evaluator of the character-weighted extension of a reduced state.

    At points (M, n) it returns the value of the descending
    representative times the character of the sorting permutation, and
    NaN where the representative is off the lattice (by more than a
    quarter of its smallest gap) or not a dof.
    """
    table = DofTable(op.dofs, op.lattice.size)
    lattice = op.lattice
    tol = 0.25 * float(np.min(np.diff(lattice)))

    def evaluate(points):
        points, _, signs = sort_descending(np.atleast_2d(points))
        idx = np.clip(np.searchsorted(lattice, points - tol), 0, lattice.size - 1)
        on_lattice = np.all(np.abs(lattice[idx] - points) <= tol, axis=-1)
        ranks = np.where(on_lattice, table.find(idx), -1)
        return stat.character(signs) * np.where(ranks >= 0, values[ranks], np.nan)

    return evaluate


def robin_residual(op, values, j):
    """Worst |(d/dx_j - d/dx_{j+1}) psi - psi / a_j| over the face-j dofs,
    relative to max |psi|.

    Face dofs carry exactly the one tie t_j = t_{j+1}.  The pair
    derivative is the second-order one-sided stencil (-3, 4, -1) / (2h)
    on the tuples t + k (e_j - e_{j+1}), k = 0, 1, 2: pair separations
    0, 2h and 4h.  Only face dofs whose two shifted tuples are dofs count.
    """
    ties = op.dofs[:, :-1] == op.dofs[:, 1:]
    face = op.dofs[ties[:, j - 1] & (ties.sum(axis=1) == 1)]
    step = np.zeros(op.dom.n, dtype=np.int64)
    step[j - 1], step[j] = 1, -1
    size = op.lattice.size
    shifted = face[:, None, :] + np.arange(3)[None, :, None] * step  # (F, 3, n)
    inside = np.all((shifted >= 0) & (shifted < size), axis=-1)
    ranks = np.where(inside, DofTable(op.dofs, size).find(np.clip(shifted, 0, size - 1)), -1)
    fits = np.all(ranks >= 0, axis=1)
    if not np.any(fits):
        raise ValueError(f"the stencil fits at no dof of face {j}")
    s0, s1, s2 = values[ranks[fits]].T
    pair_derivative = (-3.0 * s0 + 4.0 * s1 - s2) / (2.0 * op.dom.spacing)
    a = coupling_values_batch(op.model, j, op.lattice[face[fits]])
    return float(np.max(np.abs(pair_derivative - s0 / a))) / float(np.max(np.abs(values)))
