"""Grid-operator eigenvectors read as states, for the face and
propagation tests.

A state is an operator's dof values; both readers address them by
vertex index tuples through ``mesh.DofTable``, and a tuple that is not
a dof (a wall node, a node eliminated at assembly, an ascending tuple
of a reduced operator) reads NaN or is skipped.
``ground_state_projection_check`` evolves a state to long times and
compares it with the eigensolver's ground state.
"""

import math

import numpy as np

from contact_duality.coupling import coupling_values_batch
from contact_duality.mesh import DofTable
from contact_duality.operators import solve
from contact_duality.permutations import sort_descending
from contact_duality.propagation import propagate_operator


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


def ground_state_projection_check(op, tau):
    """Long-time evolution against the eigensolver's ground state.

    Returns the overlap of the normalized evolved state with the ground
    eigenvector (mass inner product) and the spectral gap used.  The two
    lowest levels are solved from seed 0, which also draws the noise
    added to the Gaussian start.
    """
    res = solve(op, 2, seed=0)
    rng = np.random.default_rng(0)
    center = op.dom.offset + op.dom.length / 2.0
    spreadd = op.dom.length / 4.0
    psi0 = np.exp(-np.sum((op.coords - center) ** 2, axis=-1) / (2 * spreadd**2))
    psi0 += 0.05 * rng.uniform(size=op.dimension)
    evolved = propagate_operator(op, psi0, tau)
    w = op.mass
    ground = res.vectors[:, 0]
    num = abs(float(np.sum(w * evolved * ground)))
    den = math.sqrt(float(np.sum(w * evolved**2) * np.sum(w * ground**2)))
    return {
        "overlap": num / den,
        "gap": float(res.eigenvalues[1] - res.eigenvalues[0]),
        "tau": tau,
        "eigenvalues": res.eigenvalues.tolist(),
    }
