import itertools
import math

import numpy as np

from contact_duality.coordinates import permutation_signs_batch
from contact_duality.mesh import (
    _vertex_offsets,
    all_cells,
    local_matrices,
    region_orderings,
    sector_element_mask,
    staggered_lattice,
    uniform_lattice,
    weakly_descending_tuples,
)
from contact_duality.operators import _facet_areas


def test_lattices():
    u = uniform_lattice(2.0, 4)
    np.testing.assert_allclose(u, [0.0, 0.5, 1.0, 1.5, 2.0])
    s = staggered_lattice(2.0, 4)
    np.testing.assert_allclose(s, [0.0, 0.25, 0.75, 1.25, 1.75, 2.0])
    # interior layers sit at half-integer multiples of h = 0.5
    assert np.all(np.diff(s) > 0)


def test_simplices_tile_the_cube():
    # the n! insertion-order simplices of a cell have volumes summing to
    # the cell volume
    for n in (2, 3, 4):
        lengths = np.linspace(1.0, 1.5, n)
        total = 0.0
        for seq in itertools.permutations(range(n)):
            vol, _ = local_matrices(seq, lengths)
            total += vol
        np.testing.assert_allclose(total, np.prod(lengths), rtol=1e-12)


def test_local_stiffness_1d():
    vol, stiff = local_matrices((0,), np.array([0.5]))
    np.testing.assert_allclose(vol, 0.5)
    np.testing.assert_allclose(stiff, [[2.0, -2.0], [-2.0, 2.0]])


def test_local_stiffness_reference_triangle():
    # unit right triangle: stiffness of the linear hat functions
    vol, stiff = local_matrices((0, 1), np.array([1.0, 1.0]))
    np.testing.assert_allclose(vol, 0.5)
    np.testing.assert_allclose(stiff.sum(axis=0), 0.0, atol=1e-14)
    np.testing.assert_allclose(stiff, stiff.T)
    np.testing.assert_allclose(np.diag(stiff), [0.5, 1.0, 0.5])


def test_interior_stencil_is_standard_laplacian():
    # assembled rows at interior vertices reduce to the (2n+1)-point stencil
    from contact_duality.coupling import neumann, uniform_model
    from contact_duality.operators import DomainSpec, build_sector

    dom = DomainSpec(n=2, length=1.0, points=12)
    op = build_sector(dom, uniform_model(2, neumann()))
    h = dom.spacing
    # pick an interior strict dof away from all faces and walls
    dofs = op.dofs
    target = None
    for i, t in enumerate(dofs):
        if t[0] - t[1] >= 3 and t.min() >= 3 and t.max() <= dom.points - 3:
            target = int(i)
            break
    assert target is not None
    row = (np.sqrt(op.mass)[target] * op.matrix[target].toarray().ravel()
           * np.sqrt(op.mass))
    expected_diag = 0.5 * 4.0 / h**2 * op.mass[target]
    np.testing.assert_allclose(row[target], expected_diag, rtol=1e-12)
    neighbors = np.nonzero(np.abs(row) > 1e-12)[0]
    assert len(neighbors) == 5  # itself plus four axis neighbors


def test_facet_area():
    # vertex index tuples on the lattice (0, 1), so indices are coordinates
    lattice = np.array([0.0, 1.0])
    tri = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    np.testing.assert_allclose(_facet_areas(tri[None], lattice), [0.5])
    seg = np.array([[0, 0], [1, 1]])
    np.testing.assert_allclose(_facet_areas(seg[None], lattice), [np.sqrt(2.0)])


def test_sector_mask_counts():
    # number of sector elements equals the number of full elements / n!
    for n in (2, 3):
        cells = all_cells(4, n)
        total = 0
        for seq in itertools.permutations(range(n)):
            total += int(np.sum(sector_element_mask(cells, seq)))
        assert total == cells.shape[0] * math.factorial(n) // math.factorial(n)
        assert total == cells.shape[0]  # one region copy of each cell volume


def test_region_orderings_signs():
    cells = np.array([[2, 1, 0], [1, 1, 0], [0, 1, 2]])
    seq = (0, 1, 2)
    pis = region_orderings(cells, seq)
    np.testing.assert_array_equal(pis[0], [0, 1, 2])
    np.testing.assert_array_equal(pis[1], [0, 1, 2])  # tie broken by insertion
    np.testing.assert_array_equal(pis[2], [2, 1, 0])
    signs = permutation_signs_batch(pis)
    np.testing.assert_array_equal(signs, [1, 1, -1])


def test_weakly_descending_tuples():
    tuples = weakly_descending_tuples(3, 2)
    assert tuples.shape == (6, 2)
    assert np.all(tuples[:, 0] >= tuples[:, 1])


def test_vertex_offsets():
    offs = _vertex_offsets((1, 0))
    np.testing.assert_array_equal(offs, [[0, 0], [0, 1], [1, 1]])
