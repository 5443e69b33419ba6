import itertools
import math
from collections import Counter

import numpy as np
from scipy import sparse

from contact_duality.coupling import neumann, robin, uniform_model
from contact_duality.mesh import (
    _vertex_offsets,
    all_cells,
    element_array,
    insertion_orders,
    local_matrices,
    region_orderings,
    sector_element_mask,
    staggered_lattice,
    uniform_lattice,
    weakly_descending_tuples,
)
from contact_duality.operators import (
    DomainSpec,
    build_delta_bose,
    build_epsilon_fermi,
    build_sector,
)
from contact_duality.permutations import permutation_signs_batch


def _path_stiffness(w):
    """(n+1)x(n+1) matrix of the form sum_m w[m] (u_{m+1} - u_m)^2."""
    n = len(w)
    stiff = np.zeros((n + 1, n + 1))
    for m in range(n):
        stiff[m, m] += w[m]
        stiff[m + 1, m + 1] += w[m]
        stiff[m, m + 1] -= w[m]
        stiff[m + 1, m] -= w[m]
    return stiff


def _barycentric_reference(seq, lengths):
    """Volume and stiffness vol * grad(lambda_p) . grad(lambda_q) of one
    element from the determinant and inverse of its edge matrix."""
    n = len(seq)
    offs = _vertex_offsets(seq).astype(float) * np.asarray(lengths)[None, :]
    edges = offs[1:] - offs[0]
    vol = abs(np.linalg.det(edges)) / math.factorial(n)
    grads = np.zeros((n + 1, n))
    grads[1:] = np.linalg.inv(edges.T)
    grads[0] = -grads[1:].sum(axis=0)
    return vol, vol * (grads @ grads.T)


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
    vol, w = local_matrices((0,), np.array([0.5]))
    np.testing.assert_allclose(vol, 0.5)
    np.testing.assert_allclose(w, [2.0])
    np.testing.assert_allclose(_path_stiffness(w), [[2.0, -2.0], [-2.0, 2.0]])


def test_local_stiffness_reference_triangle():
    # unit right triangle: stiffness of the linear hat functions
    vol, w = local_matrices((0, 1), np.array([1.0, 1.0]))
    np.testing.assert_allclose(vol, 0.5)
    np.testing.assert_allclose(w, [0.5, 0.5])
    np.testing.assert_allclose(np.diag(_path_stiffness(w)), [0.5, 1.0, 0.5])


def test_path_weights_match_barycentric_stiffness():
    # the closed form equals the det/inv barycentric stiffness for every
    # insertion order and random cell widths
    rng = np.random.default_rng(3)
    for n in range(1, 6):
        for _ in range(3):
            lengths = rng.uniform(0.1, 2.0, size=n)
            for seq in itertools.permutations(range(n)):
                vol, w = local_matrices(seq, lengths)
                vol_ref, stiff_ref = _barycentric_reference(seq, lengths)
                scale = np.abs(stiff_ref).max()
                assert abs(vol - vol_ref) <= 1e-13 * vol_ref
                assert np.abs(_path_stiffness(w) - stiff_ref).max() <= 1e-13 * scale


def _interior_rows(dofs, points):
    """Dofs whose 2^n surrounding cells are all strictly descending and
    whose axis neighbours are all kept (no wall, no face)."""
    gaps = np.diff(-dofs, axis=1)
    return np.nonzero((gaps.min(axis=1) >= 2) & (dofs.min(axis=1) >= 2)
                      & (dofs.max(axis=1) <= points - 2))[0]


def test_interior_stencil_is_standard_laplacian():
    # every interior row stores exactly the (2n+1)-point stencil, also
    # when the spacing is not a dyadic fraction
    for n, points in ((2, 12), (3, 12), (4, 10)):
        for length in (1.0, 1.3):
            dom = DomainSpec(n=n, length=length, points=points)
            op = build_sector(dom, uniform_model(n, neumann()))
            h = dom.spacing
            rows = _interior_rows(op.dofs, points)
            assert rows.size > 0
            assert np.all(np.diff(op.matrix.indptr)[rows] == 2 * n + 1)
            sqrt_mass = sparse.diags(np.sqrt(op.mass))
            stencil = (sqrt_mass @ op.matrix @ sqrt_mass).tocsr()[rows].tocoo()
            centre = stencil.col == rows[stencil.row]
            mass = op.mass[rows[stencil.row]]
            np.testing.assert_allclose(stencil.data[centre], n / h**2 * mass[centre],
                                       rtol=1e-12)
            np.testing.assert_allclose(stencil.data[~centre], -0.5 / h**2 * mass[~centre],
                                       rtol=1e-12)


def test_stored_entries_do_not_depend_on_the_length():
    # the stencil is structural: the same grid at L = 6 and L = 10 stores
    # the same entries in every formulation
    model = uniform_model(3, robin(-1.0))
    for build in (build_sector, build_delta_bose, build_epsilon_fermi):
        nnz = {length: build(DomainSpec(n=3, length=length, points=14), model).matrix.nnz
               for length in (6.0, 10.0)}
        assert nnz[6.0] == nnz[10.0]


def test_facet_area():
    # assembled facet term against the Gram-determinant facet areas: on
    # the reduced delta operator, diag(H(robin a) - H(neumann)) at each
    # vertex is the sum of area / (n 2 sqrt2 a) over its coincidence
    # facets (the sector element mass is the reduced mass over n!)
    a = 0.7
    for n, points in ((2, 7), (3, 6)):
        dom = DomainSpec(n=n, length=5.3, points=points)
        lattice = staggered_lattice(dom.length, dom.points)
        reference = {}
        cells = weakly_descending_tuples(lattice.size - 1, n)
        for seq in itertools.permutations(range(n)):
            batch = cells[sector_element_mask(cells, seq)]
            offs = _vertex_offsets(seq)
            for m in range(n - 1):
                tied = batch[:, seq[m]] == batch[:, seq[m + 1]]
                verts = batch[tied][:, None, :] + np.delete(offs, m + 1, axis=0)[None]
                coords = lattice[verts]
                edges = coords[:, 1:, :] - coords[:, :1, :]
                gram = edges @ np.swapaxes(edges, 1, 2)
                areas = np.sqrt(np.linalg.det(gram)) / math.factorial(n - 1)
                for face, area in zip(verts, areas):
                    for v in map(tuple, face):
                        reference[v] = reference.get(v, 0.0) + area / (n * 2 * np.sqrt(2) * a)

        def unnormalized(op):
            sqrt_mass = sparse.diags(np.sqrt(op.mass / math.factorial(n)))
            return (sqrt_mass @ op.matrix @ sqrt_mass).diagonal()

        op_r = build_delta_bose(dom, uniform_model(n, robin(a)))
        op_n = build_delta_bose(dom, uniform_model(n, neumann()))
        np.testing.assert_array_equal(op_r.dofs, op_n.dofs)
        facet = unnormalized(op_r) - unnormalized(op_n)
        expected = np.array([reference.get(tuple(t), 0.0) for t in op_r.dofs])
        assert np.count_nonzero(expected) > 0
        np.testing.assert_allclose(facet, expected, rtol=0,
                                   atol=1e-12 * np.abs(unnormalized(op_n)).max())


def test_sector_mask_counts():
    # number of sector elements equals the number of full elements / n!
    for n in (2, 3):
        cells = all_cells(4, n)
        total = 0
        for seq in itertools.permutations(range(n)):
            total += int(np.sum(sector_element_mask(cells, seq)))
        assert total == cells.shape[0] * math.factorial(n) // math.factorial(n)
        assert total == cells.shape[0]  # one region copy of each cell volume

    # the element array with one insertion order per row
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        orders = insertion_orders(n)
        cells = weakly_descending_tuples(5, n)
        full_cells, _ = element_array(cells, orders, sector=False)
        assert full_cells.shape[0] == cells.shape[0] * math.factorial(n)
        elem_cells, order_of = element_array(cells, orders, sector=True)
        expected = {(tuple(c), k) for k, seq in enumerate(itertools.permutations(range(n)))
                    for c in cells[sector_element_mask(cells, seq)].tolist()}
        got = set(zip(map(tuple, elem_cells.tolist()), order_of.tolist()))
        assert len(got) == order_of.size and got == expected
        owned = Counter(map(tuple, elem_cells.tolist()))
        for c in map(tuple, cells.tolist()):
            ties = math.prod(math.factorial(k) for k in Counter(c).values())
            assert owned[c] == math.factorial(n) // ties

        seqs = orders[order_of]
        lengths = rng.uniform(0.1, 2.0, size=elem_cells.shape)
        vol, w = local_matrices(seqs, lengths)
        pis = region_orderings(elem_cells, seqs)
        for i, seq in enumerate(map(tuple, seqs.tolist())):
            vol_i, w_i = local_matrices(seq, lengths[i])
            assert vol_i == vol[i] and np.array_equal(w_i, w[i])
            np.testing.assert_array_equal(region_orderings(elem_cells[i:i + 1], seq), pis[i:i + 1])


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
