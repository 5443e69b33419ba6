import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy import sparse

from contact_duality.coupling import (
    CouplingModel,
    dirichlet,
    neumann,
    robin,
    scale_invariant,
    uniform_model,
)
from contact_duality.mesh import (
    DISSECTION_LEAF,
    DISSECTION_SHARE,
    DofTable,
    _vertex_offsets,
    all_cells,
    dissection_order,
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
    u = uniform_lattice(2.0, 4, 0.0)
    np.testing.assert_allclose(u, [0.0, 0.5, 1.0, 1.5, 2.0])
    s = staggered_lattice(2.0, 4, 0.0)
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
        lattice = staggered_lattice(dom.length, dom.points, dom.offset)
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


def _tiled_sector_elements(cells, orders):
    """Sector elements by tiling every cell once per order and masking."""
    order_of = np.repeat(np.arange(len(orders)), cells.shape[0])
    tiled = np.tile(cells, (len(orders), 1))
    keep = sector_element_mask(tiled, orders[order_of])
    return tiled[keep], order_of[keep]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sector_elements_match_the_tiled_and_masked_reference(n):
    orders = insertion_orders(n)
    patterns = set()
    for cells in [weakly_descending_tuples(points, n) for points in (1, 2, n, n + 3)] + [
            all_cells(3, n)]:
        got = element_array(cells, orders, sector=True)
        want = _tiled_sector_elements(cells, orders)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
        patterns |= set(map(tuple, (cells[:, :-1] == cells[:, 1:]).tolist()))
    # with n cells per axis every tie pattern occurs
    assert len(patterns) == 2 ** (n - 1)


def test_sector_elements_build_no_candidate_per_order():
    # tiling the n! orders over the cells first would allocate the
    # candidate rows, about twice the sector elements at n = 5
    n = 5
    orders = insertion_orders(n)
    cells = weakly_descending_tuples(12, n)
    tracemalloc.start()
    try:
        elem_cells, order_of = element_array(cells, orders, sector=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    candidates = len(orders) * cells.nbytes
    assert peak - elem_cells.nbytes - order_of.nbytes < candidates / 4


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


def test_dof_table_ranks_match_itertools():
    points = 6
    for n in (2, 3, 4):
        # strictly descending tuples in itertools order, which is not the
        # sorted order the table searches in
        ref = list(itertools.combinations(range(points - 1, -1, -1), n))
        table = DofTable(np.array(ref), points)
        rank = {t: k for k, t in enumerate(ref)}
        picked = np.random.default_rng(n).permutation(len(ref))[:10]
        wanted = np.asarray(ref)[picked]
        np.testing.assert_array_equal(table.rank(wanted),
                                      [rank[tuple(t)] for t in wanted.tolist()])
        with pytest.raises(KeyError):
            table.rank(np.arange(n)[None, :])  # ascending: not in the table


def test_dof_table_reads_no_tuple_outside_its_base():
    table = DofTable(np.array([[1, 2], [3, 0]]), 5)
    # (0, 7) and (2, -3) pack to the key of (1, 2): 0 * 5 + 7 = 2 * 5 - 3 = 1 * 5 + 2
    np.testing.assert_array_equal(table.find([[0, 7], [2, -3], [1, 2], [3, 0], [5, 0]]),
                                  [-1, -1, 0, 1, -1])
    with pytest.raises(KeyError):
        table.rank([[0, 7]])


# every builder and face kind, reduced and unreduced, n = 2..4
STENCIL_OPERATORS = [
    (build_sector, DomainSpec(n=2, length=6.0, points=8), uniform_model(2, robin(-1.0)), True),
    (build_sector, DomainSpec(n=2, length=6.0, points=8), uniform_model(2, dirichlet()), True),
    (build_sector, DomainSpec(n=3, length=6.0, points=7),
     CouplingModel((neumann(), robin(-2.0))), True),
    (build_sector, DomainSpec(n=4, length=4.0, points=6), uniform_model(4, scale_invariant(1.0)),
     True),
    (build_delta_bose, DomainSpec(n=2, length=6.0, points=8), uniform_model(2, neumann()), True),
    (build_delta_bose, DomainSpec(n=2, length=6.0, points=8), uniform_model(2, robin(1.0)),
     False),
    (build_delta_bose, DomainSpec(n=3, length=6.0, points=6),
     CouplingModel((scale_invariant(1.0), robin(-1.0))), False),
    (build_delta_bose, DomainSpec(n=4, length=4.0, points=6),
     CouplingModel((robin(-1.0), scale_invariant(1.0), neumann())), True),
    (build_epsilon_fermi, DomainSpec(n=2, length=6.0, points=8), uniform_model(2, dirichlet()),
     True),
    (build_epsilon_fermi, DomainSpec(n=2, length=6.0, points=8), uniform_model(2, robin(-1.0)),
     False),
    (build_epsilon_fermi, DomainSpec(n=3, length=6.0, points=6),
     CouplingModel((dirichlet(), robin(-1.0))), False),
    (build_epsilon_fermi, DomainSpec(n=3, length=6.0, points=6),
     CouplingModel((robin(-1.0), scale_invariant(1.0))), False),
    (build_epsilon_fermi, DomainSpec(n=4, length=4.0, points=6), uniform_model(4, robin(-1.0)),
     False),
]


def _build(build, dom, model, reduced):
    return build(dom, model) if reduced else build(dom, model, reduced=False)


@pytest.mark.parametrize("build, dom, model, reduced", STENCIL_OPERATORS)
def test_stored_entries_join_lattice_neighbours(build, dom, model, reduced):
    # the premise of the dissection order: an off-diagonal entry joins
    # tuples one unit step apart on one axis, or equal tuples, which only
    # the cracked mesh has: its jump terms, across two regions
    op = _build(build, dom, model, reduced)
    coo = op.matrix.tocoo()
    off = coo.row != coo.col
    step = np.abs(op.dofs[coo.row[off]] - op.dofs[coo.col[off]])
    one_step = (step.sum(axis=1) == 1) & (step.max(axis=1) == 1)
    equal = step.sum(axis=1) == 0
    assert np.all(one_step | equal)
    cracked = build is build_epsilon_fermi and not reduced
    assert np.any(equal) == cracked
    if cracked:
        ranks = op.region_ranks
        assert np.all(ranks[coo.row[off][equal]] != ranks[coo.col[off][equal]])


def _reference_dissection_order(dofs) -> np.ndarray:
    """``dissection_order`` one segment at a time, by direct counting."""
    n = dofs.shape[1]
    signs = [(1, *rest) for rest in itertools.product((1, -1), repeat=n - 1)]

    def visit(idx):
        best = None
        for sign in signs if idx.size > DISSECTION_LEAF else ():
            v = dofs[idx] @ np.array(sign)
            for s in range(v.min(), v.max() + 1):
                below, on = np.sum(v < s), np.sum(v == s)
                if (min(below, idx.size - below - on) >= DISSECTION_SHARE * idx.size
                        and (best is None or on < best[0])):
                    best = (on, v, s)
        if best is None:
            return list(idx)
        _, v, s = best
        return visit(idx[v < s]) + visit(idx[v > s]) + list(idx[v == s])

    return np.array(visit(np.arange(dofs.shape[0])))


@pytest.mark.parametrize("build, dom, model, reduced", STENCIL_OPERATORS[::3])
def test_dissection_order_is_a_repeatable_permutation(build, dom, model, reduced):
    op = _build(build, dom, model, reduced)
    order = dissection_order(op.dofs)
    np.testing.assert_array_equal(np.sort(order), np.arange(op.dimension))
    np.testing.assert_array_equal(dissection_order(op.dofs), order)
    np.testing.assert_array_equal(order, _reference_dissection_order(op.dofs))

