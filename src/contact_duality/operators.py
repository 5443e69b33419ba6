"""Discretized Hamiltonians for the three equivalent contact models.

All three operators are assembled from symmetric quadratic forms on
simplicial meshes aligned with the coincidence planes (units hbar = m = 1
throughout, kinetic term -(1/2) Laplacian):

* ``sector``: the free Hamiltonian on the closed descending sector with
  Robin data on each pair face, as a boundary term
  + 1/(2 sqrt(2) a_j) on face j.  Vertex lattice at integer multiples
  of h, hard walls eliminated.
* ``delta_bose``: the full-box Hamiltonian with a surface term
  1/(sqrt(2) a_j) on every coincidence facet (the delta interaction of
  strength 1/a_j on the plane, weighted by the coarea factor).  Vertex
  lattice staggered: interior layers at half-integer multiples of h, so
  planes run midway between strict node layers.
* ``epsilon_fermi``: the full-box Hamiltonian on the staggered lattice
  cracked along every coincidence facet, with the jump penalty
  |[phi]|^2 / (4 sqrt(2) a_j) whose natural conditions are a value jump
  proportional to the one-sided derivative sum with the derivative
  continuous.

Restricted to the exchange-symmetric (delta) or antisymmetric
(epsilon) subspace, both full-box forms are n! times the sector form on
the staggered lattice: each sector element has n! images in the box and
each coincidence facet n!/2, and on the antisymmetric subspace the jump
is twice the one-sided value.  So the reduced operators of all three
formulations come from one assembly over the sector elements with the
facet term 1/(2 sqrt(2) a_j); the reduced delta and epsilon operators
are bitwise equal, and differ from the sector one only in the lattice
and in the factor n! on their mass.  The unreduced operators
(``reduced=False``), which the real-time propagation check compares
against the reduced ones, come from the same assembly over all M^n n!
elements of the box.  Either way the elements form one array of cells
and insertion orders (``mesh.element_array``), and the assembly is one
pass over it: one kinetic batch, one lumped mass, and one facet batch
per path position.

Every element is a path simplex whose vertices step along one axis at a
time, so its stiffness form is closed-form (``mesh.local_matrices``):
(1/2) sum_m w_m (u_{m+1} - u_m)^2 over its n axis-aligned path edges.
A coincidence facet, the face opposite the vertex that steps along the
second of two tied axes p and q, has area sqrt(2) n vol / h_p, so its
per-vertex share of the facet weight 1 / (facet_scale sqrt(2) a) is
vol / (facet_scale a h_p).  Kinetic, facet and potential terms go into
one accumulator of edges and diagonal shares, and every operator is the
(2n+1)-point stencil plus a facet term, with no other stored entry.

The pair coupling attached to a facet is the entry a_{j*} with j* the
rank of the colliding pair in the region's descending order, so distinct
per-face couplings act exactly on their own plane segments.  Mass
matrices are lumped; every operator is exposed in the mass-normalized
symmetric form D^{-1/2} A D^{-1/2}.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .coupling import CouplingModel, coupling_values_batch
from .errors import (
    GridTooCoarse,
    LevelsOutOfRange,
    NotConverged,
    UnsupportedCoupling,
)
from .mesh import (
    DofTable,
    all_cells,
    dissection_order,
    element_array,
    insertion_orders,
    local_matrices,
    region_orderings,
    staggered_lattice,
    uniform_lattice,
    weakly_descending_tuples,
    _encode,
    _vertex_offsets,
)
from .permutations import permutation_ranks

# Assembly calls neither of these here.  Both stay importable on this
# module because the benchmark's tracer (perfbench/tracing.py) wraps them
# here by name; ROADMAP item 3, the benchmark repair, drops them.
from .mesh import length_pattern_groups, sector_element_mask  # noqa: F401

#: Minimum cells per axis so each face keeps a few interior layers.
MIN_POINTS = 6

#: Spectral work is desk scale; larger n explodes as (grid)^n.
MAX_SPECTRAL_N = 4

#: Cells per axis of a one-shot solve's grid over those of the coarser
#: grid its cut comes from.
COARSENING = 4

#: A cut for k levels may count up to this many more below it; the solve
#: then certifies every level below the cut and returns the lowest k.
EXTRA_LEVELS = 2

#: ARPACK tolerance of the Gershgorin estimate, which only places a cut
#: that ``_cut_attempt`` then certifies or refuses.
ESTIMATE_TOL = 1e-6

#: ARPACK tolerance of the Lanczos run at a cut.  It only stops the run:
#: the certificate reads the residuals recomputed from the returned pairs.
LANCZOS_TOL = 1e-10


@dataclass(frozen=True)
class DomainSpec:
    """Confined n-particle domain and grid resolution.

    ``points`` is the number of cells per axis at spacing h = length /
    points.  Harmonic confinement keeps the hard-wall box as an outer
    truncation and adds (omega^2 / 2) |x - center|^2 on the diagonal.
    """

    n: int
    length: float
    points: int
    confinement: str = "box"
    omega: float = 0.0
    offset: float = 0.0

    def __post_init__(self):
        # each message starts with the field it rejects
        if not 2 <= self.n <= MAX_SPECTRAL_N:
            raise ValueError(f"n must be between 2 and {MAX_SPECTRAL_N}")
        if self.length <= 0:
            raise ValueError("length must be positive")
        if self.points < MIN_POINTS:
            raise GridTooCoarse(f"points must be at least {MIN_POINTS} (cells per axis)")
        if self.confinement not in ("box", "harmonic"):
            raise ValueError("confinement must be 'box' or 'harmonic'")
        if self.confinement == "harmonic" and self.omega <= 0:
            raise ValueError("omega must be positive with harmonic confinement")

    @property
    def spacing(self) -> float:
        return self.length / self.points

    def refined(self, factor: int) -> "DomainSpec":
        return dataclasses.replace(self, points=self.points * factor)

    def potential(self, coords: np.ndarray) -> np.ndarray:
        if self.confinement == "box":
            return np.zeros(coords.shape[0])
        center = self.offset + self.length / 2.0
        return 0.5 * self.omega**2 * np.sum((coords - center) ** 2, axis=-1)

    def label(self) -> str:
        base = f"n{self.n}_L{self.length:g}_N{self.points}_{self.confinement}"
        if self.confinement == "harmonic":
            base += f"_w{self.omega:g}"
        if self.offset:
            base += f"_off{self.offset:g}"
        return base


def content_hash(dom: DomainSpec, model: CouplingModel) -> str:
    """Short reproducibility hash for artifact file names.

    Built from the full-precision ``repr`` of every domain field and
    coupling entry, so inputs that differ in any digit get distinct keys
    (the ``:g`` labels round to six significant digits).  Numbers are
    hashed as floats, so 10 and 10.0 share a key.
    """
    def text_of(value):
        return repr(float(value)) if isinstance(value, (int, float)) else repr(value)

    fields = [text_of(getattr(dom, f.name)) for f in dataclasses.fields(dom)]
    entries = [f"{e.kind}:{text_of(e.value)}" for e in model.entries]
    text = ",".join(fields) + "|" + ",".join(entries)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass
class GridOperator:
    """Sparse symmetric Hamiltonian in mass-normalized form.

    ``matrix`` acts on mass-scaled coefficients; node values of a state
    are ``vector / sqrt(mass)``.  ``dofs`` holds the vertex index tuple
    of every degree of freedom (sorted descending for reduced
    operators), ``coords`` their coordinates.  The reduced delta and
    epsilon ``mass`` is the full-box lumped mass summed over the orbit of
    each node, n! times the sector-element mass.
    """

    matrix: sparse.csr_matrix
    mass: np.ndarray
    dofs: np.ndarray
    coords: np.ndarray
    lattice: np.ndarray
    formulation: str
    dom: DomainSpec
    model: CouplingModel
    reduced: bool
    region_ranks: np.ndarray | None  # cracked operators only

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def symmetry_residual(self, seed: int) -> float:
        """Worst |v.Au - u.Av| / (max|A| |u| |v|) over five seeded random pairs."""
        rng = np.random.default_rng(seed)
        worst = 0.0
        scale = abs(self.matrix).max()
        for _ in range(5):
            u = rng.normal(size=self.dimension)
            v = rng.normal(size=self.dimension)
            au = self.matrix @ u
            av = self.matrix @ v
            worst = max(worst, abs(v @ au - u @ av) / (scale * np.linalg.norm(u) * np.linalg.norm(v)))
        return worst


class _Accumulator:
    """A weighted graph Laplacian plus a diagonal, summed into CSR form.

    ``edges(a, b, w)`` adds the form w (u_a - u_b)^2 and
    ``diagonal(i, d)`` adds d u_i^2; repeated entries add up.  Each edge
    is kept as one triplet with 32-bit indices and the diagonal as a
    dense vector, so the memory held is about 16 bytes per edge added.
    The matrix stores every diagonal entry and both entries of every
    edge, even where they sum to zero, so its pattern does not depend
    on rounding.
    """

    def __init__(self, dim: int):
        self.diag = np.zeros(dim)
        self.index_dtype = np.int32 if dim < 2**31 else np.int64
        self.rows, self.cols, self.vals = [], [], []

    def diagonal(self, i, d):
        i, d = map(np.ravel, np.broadcast_arrays(i, d))
        self.diag += np.bincount(i, weights=d, minlength=self.diag.size)

    def edges(self, a, b, w):
        a, b, w = map(np.ravel, np.broadcast_arrays(a, b, w))
        self.diagonal(a, w)
        self.diagonal(b, w)
        self.rows.append(a.astype(self.index_dtype))
        self.cols.append(b.astype(self.index_dtype))
        self.vals.append(w)

    def matrix(self) -> sparse.csr_matrix:
        dim = self.diag.size
        # edge weights summed per (a, b) pair; CSR conversion keeps zeros
        off = sparse.coo_matrix((np.concatenate(self.vals),
                                 (np.concatenate(self.rows), np.concatenate(self.cols))),
                                shape=(dim, dim)).tocsr().tocoo()
        # the diagonal and both edge halves as one triplet set
        at = np.arange(dim, dtype=off.row.dtype)
        rows = np.concatenate([at, off.row, off.col])
        cols = np.concatenate([at, off.col, off.row])
        vals = np.concatenate([self.diag, -off.data, -off.data])
        return sparse.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()


def check_model(formulation: str, model: CouplingModel, n: int):
    """Refuse a model the formulation's builder cannot take; a refusal of
    face j's coupling starts its message with ``coupling.j``."""
    if model.n != n:
        raise UnsupportedCoupling(f"model has {model.n - 1} entries, need {n - 1}")
    for j in range(1, n):
        kind = model.entry(j).kind
        if formulation == "delta_bose" and kind == "dirichlet":
            raise UnsupportedCoupling(
                f"coupling.{j} is dirichlet: the delta builder needs finite "
                "strength 1/a; the hard-core limit is covered by the "
                "sector/Girardeau route"
            )
        if formulation == "epsilon_fermi" and kind == "neumann":
            raise UnsupportedCoupling(
                f"coupling.{j} is neumann: the epsilon builder needs finite "
                "strength a; the free-boson limit is covered by the sector route"
            )


def _rank_table(keys: np.ndarray, size: int):
    """Rank of every key in range(size) among the distinct ``keys``, and
    those keys in sorted order: ``np.unique`` and ``np.searchsorted`` as
    one mark, one cumulative sum and one gather, with no sort."""
    mark = np.zeros(size, dtype=bool)
    mark[keys.ravel()] = True
    return np.cumsum(mark) - 1, np.flatnonzero(mark)


def _assemble(lattice: np.ndarray, dom: DomainSpec, model: CouplingModel,
              formulation: str, reduced: bool):
    """Assemble one formulation's operator on ``lattice``.

    The elements form one array: a cell (E, n) and an insertion-order
    index per row.  Reduced operators take the sector elements of the
    weakly descending cells, with one dof per descending vertex tuple.
    Unreduced ones take all M^n n! elements of the box, with one dof per
    vertex, or per (vertex, region) pair on the cracked mesh.
    """
    n = dom.n
    pts = lattice.size
    widths = np.diff(lattice)
    orders = insertion_orders(n)
    cracked = formulation == "epsilon_fermi" and not reduced
    cells = weakly_descending_tuples(pts - 1, n) if reduced else all_cells(pts - 1, n)
    cells, order_of = element_array(cells, orders, sector=reduced)
    seqs = orders[order_of]

    # key of every element vertex: the key is linear in the index tuple,
    # so it is the cell's key plus the key of the vertex's offset in its
    # order.  On the cracked mesh a key is a (vertex, region) pair.  The
    # dofs are the distinct keys the elements touch, in sorted order.
    offsets = np.stack([_vertex_offsets(tuple(seq)) for seq in orders])
    ids = _encode(cells, pts)[:, None] + _encode(offsets, pts)[order_of]
    if cracked:
        ids += pts**n * permutation_ranks(region_orderings(cells, seqs))[:, None]
    rank, dof_keys = _rank_table(ids, pts**n * (len(orders) if cracked else 1))
    ids = rank[ids]
    vertex_keys = dof_keys % pts**n
    region_ranks = dof_keys // pts**n if cracked else None
    dof_tuples = np.stack(np.unravel_index(vertex_keys, (pts,) * n), axis=-1)
    dim = dof_tuples.shape[0]
    coords = lattice[dof_tuples]
    # per-vertex facet weight 1 / (facet_scale sqrt2 a): the sector's Robin
    # term at reduced level; in the full box the plane delta of strength
    # 1/a with coarea factor 1/sqrt2, or the jump penalty |[phi]|^2 / (4 sqrt2 a)
    facet_scale = 2.0 if reduced else 4.0 if cracked else 1.0

    # kinetic term (1/2) sum_m w_m (u_{m+1} - u_m)^2 over the path edges
    elem_vol, w = local_matrices(seqs, widths[cells])
    acc = _Accumulator(dim)
    acc.edges(ids[:, :-1], ids[:, 1:], 0.5 * w)
    mass_diag = np.bincount(ids.ravel(), minlength=dim,
                            weights=np.repeat(elem_vol / (n + 1), n + 1))
    drop_face_dofs = np.zeros(dim, dtype=bool)

    # Coincidence facets: adjacent tied axes p, q at path position m.
    rows = np.arange(cells.shape[0])
    for m in range(n - 1):
        p_axis, q_axis = seqs[:, m], seqs[:, m + 1]
        # p < q counts each geometric facet once
        tied = np.nonzero((p_axis < q_axis)
                          & (cells[rows, p_axis] == cells[rows, q_axis]))[0]
        p_axis, q_axis = p_axis[tied], q_axis[tied]
        fpis = region_orderings(cells[tied], seqs[tied])
        # the facet dropping vertex m+1 has area sqrt2 n vol / h_p, so its
        # per-vertex share area / n of 1 / (facet_scale sqrt2 a) is
        # vol / (facet_scale a h_p)
        vol_per_h = elem_vol[tied] / widths[cells[tied, p_axis]]
        # rank of the colliding pair in the region's descending order
        pos = np.argsort(fpis, axis=-1, kind="stable")
        jstar = np.take_along_axis(pos, p_axis[:, None], axis=-1)[:, 0] + 1  # 1-based
        ids_f = np.delete(ids[tied], m + 1, axis=1)
        if cracked:
            # the same vertices in the region with the colliding pair swapped
            mirror = np.where(fpis == p_axis[:, None], q_axis[:, None],
                              np.where(fpis == q_axis[:, None], p_axis[:, None], fpis))
            ids_minus = rank[vertex_keys[ids_f] + pts**n * permutation_ranks(mirror)[:, None]]

        for j in range(1, n):
            sel = jstar == j
            face = ids_f[sel]
            a_v = coupling_values_batch(model, j, coords[face.ravel()]).reshape(face.shape)
            # a = 0 pins the value to zero: Dirichlet faces, and scale faces
            # where the hyperradius vanishes; a = inf (Neumann) adds nothing
            pinned = a_v == 0.0
            drop_face_dofs[face[pinned]] = True
            live = ~pinned & np.isfinite(a_v)
            vol_v = np.broadcast_to(vol_per_h[sel][:, None], face.shape)
            share = vol_v[live] / (facet_scale * a_v[live])
            if cracked:  # the jump penalty on the two one-sided values
                drop_face_dofs[ids_minus[sel][pinned]] = True
                acc.edges(face[live], ids_minus[sel][live], share)
            else:
                acc.diagonal(face[live], share)
    del cells, seqs, order_of, ids, rank, elem_vol, w  # before the CSR conversion's peak

    # potential on the lumped diagonal
    acc.diagonal(np.arange(dim), dom.potential(coords) * mass_diag)
    hamiltonian = acc.matrix()

    # hard walls and face eliminations
    keep = ~drop_face_dofs
    wall = (dof_tuples == 0) | (dof_tuples == pts - 1)
    keep &= ~np.any(wall, axis=-1)
    idx = np.nonzero(keep)[0]
    normalized = hamiltonian[idx][:, idx]
    mass = mass_diag[idx]
    if np.any(mass <= 0):
        raise GridTooCoarse("degenerate lumped mass; refine the grid")

    # D^{-1/2} A D^{-1/2} entry by entry, keeping every stored entry
    inv_sqrt = 1.0 / np.sqrt(mass)
    normalized.data *= np.repeat(inv_sqrt, np.diff(normalized.indptr))
    normalized.data *= inv_sqrt[normalized.indices]
    if reduced and formulation != "sector":
        # the full-box mass summed over the n! images of each node
        mass = mass * math.factorial(n)

    return GridOperator(
        matrix=normalized,
        mass=mass,
        dofs=dof_tuples[idx],
        coords=coords[idx],
        lattice=lattice,
        formulation=formulation,
        dom=dom,
        model=model,
        reduced=reduced,
        region_ranks=None if region_ranks is None else region_ranks[idx],
    )


def build_sector(dom: DomainSpec, model: CouplingModel) -> GridOperator:
    """Free Hamiltonian on the closed descending sector with Robin faces."""
    check_model("sector", model, dom.n)
    lattice = uniform_lattice(dom.length, dom.points, dom.offset)
    return _assemble(lattice, dom, model, "sector", reduced=True)


def build_delta_bose(dom: DomainSpec, model: CouplingModel,
                     reduced: bool = True) -> GridOperator:
    """Full-box Hamiltonian with plane delta terms of strength 1/a_j.

    Reduced (the default) to the exchange-symmetric subspace, where it is
    the sector form on the staggered lattice."""
    check_model("delta_bose", model, dom.n)
    lattice = staggered_lattice(dom.length, dom.points, dom.offset)
    return _assemble(lattice, dom, model, "delta_bose", reduced=reduced)


def build_epsilon_fermi(dom: DomainSpec, model: CouplingModel,
                        reduced: bool = True) -> GridOperator:
    """Full-box Hamiltonian cracked along coincidence facets with the jump
    penalty of strength a_j.

    Reduced (the default) to the antisymmetric subspace, where it is the
    sector form on the staggered lattice."""
    check_model("epsilon_fermi", model, dom.n)
    lattice = staggered_lattice(dom.length, dom.points, dom.offset)
    return _assemble(lattice, dom, model, "epsilon_fermi", reduced=reduced)


BUILDERS = {
    "sector": build_sector,
    "delta_bose": build_delta_bose,
    "epsilon_fermi": build_epsilon_fermi,
}


def cached_build(formulation: str, dom: DomainSpec, model: CouplingModel) -> GridOperator:
    """Build an operator by formulation name through ``BUILDERS``.

    Nothing is cached.  The name stays because ``cli`` and ``spectra``
    build through it and the benchmark's tracer (``perfbench/tracing.py``)
    wraps it there by name.
    """
    return BUILDERS[formulation](dom, model)


@dataclass
class SpectrumResult:
    """Lowest eigenpairs of an operator with their inertia certificate.

    ``certificate`` is a plain JSON dict with the same keys on every
    solve.  ``cut`` lies above the k-th eigenvalue, ``below_cut`` counts
    the eigenvalues below it by Sylvester inertia (k to
    k + ``EXTRA_LEVELS``), and every one of them was solved and lies
    below it by more than the residual norm of the block.  ``path`` says
    where the cut came from: ``"cut"`` for the caller's or a coarser
    grid's, ``"fallback"`` for the Gershgorin estimate, made at the
    shift ``shift`` (None on the cut path).  ``rejected_cut`` holds the
    cut, its count and the reason it failed when the estimate ran after
    one.  ``factors`` and ``opinv_applications`` count the LU factors of
    this operator the solve made and the Lanczos solves with them, and
    ``fill`` sums the nonzeros of L + U over those factors, as SuperLU
    counts them (a coarse grid's solve counts its own).  Eigenvalues
    ascend, in the order ``_lanczos`` sorts them into.
    """

    eigenvalues: np.ndarray
    residuals: np.ndarray
    operator: GridOperator
    vectors: np.ndarray  # columns are node-value eigenvectors
    certificate: dict

    def lowest(self, k: int) -> "SpectrumResult":
        """The lowest k pairs, under the certificate of the whole solve."""
        return dataclasses.replace(self, eigenvalues=self.eigenvalues[:k],
                                   residuals=self.residuals[:k],
                                   vectors=self.vectors[:, :k])


def gershgorin_shift(a: sparse.csr_matrix) -> float:
    """A shift safely below the Gershgorin lower bound of ``a``, whose
    arrays it leaves as they are (``abs(a)`` would sort their indices)."""
    diag = a.diagonal()
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    row_abs = np.bincount(rows, weights=np.abs(a.data), minlength=a.shape[0])
    lower = float(np.min(diag - (row_abs - np.abs(diag))))
    return lower - 0.1 * max(1.0, abs(lower))


def _factor(a: sparse.csr_matrix, shift: float):
    """LU factor of a - shift I in the order of ``a``'s rows.

    ``solve`` hands in the operator permuted into its nested-dissection
    order (``mesh.dissection_order``), and SuperLU eliminates in that
    order.  Diagonal pivoting keeps the row permutation equal to the
    column one, so the factor is P (a - shift I) P^T = L U and U's
    diagonal carries the inertia.  None if the factor is singular.
    """
    shifted = (a - shift * sparse.identity(a.shape[0], format="csr")).tocsc()
    try:
        return splu(shifted, permc_spec="NATURAL", diag_pivot_thresh=0,
                    options={"SymmetricMode": True})
    except RuntimeError:
        return None


def _fill(lu) -> int:
    """Nonzeros in L + U as SuperLU counts them; 0 for no factor."""
    return 0 if lu is None else lu.nnz


def _negative_pivots(lu) -> int | None:
    """Count of U's negative pivots, by Sylvester's law of inertia the
    eigenvalues below the factor's shift; None for no factor or a
    nonsymmetric permutation.

    Reading ``lu.U`` makes scipy cache CSC copies of L and U on the
    factor, about as large as the factor itself.  ``lu.solve`` reads
    SuperLU's own storage, never these copies, so they are emptied once
    the count is read, before Lanczos runs on the factor.
    """
    if lu is None or not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    count = int(np.count_nonzero(lu.U.diagonal() < 0))
    for copy in (lu.L, lu.U):
        copy.data, copy.indices = copy.data[:0].copy(), copy.indices[:0].copy()
        copy.indptr = np.zeros_like(copy.indptr)
    return count


def _lanczos(a: sparse.csr_matrix, k: int, sigma: float, which: str, lu, v0, tol: float):
    """Shift-invert Lanczos at ``sigma`` through the factor ``lu`` to
    ARPACK's tolerance ``tol`` (0: machine precision): eigenvalues,
    eigenvectors and residual norms (None when ARPACK does not converge),
    and the number of solves with the factor it made."""
    applications = 0

    def apply(rhs):
        nonlocal applications
        applications += 1
        return lu.solve(rhs)

    opinv = LinearOperator(a.shape, matvec=apply, dtype=a.dtype)
    try:
        vals, vecs = eigsh(a, k=k, sigma=sigma, which=which, v0=v0, tol=tol, OPinv=opinv)
    except ArpackNoConvergence:
        return None, applications
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    residuals = np.linalg.norm(a @ vecs - vecs * vals[None, :], axis=0)
    return (vals, vecs, residuals), applications


#: The work keys of an attempt, summed over a solve's attempts.
_WORK = ("factors", "fill", "opinv_applications")


def _cut_attempt(a: sparse.csr_matrix, k: int, cut: float, v0: np.ndarray) -> dict:
    """The lowest k eigenpairs from one factor of a - cut I.

    The factor's inertia must count from k to k + ``EXTRA_LEVELS``
    eigenvalues below the cut.  Those are the most negative
    1 / (lambda - cut), so Lanczos returns all of them with
    ``which="SA"``; it stops at ``LANCZOS_TOL``.  Every Ritz value must
    then lie below the cut by more than the Frobenius norm r of the
    residual block, recomputed from the returned pairs, which bounds its
    2-norm: by Kahan's theorem as many eigenvalues as the count lie
    within r of the Ritz values, all below the cut, and the count says
    there are no others, so they are the lowest.  When the count is above
    k, the (k+1)-th Ritz value must also lie more than 2r above the k-th,
    so that the lowest k split from the rest, wherever the cut came
    from.  The returned dict holds the count and the lowest k eigenpairs
    when certified, or the reason it failed: ``"count"`` (out of range),
    ``"not converged"``, ``"interval"`` or ``"split"``.
    """
    lu = _factor(a, cut)
    count = _negative_pivots(lu)
    out = {"cut": cut, "below_cut": count, "factors": 1, "fill": _fill(lu),
           "opinv_applications": 0}
    if count is None or not k <= count <= min(k + EXTRA_LEVELS, a.shape[0] - 1):
        out["reason"] = "count"
        return out
    pairs, out["opinv_applications"] = _lanczos(a, count, cut, "SA", lu, v0, LANCZOS_TOL)
    if pairs is None:
        out["reason"] = "not converged"
        return out
    vals, vecs, residuals = pairs
    bound = float(np.linalg.norm(residuals))
    if vals[-1] + bound >= cut:
        out["reason"] = "interval"
    elif count > k and vals[k] - vals[k - 1] <= 2.0 * bound:
        out["reason"] = "split"
    else:
        out["pairs"] = (vals[:k], vecs[:, :k], residuals[:k])
    return out


def _gershgorin_cut(a: sparse.csr_matrix, k: int, v0: np.ndarray) -> dict:
    """Cut and start vector for a k-level solve of ``a`` from an estimate
    of its lowest k + 1 levels.

    Lanczos runs for k + 1 levels to the loose ``ESTIMATE_TOL`` through
    one factor at ``gershgorin_shift``, released on return.  The cut is
    ``midpoint_cut`` of the estimates and the start vector the sum of the
    lowest k estimated vectors.  No certificate rests on this factor, so
    its inertia is never read.  The dict holds the ``shift``, the ``cut``
    and ``start`` (None when Lanczos does not converge) and the factor's
    work (``_WORK``).
    """
    shift = gershgorin_shift(a)
    lu = _factor(a, shift)
    pairs, applications = _lanczos(a, k + 1, shift, "LM", lu, v0, ESTIMATE_TOL)
    out = {"shift": shift, "cut": None, "start": None, "factors": 1, "fill": _fill(lu),
           "opinv_applications": applications}
    if pairs is not None:
        vals, vecs, _ = pairs
        out["cut"], out["start"] = midpoint_cut(vals, k), np.sum(vecs[:, :k], axis=1)
    return out


def midpoint_cut(eigenvalues, k: int) -> float:
    """Cut for a solve of k levels from k + 1 or more ascending
    eigenvalues of a nearby operator: midway between the k-th and the
    (k+1)-th."""
    return 0.5 * (float(eigenvalues[k - 1]) + float(eigenvalues[k]))


def prolong(coarse: SpectrumResult, op: GridOperator) -> np.ndarray:
    """Node values on ``op``'s lattice of the eigenvectors of ``coarse``.

    ``coarse`` is a solve of the same reduced formulation on a coarser
    lattice of the same box.  Each node of ``op`` takes the multilinear
    interpolant over the coarse cell that holds it; a coarse corner is
    read at its index tuple sorted descending (the symmetric extension of
    the sector state) through ``DofTable.find``, and corners that are not
    dofs (walls and eliminated faces) read a zero row.  The ranks come
    from one table over every coarse index tuple, whose values alone are
    sorted, so no corner is sorted.  On the sector lattice every even
    fine vertex is a coarse vertex and takes its value.  Columns are
    node-value vectors, one per coarse level.
    """
    lattice, n = coarse.operator.lattice, op.dom.n
    size = lattice.size
    every = np.stack(np.unravel_index(np.arange(size**n), (size,) * n), axis=-1)
    rank = DofTable(coarse.operator.dofs, size).find(np.sort(every, axis=-1)[:, ::-1])
    # rank -1 (not a dof) reads the zero row appended last
    vectors = np.vstack([coarse.vectors, np.zeros(coarse.vectors.shape[1])])
    lo = np.clip(np.searchsorted(lattice, op.coords, side="right") - 1, 0, size - 2)
    frac = (op.coords - lattice[lo]) / (lattice[lo + 1] - lattice[lo])
    rest = 1.0 - frac
    values = np.zeros((op.dimension, coarse.vectors.shape[1]))
    for corner in itertools.product((0, 1), repeat=n):
        weight = np.prod(np.where(corner, frac, rest), axis=-1)
        values += weight[:, None] * vectors[rank[_encode(lo + corner, size)]]
    return values


def _start_vector(op: GridOperator, k: int, seed: int, coarse: SpectrumResult | None):
    """ARPACK start vector for a k-level solve of ``op``.

    With a coarser result of a reduced operator, the sum of its lowest k
    eigenvectors prolonged onto ``op``, each mass-scaled and normalized;
    otherwise a seeded random vector.
    """
    if coarse is None or not op.reduced:
        return np.random.default_rng(seed).uniform(-1.0, 1.0, size=op.dimension)
    scaled = prolong(coarse.lowest(k), op) * np.sqrt(op.mass)[:, None]
    return np.sum(scaled / np.linalg.norm(scaled, axis=0), axis=1)


def _coarse_cut(op: GridOperator, k: int, seed: int) -> tuple[float, SpectrumResult] | None:
    """Cut for ``op`` from the same operator on a coarser grid, and that
    grid's solve.

    The coarse grid has ``COARSENING`` times fewer cells per axis and is
    solved for k + 1 levels, taking its own cut from the next coarser
    grid in turn, as long as a grid keeps ``MIN_POINTS`` cells per axis
    and at least k + 3 dofs.  Returns (cut, coarse result), or None when
    there is no such grid or its solve fails.
    """
    points = op.dom.points // COARSENING
    if points < MIN_POINTS:
        return None
    dom = dataclasses.replace(op.dom, points=points)
    build = BUILDERS[op.formulation]
    try:
        coarse = build(dom, op.model) if op.reduced else build(dom, op.model, reduced=False)
        result = solve(coarse, k + 1, seed=seed)
    except (GridTooCoarse, LevelsOutOfRange, NotConverged):
        return None
    return midpoint_cut(result.eigenvalues, k), result


def solve(op: GridOperator, k: int, seed: int = 0, cut: float = None,
          coarse: SpectrumResult = None) -> SpectrumResult:
    """Lowest k eigenpairs of a grid operator, certified by inertia.

    Every solve is certified by ``_cut_attempt``: one LU factor of
    A - cut I, with the cut above the k-th eigenvalue and below the
    (k + ``EXTRA_LEVELS`` + 1)-th, gives both the inertia count and the
    shift-invert Lanczos run.  The cut comes from the caller or else from
    the same operator on a grid ``COARSENING`` times coarser
    (``_coarse_cut``).  Lanczos starts from the lowest k eigenvectors of
    ``coarse``, a solve of the same formulation on a coarser lattice,
    prolonged onto this one (``prolong``); without it, from those of the
    coarser grid the cut came from, or else from a vector fixed by
    ``seed``.  When there is no such cut or it fails its
    certificate, a loose estimate from the Gershgorin bound places the
    cut and the start vector (``_gershgorin_cut``).  It needs a (k+1)-th
    level, so 1 <= k <= dimension - 2.  NotConverged carries every
    attempt when its cut fails too.  Residual norms ||A v - lambda v||
    are reported per pair.

    Every factor, count, Lanczos run and Gershgorin shift of the solve
    works on A and the start vector permuted once into the
    nested-dissection order of ``op``'s dofs (``mesh.dissection_order``);
    the eigenvectors come back in dof order.
    """
    dim = op.dimension
    if not 1 <= k <= dim - 2:
        raise LevelsOutOfRange(f"need 1 <= k <= dimension - 2, got k={k}, dim={dim}")
    if cut is None:
        cut, grid = _coarse_cut(op, k, seed) or (None, None)
        coarse = grid if coarse is None else coarse
    order = dissection_order(op.dofs)
    a = op.matrix[order][:, order]
    a.sort_indices()  # canonical, so that no later call sorts it in place
    v0 = _start_vector(op, k, seed, coarse)[order]
    attempts = [] if cut is None else [_cut_attempt(a, k, float(cut), v0)]
    if not attempts or "pairs" not in attempts[0]:
        estimate = _gershgorin_cut(a, k, v0)
        attempt = {"cut": None, "below_cut": None, "reason": "not converged"}
        if estimate["cut"] is not None:
            attempt = _cut_attempt(a, k, estimate["cut"], estimate["start"])
        attempts.append({**attempt, "shift": estimate["shift"],
                         **{key: estimate[key] + attempt.get(key, 0) for key in _WORK}})
    found = attempts[-1]
    if "pairs" not in found:
        raise NotConverged("no cut gave a certified lowest-k spectrum",
                           diagnostics={"k": k, "attempts": attempts})
    vals, vecs, residuals = found.pop("pairs")
    node_vectors = np.empty_like(vecs)
    node_vectors[order] = vecs
    node_vectors /= np.sqrt(op.mass)[:, None]
    # fix an overall sign deterministically
    for i in range(node_vectors.shape[1]):
        j = int(np.argmax(np.abs(node_vectors[:, i])))
        if node_vectors[j, i] < 0:
            node_vectors[:, i] *= -1
    # every attempt's work on this operator
    work = {key: sum(attempt.pop(key) for attempt in attempts) for key in _WORK}
    certificate = {"path": "fallback" if "shift" in found else "cut",
                   "cut": found["cut"], "below_cut": found["below_cut"],
                   "shift": found.get("shift"), **work,
                   "rejected_cut": attempts[0] if len(attempts) > 1 else None}
    return SpectrumResult(eigenvalues=vals, residuals=residuals, operator=op,
                          vectors=node_vectors, certificate=certificate)
