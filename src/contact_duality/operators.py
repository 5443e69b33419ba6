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
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .coordinates import hyperradius_batch
from .coupling import CouplingModel
from .errors import (
    GridTooCoarse,
    NotConverged,
    UnsupportedCoupling,
)
from .mesh import (
    DofTable,
    all_cells,
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
# here by name; ROADMAP item 1 drops them with that patching.
from .mesh import length_pattern_groups, sector_element_mask  # noqa: F401

#: Minimum cells per axis so each face keeps a few interior layers.
MIN_POINTS = 6

#: Spectral work is desk scale; larger n explodes as (grid)^n.
MAX_SPECTRAL_N = 4


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
        if not 2 <= self.n <= MAX_SPECTRAL_N:
            raise ValueError(f"n must be between 2 and {MAX_SPECTRAL_N}")
        if self.length <= 0:
            raise ValueError("box length must be positive")
        if self.points < MIN_POINTS:
            raise GridTooCoarse(f"need at least {MIN_POINTS} cells per axis")
        if self.confinement not in ("box", "harmonic"):
            raise ValueError("confinement must be 'box' or 'harmonic'")
        if self.confinement == "harmonic" and self.omega <= 0:
            raise ValueError("harmonic confinement needs omega > 0")

    @property
    def spacing(self) -> float:
        return self.length / self.points

    def refined(self, factor: int) -> "DomainSpec":
        return DomainSpec(self.n, self.length, self.points * factor,
                          self.confinement, self.omega, self.offset)

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
    reduced: bool = True
    region_ranks: np.ndarray = None  # cracked operators only

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def symmetry_residual(self, seed: int = 0) -> float:
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


def _check_model(formulation: str, model: CouplingModel, n: int):
    if model.n != n:
        raise UnsupportedCoupling(f"model has {model.n - 1} entries, need {n - 1}")
    for j in range(1, n):
        kind = model.entry(j).kind
        if formulation == "delta_bose" and kind == "dirichlet":
            raise UnsupportedCoupling(
                "delta builder needs finite strength 1/a; the hard-core limit "
                "is covered by the sector/Girardeau route"
            )
        if formulation == "epsilon_fermi" and kind == "neumann":
            raise UnsupportedCoupling(
                "epsilon builder needs finite strength a; the free-boson limit "
                "is covered by the sector route"
            )
        if kind == "scale" and n == 2:
            raise UnsupportedCoupling("scale-invariant coupling requires n >= 3")


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
    region_ranks = None
    cells = weakly_descending_tuples(pts - 1, n) if reduced else all_cells(pts - 1, n)
    cells, order_of = element_array(cells, orders, sector=reduced)
    seqs = orders[order_of]

    # dof of every element vertex, one vertex position at a time
    ids = np.empty((cells.shape[0], n + 1), dtype=np.int64)
    offsets = np.stack([_vertex_offsets(tuple(seq)) for seq in orders])
    if reduced:
        table = DofTable(weakly_descending_tuples(pts, n), pts)
        for k in range(n + 1):  # sector element vertices are descending already
            ids[:, k] = table.rank(cells + offsets[order_of, k])
        dof_tuples = table.tuples
    else:
        for k in range(n + 1):
            ids[:, k] = _encode(cells + offsets[order_of, k], pts)
        vertex_keys = np.arange(pts**n, dtype=np.int64)
        if cracked:
            # the (vertex, region) pairs the elements touch
            pi_rank = permutation_ranks(region_orderings(cells, seqs))
            ids += pts**n * pi_rank[:, None]
            crack_keys, ids = np.unique(ids, return_inverse=True)
            ids = ids.reshape(cells.shape[0], n + 1)
            vertex_keys = crack_keys % pts**n
            region_ranks = crack_keys // pts**n
        dof_tuples = np.stack(np.unravel_index(vertex_keys, (pts,) * n), axis=-1)
    dim = dof_tuples.shape[0]
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
            ids_minus = np.searchsorted(crack_keys, vertex_keys[ids_f]
                                        + pts**n * permutation_ranks(mirror)[:, None])

        for j in range(1, n):
            sel = jstar == j
            if not np.any(sel):
                continue
            entry = model.entry(j)
            if entry.kind == "neumann":
                continue
            if entry.kind == "dirichlet":
                drop = ids_f[sel] if not cracked else np.concatenate(
                    [ids_f[sel].ravel(), ids_minus[sel].ravel()])
                drop_face_dofs[np.unique(drop)] = True
                continue
            if entry.kind == "robin":
                a_v = entry.value
            else:  # scale-invariant a = g r, pinned where r vanishes
                r = hyperradius_batch(lattice[dof_tuples[ids_f[sel]]])
                a_v = entry.value * r
                pinned = r < 1e-12 * max(1.0, dom.length)
                if np.any(pinned):
                    drop_face_dofs[np.unique(ids_f[sel][pinned])] = True
                    if cracked:
                        drop_face_dofs[np.unique(ids_minus[sel][pinned])] = True
                a_v = np.where(pinned, np.inf, a_v)
            share = vol_per_h[sel][:, None] / (facet_scale * a_v)
            if cracked:  # the jump penalty on the two one-sided values
                acc.edges(ids_f[sel], ids_minus[sel], share)
            else:
                acc.diagonal(ids_f[sel], share)
    del cells, seqs, order_of, ids, elem_vol, w  # before the CSR conversion's peak

    coords = lattice[dof_tuples]
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
    _check_model("sector", model, dom.n)
    lattice = uniform_lattice(dom.length, dom.points, dom.offset)
    return _assemble(lattice, dom, model, "sector", reduced=True)


def build_delta_bose(dom: DomainSpec, model: CouplingModel,
                     reduced: bool = True) -> GridOperator:
    """Full-box Hamiltonian with plane delta terms of strength 1/a_j.

    Reduced (the default) to the exchange-symmetric subspace, where it is
    the sector form on the staggered lattice."""
    _check_model("delta_bose", model, dom.n)
    lattice = staggered_lattice(dom.length, dom.points, dom.offset)
    return _assemble(lattice, dom, model, "delta_bose", reduced=reduced)


def build_epsilon_fermi(dom: DomainSpec, model: CouplingModel,
                        reduced: bool = True) -> GridOperator:
    """Full-box Hamiltonian cracked along coincidence facets with the jump
    penalty of strength a_j.

    Reduced (the default) to the antisymmetric subspace, where it is the
    sector form on the staggered lattice."""
    _check_model("epsilon_fermi", model, dom.n)
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

    ``shift`` is the sigma of the accepted shift-invert solve and
    ``top_shift`` a point just above the highest reported eigenvalue;
    ``below_shift`` and ``below_top`` count the eigenvalues below each
    by Sylvester inertia.  A certified result has 0 and k.
    ``rejected_shift`` is the caller's sigma when it failed the
    certificate and the Gershgorin shift was used instead.
    """

    eigenvalues: np.ndarray
    residuals: np.ndarray
    operator: GridOperator
    vectors: np.ndarray = None  # columns are node-value eigenvectors
    shift: float = None
    top_shift: float = None
    below_shift: int = None
    below_top: int = None
    rejected_shift: float = None

    def __post_init__(self):
        order = np.argsort(self.eigenvalues)
        self.eigenvalues = np.asarray(self.eigenvalues)[order]
        self.residuals = np.asarray(self.residuals)[order]
        if self.vectors is not None:
            self.vectors = np.asarray(self.vectors)[:, order]

    def certificate(self) -> dict:
        """Shifts and inertia counts, as plain JSON values."""
        return {"shift": self.shift, "top_shift": self.top_shift,
                "below_shift": self.below_shift, "below_top": self.below_top,
                "rejected_shift": self.rejected_shift}


def gershgorin_shift(a: sparse.csr_matrix) -> float:
    """A shift safely below the Gershgorin lower bound of ``a``."""
    diag = a.diagonal()
    row_abs = np.asarray(abs(a).sum(axis=1)).ravel()
    lower = float(np.min(diag - (row_abs - np.abs(diag))))
    return lower - 0.1 * max(1.0, abs(lower))


def _factor(a: sparse.csr_matrix, shift: float):
    """LU factor of a - shift I under a symmetric fill-reducing ordering.

    Diagonal pivoting keeps the row permutation equal to the column one,
    so the factor is P (a - shift I) P^T = L U and U's diagonal carries
    the inertia.  None if the factor is singular.
    """
    shifted = (a - shift * sparse.identity(a.shape[0], format="csr")).tocsc()
    try:
        return splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                    options={"SymmetricMode": True})
    except RuntimeError:
        return None


def _negative_pivots(lu) -> int | None:
    if lu is None or not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return int(np.count_nonzero(lu.U.diagonal() < 0))


def inertia_count(a: sparse.csr_matrix, shift: float) -> int | None:
    """Number of eigenvalues of symmetric ``a`` below ``shift``.

    Sylvester's law of inertia on the symmetric LU factor of
    a - shift I: the count of negative pivots.  None when the factor is
    singular or its pivoting was not a symmetric permutation.
    """
    return _negative_pivots(_factor(a, shift))


def _shift_invert(a: sparse.csr_matrix, k: int, shift: float, v0: np.ndarray) -> dict:
    """Shift-invert Lanczos at ``shift`` with its inertia certificate.

    One factor serves both the inertia count at the shift and every
    solve of the Lanczos run; it is released before the second factor,
    at a point just above the highest eigenvalue found, is made.  The
    returned dict holds the counts, and the eigenpairs when certified.
    """
    lu = _factor(a, shift)
    out = {"shift": shift, "below_shift": _negative_pivots(lu)}
    if out["below_shift"] != 0:
        return out
    opinv = LinearOperator(a.shape, matvec=lu.solve, dtype=a.dtype)
    try:
        vals, vecs = eigsh(a, k=k, sigma=shift, which="LM", v0=v0, tol=0, OPinv=opinv)
    except ArpackNoConvergence as err:
        raise NotConverged("eigensolver did not converge",
                           diagnostics={"eigenvalues": getattr(err, "eigenvalues", None),
                                        "shift": shift})
    del lu, opinv
    residuals = np.linalg.norm(a @ vecs - vecs * vals[None, :], axis=0)
    top = float(np.max(vals))
    out["top_shift"] = top + max(10.0 * float(np.max(residuals)),
                                 1e-9 * max(1.0, abs(top)))
    out["below_top"] = inertia_count(a, out["top_shift"])
    if out["below_top"] == k:
        out["pairs"] = (vals, vecs, residuals)
    return out


def solve(op: GridOperator, k: int, seed: int = 0,
          shift: float = None) -> SpectrumResult:
    """Lowest k eigenpairs of a grid operator, certified by inertia.

    Shift-invert Lanczos at ``shift`` (a point just below the lowest
    eigenvalue, e.g. from a coarser grid) or, without one, below the
    Gershgorin lower bound.  The result is accepted only if Sylvester
    inertia counts no eigenvalue below the shift and exactly k below a
    point just above the k-th eigenvalue; a caller's shift that fails
    is retried once from the Gershgorin bound, and NotConverged carries
    the counts of every attempt when that fails too.  A fixed seeded
    start vector makes repeated solves bit-reproducible.  Residual norms
    ||A v - lambda v|| are reported per pair.
    """
    a = op.matrix
    dim = a.shape[0]
    if not 1 <= k < dim:
        raise ValueError(f"need 1 <= k < dimension, got k={k}, dim={dim}")
    v0 = np.random.default_rng(seed).uniform(-1.0, 1.0, size=dim)
    shifts = [gershgorin_shift(a)] if shift is None else [float(shift), gershgorin_shift(a)]
    attempts = []
    for sigma in shifts:
        found = _shift_invert(a, k, sigma, v0)
        if "pairs" in found:
            break
        attempts.append(found)
    else:
        raise NotConverged("no shift gave a certified lowest-k spectrum",
                           diagnostics={"k": k, "attempts": attempts})
    vals, vecs, residuals = found["pairs"]
    node_vectors = vecs / np.sqrt(op.mass)[:, None]
    # fix an overall sign deterministically
    for i in range(node_vectors.shape[1]):
        j = int(np.argmax(np.abs(node_vectors[:, i])))
        if node_vectors[j, i] < 0:
            node_vectors[:, i] *= -1
    return SpectrumResult(eigenvalues=vals, residuals=residuals, operator=op,
                          vectors=node_vectors, shift=sigma,
                          top_shift=found["top_shift"], below_shift=found["below_shift"],
                          below_top=found["below_top"],
                          rejected_shift=attempts[0]["shift"] if attempts else None)
