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
and in the factor n! on their mass.  The full-box loop over all n!
ordering regions is kept for the unreduced operators
(``reduced=False``), which the real-time propagation check compares
against the reduced ones.

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
from .coupling import SQRT2, CouplingModel
from .errors import (
    GridTooCoarse,
    NotConverged,
    UnsupportedCoupling,
)
from .mesh import (
    DofTable,
    all_cells,
    insertion_orders,
    length_pattern_groups,
    local_matrices,
    region_orderings,
    sector_element_mask,
    staggered_lattice,
    uniform_lattice,
    weakly_descending_tuples,
    _encode,
    _vertex_offsets,
)

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

    def symmetry_residual(self, seed: int = 0, trials: int = 5) -> float:
        rng = np.random.default_rng(seed)
        worst = 0.0
        scale = abs(self.matrix).max()
        for _ in range(trials):
            u = rng.normal(size=self.dimension)
            v = rng.normal(size=self.dimension)
            au = self.matrix @ u
            av = self.matrix @ v
            worst = max(worst, abs(v @ au - u @ av) / (scale * np.linalg.norm(u) * np.linalg.norm(v)))
        return worst

    def node_values(self, vector: np.ndarray) -> np.ndarray:
        """Turn a mass-normalized eigenvector into node values."""
        return vector / np.sqrt(self.mass)


class _Accumulator:
    """COO triplet collector."""

    def __init__(self):
        self.rows = []
        self.cols = []
        self.vals = []

    def add(self, rows, cols, vals):
        self.rows.append(np.asarray(rows, dtype=np.int64).ravel())
        self.cols.append(np.asarray(cols, dtype=np.int64).ravel())
        self.vals.append(np.asarray(vals, dtype=float).ravel())

    def matrix(self, dim: int) -> sparse.csr_matrix:
        if not self.rows:
            return sparse.csr_matrix((dim, dim))
        mat = sparse.coo_matrix(
            (np.concatenate(self.vals),
             (np.concatenate(self.rows), np.concatenate(self.cols))),
            shape=(dim, dim),
        )
        return mat.tocsr()


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

    Reduced operators sum over the sector elements of the weakly
    descending cells, with one dof per descending vertex tuple.
    Unreduced ones sum over all M^n n! elements of the box, with one dof
    per vertex, or per (vertex, region) pair on the cracked mesh.
    """
    n = dom.n
    pts = lattice.size
    widths = np.diff(lattice)
    perm_list = insertion_orders(n)
    cracked = formulation == "epsilon_fermi" and not reduced
    region_ranks = None
    if reduced:
        cells = weakly_descending_tuples(pts - 1, n)
        table = DofTable(weakly_descending_tuples(pts, n), pts)
        dof_tuples = table.tuples
    else:
        cells = all_cells(pts - 1, n)
        vertex_keys = np.arange(pts**n, dtype=np.int64)
        if cracked:
            # Enumerate (vertex, region) pairs actually touched by elements.
            keys = []
            for seq, _ in perm_list:
                verts = cells[:, None, :] + _vertex_offsets(seq)[None, :, :]
                pi_rank = _rank_rows(region_orderings(cells, seq), perm_list)
                keys.append((_encode(verts, pts) + pts**n * pi_rank[:, None]).ravel())
            crack_keys = np.unique(np.concatenate(keys))
            vertex_keys = crack_keys % pts**n
            region_ranks = crack_keys // pts**n
        dof_tuples = np.stack(np.unravel_index(vertex_keys, (pts,) * n), axis=-1)
    dim = dof_tuples.shape[0]
    # per-vertex facet weight 1 / (facet_scale sqrt2 a): the sector's Robin
    # term at reduced level; in the full box the plane delta of strength
    # 1/a with coarea factor 1/sqrt2, or the jump penalty |[phi]|^2 / (4 sqrt2 a)
    facet_scale = 2.0 if reduced else 4.0 if cracked else 1.0

    mass_diag = np.zeros(dim)
    drop_face_dofs = np.zeros(dim, dtype=bool)
    stiff = sparse.csr_matrix((dim, dim))
    facet_acc = _Accumulator()

    def dof_ids(vertex_tuples, pi_rank=None):
        """Map element vertex tuples (K, n+1, n) to dof indices (K, n+1)."""
        if reduced:  # sector element vertices are descending already
            return table.rank(vertex_tuples.reshape(-1, n)).reshape(vertex_tuples.shape[:2])
        keys = _encode(vertex_tuples, pts)
        if cracked:
            return np.searchsorted(crack_keys, keys + pts**n * pi_rank[:, None])
        return keys

    for seq, _perm in perm_list:
        offs = _vertex_offsets(seq)
        batch = cells[sector_element_mask(cells, seq)] if reduced else cells
        if batch.shape[0] == 0:
            continue
        pis = region_orderings(batch, seq)
        pi_rank = _rank_rows(pis, perm_list) if cracked else None

        seq_acc = _Accumulator()
        for lengths, rows in length_pattern_groups(batch, widths):
            vol, stiff_local = local_matrices(seq, lengths)
            group = batch[rows]
            verts = group[:, None, :] + offs[None, :, :]
            ids = dof_ids(verts, pi_rank[rows] if cracked else None)
            k = group.shape[0]
            pp, qq = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
            seq_acc.add(ids[:, pp.ravel()], ids[:, qq.ravel()],
                        np.broadcast_to(stiff_local.ravel(), (k, (n + 1) ** 2)))
            np.add.at(mass_diag, ids.ravel(),
                      np.full(ids.size, vol / (n + 1)))
        stiff = stiff + seq_acc.matrix(dim)

        # Coincidence facets: adjacent tied axes in the insertion order.
        for m in range(n - 1):
            p_axis, q_axis = seq[m], seq[m + 1]
            if p_axis > q_axis:
                continue  # count each geometric facet once
            tied = batch[:, p_axis] == batch[:, q_axis]
            if not np.any(tied):
                continue
            fcells = batch[tied]
            fpis = pis[tied]
            # rank of the colliding pair in the region's descending order
            pos = np.argsort(fpis, axis=-1, kind="stable")
            jstar = pos[:, p_axis] + 1  # 1-based face index

            offs_f = np.delete(offs, m + 1, axis=0)
            verts = fcells[:, None, :] + offs_f[None, :, :]
            if cracked:
                ids = dof_ids(verts, _rank_rows(fpis, perm_list))
                mirror_pis = _swap_entries(fpis, p_axis, q_axis)
                ids_minus = dof_ids(verts, _rank_rows(mirror_pis, perm_list))
            else:
                ids = dof_ids(verts)

            for j in range(1, n):
                sel = jstar == j
                if not np.any(sel):
                    continue
                entry = model.entry(j)
                fverts = verts[sel]
                coords_v = lattice[fverts]
                if entry.kind == "neumann":
                    continue
                if entry.kind == "dirichlet":
                    drop = ids[sel] if not cracked else np.concatenate(
                        [ids[sel].ravel(), ids_minus[sel].ravel()])
                    drop_face_dofs[np.unique(drop)] = True
                    continue
                areas = _facet_areas(fverts, lattice)
                if entry.kind == "robin":
                    a_v = np.full(coords_v.shape[:2], entry.value)
                else:  # scale-invariant a = g r, pinned where r vanishes
                    r = hyperradius_batch(coords_v)
                    a_v = entry.value * r
                    pinned = r < 1e-12 * max(1.0, dom.length)
                    if np.any(pinned):
                        drop_face_dofs[np.unique(ids[sel][pinned])] = True
                        if cracked:
                            drop_face_dofs[np.unique(ids_minus[sel][pinned])] = True
                    a_v = np.where(pinned, np.inf, a_v)
                coef = 1.0 / (facet_scale * SQRT2 * a_v)
                share = coef * (areas[:, None] / n)
                if cracked:
                    # the jump penalty couples the two one-sided values
                    for rows_ids, cols_ids, sgn in (
                        (ids[sel], ids[sel], 1.0),
                        (ids[sel], ids_minus[sel], -1.0),
                        (ids_minus[sel], ids[sel], -1.0),
                        (ids_minus[sel], ids_minus[sel], 1.0),
                    ):
                        facet_acc.add(rows_ids, cols_ids, sgn * share)
                else:
                    facet_acc.add(ids[sel], ids[sel], share)

    facets = facet_acc.matrix(dim)
    hamiltonian = 0.5 * stiff + facets
    coords = lattice[dof_tuples]

    # potential on the lumped diagonal
    pot = dom.potential(coords)
    hamiltonian = hamiltonian + sparse.diags(pot * mass_diag)

    # hard walls and face eliminations
    keep = ~drop_face_dofs
    wall = (dof_tuples == 0) | (dof_tuples == pts - 1)
    keep &= ~np.any(wall, axis=-1)
    idx = np.nonzero(keep)[0]
    hamiltonian = hamiltonian[idx][:, idx].tocsr()
    mass = mass_diag[idx]
    if np.any(mass <= 0):
        raise GridTooCoarse("degenerate lumped mass; refine the grid")

    inv_sqrt = sparse.diags(1.0 / np.sqrt(mass))
    normalized = (inv_sqrt @ hamiltonian @ inv_sqrt).tocsr()
    normalized.sum_duplicates()
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


def _facet_areas(fverts: np.ndarray, lattice: np.ndarray) -> np.ndarray:
    """Areas of facet simplices given vertex index tuples (K, n, n)."""
    coords = lattice[fverts]
    edges = coords[:, 1:, :] - coords[:, :1, :]
    gram = edges @ np.swapaxes(edges, 1, 2)
    d = edges.shape[1]
    return np.sqrt(np.maximum(np.linalg.det(gram), 0.0)) / math.factorial(d)


def _rank_rows(pis: np.ndarray, perm_list) -> np.ndarray:
    """Rank permutation rows by lexicographic order of images, which is
    the order of ``itertools.permutations``."""
    n = pis.shape[1]
    table = np.sort(_encode(np.asarray([p.images for _, p in perm_list]), n))
    return np.searchsorted(table, _encode(pis, n))


def _swap_entries(pis: np.ndarray, a: int, b: int) -> np.ndarray:
    out = pis.copy()
    mask_a = pis == a
    mask_b = pis == b
    out[mask_a] = b
    out[mask_b] = a
    return out


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


def solve(op: GridOperator, k: int, seed: int = 0, with_vectors: bool = True,
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
    node_vectors = None
    if with_vectors:
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
