"""Finite element solver for the smoothened complete electrode model.

The coupled unknown is the nodal interior potential together with the
electrode potentials expressed in an orthonormal mean-free basis, which
removes the joint additive constant and makes the system matrix symmetric
positive definite. One direct symmetric factorization per conductivity pair
is shared by every subsequent solve, including all perturbation solves.

The pattern of the system matrix is fixed by the electrode layout. A
:class:`SystemPlan`, built once per layout, records where every summed cell
and facet entry and every electrode term lands in it, so each system and
each perturbation's nodal block is one fill of sparse data in place, with
the bits that summing and converting sparse blocks gave.

Every cell's stiffness matrix is one broadcast product per axis over the
mesh's axis-major gradients, ``(w * g_i) * g_j`` with ``w = volume *
sigma``, the axes added in order to +0.0: the product and summation order
of ``np.einsum("c,cid,cjd->cij", ...)``, so its bits.

The fill-reducing ordering comes from ``splu``'s own MMD ordering of
``K.T + K``. The plan keeps that of the last pattern it factored, and a
system of the same compressed pattern is factored pre-permuted in its
natural order: the same elimination, so the same factor, pivots and
solutions, bit for bit, without computing the ordering again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import ElectrodeLayout
from .model import ConductivityPair, check_finite
from .scatter import compressed


class IndefiniteSystemError(RuntimeError):
    """The assembled system is not positive definite.

    Signals an inadmissible conductivity pair upstream, e.g. a contact
    density vanishing identically on some electrode.
    """


# ---------------------------------------------------------------------------
# Current bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CurrentBasis:
    """Orthonormal and physical bases of the mean-free current space.

    ``B`` holds the Gram-Schmidt orthonormalization of e_m - e_M in index
    order; ``Bhat`` the pairwise patterns e_m - e_{m+1} used by measurement
    devices. Both pseudo-inverses annihilate the constant vector.
    """

    B: np.ndarray  # (M, M-1), orthonormal columns
    Bhat: np.ndarray  # (M, M-1)
    B_pinv: np.ndarray  # (M-1, M)
    Bhat_pinv: np.ndarray  # (M-1, M)

    @property
    def n_electrodes(self) -> int:
        return self.B.shape[0]


@cache
def current_basis(n_electrodes: int) -> CurrentBasis:
    """The canonical bases for ``n_electrodes`` electrodes, built once per count.

    The arrays are read-only, so every caller can share them.
    """
    M = n_electrodes
    if M < 2:
        raise ValueError("at least two electrodes are required")
    raw = np.zeros((M, M - 1))
    for m in range(M - 1):
        raw[m, m] = 1.0
        raw[M - 1, m] = -1.0
    B = np.zeros_like(raw)
    for m in range(M - 1):
        v = raw[:, m].copy()
        for j in range(m):
            v -= (B[:, j] @ raw[:, m]) * B[:, j]
        B[:, m] = v / np.linalg.norm(v)
    Bhat = np.zeros((M, M - 1))
    for m in range(M - 1):
        Bhat[m, m] = 1.0
        Bhat[m + 1, m] = -1.0
    B_pinv, Bhat_pinv = np.linalg.pinv(B), np.linalg.pinv(Bhat)
    for arr in (B, Bhat, B_pinv, Bhat_pinv):
        arr.setflags(write=False)
    return CurrentBasis(B=B, Bhat=Bhat, B_pinv=B_pinv, Bhat_pinv=Bhat_pinv)


# ---------------------------------------------------------------------------
# Solutions
# ---------------------------------------------------------------------------


class SolutionSet:
    """A batch of forward solutions stored column-wise.

    Each column holds an interior potential and its zero-mean electrode
    potential vector; a single solution is a batch of one. The column layout
    keeps the many-right-hand-side solves and the bilinear form evaluations
    fast.
    """

    def __init__(self, u: np.ndarray, U: np.ndarray):
        self.u = u.reshape(len(u), -1)
        self.U = U.reshape(len(U), -1)

    def __len__(self) -> int:
        return self.u.shape[1]

    def __getitem__(self, index: int | slice) -> "SolutionSet":
        """The selected columns as a batch; an integer selects a batch of one."""
        return SolutionSet(self.u[:, index], self.U[:, index])

    def __add__(self, other: "SolutionSet") -> "SolutionSet":
        return SolutionSet(self.u + other.u, self.U + other.U)

    def __mul__(self, s: float) -> "SolutionSet":
        return SolutionSet(s * self.u, s * self.U)

    __rmul__ = __mul__

    def coefficients(self, basis: CurrentBasis) -> np.ndarray:
        """Electrode potentials in the orthonormal basis, (M-1, k)."""
        return basis.B.T @ self.U


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


class PerturbationOperator:
    """Sesquilinear form with a fixed perturbation pair in place of (sigma, zeta).

    Precomputes the sparse nodal block ``A`` (stiffness plus contact, from
    the layout's :class:`SystemPlan`), the coupling ``Rmat`` (n, M) and the
    conductances ``Dvec`` (M,) for one perturbation so that repeated
    right-hand side builds and bilinear form evaluations are cheap. Every
    block is built, whatever its input.
    """

    def __init__(self, system: "AssembledSystem", eta: ConductivityPair):
        self.system = system
        layout = system.layout
        cellmats, fmats, self.Rmat, self.Dvec = _form_terms(layout, eta)
        self.A = layout.system_plan.nodal(cellmats, fmats)

    def bform(self, left: SolutionSet, right: SolutionSet) -> np.ndarray:
        """Gram matrix of the perturbed form over two solution batches.

        Entry (i, j) is
        integral(dsigma grad u_i . grad u_j) + integral(dzeta (U_i-u_i)(U_j-u_j)).
        """
        t1 = left.u.T @ (self.A @ right.u)
        t2 = left.u.T @ (self.Rmat @ right.U)
        t3 = left.U.T @ (self.Rmat.T @ right.u)
        t4 = left.U.T @ (self.Dvec[:, None] * right.U)
        return t1 - t2 - t3 + t4

    def rhs(self, inputs: SolutionSet) -> np.ndarray:
        """Load vectors of -B_eta(input, .) in the reduced unknowns."""
        B = self.system.basis.B
        f_u = self.A @ inputs.u - self.Rmat @ inputs.U
        f_c = B.T @ (self.Dvec[:, None] * inputs.U - self.Rmat.T @ inputs.u)
        return -np.vstack([f_u, f_c])

    def apply(self, inputs: SolutionSet) -> SolutionSet:
        """Auxiliary solution operator: solve B_tau(w, v) = -B_eta(input, v).

        This is the building block of every derivative of the forward map; the
        factorization of the system is reused.
        """
        system = self.system
        return system.split(system.solve(self.rhs(inputs)))


def _cell_matrices(mesh, sigma: np.ndarray) -> np.ndarray:
    """The stiffness matrix of every cell for the per-cell field ``sigma``, (n_cells, d+1, d+1).

    Entry (c, i, j) is ``sum_d (w_c g_cid) g_cjd`` with ``w = volume * sigma``:
    per axis d the product ``(w * g_i) * g_j``, the axes added in order to
    +0.0. That is the product and summation order of
    ``np.einsum("c,cid,cjd->cij", w, grads, grads)``, so the bits are its
    bits, zeros of either sign included. Each axis is one broadcast product
    over rows of all cells (:attr:`~eitrev.mesh.SimplicialMesh.gradient_axes`).
    """
    w = mesh.cell_volumes * sigma
    axes = mesh.gradient_axes
    out = np.zeros((axes.shape[1], axes.shape[1], len(w)))
    for g in axes:
        out += (w * g)[:, None, :] * g[None, :, :]
    return out.transpose(2, 0, 1).copy()


def _form_terms(layout: ElectrodeLayout, pair: ConductivityPair) -> tuple:
    """The cell matrices, facet matrices, ``R`` (n, M) and ``D`` (M,) of the form of ``pair``.

    Every cell and every electrode facet takes part. Where ``pair`` is zero,
    an element adds only zeros of either sign: they leave a non-zero partial
    sum as it is and the other terms in their order, a zero partial sum plus
    the next term is that term, and an entry whose sum is zero is dropped
    either way. So every result equals sums over the other elements alone,
    bit for bit.
    """
    sigma = np.asarray(pair.sigma, dtype=float)
    zeta = np.asarray(pair.zeta, dtype=float)
    if sigma.shape != (layout.mesh.n_cells,):
        raise ValueError("sigma perturbation must be a per-cell field")
    if zeta.shape != layout.equad_weights.shape:
        raise ValueError("zeta perturbation must sample the facet quadrature")
    fmats, R, D = _contact_terms(layout, layout.equad_weights * zeta)
    return _cell_matrices(layout.mesh, sigma), fmats, R, D


def _contact_terms(
    layout: ElectrodeLayout, wz: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-facet matrices, ``R`` (n, M) and ``D`` (M,) of the weighted density ``wz``."""
    bary = layout.facet_bary
    fmats = np.einsum("fq,qa,qb->fab", wz, bary, bary)
    fvals = np.einsum("fq,qa->fa", wz, bary)
    vertices, electrode = layout.efacet_vertices, layout.efacet_electrode
    R = np.zeros((layout.mesh.n_vertices, layout.n_electrodes))
    for a in range(vertices.shape[1]):
        np.add.at(R, (vertices[:, a], electrode), fvals[:, a])
    D = np.zeros(layout.n_electrodes)
    np.add.at(D, electrode, wz.sum(axis=1))
    return fmats, R, D


def _splu(K: sp.csc_matrix, permc_spec: str):
    """The factor of ``K`` in the column order ``permc_spec``, pivoting on the diagonal."""
    return spla.splu(
        K, permc_spec=permc_spec, diag_pivot_thresh=0.0, options={"SymmetricMode": True}
    )


class Ordering:
    """The fill-reducing ordering of one compressed CSC pattern, and how to apply it.

    ``perm`` is ``splu``'s column permutation of a matrix ``K`` of the
    pattern, taken when its rows were permuted alike: new row and column
    ``perm[i]`` are old row and column ``i``. :meth:`permuted` gives
    ``P K P.T`` for any matrix of the pattern, one gather of its data, and
    factoring that in natural order repeats ``K``'s elimination exactly.
    SuperLU's column search visits each column's rows in their stored
    order, so each permuted column keeps ``K``'s row order, not sorted, and
    the matrix is flagged canonical, since ``splu`` would otherwise sort it.
    The factor, its pivots in elimination order and every solve are then
    those of ``K``'s own factor, bit for bit. All arrays are read-only.
    """

    def __init__(self, K: sp.csc_matrix, perm: np.ndarray):
        self.indptr, self.indices = K.indptr.copy(), K.indices.copy()
        self.perm, self.inverse = perm.copy(), np.argsort(perm)
        counts = np.diff(K.indptr)[self.inverse]
        self.perm_indptr = np.concatenate([[0], np.cumsum(counts)]).astype(K.indptr.dtype)
        starts = K.indptr[self.inverse] - self.perm_indptr[:-1]
        self.gather = np.repeat(starts, counts) + np.arange(K.nnz)
        self.perm_indices = perm[K.indices[self.gather]].astype(K.indices.dtype)
        for arr in vars(self).values():
            arr.setflags(write=False)

    def fits(self, K: sp.csc_matrix) -> bool:
        """Whether ``K`` has this ordering's compressed pattern."""
        return np.array_equal(K.indptr, self.indptr) and np.array_equal(K.indices, self.indices)

    def permuted(self, K: sp.csc_matrix) -> sp.csc_matrix:
        """``P K P.T`` for a ``K`` of this pattern, each column's rows in ``K``'s order."""
        Kp = sp.csc_matrix((K.data[self.gather], self.perm_indices, self.perm_indptr), K.shape)
        Kp.has_canonical_format = True
        return Kp


class SystemPlan:
    """Where every term of the system matrix lands, for one electrode layout.

    The system matrix ``K = [[A, -R B], [-(R B).T, B.T diag(D) B]]`` couples
    the n nodal unknowns with the M - 1 electrode coefficients in the basis
    ``B``. Its pattern is fixed by the layout:

    - the nodal block ``A`` stores the entries of the cell plan and those of
      the facet plan;
    - ``-R B`` stores entry (r, c) where vertex r lies on a facet of an
      electrode m with ``B[m, c] != 0``; for a finite ``R`` every other
      entry is a sum of zeros of either sign;
    - ``B.T diag(D) B`` is dense.

    The plan records where each summed cell entry, each summed facet entry,
    each coupling entry and its mirror, and each ``B.T diag(D) B`` entry lands
    in the CSC data of ``K``, and where each summed cell and facet entry lands
    in the CSR data of ``A`` alone. Filling in the sums, facet added to cell
    where both patterns meet, and dropping every entry that is zero gives,
    bit for bit, what scipy gave for the sum of the cell and the facet CSR
    matrices (it adds the two entries where both are stored, and one entry
    plus zero is that entry) and for a COO to CSC conversion of the blocks'
    non-zero entries. Every array of the plan is read-only.

    The plan also factors the systems of its layout (:meth:`factor`) and
    keeps the fill-reducing ordering of the last compressed pattern it
    factored. That is memoization only: dropping entries that sum to zero
    can change the pattern from one point to the next, and a system of
    another pattern is factored and ordered as if none were kept.
    """

    def __init__(self, layout: ElectrodeLayout):
        n, M = layout.mesh.n_vertices, layout.n_electrodes
        self.cell_plan, self.facet_plan = layout.mesh.cell_plan, layout.facet_plan
        keys = [
            np.repeat(np.arange(n), np.diff(plan.indptr)) * n + plan.indices
            for plan in (self.cell_plan, self.facet_plan)
        ]
        union, at = np.unique(np.concatenate(keys), return_inverse=True)
        rows, cols = np.divmod(union, n)
        self.cell_at, self.facet_at = np.split(at, [len(keys[0])])
        dtype = self.cell_plan.indptr.dtype
        self.nodal_indices = cols.astype(dtype)
        self.nodal_indptr = np.searchsorted(rows, np.arange(n + 1)).astype(dtype)

        touched = np.zeros((n, M), dtype=np.intp)
        touched[layout.efacet_vertices, layout.efacet_electrode[:, None]] = 1
        self.coupling = np.nonzero(touched @ (current_basis(M).B != 0))
        cr, cc = self.coupling
        dr, dc = np.divmod(np.arange((M - 1) ** 2), M - 1)
        term_rows = np.concatenate([rows, cr, cc + n, dr + n])
        term_cols = np.concatenate([cols, cc + n, cr, dc + n])
        # each term's id, carried through scipy's own conversion, lands where the term does
        probe = sp.csc_matrix(
            (np.arange(len(term_rows), dtype=float), (term_rows, term_cols)),
            shape=(n + M - 1,) * 2,
        )
        place = np.empty(len(term_rows), dtype=np.intp)
        place[probe.data.astype(np.intp)] = np.arange(len(place))
        self.nodal_place, self.upper, self.lower, self.conductance = np.split(
            place, np.cumsum([len(rows), len(cr), len(cr)])
        )
        self.indices, self.indptr, self.shape = probe.indices, probe.indptr, probe.shape
        for arr in (*self.coupling, *vars(self).values()):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
        self._ordering = None

    def factor(self, K: sp.csc_matrix) -> tuple:
        """``splu`` of ``K``, and the :class:`Ordering` its factor works in.

        The ordering is ``None`` when the factor is of ``K`` itself: the
        first system and any of a pattern other than the last one's. Its
        MMD ordering is then kept for the next system, if the factor pivots
        on the diagonal (every positive definite system does).
        """
        ordering = self._ordering
        if ordering is not None and ordering.fits(K):
            return _splu(ordering.permuted(K), "NATURAL"), ordering
        lu = _splu(K, "MMD_AT_PLUS_A")
        if np.array_equal(lu.perm_r, lu.perm_c):
            self._ordering = Ordering(K, lu.perm_c)
        return lu, None

    def _nodal_sums(self, cellmats: np.ndarray, fmats: np.ndarray) -> np.ndarray:
        data = np.zeros(len(self.nodal_indices))
        data[self.cell_at] = self.cell_plan.sums(cellmats)
        data[self.facet_at] += self.facet_plan.sums(fmats)
        return data

    def nodal(self, cellmats: np.ndarray, fmats: np.ndarray) -> sp.csr_matrix:
        """The nodal block of per-cell and per-facet matrices, entries that sum to zero dropped."""
        data = self._nodal_sums(cellmats, fmats)
        return sp.csr_matrix(
            compressed(data, self.nodal_indices, self.nodal_indptr), shape=self.cell_plan.shape
        )

    def matrix(
        self, cellmats: np.ndarray, fmats: np.ndarray, RB: np.ndarray, DB: np.ndarray
    ) -> sp.csc_matrix:
        """The system matrix of per-cell and per-facet matrices, ``R B`` and ``B.T diag(D) B``.

        An entry that sums to zero is dropped, and the result owns its arrays.
        """
        data = np.empty(len(self.indices))
        data[self.nodal_place] = self._nodal_sums(cellmats, fmats)
        data[self.upper] = data[self.lower] = -RB[self.coupling]
        data[self.conductance] = DB.ravel()
        return sp.csc_matrix(compressed(data, self.indices, self.indptr), shape=self.shape)


# Labels per batched product in the block Gram kernels. It bounds their
# buffer, CHUNK * n * k floats for n vertices and k solutions, to a few
# times the temporaries of one perturbation's form.
CHUNK = 4


def _sparse_grams(
    u: np.ndarray, n_labels: int, label: np.ndarray, row: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """``u.T @ X_i`` for each label ``i``, (n_labels, k, k), ``u`` of shape (n, k).

    ``X_i`` is (n, k), +0.0 save the rows ``row[e]`` of the ``e`` with
    ``label[e] == i``, which hold ``values[e]``; ``label`` is ascending. The
    products are batched ``CHUNK`` labels at a time through one zero buffer
    of the dense ``(CHUNK, n, k)`` operand, whose written rows are reset to
    +0.0 after each product. Each operand has the bits and the shape of a
    fresh dense one, so each product does too.
    """
    n, k = u.shape
    out = np.empty((n_labels, k, k))
    buffer = np.zeros((min(CHUNK, n_labels), n, k))
    for lo in range(0, n_labels, CHUNK):
        hi = min(lo + CHUNK, n_labels)
        a, b = np.searchsorted(label, (lo, hi))
        at = (label[a:b] - lo, row[a:b])
        buffer[at] = values[a:b]
        np.matmul(u.T, buffer[: hi - lo], out=out[lo:hi])
        buffer[at] = 0.0
    return out


def _stacked_grams(stack, local: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``u.T @ (block @ u)`` for each block of a :class:`~eitrev.scatter.StackedPlan`, (L, k, k)."""
    product = stack.assemble(local) @ u
    return _sparse_grams(u, stack.n_labels, stack.row_label, stack.row_vertex, product)


def cluster_grams(system: "AssembledSystem", sigma: np.ndarray, stack, sols: SolutionSet):
    """The Gram matrices of ``sigma`` restricted to each label of ``stack``, (L, k, k).

    ``stack`` is a :class:`~eitrev.scatter.StackedPlan` of the mesh cells,
    such as :attr:`~eitrev.mesh.Partition.cell_stack`. Entry ``i`` equals
    ``PerturbationOperator(system, (sigma_i, 0)).bform(sols, sols)`` bit for
    bit, where ``sigma_i`` is ``sigma`` on the cells of label ``i`` and zero
    elsewhere: the same cell matrices summed in the same order, the same
    products with the same operand shapes.
    """
    out = _stacked_grams(stack, _cell_matrices(system.mesh, sigma), sols.u)
    out += 0.0  # adding the zero contact terms turns a zero of t1 into +0.0
    return out


def electrode_grams(system: "AssembledSystem", zeta: np.ndarray, sols: SolutionSet):
    """The Gram matrices of ``zeta`` restricted to each electrode, (M, k, k).

    Entry ``m`` equals ``PerturbationOperator(system, (0, zeta_m)).bform(sols,
    sols)`` bit for bit, where ``zeta_m`` is ``zeta`` on the facets of
    electrode ``m`` and zero elsewhere. That operator's ``R`` and ``D`` are
    column ``m`` of ``R`` and entry ``m`` of ``D`` here (the same facet terms
    in the same order) and +0.0 elsewhere. So each of its contact products
    sums one product with zeros of either sign, save row ``m`` of
    ``R.T @ u``, which is that of the same ``(M, n) @ (n, k)`` product here.
    A BLAS sum starts at +0.0, so such a sum is that one product, or +0.0
    where the product is zero: the outer product ``R[:, m] U[m]``, plus 0.0.
    Its rows where ``R[:, m]`` is zero are +0.0, so only the others are
    written. ``R @ U`` enters ``u.T @ ...`` with the operator's shapes, and
    the four terms are combined in the operator's order.
    """
    layout = system.layout
    u, U = sols.u, sols.U
    fmats, R, D = _contact_terms(layout, layout.equad_weights * zeta)
    out = _stacked_grams(layout.facet_stack, fmats, u)
    m, r = np.nonzero(R.T)
    out -= _sparse_grams(u, len(out), m, r, R[r, m][:, None] * U[m] + 0.0)
    out -= U[:, :, None] * (R.T @ u)[:, None, :] + 0.0
    out += U[:, :, None] * (D[:, None] * U)[:, None, :] + 0.0
    return out


class AssembledSystem:
    """Factorized discrete system for one conductivity pair on an electrode layout.

    The mesh is the layout's and the basis the shared one for its electrode
    count. Immutable after construction except for ``solve_count``, which
    counts the triangular-solve columns. A ``sigma`` or ``zeta`` entry that
    is not finite raises ``ValueError`` naming the first one, before any
    matrix is built.
    """

    def __init__(self, layout: ElectrodeLayout, tau: ConductivityPair):
        check_finite("sigma", tau.sigma)
        check_finite("zeta", tau.zeta)
        self.mesh = layout.mesh
        self.layout = layout
        self.tau = tau
        self.basis = current_basis(layout.n_electrodes)
        self.n_interior = layout.mesh.n_vertices

        cellmats, fmats, R, D = _form_terms(layout, tau)
        if not np.any(tau.zeta):
            raise IndefiniteSystemError("the contact density vanishes identically")
        B = self.basis.B
        plan = layout.system_plan
        K = self.matrix = plan.matrix(cellmats, fmats, R @ B, B.T @ (D[:, None] * B))
        try:
            self._lu, self._ordering = plan.factor(K)
        except RuntimeError as exc:
            raise IndefiniteSystemError(f"factorization failed: {exc}") from exc
        pivots = self._lu.U.diagonal()
        if np.any(pivots <= 0):
            first = np.flatnonzero(pivots <= 0)[0]
            size = np.abs(pivots)
            raise IndefiniteSystemError(
                f"assembled system is not positive definite: pivot {first} of {len(pivots)} "
                f"in elimination order is {pivots[first]:.6g}, and the min/max |pivot| ratio "
                f"is {size.min() / size.max():.3g} (a conductivity may be out of range, "
                "or a contact density vanish on an electrode)"
            )
        self.solve_count = 0

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = rhs if rhs.ndim == 2 else rhs[:, None]
        self.solve_count += rhs.shape[1]
        ordering = self._ordering
        if ordering is None:
            return self._lu.solve(rhs)
        x = self._lu.solve(rhs[ordering.inverse])
        return np.take(x.T, ordering.perm, axis=1).T  # in the Fortran order of a solve

    def split(self, x: np.ndarray) -> SolutionSet:
        n = self.n_interior
        return SolutionSet(x[:n], self.basis.B @ x[n:])

    def perturbation(self, eta: ConductivityPair) -> PerturbationOperator:
        return PerturbationOperator(self, eta)


# ---------------------------------------------------------------------------
# Solves
# ---------------------------------------------------------------------------


def solve_forward(system: AssembledSystem, currents: np.ndarray) -> SolutionSet:
    """Solve the forward problem for one or several mean-free current vectors.

    The single factorization of ``system`` is reused for all columns.
    """
    currents = np.asarray(currents, dtype=float)
    if currents.ndim == 1:
        currents = currents[:, None]
    sums = np.abs(currents.sum(axis=0))
    scale = np.maximum(1.0, np.abs(currents).max(axis=0))
    if np.any(sums > 1e-10 * scale):
        raise ValueError("current vectors must be mean-free")
    n = system.n_interior
    rhs = np.vstack([np.zeros((n, currents.shape[1])), system.basis.B.T @ currents])
    return system.split(system.solve(rhs))


def forward_map(system: AssembledSystem) -> np.ndarray:
    """Current-to-voltage map in the orthonormal mean-free basis.

    Entry (j, i) is the inner product of the j-th basis current with the
    electrode potentials driven by the i-th; reciprocity makes the matrix
    symmetric for real conductivities.
    """
    sols = solve_forward(system, system.basis.B)
    return sols.coefficients(system.basis)
