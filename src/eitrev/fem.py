"""Finite element solver for the smoothened complete electrode model.

The coupled unknown is the nodal interior potential together with the
electrode potentials expressed in an orthonormal mean-free basis, which
removes the joint additive constant and makes the system matrix symmetric
positive definite. One direct symmetric factorization per conductivity pair
is shared by every subsequent solve, including all perturbation solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import ElectrodeLayout
from .model import ConductivityPair


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

    Precomputes the sparse nodal block ``A`` (stiffness plus contact), the
    coupling ``Rmat`` (n, M) and the conductances ``Dvec`` (M,) for one
    perturbation so that repeated right-hand side builds and bilinear form
    evaluations are cheap. Every block is built, whatever its input.
    """

    def __init__(self, system: "AssembledSystem", eta: ConductivityPair):
        self.system = system
        mesh = system.mesh
        layout = system.layout
        dsigma = np.asarray(eta.sigma, dtype=float)
        dzeta = np.asarray(eta.zeta, dtype=float)
        if dsigma.shape != (mesh.n_cells,):
            raise ValueError("sigma perturbation must be a per-cell field")
        if dzeta.shape != layout.equad_weights.shape:
            raise ValueError("zeta perturbation must sample the facet quadrature")
        C, self.Rmat, self.Dvec = _contact_blocks(layout, dzeta)
        self.A = _stiffness(system, dsigma) + C

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
    """The stiffness matrix of every cell for the per-cell field ``sigma``, (n_cells, d+1, d+1)."""
    grads = mesh.cell_gradients
    return np.einsum("c,cid,cjd->cij", mesh.cell_volumes * sigma, grads, grads)


def _stiffness(system: "AssembledSystem", sigma: np.ndarray) -> sp.csr_matrix:
    return system.mesh.cell_plan.assemble(_cell_matrices(system.mesh, sigma))


def _contact_blocks(
    layout: ElectrodeLayout, zeta: np.ndarray
) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """The nodal block, the coupling ``R`` (n, M) and the conductances ``D`` (M,) of ``zeta``.

    Every electrode facet takes part. Where ``equad_weights * zeta`` is all
    zero, a facet adds only zeros of either sign: they leave a non-zero
    partial sum as it is and the other terms in their order, a zero partial
    sum plus the next term is that term, and an entry whose sum is zero is
    dropped either way. So the results equal sums over the other facets
    alone, bit for bit.
    """
    fmats, R, D = _contact_terms(layout, layout.equad_weights * zeta)
    return layout.facet_plan.assemble(fmats), R, D


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


# Labels per batched product in the block Gram kernels. It bounds their
# temporaries, about CHUNK * n * (M + k) floats for n vertices, M electrodes
# and k solutions, to a few times those of one perturbation's form.
CHUNK = 4


def _chunks(n_labels: int):
    for lo in range(0, n_labels, CHUNK):
        yield lo, min(lo + CHUNK, n_labels)


def cluster_grams(system: "AssembledSystem", sigma: np.ndarray, stack, sols: SolutionSet):
    """The Gram matrices of ``sigma`` restricted to each label of ``stack``, (L, k, k).

    ``stack`` is a :class:`~eitrev.scatter.StackedPlan` of the mesh cells,
    such as :attr:`~eitrev.mesh.Partition.cell_stack`. Entry ``i`` equals
    ``PerturbationOperator(system, (sigma_i, 0)).bform(sols, sols)`` bit for
    bit, where ``sigma_i`` is ``sigma`` on the cells of label ``i`` and zero
    elsewhere: the same cell matrices summed in the same order, the same
    products with the same operand shapes.
    """
    product = stack.assemble(_cell_matrices(system.mesh, sigma)) @ sols.u
    out = np.empty((stack.n_labels, len(sols), len(sols)))
    for lo, hi in _chunks(stack.n_labels):
        # adding the zero contact terms turns a zero of t1 into +0.0
        out[lo:hi] = np.matmul(sols.u.T, stack.blocks(product, lo, hi)) + 0.0
    return out


def electrode_grams(system: "AssembledSystem", zeta: np.ndarray, sols: SolutionSet):
    """The Gram matrices of ``zeta`` restricted to each electrode, (M, k, k).

    Entry ``m`` equals ``PerturbationOperator(system, (0, zeta_m)).bform(sols,
    sols)`` bit for bit, where ``zeta_m`` is ``zeta`` on the facets of
    electrode ``m`` and zero elsewhere. Column ``m`` of ``R`` and entry
    ``m`` of ``D`` sum the same facet terms in the same order as the
    operator's, every other column and entry is +0.0 in both, and each
    electrode's ``R`` and ``D`` keep their full (n, M) and (M,) shapes in the
    same four products.
    """
    layout = system.layout
    u, U = sols.u, sols.U
    n, M = u.shape[0], layout.n_electrodes
    fmats, R, D = _contact_terms(layout, layout.equad_weights * zeta)
    stack = layout.facet_stack
    product = stack.assemble(fmats) @ u
    out = np.empty((M, len(sols), len(sols)))
    for lo, hi in _chunks(M):
        m = np.arange(lo, hi)
        own = np.arange(hi - lo)
        t1 = np.matmul(u.T, stack.blocks(product, lo, hi))
        Rm = np.zeros((hi - lo, n, M))
        Rm[own, :, m] = R[:, m].T
        Dm = np.zeros((hi - lo, M))
        Dm[own, m] = D[m]
        t2 = np.matmul(u.T, np.matmul(Rm, U))
        t3 = np.matmul(U.T, np.matmul(Rm.transpose(0, 2, 1), u))
        t4 = np.matmul(U.T, Dm[:, :, None] * U)
        out[lo:hi] = t1 - t2 - t3 + t4
    return out


class AssembledSystem:
    """Factorized discrete system for one conductivity pair on an electrode layout.

    The mesh is the layout's and the basis the shared one for its electrode
    count. Immutable after construction except for ``solve_count``, which
    counts the triangular-solve columns.
    """

    def __init__(self, layout: ElectrodeLayout, tau: ConductivityPair):
        mesh = self.mesh = layout.mesh
        self.layout = layout
        self.tau = tau
        self.basis = current_basis(layout.n_electrodes)

        # the form of tau itself; perturbation() serves derivative directions only
        form = PerturbationOperator(self, tau)
        if not np.any(tau.zeta):
            raise IndefiniteSystemError("the contact density vanishes identically")
        n = self.n_interior = mesh.n_vertices
        B = self.basis.B
        # K = [[A, -R B], [-(R B).T, B.T diag(D) B]] from one triplet set: every
        # stored entry of A and the non-zero entries of the other blocks, as a
        # block build of sparse blocks stores them
        A = form.A.tocoo()
        RB = form.Rmat @ B
        DB = B.T @ (form.Dvec[:, None] * B)
        rr, rc = np.nonzero(RB)
        dr, dc = np.nonzero(DB)
        coupling = -RB[rr, rc]
        K = sp.csc_matrix(
            (
                np.concatenate([A.data, coupling, coupling, DB[dr, dc]]),
                (
                    np.concatenate([A.row, rr, rc + n, dr + n]),
                    np.concatenate([A.col, rc + n, rr, dc + n]),
                ),
            ),
            shape=(n + B.shape[1],) * 2,
        )
        self.matrix = K
        try:
            self._lu = spla.splu(
                K,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:
            raise IndefiniteSystemError(f"factorization failed: {exc}") from exc
        pivots = self._lu.U.diagonal()
        if np.any(pivots <= 0):
            raise IndefiniteSystemError(
                "assembled system is not positive definite "
                "(a contact density may vanish on an electrode)"
            )
        self.solve_count = 0

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = rhs if rhs.ndim == 2 else rhs[:, None]
        self.solve_count += rhs.shape[1]
        return self._lu.solve(rhs)

    def split(self, x: np.ndarray) -> SolutionSet:
        n = self.n_interior
        return SolutionSet(x[:n], self.basis.B @ x[n:])

    def energy_norm(self, sols: SolutionSet) -> float:
        """Norm induced by the (positive definite) system matrix."""
        x = np.vstack([sols.u, self.basis.B.T @ sols.U])
        return float(np.sqrt(np.sum(x * (self.matrix @ x))))

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
