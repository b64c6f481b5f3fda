"""Finite element solver for the smoothened complete electrode model.

The coupled unknown is the nodal interior potential together with the
electrode potentials expressed in an orthonormal mean-free basis, which
removes the joint additive constant and makes the system matrix symmetric
positive definite. One direct symmetric factorization per conductivity pair
is shared by every subsequent solve, including all perturbation solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import ElectrodeLayout, SimplicialMesh
from .model import ConductivityPair
from .quadrature import facet_rule


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


def current_basis(n_electrodes: int) -> CurrentBasis:
    """Build the canonical bases for ``n_electrodes`` electrodes."""
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
    return CurrentBasis(
        B=B, Bhat=Bhat, B_pinv=np.linalg.pinv(B), Bhat_pinv=np.linalg.pinv(Bhat)
    )


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


def _p1_gradients(mesh: SimplicialMesh) -> np.ndarray:
    """Constant gradients of the nodal hat functions per cell, (nc, d+1, d)."""
    d = mesh.dimension
    coords = mesh.vertices[mesh.cells]  # (nc, d+1, d)
    edges = coords[:, 1:, :] - coords[:, :1, :]  # (nc, d, d)
    inv = np.linalg.inv(edges)  # rows of inv.T are gradients of vertices 1..d
    grads = np.empty((mesh.n_cells, d + 1, d))
    grads[:, 1:, :] = np.swapaxes(inv, 1, 2)
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    return grads


class PerturbationOperator:
    """Sesquilinear form with a fixed perturbation pair in place of (sigma, zeta).

    Precomputes the sparse stiffness and contact coupling blocks for one
    perturbation so that repeated right-hand side builds and bilinear form
    evaluations are cheap.
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
        self.A = _stiffness(system, dsigma) + _contact_nodal(system, dzeta)
        self.Rmat = _contact_coupling(system, dzeta)  # (n, M)
        self.Dvec = _contact_conductance(system, dzeta)  # (M,)

    def bform(self, left: SolutionSet, right: SolutionSet) -> np.ndarray:
        """Gram matrix of the perturbed form over two solution batches."""
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


def _stiffness(system: "AssembledSystem", sigma: np.ndarray) -> sp.csr_matrix:
    mesh = system.mesh
    d = mesh.dimension
    cellmats = np.einsum(
        "c,cid,cjd->cij", mesh.cell_volumes * sigma, system.cell_grads, system.cell_grads
    )
    cells = mesh.cells
    rows = np.repeat(cells, d + 1, axis=1).ravel()
    cols = np.tile(cells, (1, d + 1)).ravel()
    return sp.coo_matrix(
        (cellmats.ravel(), (rows, cols)), shape=(mesh.n_vertices,) * 2
    ).tocsr()


def _contact_nodal(system: "AssembledSystem", zeta: np.ndarray) -> sp.csr_matrix:
    layout = system.layout
    wz = layout.equad_weights * zeta
    fmats = np.einsum("fq,qa,qb->fab", wz, system.facet_bary, system.facet_bary)
    fv = layout.efacet_vertices
    d = fv.shape[1]
    rows = np.repeat(fv, d, axis=1).ravel()
    cols = np.tile(fv, (1, d)).ravel()
    n = system.mesh.n_vertices
    return sp.coo_matrix((fmats.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _contact_coupling(system: "AssembledSystem", zeta: np.ndarray) -> np.ndarray:
    layout = system.layout
    wz = layout.equad_weights * zeta
    fvals = np.einsum("fq,qa->fa", wz, system.facet_bary)
    R = np.zeros((system.mesh.n_vertices, layout.n_electrodes))
    fv = layout.efacet_vertices
    for a in range(fv.shape[1]):
        np.add.at(R, (fv[:, a], layout.efacet_electrode), fvals[:, a])
    return R


def _contact_conductance(system: "AssembledSystem", zeta: np.ndarray) -> np.ndarray:
    layout = system.layout
    per_facet = (layout.equad_weights * zeta).sum(axis=1)
    D = np.zeros(layout.n_electrodes)
    np.add.at(D, layout.efacet_electrode, per_facet)
    return D


class AssembledSystem:
    """Factorized discrete system for one conductivity pair.

    Immutable after construction except for ``solve_count`` and
    ``factor_count``, which account for the triangular solves and
    factorizations performed.
    """

    def __init__(
        self,
        mesh: SimplicialMesh,
        layout: ElectrodeLayout,
        tau: ConductivityPair,
        basis: CurrentBasis | None = None,
    ):
        self.mesh = mesh
        self.layout = layout
        self.tau = tau
        self.basis = basis if basis is not None else current_basis(layout.n_electrodes)
        self.cell_grads = _p1_gradients(mesh)
        self.facet_bary, _ = facet_rule(mesh.dimension)

        sigma = np.asarray(tau.sigma, dtype=float)
        zeta = np.asarray(tau.zeta, dtype=float)
        A = _stiffness(self, sigma) + _contact_nodal(self, zeta)
        R = _contact_coupling(self, zeta)
        D = _contact_conductance(self, zeta)
        B = self.basis.B
        K = sp.bmat(
            [
                [A, sp.csr_matrix(-R @ B)],
                [sp.csr_matrix(-(R @ B).T), sp.csr_matrix(B.T @ (D[:, None] * B))],
            ],
            format="csc",
        )
        self.matrix = K
        self.n_interior = mesh.n_vertices
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
        self.factor_count = 1
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


def assemble(
    mesh: SimplicialMesh,
    layout: ElectrodeLayout,
    tau: ConductivityPair,
    basis: CurrentBasis | None = None,
) -> AssembledSystem:
    """Assemble and factorize the coupled system for a conductivity pair."""
    return AssembledSystem(mesh, layout, tau, basis)


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


def apply_P(
    system: AssembledSystem,
    eta: ConductivityPair | PerturbationOperator,
    inputs: SolutionSet,
) -> SolutionSet:
    """Auxiliary solution operator: solve B_tau(w, v) = -B_eta(input, v).

    This is the building block of every derivative of the forward map; the
    factorization of ``system`` is reused.
    """
    op = eta if isinstance(eta, PerturbationOperator) else system.perturbation(eta)
    return system.split(system.solve(op.rhs(inputs)))


def bform_eval(
    system: AssembledSystem,
    eta: ConductivityPair | PerturbationOperator,
    left: SolutionSet,
    right: SolutionSet,
) -> np.ndarray:
    """Gram matrix of the perturbed form over two solution batches.

    Entry (i, j) is
    integral(dsigma grad u_i . grad u_j) + integral(dzeta (U_i-u_i)(U_j-u_j)).
    """
    op = eta if isinstance(eta, PerturbationOperator) else system.perturbation(eta)
    return op.bform(left, right)


def forward_map(system: AssembledSystem, basis: CurrentBasis | None = None) -> np.ndarray:
    """Current-to-voltage map in the orthonormal mean-free basis.

    Entry (j, i) is the inner product of the j-th basis current with the
    electrode potentials driven by the i-th; reciprocity makes the matrix
    symmetric for real conductivities.
    """
    basis = basis if basis is not None else system.basis
    sols = solve_forward(system, basis.B)
    return sols.coefficients(basis)
