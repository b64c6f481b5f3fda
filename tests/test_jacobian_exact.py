"""The Jacobian equals the plain column formula bit for bit.

The oracle assembles each column as the straightforward code does: the
derivative of tau along one direction, both sparse blocks from COO triplets
of every cell and every electrode facet through ``tocsr``, dense contact
coupling and conductance blocks, and the four-term bilinear form over the
base solutions. Whatever :meth:`DerivativeStack.jacobian` skips or
reorders (zero blocks, elements off the support, the zero contact terms)
must leave every byte of every column as this formula has it.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from eitrev import fem
from eitrev.calculus import DerivativeStack, vec
from eitrev.mesh import (
    cluster_partition,
    define_electrodes,
    disk_electrode_midpoints,
    generate_disk_mesh,
)
from eitrev.model import ModelConfig, Parametrization
from conftest import einsum_cell_matrices, kuhn_cube

CUBE_MIDPOINTS = np.array([[0.5, 0.0, 0.5], [1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.0, 0.5, 0.5]])


def _coo(elements, local, n):
    k = elements.shape[1]
    rows = np.repeat(elements, k, axis=1).ravel()
    cols = np.tile(elements, (1, k)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _oracle_column(system, pair, base):
    mesh, layout = system.mesh, system.layout
    n, M = mesh.n_vertices, layout.n_electrodes
    cellmats = einsum_cell_matrices(mesh, pair.sigma)
    wz = layout.equad_weights * pair.zeta
    bary = layout.facet_bary
    fmats = np.einsum("fq,qa,qb->fab", wz, bary, bary)
    A = _coo(mesh.cells, cellmats, n) + _coo(layout.efacet_vertices, fmats, n)
    fvals = np.einsum("fq,qa->fa", wz, bary)
    R = np.zeros((n, M))
    for a in range(layout.efacet_vertices.shape[1]):
        np.add.at(R, (layout.efacet_vertices[:, a], layout.efacet_electrode), fvals[:, a])
    D = np.zeros(M)
    np.add.at(D, layout.efacet_electrode, wz.sum(axis=1))
    u, U = base.u, base.U
    gram = u.T @ (A @ u) - u.T @ (R @ U) - U.T @ (R.T @ u) + U.T @ (D[:, None] * U)
    return vec(-gram.T)


# level, electrodes, electrode and contact radii, clusters
DISKS = {
    "disk1": (1, 4, (0.3, 0.2), 6),
    "disk2": (2, 8, (0.3, 0.2), 20),
    "disk3": (3, 16, (0.15, 0.10), 80),
    # cluster and electrode counts off the kernel's chunk grid, so that the
    # last chunk of every block is partial; the facet counts are ragged too
    "disk3-partial": (3, 7, (0.25, 0.15), 37),
}


@pytest.fixture(scope="module", params=["disk1", "disk2", "disk3", "disk3-partial", "cube2"])
def geometry(request):
    name = request.param
    if name.startswith("disk"):
        level, n_electrodes, radii, n_clusters = DISKS[name]
        mesh = generate_disk_mesh(level)
        layout = define_electrodes(mesh, disk_electrode_midpoints(n_electrodes), *radii)
        if name == "disk3-partial":
            assert n_clusters % fem.CHUNK and n_electrodes % fem.CHUNK
            assert n_clusters > fem.CHUNK and n_electrodes > fem.CHUNK
    else:
        mesh = kuhn_cube(2)
        layout = define_electrodes(mesh, CUBE_MIDPOINTS, 0.5, 0.4)
        n_clusters = 6
    return layout, cluster_partition(mesh, n_clusters, seed=1)


@pytest.mark.parametrize("kind", ["smooth", "cem"])
@pytest.mark.parametrize("at_origin", [True, False])
def test_jacobian_equals_the_column_formula(geometry, kind, at_origin):
    layout, partition = geometry
    param = Parametrization(ModelConfig(), partition, layout, kind)
    rng = np.random.default_rng(21)
    iota = param.zero()
    while not at_origin:
        iota = param.from_flat(0.05 * rng.standard_normal(param.dim))
        at_origin = param.admissible(iota)
    stack = DerivativeStack(param, iota)
    at = param.tau(iota)

    def oracle(directions):
        return np.column_stack(
            [_oracle_column(stack.system, param.dtau(at, [d]), stack.base) for d in directions]
        )

    coordinates = [param.from_flat(e) for e in np.eye(param.dim)]
    assert stack.jacobian().tobytes() == oracle(coordinates).tobytes()
    dense = [param.from_flat(rng.standard_normal(param.dim)) for _ in range(3)]
    assert stack.jacobian(dense).tobytes() == oracle(dense).tobytes()
