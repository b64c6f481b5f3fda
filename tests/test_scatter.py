"""Assembly through a scatter plan equals scipy's COO-to-CSR conversion bit for bit."""

import numpy as np
import pytest
import scipy.sparse as sp

from eitrev import fem, scatter
from eitrev.mesh import define_electrodes, disk_electrode_midpoints, generate_disk_mesh
from eitrev.model import ConductivityPair
from eitrev.scatter import ScatterPlan
from test_three_dimensional import kuhn_cube

CUBE_MIDPOINTS = np.array([[0.5, 0.0, 0.5], [1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.0, 0.5, 0.5]])
GEOMETRIES = ["disk1", "disk2", "disk3", "disk4", "cube2", "cube3"]


def _system(name):
    if name.startswith("disk"):
        level = int(name[4:])
        mesh = generate_disk_mesh(level)
        layout = define_electrodes(mesh, disk_electrode_midpoints(4), 0.3, 0.2)
    else:
        mesh = kuhn_cube(int(name[4:]))
        layout = define_electrodes(mesh, CUBE_MIDPOINTS, 0.5, 0.4)
    tau = ConductivityPair(np.ones(mesh.n_cells), np.ones(layout.equad_weights.shape))
    return fem.AssembledSystem(layout, tau)


@pytest.fixture(scope="module", params=GEOMETRIES)
def system(request):
    return _system(request.param)


def _coo_reference(elements, local, n):
    """The assembly as scipy does it: COO triplets of every element, then tocsr."""
    k = elements.shape[1]
    rows = np.repeat(elements, k, axis=1).ravel()
    cols = np.tile(elements, (1, k)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _stiffness_reference(system, sigma):
    mesh = system.mesh
    grads = mesh.cell_gradients
    cellmats = np.einsum("c,cid,cjd->cij", mesh.cell_volumes * sigma, grads, grads)
    return _coo_reference(mesh.cells, cellmats, mesh.n_vertices)


def _contact_reference(system, zeta):
    layout = system.layout
    bary = layout.facet_bary
    fmats = np.einsum("fq,qa,qb->fab", layout.equad_weights * zeta, bary, bary)
    return _coo_reference(layout.efacet_vertices, fmats, system.mesh.n_vertices)


def _same_bits(A, ref):
    return (
        A.indptr.dtype == ref.indptr.dtype
        and A.indices.dtype == ref.indices.dtype
        and np.array_equal(A.indptr, ref.indptr)
        and np.array_equal(A.indices, ref.indices)
        and A.data.tobytes() == ref.data.tobytes()
    )


def _sigma_fields(mesh, rng):
    centroids = mesh.cell_centroids
    centre = centroids[rng.integers(mesh.n_cells)]
    cluster = np.argsort(np.linalg.norm(centroids - centre, axis=1), kind="stable")[:10]
    one_cluster = np.zeros(mesh.n_cells)
    one_cluster[cluster] = np.exp(rng.standard_normal())
    signed = rng.standard_normal(mesh.n_cells)
    partly_zero = signed * (rng.random(mesh.n_cells) < 0.5)  # zeros of both signs
    return {
        "one cluster": one_cluster,
        "random signed": signed,
        "partly zero": partly_zero,
        "all zero": np.zeros(mesh.n_cells),
    }


def _zeta_fields(layout, rng):
    shape = layout.equad_weights.shape
    one_electrode = np.zeros(shape)
    sl = layout.efacet_slices[rng.integers(layout.n_electrodes)]
    one_electrode[sl] = rng.standard_normal(one_electrode[sl].shape)
    signed = rng.standard_normal(shape)
    partly_zero = signed * (rng.random(shape[0]) < 0.5)[:, None]
    partly_zero[0, 0] = 0.0  # a facet that is zero at one node only
    return {
        "one electrode": one_electrode,
        "random signed": signed,
        "partly zero": partly_zero,
        "all zero": np.zeros(shape),
    }


class TestScatterPlan:
    def test_stiffness_equals_tocsr(self, system):
        rng = np.random.default_rng(3)
        for name, sigma in _sigma_fields(system.mesh, rng).items():
            ref = _stiffness_reference(system, sigma)
            assert _same_bits(fem._stiffness(system, sigma), ref), name

    def test_contact_block_equals_tocsr(self, system):
        rng = np.random.default_rng(4)
        for name, zeta in _zeta_fields(system.layout, rng).items():
            ref = _contact_reference(system, zeta)
            assert _same_bits(fem._contact_nodal(system, zeta), ref), name

    def test_explicit_zeros_are_kept(self, system):
        sigma = _sigma_fields(system.mesh, np.random.default_rng(5))["one cluster"]
        A = fem._stiffness(system, sigma)
        assert A.nnz == _stiffness_reference(system, sigma).nnz
        assert np.count_nonzero(A.data) < A.nnz

    def test_changing_a_result_leaves_the_plan_intact(self, system):
        rng = np.random.default_rng(6)
        fields = _sigma_fields(system.mesh, rng)
        plan = system.mesh.cell_plan
        before = [plan.first.copy(), plan.indices.copy(), plan.indptr.copy()]
        A = fem._stiffness(system, fields["one cluster"])
        A.eliminate_zeros()
        A.data[:] = np.nan
        assert all(
            np.array_equal(a, b) for a, b in zip(before, [plan.first, plan.indices, plan.indptr])
        )
        sigma = fields["random signed"]
        assert _same_bits(fem._stiffness(system, sigma), _stiffness_reference(system, sigma))

    def test_plan_is_built_once_per_mesh(self, system):
        assert system.mesh.cell_plan is system.mesh.cell_plan
        assert system.layout.facet_plan is system.layout.facet_plan
        assert not system.mesh.cell_gradients.flags.writeable
        assert not system.layout.facet_bary.flags.writeable


@pytest.mark.parametrize("name", ["disk4", "cube3"])
def test_a_stable_summation_order_fails(name, monkeypatch):
    """Rows past the insertion-sort cut-off get scipy's unstable order, not a stable one."""

    def stable_order(rows, cols, n):
        order = np.lexsort((cols, rows))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        return sp.csr_matrix((order.astype(float), cols[order], indptr), shape=(n, n))

    system = _system(name)
    mesh = system.mesh
    sigma = np.random.default_rng(7).standard_normal(mesh.n_cells)
    grads = mesh.cell_gradients
    cellmats = np.einsum("c,cid,cjd->cij", mesh.cell_volumes * sigma, grads, grads)
    ref = _stiffness_reference(system, sigma)
    support = np.arange(mesh.n_cells)
    assert _same_bits(ScatterPlan(mesh.cells, mesh.n_vertices).assemble(support, cellmats), ref)
    monkeypatch.setattr(scatter, "_summation_order", stable_order)
    stable = ScatterPlan(mesh.cells, mesh.n_vertices).assemble(support, cellmats)
    assert np.array_equal(stable.indices, ref.indices)
    assert not _same_bits(stable, ref)
