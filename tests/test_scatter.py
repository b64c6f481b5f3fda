"""Assembly through a scatter plan equals scipy's COO-to-CSR conversion, zeros dropped, bit for bit."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _assembled(plan, local):
    """The plan's sums of ``local`` as a CSR matrix, an entry that sums to zero dropped."""
    return sp.csr_matrix(
        scatter.compressed(plan.sums(local), plan.indices, plan.indptr), shape=plan.shape
    )


def _coo_with_zeros(elements, local, n):
    """The assembly as scipy does it: COO triplets of every element, then tocsr."""
    k = elements.shape[1]
    rows = np.repeat(elements, k, axis=1).ravel()
    cols = np.tile(elements, (1, k)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _coo_reference(elements, local, n):
    """scipy's assembly with its exact zeros dropped, as every sparse sum drops them."""
    ref = _coo_with_zeros(elements, local, n)
    ref.eliminate_zeros()
    return ref


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


def _stiffness(system, sigma):
    """The nodal block of ``(sigma, 0)``, through the layout's system plan."""
    zeta = np.zeros(system.layout.equad_weights.shape)
    return system.perturbation(ConductivityPair(sigma, zeta)).A


def _contact_block(system, zeta):
    """The nodal block of ``(0, zeta)``, through the layout's system plan."""
    return system.perturbation(ConductivityPair(np.zeros(system.mesh.n_cells), zeta)).A


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
            assert _same_bits(_stiffness(system, sigma), ref), name

    def test_contact_block_equals_tocsr(self, system):
        rng = np.random.default_rng(4)
        for name, zeta in _zeta_fields(system.layout, rng).items():
            ref = _contact_reference(system, zeta)
            assert _same_bits(_contact_block(system, zeta), ref), name

    def test_no_explicit_zero_is_kept(self, system):
        mesh = system.mesh
        sigma = _sigma_fields(mesh, np.random.default_rng(5))["one cluster"]
        A = _stiffness(system, sigma)
        grads = mesh.cell_gradients
        cellmats = np.einsum("c,cid,cjd->cij", mesh.cell_volumes * sigma, grads, grads)
        with_zeros = _coo_with_zeros(mesh.cells, cellmats, mesh.n_vertices)
        assert np.count_nonzero(with_zeros.data) < with_zeros.nnz
        assert np.count_nonzero(A.data) == A.nnz < with_zeros.nnz
        assert A.has_canonical_format

    def test_changing_a_result_leaves_the_plan_intact(self, system):
        rng = np.random.default_rng(6)
        fields = _sigma_fields(system.mesh, rng)
        plans = (system.mesh.cell_plan, system.layout.system_plan)
        before = [
            (plan, name, value.copy())
            for plan in plans
            for name, value in vars(plan).items()
            if isinstance(value, np.ndarray)
        ]
        for name in ("one cluster", "random signed"):
            A = _stiffness(system, fields[name])
            A.data[:] = np.nan
            A.indices[:] = 0
            A.indptr[:] = 0
        assert all(np.array_equal(a, getattr(plan, name)) for plan, name, a in before)
        for name in ("one cluster", "random signed"):
            sigma = fields[name]
            assert _same_bits(_stiffness(system, sigma), _stiffness_reference(system, sigma))

    def test_plan_is_built_once_per_mesh(self, system):
        assert system.mesh.cell_plan is system.mesh.cell_plan
        assert system.layout.facet_plan is system.layout.facet_plan
        assert system.layout.system_plan is system.layout.system_plan
        assert not system.mesh.cell_gradients.flags.writeable
        assert not system.layout.facet_bary.flags.writeable


class TestPadded:
    """Local arrays that are zero outside some elements, straight through the plan."""

    @staticmethod
    def _check(plan, elements, local):
        ref = _coo_reference(elements, local, plan.shape[0])
        assert _same_bits(_assembled(plan, local), ref)
        return ref

    def test_all_zero(self, system):
        mesh = system.mesh
        plan = mesh.cell_plan
        local = np.zeros(plan.local_shape)
        local[::2] = -0.0
        assert self._check(plan, mesh.cells, local).nnz == 0

    def test_terms_that_cancel_to_zero(self, system):
        mesh = system.mesh
        cells = mesh.cells
        k = cells.shape[1]
        # cell 0 and a neighbour b with opposite terms on their shared facet,
        # and one more term on the vertex of cell 0 that b lacks
        b = next(c for c in range(1, mesh.n_cells) if np.isin(cells[c], cells[0]).sum() == k - 1)
        local = np.zeros(mesh.cell_plan.local_shape)
        local[0] = np.random.default_rng(8).standard_normal((k, k))
        lone = np.flatnonzero(~np.isin(cells[0], cells[b]))[0]
        local[0][lone, :] = local[0][:, lone] = 0.0
        local[0][lone, lone] = 1.0
        at_0 = {v: i for i, v in enumerate(cells[0])}
        for i, vi in enumerate(cells[b]):
            for j, vj in enumerate(cells[b]):
                if vi in at_0 and vj in at_0:
                    local[b][i, j] = -local[0][at_0[vi], at_0[vj]]
        ref = self._check(mesh.cell_plan, cells, local)
        assert ref.nnz == 1 and ref[cells[0][lone], cells[0][lone]] == 1.0

    def test_zeros_of_both_signs(self, system):
        mesh = system.mesh
        plan = mesh.cell_plan
        rng = np.random.default_rng(9)
        local = rng.standard_normal(plan.local_shape)
        local[rng.random(mesh.n_cells) < 0.3] = 0.0
        local[0] = -0.0
        self._check(plan, mesh.cells, local)

    @settings(max_examples=25)
    @given(data=st.data())
    def test_masked_elements(self, system, data):
        """Zeros of both signs on a random set of elements give ``tocsr`` of the padded array."""
        if data.draw(st.booleans(), label="facets"):
            plan, elements = system.layout.facet_plan, system.layout.efacet_vertices
        else:
            plan, elements = system.mesh.cell_plan, system.mesh.cells
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        density = data.draw(st.floats(0.0, 1.0), label="density")
        local = rng.standard_normal(plan.local_shape)
        masked = rng.random(len(local)) >= density
        local[masked] = np.where(rng.random(plan.local_shape) < 0.5, 0.0, -0.0)[masked]
        self._check(plan, elements, local)

    def test_assembling_changes_no_plan_state(self, system):
        mesh = system.mesh
        plan = ScatterPlan(mesh.cells, mesh.n_vertices)
        state = dict(vars(plan))
        arrays = {name: a.copy() for name, a in state.items() if isinstance(a, np.ndarray)}
        ranks = [a.copy() for r in plan.ranks for a in r]
        rng = np.random.default_rng(10)
        for _ in range(60):
            local = rng.standard_normal(plan.local_shape)
            local[rng.random(mesh.n_cells) < rng.random()] = 0.0
            self._check(plan, mesh.cells, local)
            A = _assembled(plan, local)
            for arr in (A.data, A.indices, A.indptr):
                arr[:] = 0
        assert vars(plan).keys() == state.keys()
        assert all(vars(plan)[name] is value for name, value in state.items())
        assert all(np.array_equal(getattr(plan, name), a) for name, a in arrays.items())
        assert all(np.array_equal(a, b) for a, b in zip(ranks, (a for r in plan.ranks for a in r)))


class TestLocalShape:
    """``sums`` takes one local matrix per element and nothing else."""

    def test_a_support_sized_local_is_rejected(self, system):
        plan = system.mesh.cell_plan
        n_elements, k, _ = plan.local_shape
        local = np.ones((n_elements // 2, k, k))
        with pytest.raises(ValueError, match="local matrices of shape") as info:
            plan.sums(local)
        assert str(local.shape) in str(info.value) and str(plan.local_shape) in str(info.value)

    def test_a_local_of_the_same_size_but_another_shape_is_rejected(self, system):
        plan = system.layout.facet_plan
        n_elements, k, _ = plan.local_shape
        local = np.ones((k, n_elements, k))
        with pytest.raises(ValueError, match="local matrices of shape") as info:
            plan.sums(local)
        assert str(local.shape) in str(info.value) and str(plan.local_shape) in str(info.value)


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
    assert _same_bits(_assembled(ScatterPlan(mesh.cells, mesh.n_vertices), cellmats), ref)
    monkeypatch.setattr(scatter, "_summation_order", stable_order)
    stable = _assembled(ScatterPlan(mesh.cells, mesh.n_vertices), cellmats)
    assert np.array_equal(stable.indices, ref.indices)
    assert not _same_bits(stable, ref)
