"""End-to-end sanity of the 3D path: tetrahedral mesh, patches, solver."""

import numpy as np
import pytest

from eitrev import fem
from eitrev.calculus import DerivativeStack
from eitrev.mesh import TopologyError, build_mesh, cluster_partition, define_electrodes
from eitrev.model import ModelConfig, ParamVector, Parametrization
from conftest import kuhn_cube


@pytest.fixture(scope="module")
def cube_setup():
    mesh = kuhn_cube(2)
    midpoints = np.array(
        [[0.5, 0.0, 0.5], [1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.0, 0.5, 0.5]]
    )
    layout = define_electrodes(mesh, midpoints, 0.5, 0.4)
    partition = cluster_partition(mesh, 6, seed=2)
    param = Parametrization(ModelConfig(), partition, layout, "smooth")
    return mesh, layout, partition, param


def test_mesh_and_boundary(cube_setup):
    mesh, *_ = cube_setup
    assert mesh.dimension == 3
    assert mesh.n_cells == 48
    assert mesh.n_boundary_facets == 48  # 6 faces x 4 subsquares x 2 triangles
    assert np.all(mesh.cell_volumes > 0)
    assert mesh.cell_volumes.sum() == pytest.approx(1.0, rel=1e-12)


def test_cell_adjacency_matches_shared_facets(cube_setup):
    mesh, *_ = cube_setup
    cells = [set(c) for c in mesh.cells.tolist()]
    brute = [
        [j for j, other in enumerate(cells) if j != i and len(cell & other) == 3]
        for i, cell in enumerate(cells)
    ]
    assert [n.tolist() for n in mesh.cell_adjacency] == brute


def test_face_shared_by_three_tetrahedra_is_rejected():
    vertices = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1], [1, 1, 1]], dtype=float
    )
    cells = np.array([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]])
    with pytest.raises(TopologyError, match="non-manifold"):
        build_mesh(3, vertices, cells)


def test_electrode_patches_and_charts(cube_setup):
    _, layout, *_ = cube_setup
    for m in range(4):
        assert len(layout.electrodes[m]) == 8  # a full cube face
        loc = layout.equad_local[layout.efacet_slices[m]].reshape(-1, 2)
        assert np.abs(loc).max() <= 1.0


def test_smooth_contacts_and_reciprocity(cube_setup):
    mesh, layout, partition, param = cube_setup
    iota = param.zero()
    assert param.admissible(iota)
    tau = param.tau(iota)
    for m in range(4):
        sl = layout.efacet_slices[m]
        cond = float((layout.equad_weights[sl] * tau.zeta[sl]).sum())
        assert cond == pytest.approx(np.exp(-3.0), rel=1e-12)
    lam = fem.forward_map(fem.AssembledSystem(layout, tau))
    assert lam.shape == (3, 3)
    assert np.linalg.norm(lam - lam.T) < 1e-12 * np.linalg.norm(lam)


def test_derivative_slope_in_3d(cube_setup):
    mesh, layout, partition, param = cube_setup
    iota = param.zero()
    stack = DerivativeStack(param, iota)
    rng = np.random.default_rng(71)
    eta = ParamVector(
        0.4 * rng.standard_normal(partition.n_clusters),
        0.3 * rng.standard_normal(4),
        0.03 * rng.standard_normal((4, 2)),
    )
    svals = [2.0 ** (-k) for k in range(2, 8)]
    rems = []
    for s in svals:
        lam_s = fem.forward_map(fem.AssembledSystem(layout, param.tau(iota + s * eta)))
        rems.append(np.linalg.norm(lam_s - stack.taylor_eval(s * eta, 1)))
    slope = np.polyfit(np.log(svals), np.log(rems), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.15)
