"""Shared fixtures: desk-scale meshes, layouts, partitions, and stacks."""

import itertools

import numpy as np
import pytest
from hypothesis import settings

from eitrev import fem
from eitrev.calculus import DerivativeStack
from eitrev.mesh import (
    build_mesh,
    cluster_partition,
    define_electrodes,
    disk_electrode_midpoints,
    generate_disk_mesh,
)
from eitrev.model import ConductivityPair, ModelConfig, Parametrization

# Every property test draws the same examples on every run, and a slow example
# is not a failure: Tier-1 stays deterministic.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def kuhn_cube(n: int = 2):
    """Unit cube split into n^3 subcubes of six tetrahedra each."""
    pts = np.linspace(0.0, 1.0, n + 1)
    index = {}
    vertices = []
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            for k, z in enumerate(pts):
                index[(i, j, k)] = len(vertices)
                vertices.append([x, y, z])
    # Kuhn decomposition of each subcube along permutations of (1,1,1)
    cells = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for perm in itertools.permutations(range(3)):
                    path = [(i, j, k)]
                    for axis in perm:
                        prev = list(path[-1])
                        prev[axis] += 1
                        path.append(tuple(prev))
                    cells.append([index[p] for p in path])
    return build_mesh(3, np.array(vertices), np.array(cells, dtype=int))


def einsum_cell_matrices(mesh, sigma):
    """The local stiffness matrices sigma_c |T_c| grad(phi_i) . grad(phi_j), by one einsum.

    The oracle of ``fem._cell_matrices``, whose kernel keeps einsum's product
    and summation order: the gradients in the (n_cells, d+1, d) layout,
    contiguous, as einsum reads them.
    """
    grads = np.ascontiguousarray(mesh.gradient_axes.transpose(2, 1, 0))
    return np.einsum("c,cid,cjd->cij", mesh.cell_volumes * sigma, grads, grads)


@pytest.fixture(scope="session")
def disk2():
    return generate_disk_mesh(2)


@pytest.fixture(scope="session")
def disk3():
    return generate_disk_mesh(3)


@pytest.fixture(scope="session")
def layout8(disk2):
    return define_electrodes(disk2, disk_electrode_midpoints(8), 0.3, 0.2)


@pytest.fixture(scope="session")
def layout16(disk3):
    return define_electrodes(disk3, disk_electrode_midpoints(16), 0.15, 0.10)


@pytest.fixture(scope="session")
def part20(disk2):
    return cluster_partition(disk2, 20, seed=1)


@pytest.fixture(scope="session")
def part80(disk3):
    return cluster_partition(disk3, 80, seed=7)


@pytest.fixture(scope="session")
def config():
    return ModelConfig()


@pytest.fixture(scope="session")
def smooth8(config, part20, layout8):
    return Parametrization(config, part20, layout8, "smooth")


@pytest.fixture(scope="session")
def cem8(config, part20, layout8):
    return Parametrization(config, part20, layout8, "cem")


@pytest.fixture(scope="session")
def smooth16(config, part80, layout16):
    return Parametrization(config, part80, layout16, "smooth")


@pytest.fixture(scope="session")
def basis8():
    return fem.current_basis(8)


@pytest.fixture(scope="session")
def basis16():
    return fem.current_basis(16)


@pytest.fixture(scope="session")
def stack8(smooth8):
    return DerivativeStack(smooth8, smooth8.zero())


@pytest.fixture(scope="session")
def stack16(smooth16):
    return DerivativeStack(smooth16, smooth16.zero())


class LinearParametrization:
    """Test parametrization with an identically vanishing second derivative.

    tau(x) = tau0 + sum_p x_p * mode_p over a list of conductivity-pair
    modes on the electrode layout ``layout``, so the first derivative is the
    constant linear map and all higher derivatives are zero.
    """

    def __init__(self, layout, tau0: ConductivityPair, modes: list[ConductivityPair]):
        self.layout = layout
        self.tau0 = tau0
        self.modes = list(modes)

    @property
    def dim(self):
        return len(self.modes)

    def zero(self):
        return np.zeros(self.dim)

    def from_flat(self, vec):
        return np.asarray(vec, dtype=float).copy()

    def _combine(self, coeffs) -> ConductivityPair:
        out = float(coeffs[0]) * self.modes[0]
        for c, mode in zip(coeffs[1:], self.modes[1:]):
            out = out + float(c) * mode
        return out

    def tau(self, x):
        return self.tau0 + self._combine(x)

    def dtau(self, at, directions):
        if len(directions) == 1:
            return self._combine(directions[0])
        zero_pair = 0.0 * self.modes[0]
        return zero_pair

    def clamp(self, x):
        return x, False


@pytest.fixture(scope="session")
def linear_parametrization():
    return LinearParametrization
