"""Shared fixtures: desk-scale meshes, layouts, partitions, and stacks."""

import numpy as np
import pytest
from hypothesis import settings

from eitrev import fem
from eitrev.calculus import DerivativeStack
from eitrev.mesh import (
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
