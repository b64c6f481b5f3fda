"""Forward-map invariants over generated levels, partitions and parameters."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eitrev import fem
from eitrev.mesh import (
    cluster_partition,
    define_electrodes,
    disk_electrode_midpoints,
    generate_disk_mesh,
)
from eitrev.model import ModelConfig, ParamVector, Parametrization

_MESHES = {level: generate_disk_mesh(level) for level in (1, 2, 3)}
# (level, electrode count) -> layout; level 1 has too few boundary facets for 16.
_LAYOUTS = {
    (level, M): define_electrodes(
        _MESHES[level], disk_electrode_midpoints(M), *((0.15, 0.10) if M == 16 else (0.3, 0.2))
    )
    for level in (1, 2, 3)
    for M in (4, 8, 16)
    if (level, M) != (1, 16)
}


def _draw_system(data):
    """An assembled system at a random admissible parameter on a random partition."""
    level, M = data.draw(st.sampled_from(sorted(_LAYOUTS)), label="level, electrodes")
    layout = _LAYOUTS[(level, M)]
    n_clusters = data.draw(st.integers(1, min(40, layout.mesh.n_cells)), label="n_clusters")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    kind = data.draw(st.sampled_from(["smooth", "cem"]), label="kind")
    param = Parametrization(
        ModelConfig(), cluster_partition(layout.mesh, n_clusters, seed), layout, kind
    )
    rng = np.random.default_rng(seed)
    scale = data.draw(st.floats(0.0, 1.5), label="scale")
    xi = None if kind == "cem" else 0.05 * rng.standard_normal((M, 2))
    iota = ParamVector(
        scale * rng.standard_normal(n_clusters), 0.5 * scale * rng.standard_normal(M), xi
    )
    assume(param.admissible(iota))
    return fem.AssembledSystem(layout, param.tau(iota)), rng


@settings(max_examples=20)
@given(data=st.data())
def test_forward_map_is_symmetric(data):
    system, _ = _draw_system(data)
    lam = fem.forward_map(system)
    assert np.linalg.norm(lam - lam.T) <= 1e-10 * np.linalg.norm(lam)


@settings(max_examples=20)
@given(data=st.data())
def test_solve_forward_rejects_currents_that_are_not_mean_free(data):
    system, rng = _draw_system(data)
    M = system.layout.n_electrodes
    n_columns = data.draw(st.integers(1, 3), label="columns")
    currents = rng.standard_normal((M, n_columns))
    currents -= currents.mean(axis=0)
    fem.solve_forward(system, currents)  # mean-free columns are accepted

    column = data.draw(st.integers(0, n_columns - 1), label="column")
    offset = data.draw(st.floats(1e-6, 1e3), label="offset")
    sign = data.draw(st.sampled_from([-1.0, 1.0]), label="sign")
    currents[:, column] += sign * offset / M
    with pytest.raises(ValueError, match="mean-free"):
        fem.solve_forward(system, currents[:, 0] if n_columns == 1 else currents)
