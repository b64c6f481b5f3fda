"""Jacobian columns against central differences over generated inputs."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eitrev import fem
from eitrev.calculus import DerivativeStack, vec
from eitrev.mesh import (
    cluster_partition,
    define_electrodes,
    disk_electrode_midpoints,
    generate_disk_mesh,
)
from eitrev.model import ModelConfig, ParamVector, Parametrization

_LAYOUTS = {
    (level, M): define_electrodes(generate_disk_mesh(level), disk_electrode_midpoints(M), 0.3, 0.2)
    for level in (1, 2)
    for M in (4, 8)
}
_STEP = 1e-4
# central-difference truncation at _STEP: about 3e-6 relative for the bump
# location xi, 2e-9 for kappa and rho
_TOLERANCE = {"kappa": 1e-7, "rho": 1e-7, "xi": 2e-5}


def _lam(param, flat):
    system = fem.AssembledSystem(param.layout, param.tau(param.from_flat(flat)))
    return vec(fem.forward_map(system))


@settings(max_examples=40)
@given(data=st.data())
def test_jacobian_columns_match_central_differences(data):
    level, M = data.draw(st.sampled_from(sorted(_LAYOUTS)), label="level, electrodes")
    layout = _LAYOUTS[(level, M)]
    n_clusters = data.draw(st.integers(1, min(20, layout.mesh.n_cells)), label="n_clusters")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    kind = data.draw(st.sampled_from(["smooth", "cem"]), label="kind")
    param = Parametrization(
        ModelConfig(), cluster_partition(layout.mesh, n_clusters, seed), layout, kind
    )
    rng = np.random.default_rng(seed)
    scale = data.draw(st.floats(0.0, 1.0), label="scale")
    xi = None if kind == "cem" else 0.05 * rng.standard_normal((M, 2))
    iota = ParamVector(
        scale * rng.standard_normal(n_clusters), 0.5 * scale * rng.standard_normal(M), xi
    )
    assume(param.admissible(iota))

    blocks = {"kappa": (0, n_clusters), "rho": (n_clusters, n_clusters + M)}
    if kind == "smooth":
        blocks["xi"] = (n_clusters + M, param.dim)
    block = data.draw(st.sampled_from(sorted(blocks)), label="block")
    first, stop = blocks[block]
    index = data.draw(st.integers(first, stop - 1), label="index")
    step = np.zeros(param.dim)
    step[index] = _STEP
    flat = iota.to_flat()
    assume(all(param.admissible(param.from_flat(flat + s * step)) for s in (-1.0, 1.0)))

    J = DerivativeStack(param, iota).jacobian()
    central = (_lam(param, flat + step) - _lam(param, flat - step)) / (2.0 * _STEP)
    column = J[:, index]
    error = np.linalg.norm(column - central)
    bound = _TOLERANCE[block] * np.linalg.norm(column) + 1e-10 * np.linalg.norm(J)
    assert error <= bound, (block, error)
