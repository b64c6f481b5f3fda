"""Derivative and clamp invariants over generated base points and directions."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eitrev.calculus import DerivativeStack
from eitrev.mesh import cluster_partition, define_electrodes
from eitrev.model import ModelConfig, ParamVector, Parametrization
from conftest import kuhn_cube

CUBE_MIDPOINTS = np.array([[0.5, 0.0, 0.5], [1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.0, 0.5, 0.5]])


def _close(x, y):
    scale = max(np.abs(x).max(), np.abs(y).max(), 1e-300)
    return np.allclose(x, y, rtol=1e-9, atol=1e-11 * scale)


def _same_pair(p, q):
    return _close(p.sigma, q.sigma) and _close(p.zeta, q.zeta)


def _base_point(param, rng, xi_scale=0.05):
    iota = param.from_flat(np.zeros(param.dim))
    xi = None if iota.xi is None else xi_scale * rng.standard_normal(iota.xi.shape)
    return ParamVector(
        0.3 * rng.standard_normal(iota.kappa.shape), 0.2 * rng.standard_normal(iota.rho.shape), xi
    )


def _direction(param, rng, active):
    """A random direction whose contact part vanishes on the inactive electrodes."""
    d = param.from_flat(rng.standard_normal(param.dim))
    xi = None if d.xi is None else np.where(active[:, None], d.xi, 0.0)
    return ParamVector(d.kappa, np.where(active, d.rho, 0.0), xi)


def _draw_point(data, params, n_directions):
    """A parametrization, an admissible base point and random directions.

    Each direction has its contact part switched off on a drawn set of
    electrodes, so the contact part of the derivative vanishes on some
    electrodes or on all of them.
    """
    param = params[data.draw(st.sampled_from(sorted(params)), label="kind")]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    electrodes = st.lists(st.booleans(), min_size=8, max_size=8)
    masks = data.draw(
        st.lists(electrodes, min_size=n_directions, max_size=n_directions), label="active"
    )
    iota = _base_point(param, rng)
    assume(param.admissible(iota))
    return param, iota, [_direction(param, rng, np.array(m)) for m in masks]


@settings(max_examples=20)
@given(data=st.data())
def test_dtau_is_linear_in_each_direction(smooth8, cem8, data):
    order = data.draw(st.integers(1, 3), label="order")
    param, iota, dirs = _draw_point(data, {"smooth": smooth8, "cem": cem8}, order + 1)
    slot = data.draw(st.integers(0, order - 1), label="slot")
    a = data.draw(st.floats(-2.0, 2.0), label="a")
    b = data.draw(st.floats(-2.0, 2.0), label="b")
    u, v, rest = dirs[0], dirs[1], dirs[2:]

    at = param.tau(iota)

    def with_slot(d):
        return param.dtau(at, rest[:slot] + [d] + rest[slot:])

    combined = with_slot(a * u + b * v)
    assert _same_pair(combined, a * with_slot(u) + b * with_slot(v))


@settings(max_examples=20)
@given(data=st.data())
def test_dtau_is_symmetric_in_its_directions(smooth8, cem8, data):
    order = data.draw(st.integers(2, 3), label="order")
    param, iota, dirs = _draw_point(data, {"smooth": smooth8, "cem": cem8}, order)
    perm = data.draw(st.permutations(range(order)), label="permutation")
    at = param.tau(iota)
    assert _same_pair(param.dtau(at, [dirs[i] for i in perm]), param.dtau(at, dirs))


def _same_bytes(p, q):
    return p.sigma.tobytes() == q.sigma.tobytes() and p.zeta.tobytes() == q.zeta.tobytes()


@settings(max_examples=20)
@given(data=st.data())
def test_dtau_shares_terms_only_as_equal_values_would(smooth8, cem8, data):
    param, iota, (a, b) = _draw_point(data, {"smooth": smooth8, "cem": cem8}, 2)
    at = param.tau(iota)
    assert _same_bytes(param.dtau(at, [a, a, b]), param.dtau(at, [a, 1.0 * a, b]))


class _DistinctDirections(Parametrization):
    """Hands ``dtau`` a distinct copy of every direction, so no term can be shared."""

    def dtau(self, at, directions):
        return super().dtau(at, [1.0 * d for d in directions])


@settings(max_examples=8)
@given(data=st.data())
def test_stack_derivatives_share_terms_only_as_equal_values_would(smooth8, cem8, data):
    param, iota, (a, b) = _draw_point(data, {"smooth": smooth8, "cem": cem8}, 2)
    distinct = _DistinctDirections(param.config, param.partition, param.layout, param.kind)
    stacks = [DerivativeStack(p, iota) for p in (param, distinct)]
    for name, args in (("dlambda2", (a,)), ("dlambda3", (a,)), ("mixed_dlambda2", (a, b))):
        shared, copied = (getattr(stack, name)(*args) for stack in stacks)
        assert shared.tobytes() == copied.tobytes()


@settings(max_examples=20)
@given(
    kind=st.sampled_from(["smooth", "cem"]),
    seed=st.integers(0, 2**32 - 1),
    xi_scale=st.floats(0.0, 1.5),
)
def test_clamp_is_idempotent(smooth8, cem8, kind, seed, xi_scale):
    param = {"smooth": smooth8, "cem": cem8}[kind]
    iota = _base_point(param, np.random.default_rng(seed), xi_scale)
    clamped, moved = param.clamp(iota)
    assert param.admissible(clamped)
    assert moved == (not param.admissible(iota))
    again, moved_again = param.clamp(clamped)
    assert again is clamped and not moved_again


@pytest.fixture(scope="module")
def cube_params():
    mesh = kuhn_cube(2)
    layout = define_electrodes(mesh, CUBE_MIDPOINTS, 0.5, 0.4)
    partition = cluster_partition(mesh, 6, seed=1)
    kinds = ("smooth", "cem")
    return {kind: Parametrization(ModelConfig(), partition, layout, kind) for kind in kinds}


@settings(max_examples=16)
@given(
    name=st.sampled_from(["disk smooth", "disk cem", "cube smooth", "cube cem"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_block_derivative_splits_into_its_coordinate_derivatives(
    smooth8, cem8, cube_params, name, seed
):
    # the coordinate Jacobian reads every coordinate's derivative off its block's
    where, kind = name.split()
    param = {"smooth": smooth8, "cem": cem8}[kind] if where == "disk" else cube_params[kind]
    iota = _base_point(param, np.random.default_rng(seed))
    assume(param.admissible(iota))
    at = param.tau(iota)
    eye = np.eye(param.dim)
    for b, block in enumerate(param.coordinate_blocks()):
        whole = param.dtau(at, [param.from_flat(eye[block].sum(axis=0))])
        for label, index in enumerate(block):
            coordinate = param.dtau(at, [param.from_flat(eye[index])])
            if b == 0:
                sigma = np.where(param.partition.cluster_of == label, whole.sigma, 0.0)
                zeta = np.zeros_like(whole.zeta)
            else:
                sigma = np.zeros_like(whole.sigma)
                on = param.layout.efacet_electrode == label
                zeta = np.where(on[:, None], whole.zeta, 0.0)
            assert coordinate.sigma.tobytes() == sigma.tobytes()
            assert coordinate.zeta.tobytes() == zeta.tobytes()
