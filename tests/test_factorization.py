"""The system factorization at case scale: one ordering per pattern, bit for bit, and accuracy.

A layout's :class:`~eitrev.fem.SystemPlan` keeps the MMD ordering of the last
pattern it factored, and factors a system of that pattern pre-permuted in
natural order. The oracles here hold every such factor to a fresh
``splu(K, permc_spec="MMD_AT_PLUS_A")`` of the same ``K``, byte for byte,
and every solve to the bounds of a backward-stable solver.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from eitrev import fem, harness
from eitrev.fem import IndefiniteSystemError
from eitrev.harness import CASES
from eitrev.mesh import define_electrodes, disk_electrode_midpoints
from eitrev.model import ConductivityPair, ParamVector, Parametrization

MMD, NATURAL = "MMD_AT_PLUS_A", "NATURAL"
SPLU = spla.splu  # scipy's own, for the oracle


@pytest.fixture(scope="module")
def partitions():
    """The L3/80 and L4/200 partitions of the cases (C3's two sides)."""
    meas, rec = harness.build_models(CASES["C3"])
    return {"L3/80": rec.param.partition, "L4/200": meas.param.partition}


def _param(partition, kind: str) -> Parametrization:
    """A ``kind`` parametrization on a new layout of the case geometry.

    C1 to C6 share the electrode geometry and the model constants, so this is
    a case side; being new, its plan keeps no ordering yet.
    """
    case = CASES["C1"]
    layout = define_electrodes(
        partition.mesh,
        disk_electrode_midpoints(case.n_electrodes),
        case.electrode_radius,
        case.contact_radius,
    )
    return Parametrization(case.config, partition, layout, kind)


@pytest.fixture
def factors(monkeypatch):
    """The ``permc_spec`` of every ``splu`` call, and the factor of each that returned."""
    specs, lus = [], []

    def splu(A, permc_spec=None, **kwargs):
        specs.append(permc_spec)
        lus.append(SPLU(A, permc_spec=permc_spec, **kwargs))
        return lus[-1]

    monkeypatch.setattr(fem.spla, "splu", splu)
    return specs, lus


def _assert_as_fresh(system, lu, rng):
    """``lu`` (``system``'s factor) pivots and solves as a fresh MMD factor of its matrix.

    The pivots in elimination order and a 15-column solve are compared as
    bytes, and the solve has the memory order of the fresh one's.
    """
    fresh = SPLU(
        system.matrix, permc_spec=MMD, diag_pivot_thresh=0.0, options={"SymmetricMode": True}
    )
    assert lu.U.diagonal().tobytes() == fresh.U.diagonal().tobytes()
    b = rng.standard_normal((system.matrix.shape[0], 15))
    x, expected = system.solve(b), fresh.solve(b)
    assert x.tobytes() == expected.tobytes()
    assert x.flags.f_contiguous == expected.flags.f_contiguous


def _random_point(param, rng, scale, xi_scale):
    """Normal kappa and rho of ``scale`` and xi of ``xi_scale``, clamped, and whether it moved."""
    zero = param.zero()
    kappa, rho = (scale * rng.standard_normal(v.shape) for v in (zero.kappa, zero.rho))
    xi = None if zero.xi is None else xi_scale * rng.standard_normal(zero.xi.shape)
    return param.clamp(ParamVector(kappa, rho, xi))


def _pattern(matrix) -> tuple[bytes, bytes]:
    return matrix.indptr.tobytes(), matrix.indices.tobytes()


@pytest.mark.parametrize(
    "level, kind",
    [("L3/80", "smooth"), ("L4/200", "cem")],
    ids=["C1-and-C3-reconstruction", "C3-measurement"],
)
def test_a_kept_ordering_factors_as_a_fresh_one(partitions, factors, level, kind):
    """The origin, then two random points with the contacts in place: one pattern."""
    param = _param(partitions[level], kind)
    rng = np.random.default_rng(11)
    points = [param.zero(), *(_random_point(param, rng, 0.3, 0.0)[0] for _ in range(2))]
    for point in points:
        system = fem.AssembledSystem(param.layout, param.tau(point))
        _assert_as_fresh(system, factors[1][-1], rng)
    assert factors[0] == [MMD, NATURAL, NATURAL]


def test_a_moved_contact_is_ordered_afresh_and_kept(partitions, factors):
    """Moving smooth contacts moves the zeros of their density, and so the pattern of ``K``."""
    param = _param(partitions["L3/80"], "smooth")
    rng = np.random.default_rng(12)
    moved, _ = _random_point(param, rng, 0.3, 0.05)
    kappa = moved.kappa + 0.3 * rng.standard_normal(moved.kappa.shape)
    again = ParamVector(kappa, moved.rho, moved.xi)  # the contacts stay where they moved
    patterns = []
    for point in (param.zero(), moved, again, param.zero()):
        system = fem.AssembledSystem(param.layout, param.tau(point))
        _assert_as_fresh(system, factors[1][-1], rng)
        patterns.append(_pattern(system.matrix))
    assert patterns[0] == patterns[3] != patterns[1] == patterns[2]
    assert factors[0] == [MMD, MMD, NATURAL, MMD]


def test_an_indefinite_system_of_a_kept_pattern_is_rejected(partitions, factors):
    param = _param(partitions["L3/80"], "smooth")
    origin = param.tau(param.zero())
    fem.AssembledSystem(param.layout, origin)
    sigma = origin.sigma.copy()
    sigma[0] = -1e3 * sigma.max()
    with pytest.raises(IndefiniteSystemError, match=r"pivot \d+ of 304 in elimination order"):
        fem.AssembledSystem(param.layout, ConductivityPair(sigma, origin.zeta))
    assert factors[0] == [MMD, NATURAL]


def test_a_study_computes_one_ordering_per_layout(factors):
    """A 2-draw C1 study (one layout, inverse crime) orders once and factors 13 systems."""
    harness.experiment1(CASES["C1"], n_samples=2)
    assert factors[0] == [MMD] + [NATURAL] * 12


def _assert_backward_stable(system, eigenvalues):
    """A relative residual below ``n eps``, and a refinement step below ``cond(K) n eps``."""
    K = system.matrix.toarray()
    n, k = K.shape[0], system.basis.n_electrodes - 1
    norm, cond = eigenvalues[-1], eigenvalues[-1] / eigenvalues[0]
    eps = np.finfo(float).eps
    b = np.vstack([np.zeros((n - k, k)), np.eye(k)])  # the forward problem's
    x = system.solve(b)
    r = b - K @ x
    residual = np.linalg.norm(r, axis=0) / (norm * np.linalg.norm(x, axis=0))
    assert residual.max() < n * eps
    change = np.linalg.norm(system.solve(r), axis=0) / np.linalg.norm(x, axis=0)
    assert change.max() < cond * n * eps


@pytest.mark.parametrize("level, seed", [("L3/80", 13), ("L4/200", 16)])
def test_forward_solves_are_backward_stable(partitions, factors, level, seed):
    """Residual and one refinement step of ``solve`` at the origin and at a far clamped point.

    A backward-stable solve of the n x n system ``K x = b`` leaves a
    relative residual ``|b - K x| / (|K| |x|)`` below ``n eps``, and one
    step of iterative refinement then changes ``x`` by at most
    ``cond(K) n eps`` relative. ``|K|`` and ``cond(K)`` are measured: ``K``
    is symmetric positive definite, so its dense eigenvalues are its
    singular values and give what ``np.linalg.cond`` gives, at a third of
    the cost. The clamp moves contacts, and so the pattern: each point is
    factored twice, with a fresh ordering and then with the kept one.
    """
    param = _param(partitions[level], "smooth")
    far, moved = _random_point(param, np.random.default_rng(seed), 2.0, 0.2)
    assert moved
    for point in (param.zero(), far):
        pair = param.tau(point)
        systems = [fem.AssembledSystem(param.layout, pair) for _ in range(2)]
        eigenvalues = np.linalg.eigvalsh(systems[0].matrix.toarray())
        assert eigenvalues[0] > 0
        for system in systems:
            _assert_backward_stable(system, eigenvalues)
    assert factors[0] == [MMD, NATURAL] * 2
