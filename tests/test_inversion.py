"""Priors, noise, regularized and subspace inverses, reversion, projections."""

import numpy as np
import pytest

from eitrev import fem
from eitrev.calculus import DerivativeStack, vec
from eitrev.inversion import (
    AssumptionViolatedError,
    PriorGammas,
    PriorModel,
    SequentialResult,
    SubspacePseudoInverse,
    TikhonovInverse,
    build_noise_cov,
    build_prior,
    inout_projector,
    project_in_out,
    revert,
    sequential_linearize,
    solve_tikhonov,
)
from eitrev.mesh import cluster_partition, define_electrodes
from eitrev.model import ConductivityPair, ModelConfig, Parametrization, ParamVector
from test_three_dimensional import kuhn_cube


class TestPrior:
    def test_diagonal_is_pointwise_variance(self, smooth8):
        prior = build_prior(smooth8, PriorGammas(0.4, 0.8, 0.2, 0.05))
        diag = np.diag(prior.cov)
        assert np.allclose(diag[:20], 0.16)
        assert np.allclose(diag[20:28], 0.04)
        assert np.allclose(diag[28:], 0.0025)

    def test_short_correlation_length_decouples(self, smooth8):
        centers = smooth8.partition.centers
        dists = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
        min_dist = dists[dists > 0].min()
        prior = build_prior(smooth8, PriorGammas(0.4, 1e-3 * min_dist, 0.2, 0.05))
        off = prior.cov[:20, :20].copy()
        np.fill_diagonal(off, 0.0)
        assert np.abs(off).max() < 1e-12

    def test_table_values_give_spd(self, smooth16):
        prior = build_prior(smooth16, PriorGammas(0.1, 1.0, 0.1, 0.02))
        evals = np.linalg.eigvalsh(prior.cov)
        assert evals.min() > 0
        assert prior.cov.shape == (80 + 16 + 32,) * 2

    def test_gaussian_kernel_entries(self, smooth8):
        gammas = PriorGammas(0.3, 0.9, 0.1, 0.02)
        prior = build_prior(smooth8, gammas)
        centers = smooth8.partition.centers
        i, j = 2, 11
        expect = 0.09 * np.exp(-np.sum((centers[i] - centers[j]) ** 2) / (2 * 0.81))
        assert prior.cov[i, j] == pytest.approx(expect, rel=1e-12)

    def test_block_order_matches_serialization(self, smooth8):
        # a draw reshaped through the parametrization puts the blocks where
        # the covariance says they are
        prior = build_prior(smooth8, PriorGammas(1e-6, 1.0, 1e-6, 5.0))
        draw = prior.sample(np.random.default_rng(0))
        pv = smooth8.from_flat(draw)
        # only the xi block has non-negligible variance
        assert np.abs(pv.kappa).max() < 1e-4
        assert np.abs(pv.rho).max() < 1e-4
        assert np.abs(pv.xi).max() > 0.5

    def test_cem_prior_has_no_location_block(self, cem8):
        prior = build_prior(cem8, PriorGammas(0.1, 1.0, 0.1))
        assert prior.cov.shape == (28, 28)

    def test_invalid_gammas(self, smooth8):
        with pytest.raises(ValueError):
            build_prior(smooth8, PriorGammas(0.0, 1.0, 0.1, 0.02))


class TestNoise:
    def test_zero_levels_zero_covariance(self, stack8, basis8):
        noise = build_noise_cov(0.0, 0.0, stack8.lam)
        assert np.all(noise.cov == 0.0)
        assert np.all(noise.pattern_std == 0.0)

    def test_delta2_zero_gives_constant_std(self, stack8, basis8):
        noise = build_noise_cov(0.01, 0.0, stack8.lam)
        assert np.allclose(noise.pattern_std, noise.pattern_std[0, 0])

    def test_noise_scale_from_peak_measurement(self, stack8, basis8):
        noise = build_noise_cov(0.01, 0.0, stack8.lam)
        U0 = basis8.B @ stack8.lam @ basis8.B_pinv @ basis8.Bhat
        assert noise.pattern_std[0, 0] == pytest.approx(0.01 * np.abs(U0).max(), rel=1e-13)

    @pytest.mark.parametrize("deltas", [(5e-5, 5e-4), (1e-4, 1e-3), (5e-4, 5e-3)])
    def test_monte_carlo_covariance(self, stack8, basis8, deltas):
        # oracle: empirical covariance of the transformed physical noise
        noise = build_noise_cov(deltas[0], deltas[1], stack8.lam)
        M = 8
        rng = np.random.Generator(np.random.Philox(key=[99, 0]))
        n = 100_000
        acc = np.zeros((49, 49))
        tail = basis8.Bhat_pinv @ basis8.B
        for _ in range(10):
            theta = noise.pattern_std[None, :, :] * rng.standard_normal((n // 10, M, M - 1))
            data = basis8.B_pinv @ theta @ tail
            flat = data.reshape(n // 10, -1, order="F")
            acc += flat.T @ flat
        emp = acc / n
        rel = np.linalg.norm(emp - noise.cov) / np.linalg.norm(noise.cov)
        assert rel < 0.05

    @pytest.mark.parametrize("deltas", [(1e300, 0.0), (0.0, 1e300)])
    def test_levels_whose_covariance_overflows_are_named(self, stack8, deltas):
        # pyproject turns a RuntimeWarning on the way into a failure
        message = r"^deltas \(.*\) are too large: their covariance overflows$"
        with pytest.raises(ValueError, match=message):
            build_noise_cov(*deltas, stack8.lam)

    @staticmethod
    def _eager_inverse(noise):
        """The pseudo-inverse as ``build_noise_cov`` once computed it while building the model."""
        if noise.delta1 == 0.0 and noise.delta2 == 0.0:
            return np.zeros_like(noise.cov)
        evals, evecs = np.linalg.eigh(noise.cov)
        cut = 1e-12 * evals.max()
        with np.errstate(divide="ignore"):
            inv_evals = np.where(evals > cut, 1.0 / evals, 0.0)
        return (evecs * inv_evals[None, :]) @ evecs.T

    @pytest.mark.parametrize("deltas", [(0.0, 0.0), (0.01, 0.0), (0.0, 0.01), (1e-4, 1e-3)])
    def test_inverse_on_first_read_equals_the_eager_formula(self, stack8, deltas, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        noise = build_noise_cov(*deltas, stack8.lam)
        assert not calls  # building the model computes no inverse
        inv = noise.inv
        assert noise.inv is inv and not inv.flags.writeable
        assert len(calls) == (deltas != (0.0, 0.0))
        assert inv.tobytes() == self._eager_inverse(noise).tobytes()

    def test_inverse_is_pseudo_inverse(self, stack8, basis8):
        noise = build_noise_cov(1e-4, 1e-3, stack8.lam)
        approx = noise.cov @ noise.inv @ noise.cov
        assert np.allclose(approx, noise.cov, rtol=1e-8, atol=1e-12 * np.abs(noise.cov).max())


def _small_prior(dim, variance):
    cov = variance * np.eye(dim)
    chol = np.sqrt(variance) * np.eye(dim)
    inv = np.eye(dim) / variance
    return PriorModel(cov=cov, chol=chol, inv=inv, gammas=PriorGammas(1, 1, 1))


class TestTikhonov:
    def test_zero_data_zero_solution(self, stack8, smooth8, basis8):
        prior = build_prior(smooth8, PriorGammas(0.1, 1.0, 0.1, 0.02))
        noise = build_noise_cov(1e-4, 1e-3, stack8.lam)
        inverse = TikhonovInverse(stack8, prior, noise)
        out = inverse(np.zeros((7, 7)))
        assert np.all(out.to_flat() == 0.0)

    def test_weak_prior_approaches_least_squares(self, stack8, basis8):
        J5 = stack8.jacobian()[:, [0, 3, 7, 21, 30]]
        noise = build_noise_cov(1e-4, 1e-3, stack8.lam)
        rng = np.random.default_rng(31)
        psi = rng.standard_normal((7, 7))
        eta = solve_tikhonov(J5, _small_prior(5, 1e6), noise, psi)
        # oracle: weighted least squares through the whitened normal equations
        w = noise.inv
        oracle = np.linalg.solve(J5.T @ w @ J5, J5.T @ w @ vec(psi))
        assert np.linalg.norm(eta - oracle) < 1e-3 * np.linalg.norm(oracle)

    def test_matches_dense_bayes_formula(self, stack8, basis8):
        # oracle: posterior-mean identity using the covariance form
        J5 = stack8.jacobian()[:, [0, 3, 7, 21, 30]]
        noise = build_noise_cov(1e-3, 1e-2, stack8.lam)
        prior_cov = np.diag([0.5, 0.2, 0.1, 0.4, 0.3])
        prior = PriorModel(
            cov=prior_cov,
            chol=np.linalg.cholesky(prior_cov),
            inv=np.linalg.inv(prior_cov),
            gammas=PriorGammas(1, 1, 1),
        )
        rng = np.random.default_rng(32)
        psi = rng.standard_normal((7, 7))
        eta = solve_tikhonov(J5, prior, noise, psi)
        gain = prior_cov @ J5.T @ np.linalg.pinv(J5 @ prior_cov @ J5.T + noise.cov)
        oracle = gain @ vec(psi)
        assert np.allclose(eta, oracle, atol=1e-8 * max(1.0, np.abs(oracle).max()))

    def test_first_order_optimality(self, stack8, smooth8, basis8):
        prior = build_prior(smooth8, PriorGammas(0.1, 1.0, 0.1, 0.02))
        noise = build_noise_cov(1e-4, 1e-3, stack8.lam)
        inverse = TikhonovInverse(stack8, prior, noise)
        rng = np.random.default_rng(33)
        psi = rng.standard_normal((7, 7))
        eta = inverse(psi).to_flat()
        J = stack8.jacobian()
        grad = 2.0 * J.T @ noise.inv @ (J @ eta - vec(psi)) + 2.0 * prior.inv @ eta
        scale = np.linalg.norm(2.0 * J.T @ noise.inv @ vec(psi))
        assert np.linalg.norm(grad) < 1e-8 * scale


def coordinate_directions(param, indices):
    dirs = []
    for idx in indices:
        e = np.zeros(param.dim)
        e[idx] = 1.0
        dirs.append(param.from_flat(e))
    return dirs


def subspace_directions(stack, dim):
    """Deterministic well-conditioned subspace: boundary clusters + contacts."""
    param = stack.param
    part = param.partition
    M = param.n_electrodes
    by_radius = np.argsort(-np.linalg.norm(part.centers, axis=1))
    n_kappa = dim - min(M // 2, dim // 2)
    idx = [int(i) for i in by_radius[:n_kappa]]
    idx += [param.n_clusters + 2 * m for m in range(dim - n_kappa)]
    return coordinate_directions(param, idx)


class TestSubspacePseudoInverse:
    def test_left_inverse_on_range(self, stack8):
        dirs = subspace_directions(stack8, 6)
        inv = SubspacePseudoInverse(stack8, dirs)
        rng = np.random.default_rng(41)
        coeff = rng.standard_normal(6)
        w = coeff[0] * dirs[0]
        for c, d in zip(coeff[1:], dirs[1:]):
            w = w + c * d
        data = stack8.dlambda1(w)
        back = inv(data)
        assert np.linalg.norm((back - w).to_flat()) < 1e-10 * np.linalg.norm(w.to_flat())

    def test_orthogonal_data_maps_to_zero(self, stack8):
        dirs = subspace_directions(stack8, 5)
        inv = SubspacePseudoInverse(stack8, dirs)
        F = stack8.jacobian(dirs)
        rng = np.random.default_rng(42)
        raw = rng.standard_normal(49)
        q, _ = np.linalg.qr(F)
        ortho = raw - q @ (q.T @ raw)
        out = inv(ortho.reshape(7, 7, order="F"))
        assert np.linalg.norm(out.to_flat()) < 1e-10 * np.linalg.norm(ortho)

    def test_duplicated_direction_raises(self, stack8):
        dirs = subspace_directions(stack8, 5)
        with pytest.raises(AssumptionViolatedError):
            SubspacePseudoInverse(stack8, dirs + [dirs[0]])


def _restrict(matrix, in_electrodes, out_electrodes, basis):
    """project_in_out, with None standing for every electrode as in the inverses."""
    every = range(basis.n_electrodes)
    return project_in_out(
        matrix,
        every if in_electrodes is None else in_electrodes,
        every if out_electrodes is None else out_electrodes,
        basis,
    )


def _restricted_columns(jacobian, in_electrodes, out_electrodes, basis):
    """Each Jacobian column reshaped to a matrix, restricted, and stacked back."""
    n = basis.B.shape[1]
    return np.column_stack(
        [
            vec(_restrict(col.reshape(n, n, order="F"), in_electrodes, out_electrodes, basis))
            for col in jacobian.T
        ]
    )


# (in_electrodes, out_electrodes) passed to the inverses; None keeps all of them.
_IN_OUT = [([0, 1, 2, 3, 4], [2, 3, 4, 5, 6, 7]), ([1, 3, 5, 7], None), (None, [0, 2, 4, 5, 6])]
# The same on C1's 16 electrodes, each pair keeping at least 99 data dimensions.
_IN_OUT16 = [
    (list(range(10)), list(range(4, 16))),
    (list(range(1, 16, 2)), None),
    (None, list(range(0, 16, 2))),
]
# (stack fixture, subspace dimension, in_electrodes, out_electrodes): the desk
# layout, and C1's L3/80 side with 10 and 40 coordinate directions
_IDS = ["in_electrodes0-out_electrodes0", "in_electrodes1-None", "None-out_electrodes2"]
_SUBSPACES = [pytest.param("stack8", 5, *io, id=name) for io, name in zip(_IN_OUT, _IDS)]
_SUBSPACES += [
    pytest.param("stack16", dim, *io, id=f"C1-L3-80-{dim}-{i}")
    for dim in (10, 40)
    for i, io in enumerate(_IN_OUT16)
]


class TestInOutOptions:
    """The inverses with feed/measure subsets solve the restricted problem."""

    @pytest.mark.parametrize("in_electrodes, out_electrodes", _IN_OUT)
    def test_tikhonov_matches_restricted_jacobian(
        self, stack8, smooth8, basis8, in_electrodes, out_electrodes
    ):
        prior = build_prior(smooth8, PriorGammas(0.1, 1.0, 0.1, 0.02))
        noise = build_noise_cov(1e-4, 1e-3, stack8.lam)
        inverse = TikhonovInverse(stack8, prior, noise, in_electrodes, out_electrodes)
        J = _restricted_columns(stack8.jacobian(), in_electrodes, out_electrodes, basis8)
        psi = np.random.default_rng(71).standard_normal((7, 7))
        restricted = _restrict(psi, in_electrodes, out_electrodes, basis8)
        expect = solve_tikhonov(J, prior, noise, restricted)
        got = inverse(psi).to_flat()
        assert np.allclose(inverse.jacobian, J, rtol=0, atol=1e-12 * np.abs(J).max())
        assert np.allclose(got, expect, rtol=0, atol=1e-10 * np.abs(expect).max())

    @pytest.mark.parametrize("stack, dim, in_electrodes, out_electrodes", _SUBSPACES)
    def test_subspace_matches_restricted_least_squares(
        self, request, stack, dim, in_electrodes, out_electrodes
    ):
        stack = request.getfixturevalue(stack)
        basis = stack.basis
        dirs = subspace_directions(stack, dim)
        inverse = SubspacePseudoInverse(stack, dirs, in_electrodes, out_electrodes)
        F = _restricted_columns(stack.jacobian(dirs), in_electrodes, out_electrodes, basis)
        n = basis.B.shape[1]
        psi = np.random.default_rng(72).standard_normal((n, n))
        rhs = vec(_restrict(psi, in_electrodes, out_electrodes, basis))
        coef = np.linalg.lstsq(F, rhs, rcond=None)[0]
        got = inverse(psi).to_flat()
        expect = sum(c * d.to_flat() for c, d in zip(coef, dirs))
        # Both solves are backward stable, so they differ by about cond(F) eps
        # relative: measured 0.05 to 1.7 times that, for cond(F) from 10 to 3e5.
        bound = 10.0 * np.linalg.cond(F) * np.finfo(float).eps
        assert np.abs(got - expect).max() <= bound * np.abs(expect).max()


class TestRevert:
    def test_zero_residual_collapses(self, stack8, smooth8, basis8):
        prior = build_prior(smooth8, PriorGammas(0.1, 1.0, 0.1, 0.02))
        noise = build_noise_cov(1e-4, 1e-3, stack8.lam)
        inverse = TikhonovInverse(stack8, prior, noise)
        result = revert(stack8, inverse, stack8.lam.copy(), order=3)
        for eta in result.etas:
            assert np.all(eta.to_flat() == 0.0)

    def test_memo_lives_for_one_reversion(self, stack8, smooth8, basis8):
        prior = build_prior(smooth8, PriorGammas(0.1, 1.0, 0.1, 0.02))
        noise = build_noise_cov(1e-4, 1e-3, stack8.lam)
        inverse = TikhonovInverse(stack8, prior, noise)
        J = stack8.jacobian()
        rng = np.random.default_rng(45)
        data = stack8.lam + 1e-3 * rng.standard_normal((7, 7))
        memo = _memo_of(stack8)
        two = revert(stack8, inverse, data, order=2)
        assert two.stack is not stack8 and two.stack.jacobian() is J
        assert not _memo_is_empty(two.stack)
        three = revert(stack8, inverse, data, order=3, start=two)
        assert three.stack is None
        assert _memo_of(stack8) == memo
        assert stack8.jacobian() is J

    def test_partial_sums_exact(self, stack8, smooth8, basis8):
        prior = build_prior(smooth8, PriorGammas(0.1, 1.0, 0.1, 0.02))
        noise = build_noise_cov(1e-4, 1e-3, stack8.lam)
        inverse = TikhonovInverse(stack8, prior, noise)
        rng = np.random.default_rng(44)
        data = stack8.lam + 1e-3 * rng.standard_normal((7, 7))
        result = revert(stack8, inverse, data, order=3)
        ps2 = result.partial_sum(2)
        ps3 = result.partial_sum(3)
        assert np.array_equal(ps3.to_flat(), (ps2 + result.etas[2]).to_flat())

    def test_trivial_parametrization_second_order(self, stack8, linear_parametrization):
        # with tau'' = 0 the second increment is -M T P(eta1)^2 N
        system = stack8.system
        tau0 = system.tau
        rng = np.random.default_rng(45)
        modes = [
            ConductivityPair(
                0.02 * rng.standard_normal(system.mesh.n_cells) * tau0.sigma,
                0.02 * rng.standard_normal() * tau0.zeta,
            )
            for _ in range(4)
        ]
        linear = linear_parametrization(system.layout, tau0, modes)
        stack = DerivativeStack(linear, linear.zero())
        dirs = [np.eye(4)[i] for i in range(4)]
        inv = SubspacePseudoInverse(stack, dirs)
        target = np.array([0.3, -0.2, 0.15, 0.05])
        data = fem.forward_map(fem.AssembledSystem(system.layout, linear.tau(target)))
        result = revert(stack, inv, data, order=2)
        eta1 = result.etas[0]
        pair1 = linear.dtau(linear.tau(linear.zero()), [eta1])
        once = system.perturbation(pair1).apply(stack.base)
        twice = system.perturbation(pair1).apply(once)
        expect = -1.0 * inv(twice.coefficients(stack8.basis))
        assert np.allclose(result.etas[1], expect, atol=1e-11)

    @pytest.mark.parametrize("dim", [5, 10, 20])
    @pytest.mark.parametrize("electrodes", [8, 16])
    def test_convergence_orders(self, dim, electrodes, stack8, stack16):
        stack = stack8 if electrodes == 8 else stack16
        system = stack.system
        dirs = subspace_directions(stack, dim)
        inv = SubspacePseudoInverse(stack, dirs)
        assert inv.condition_number < 1e4
        rng = np.random.default_rng(46)
        coeff = rng.standard_normal(dim)
        w = coeff[0] * dirs[0]
        for c, d in zip(coeff[1:], dirs[1:]):
            w = w + c * d
        w = (1.0 / np.linalg.norm(w.to_flat())) * w
        tvals = [2.0 ** (-k) for k in range(1, 6)]
        errs = {1: [], 2: [], 3: []}
        for t in tvals:
            target = t * w
            data = fem.forward_map(fem.AssembledSystem(system.layout, stack.param.tau(target)))
            result = revert(stack, inv, data, order=3)
            for K in (1, 2, 3):
                errs[K].append(
                    np.linalg.norm((target - result.partial_sum(K)).to_flat())
                )
        for K in (1, 2, 3):
            slope = np.polyfit(np.log(tvals), np.log(errs[K]), 1)[0]
            assert slope == pytest.approx(K + 1, abs=0.25)


def _result_bytes(result):
    """Increments, partial sums and operand norms of a reversion, as exact bytes."""
    return (
        [eta.to_flat().tobytes() for eta in result.etas],
        [result.partial_sum(k).to_flat().tobytes() for k in range(1, result.order + 1)],
        np.array(result.operand_norms).tobytes(),
    )


def _memo_is_empty(stack):
    return stack._handles == [] and stack._ops == {} and stack._chains == {}


def _memo_of(stack):
    """The entries of a stack's memo, by identity."""
    return (
        [id(eta) for eta in stack._handles],
        {key: id(op) for key, op in stack._ops.items()},
        {key: id(chain) for key, chain in stack._chains.items()},
    )


class TestContinuation:
    """A reversion continued from an earlier one equals a fresh one, bit for bit."""

    @pytest.fixture(scope="class", params=["disk", "cube"])
    def geometry(self, request, layout8, part20):
        if request.param == "disk":
            return layout8, part20
        mesh = kuhn_cube(2)
        midpoints = np.array([[0.5, 0.0, 0.5], [1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.0, 0.5, 0.5]])
        return define_electrodes(mesh, midpoints, 0.5, 0.4), cluster_partition(mesh, 6, seed=2)

    @pytest.fixture(scope="class", params=["smooth-origin", "smooth-point", "cem-origin", "cem-point"])
    def setting(self, request, geometry):
        """A stack, its Tikhonov inverse and a data matrix near its map."""
        kind, where = request.param.split("-")
        param = Parametrization(ModelConfig(), geometry[1], geometry[0], kind)
        rng = np.random.default_rng(61)
        iota = param.zero()
        while where == "point":
            iota = param.from_flat(0.05 * rng.standard_normal(param.dim))
            where = "point" if not param.admissible(iota) else "found"
        stack = DerivativeStack(param, iota)
        prior = build_prior(param, PriorGammas(0.1, 1.0, 0.1, 0.02))
        noise = build_noise_cov(1e-4, 1e-3, stack.lam)
        data = stack.lam + 1e-2 * np.abs(stack.lam).max() * rng.standard_normal(stack.lam.shape)
        return stack, TikhonovInverse(stack, prior, noise), data

    @pytest.mark.parametrize("j, k", [(1, 2), (1, 3), (2, 3)])
    def test_continued_equals_fresh(self, setting, j, k):
        stack, inverse, data = setting
        fresh = revert(stack, inverse, data, k)
        start = revert(stack, inverse, data, j)
        continued = revert(stack, inverse, data, k, start=start)
        assert _result_bytes(continued) == _result_bytes(fresh)
        assert all(a is b for a, b in zip(continued.etas, start.etas))
        assert start.order == j

    @pytest.mark.parametrize("j, k", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
    def test_a_lower_order_is_a_slice(self, setting, j, k, monkeypatch):
        stack, inverse, data = setting
        fresh = revert(stack, inverse, data, k)
        start = revert(stack, inverse, data, j)

        def untouched(*args):
            raise AssertionError("a slice computes nothing")

        monkeypatch.setattr(type(stack), "_chain", untouched)
        sliced = revert(stack, untouched, data, k, start=start)
        assert sliced.etas == start.etas[:k]
        assert sliced.operand_norms == start.operand_norms[:k]
        assert _result_bytes(sliced) == _result_bytes(fresh)

    def test_continuation_takes_only_the_missing_perturbations(self, setting, monkeypatch):
        stack, inverse, data = setting
        calls = []
        perturbation = fem.AssembledSystem.perturbation

        def counted(system, pair):
            calls.append(pair)
            return perturbation(system, pair)

        monkeypatch.setattr(fem.AssembledSystem, "perturbation", counted)
        one = revert(stack, inverse, data, 1)
        two = revert(stack, inverse, data, 2, start=one)
        assert len(calls) == 2  # eta1; (eta1, eta1)
        assert two.stack is one.stack and not _memo_is_empty(two.stack)
        three = revert(stack, inverse, data, 3, start=two)
        assert len(calls) == 5  # (eta1, eta1, eta1); eta2; (eta1, eta2)
        assert three.stack is None and _memo_is_empty(stack)

    def test_a_fresh_reversion_clears_the_memo_first(self, setting):
        stack, inverse, data = setting
        first = revert(stack, inverse, data, 2)
        handles = len(first.stack._handles)
        # a stack with entries of its own gives a branch without them
        busy = stack.branch()
        busy.dlambda3(first.etas[0])
        memo = _memo_of(busy)
        again = revert(busy, inverse, data, 2)
        assert again.stack is not first.stack and len(again.stack._handles) == handles
        assert _memo_of(busy) == memo and _memo_is_empty(stack)

    def test_a_failed_continuation_keeps_its_start_and_empties_the_memo(
        self, setting, monkeypatch
    ):
        stack, inverse, data = setting
        start = revert(stack, inverse, data, 2)
        before = _result_bytes(start)

        def failing(*args):
            raise RuntimeError("synthetic failure")

        with monkeypatch.context() as patch:
            patch.setattr(type(stack), "mixed_dlambda2", failing)
            with pytest.raises(RuntimeError, match="synthetic"):
                revert(stack, inverse, data, 3, start=start)
        assert _memo_is_empty(stack)
        assert start.order == 2 and _result_bytes(start) == before
        rerun = revert(stack, inverse, data, 3, start=start)
        assert _result_bytes(rerun) == _result_bytes(revert(stack, inverse, data, 3))


class TestSequential:
    def _tikhonov_setup(self, stack, smooth8, basis8):
        prior = build_prior(smooth8, PriorGammas(0.1, 1.0, 0.1, 0.02))
        noise = build_noise_cov(1e-4, 1e-3, stack.lam)
        return prior, noise

    @staticmethod
    def _rebase(param, prior, noise):
        def rebase(upsilon):
            return TikhonovInverse(DerivativeStack(param, upsilon), prior, noise)

        return rebase

    def test_step_one_equals_first_order_reversion(self, stack8, smooth8, basis8):
        prior, noise = self._tikhonov_setup(stack8, smooth8, basis8)
        inverse = TikhonovInverse(stack8, prior, noise)
        rng = np.random.default_rng(51)
        data = stack8.lam + 1e-3 * rng.standard_normal((7, 7))
        rev = revert(stack8, inverse, data, order=1)
        seq = sequential_linearize(
            lambda iota: (_ for _ in ()).throw(AssertionError("no rebuild for 1 step")),
            data,
            1,
            inverse,
        )
        assert np.array_equal(
            seq.iterates[0].to_flat(), rev.partial_sum(1).to_flat()
        )

    def test_rebase_runs_once_per_step_after_the_first_not_supplied(
        self, stack8, smooth8, basis8
    ):
        prior, noise = self._tikhonov_setup(stack8, smooth8, basis8)
        inverse = TikhonovInverse(stack8, prior, noise)
        data = stack8.lam + 1e-3 * np.random.default_rng(53).standard_normal((7, 7))
        points = []

        def rebase(upsilon):
            points.append(upsilon)
            return inverse

        def same(xs, ys):
            return len(xs) == len(ys) and all(
                np.array_equal(x.to_flat(), y.to_flat()) for x, y in zip(xs, ys)
            )

        full = sequential_linearize(rebase, data, 3, inverse)
        assert same(points, full.iterates[:2])
        for supplied, steps in ((1, 3), (2, 3), (3, 3), (3, 2)):
            points.clear()
            start = SequentialResult(full.iterates[:supplied], full.clamped[:supplied])
            seq = sequential_linearize(rebase, data, steps, inverse, start)
            assert len(points) == steps - min(supplied, steps)
            assert same(points, full.iterates[supplied - 1 : steps - 1])
            assert same(seq.iterates, full.iterates[:steps])

    def test_zero_data_residual_stays_zero(self, disk2, layout8, smooth8, basis8):
        stack = DerivativeStack(smooth8, smooth8.zero())
        prior, noise = self._tikhonov_setup(stack, smooth8, basis8)
        seq = sequential_linearize(
            self._rebase(smooth8, prior, noise),
            stack.lam.copy(),
            3,
            TikhonovInverse(stack, prior, noise),
        )
        for it in seq.iterates:
            assert np.all(it.to_flat() == 0.0)

    def test_weighted_residual_non_increasing(self, disk2, layout8, smooth8, basis8):
        iota0 = smooth8.zero()
        rng = np.random.default_rng(52)
        target = ParamVector(
            0.05 * rng.standard_normal(20),
            0.05 * rng.standard_normal(8),
            0.01 * rng.standard_normal((8, 2)),
        )
        data = fem.forward_map(fem.AssembledSystem(layout8, smooth8.tau(target)))
        stack = DerivativeStack(smooth8, iota0)
        prior, noise = self._tikhonov_setup(stack, smooth8, basis8)
        seq = sequential_linearize(
            self._rebase(smooth8, prior, noise), data, 3, TikhonovInverse(stack, prior, noise)
        )
        residuals = [float(vec(data - stack.lam) @ noise.inv @ vec(data - stack.lam))]
        for it in seq.iterates:
            lam_it = fem.forward_map(fem.AssembledSystem(layout8, smooth8.tau(it)))
            r = vec(data - lam_it)
            residuals.append(float(r @ noise.inv @ r))
        for a, b in zip(residuals[:-1], residuals[1:]):
            assert b <= a * (1.0 + 1e-12)


class TestProjections:
    def test_full_sets_identity(self, basis8):
        rng = np.random.default_rng(61)
        matrix = rng.standard_normal((7, 7))
        out = project_in_out(matrix, range(8), range(8), basis8)
        assert np.allclose(out, matrix, atol=1e-12)

    def test_idempotent(self, basis8):
        rng = np.random.default_rng(62)
        matrix = rng.standard_normal((7, 7))
        once = project_in_out(matrix, [0, 2, 5], [1, 3, 4, 6], basis8)
        twice = project_in_out(once, [0, 2, 5], [1, 3, 4, 6], basis8)
        assert np.allclose(once, twice, atol=1e-12)

    def test_matches_gram_schmidt_oracle(self, basis8):
        subset = [1, 4, 6]
        got = inout_projector(basis8, subset)
        # oracle: orthonormalize the mean-free span of the subset directions
        cols = []
        for k in subset[1:]:
            v = np.zeros(8)
            v[subset[0]] = 1.0
            v[k] = -1.0
            cols.append(v)
        q, _ = np.linalg.qr(np.column_stack(cols))
        oracle = basis8.B.T @ (q @ q.T) @ basis8.B
        assert np.allclose(got, oracle, atol=1e-12)

    def test_empty_subset_rejected(self, basis8):
        with pytest.raises(ValueError):
            inout_projector(basis8, [])
