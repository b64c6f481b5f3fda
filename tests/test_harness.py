"""Simulation, indicators, experiment drivers, and file formats."""

import copy
import gc
import json
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eitrev import fem, harness, model
from eitrev.calculus import DerivativeStack
from eitrev.harness import (
    CASES,
    Reconstructor,
    build_models,
    build_noise_cov_for_side,
    case_from_config,
    draw_target,
    experiment1,
    experiment2,
    indicators,
    read_measurement,
    read_matrix,
    retained_mask,
    sample_rng,
    side_forward_map,
    simulate_from_map,
    simulate_measurements,
    write_experiment1_csv,
    write_experiment2_csv,
    write_matrix,
    write_measurement,
    write_reconstruction,
)
from eitrev.inversion import (
    PriorGammas,
    TikhonovInverse,
    build_noise_cov,
    build_prior,
    revert,
    sequential_linearize,
)
from eitrev.mesh import Partition
from eitrev.model import AdmissibilityError, Parametrization, ParamVector


@pytest.fixture(scope="module")
def small_case():
    case = CASES["C1"]
    return replace(case, n_samples=3)


@pytest.fixture(scope="module")
def sides(small_case):
    return build_models(small_case)


@pytest.fixture
def layout_checks(monkeypatch):
    """The electrodes of every admissibility check made while the test runs, one list per check."""
    calls = []
    check = model._admissible_contacts

    def counted(layout, xi, config):
        calls.append(list(range(len(xi))))
        return check(layout, xi, config)

    monkeypatch.setattr(model, "_admissible_contacts", counted)
    return calls


class TestDraws:
    def test_same_seed_same_draw(self, smooth8):
        prior = build_prior(smooth8, PriorGammas(0.1, 1.0, 0.1, 0.02))
        draw = [prior.sample(sample_rng(seed, 0)) for seed in (5, 5, 6)]
        assert np.array_equal(draw[0], draw[1])
        assert not np.array_equal(draw[0], draw[2])

    def test_kappa_variance_monte_carlo(self, smooth8):
        gammas = PriorGammas(0.25, 0.7, 0.1, 0.02)
        prior = build_prior(smooth8, gammas)
        rng = sample_rng(77, 0)
        draws = np.column_stack([prior.sample(rng) for _ in range(10_000)])
        var = draws[:20].var(axis=1)
        assert np.all(np.abs(var - gammas.gamma_kappa**2) < 0.05 * gammas.gamma_kappa**2)

    def test_kappa_correlation_at_length_scale(self, smooth8):
        centers = smooth8.partition.centers
        i, j = 0, int(np.argsort(np.linalg.norm(centers - centers[0], axis=1))[10])
        lam = float(np.linalg.norm(centers[i] - centers[j]))
        prior = build_prior(smooth8, PriorGammas(0.3, lam, 0.1, 0.02))
        rng = sample_rng(78, 0)
        draws = np.column_stack([prior.sample(rng) for _ in range(10_000)])
        corr = np.corrcoef(draws[i], draws[j])[0, 1]
        assert corr == pytest.approx(math.exp(-0.5), abs=0.05)

    def test_sample_covariance_matches_the_prior_covariance(self, sides):
        # the Monte Carlo pattern of acceptance criterion 5, on C1's reconstruction side
        _, rec = sides
        prior = build_prior(rec.param, rec.spec.gammas)
        cov = prior.cov
        n, chunk = 50_000, 5_000
        rng = sample_rng(79, 0)
        acc = np.zeros_like(cov)
        for _ in range(n // chunk):
            draws = np.column_stack([prior.sample(rng) for _ in range(chunk)])
            acc += draws @ draws.T
        rel = np.linalg.norm(acc / n - cov) / np.linalg.norm(cov)
        # E|S - C|_F^2 = (|C|_F^2 + tr(C)^2) / n for n zero-mean Gaussian draws
        rms = math.sqrt((1.0 + np.trace(cov) ** 2 / np.sum(cov * cov)) / n)
        assert rel < 3.0 * rms < 0.03

    @pytest.mark.parametrize("seed, index", [(-1, 0), (2**64, 0), (0, -1)])
    def test_sample_stream_outside_key_range_raises(self, seed, index):
        with pytest.raises(ValueError, match="must be an integer in 0..2"):
            sample_rng(seed, index)

    def test_target_locations_fixed_at_center(self, sides):
        meas, _ = sides
        prior = build_prior(meas.param, PriorGammas(0.1, 1.0, 0.1, 0.02))
        target = draw_target(meas, prior, sample_rng(3, 0))
        assert np.all(target.xi == 0.0)
        assert np.any(target.kappa != 0.0)


class TestSimulate:
    def test_noiseless_data_equals_forward_map(self, sides):
        meas, _ = sides
        noise = build_noise_cov_for_side(meas, (0.0, 0.0))
        target = meas.param.zero()
        record = simulate_measurements(meas, target, noise, sample_rng(1, 0))
        assert np.allclose(record.upsilon, record.lam_target, atol=1e-13)

    def test_physical_voltages_mean_free(self, sides):
        meas, _ = sides
        noise = build_noise_cov_for_side(meas, (1e-3, 1e-2))
        prior = build_prior(meas.param, meas.spec.gammas)
        rng = sample_rng(2, 0)
        target = draw_target(meas, prior, rng)
        record = simulate_measurements(meas, target, noise, rng)
        assert np.abs(record.physical_voltages.sum(axis=0)).max() < 1e-12

    def test_noise_scale_with_delta2_zero(self, sides):
        meas, _ = sides
        noise = build_noise_cov_for_side(meas, (0.01, 0.0))
        lam0 = side_forward_map(meas, meas.param.zero())
        basis = noise.basis
        U0 = basis.B @ lam0 @ basis.B_pinv @ basis.Bhat
        assert np.allclose(noise.pattern_std, 0.01 * np.abs(U0).max(), rtol=1e-12)

    def test_monte_carlo_mean_recovers_noiseless(self, sides):
        meas, _ = sides
        noise = build_noise_cov_for_side(meas, (1e-3, 1e-2))
        target = meas.param.zero()
        lam = side_forward_map(meas, target)
        rng = sample_rng(4, 0)
        n = 10_000
        acc = np.zeros_like(lam)
        for _ in range(n):
            acc += simulate_from_map(lam, target, noise, rng).upsilon
        mean = acc / n
        band = 3.0 * math.sqrt(np.trace(noise.cov) / n)
        assert np.linalg.norm(mean - lam) < band

    def test_target_is_checked_once(self, sides, layout_checks):
        meas, _ = sides
        noise = build_noise_cov_for_side(meas, (0.01, 0.0))
        target = meas.param.zero()
        layout_checks.clear()
        simulate_measurements(meas, target, noise, sample_rng(1, 0))
        assert layout_checks == [list(range(meas.param.n_electrodes))]

    def test_inadmissible_target_rejected(self, sides):
        meas, _ = sides
        noise = build_noise_cov_for_side(meas, (0.0, 0.0))
        xi = np.zeros((16, 2))
        xi[0] = [5.0, 0.0]
        bad = ParamVector(np.zeros(meas.param.partition.n_clusters), np.zeros(16), xi)
        with pytest.raises(AdmissibilityError):
            simulate_measurements(meas, bad, noise, sample_rng(1, 0))


class TestIndicators:
    def test_exact_reconstruction_noiseless(self, sides):
        meas, rec = sides
        noise = build_noise_cov_for_side(meas, (0.0, 0.0))
        prior = build_prior(meas.param, meas.spec.gammas)
        rng = sample_rng(5, 0)
        target = draw_target(meas, prior, rng)
        record = simulate_measurements(meas, target, noise, rng)
        lam0 = side_forward_map(rec, rec.param.zero())
        ind = indicators(rec, meas, target, target, record.upsilon, lam0)
        assert ind.res < 1e-12 * np.linalg.norm(record.upsilon)
        assert ind.err == 0.0
        assert ind.err_rel == 0.0

    def test_zero_reconstruction_unit_relative_residual(self, sides):
        meas, rec = sides
        noise = build_noise_cov_for_side(meas, (1e-4, 1e-3))
        prior = build_prior(meas.param, meas.spec.gammas)
        rng = sample_rng(6, 0)
        target = draw_target(meas, prior, rng)
        record = simulate_measurements(meas, target, noise, rng)
        lam0 = side_forward_map(rec, rec.param.zero())
        ind = indicators(rec, meas, rec.param.zero(), target, record.upsilon, lam0)
        assert ind.res_rel == pytest.approx(1.0, abs=1e-12)

    def test_domain_error_volume_weighted_oracle(self, sides):
        meas, rec = sides
        vols = meas.param.partition.cluster_volumes
        rng = np.random.default_rng(7)
        kappa_t = rng.standard_normal(meas.param.partition.n_clusters)
        kappa_r = rng.standard_normal(rec.param.partition.n_clusters)
        target = ParamVector(kappa_t, np.zeros(16), np.zeros((16, 2)))
        upsilon_i = ParamVector(kappa_r, np.zeros(16), np.zeros((16, 2)))
        data = np.zeros((15, 15))
        ind = indicators(rec, meas, upsilon_i, target, data, np.zeros((15, 15)))
        # same partition here (inverse crime): direct volume-weighted norm
        expect = math.sqrt(float(np.sum(vols * (kappa_r - kappa_t) ** 2)))
        assert ind.err == pytest.approx(expect, rel=1e-12)


    def test_data_of_another_shape_is_rejected(self, sides):
        meas, rec = sides
        lam0 = side_forward_map(rec, rec.param.zero())
        zero = rec.param.zero()
        for data in (lam0[:1], lam0[:, :14], lam0.ravel()):
            with pytest.raises(ValueError, match=r"shape \(15, 15\)"):
                indicators(rec, meas, zero, zero, data, lam0)


class TestRetention:
    def test_bottom_fraction_with_ties(self):
        ref = np.array([5.0, 1.0, 5.0, 0.5, 2.0])
        mask = retained_mask(ref)
        # keeps 4 of 5; the tie at 5.0 breaks toward the lower index
        assert mask.tolist() == [True, True, False, True, True]

    def test_one_sample_is_kept(self):
        assert retained_mask(np.array([3.0])).tolist() == [True]

    def test_exact_count(self):
        rng = np.random.default_rng(8)
        ref = rng.standard_normal(50)
        mask = retained_mask(ref)
        assert mask.sum() == 40
        assert ref[mask].max() <= ref[~mask].min()


class TestExperiment1:
    def test_deterministic_csv(self, small_case, tmp_path):
        r1 = experiment1(small_case, n_samples=3, seed=11)
        r2 = experiment1(small_case, n_samples=3, seed=11)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_experiment1_csv(r1, d1)
        write_experiment1_csv(r2, d2)
        for name in ("summary.csv", "samples.csv", "distributions.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_inverse_crime_sequential_residual_floor(self, small_case):
        quiet = replace(
            small_case, measurement=replace(small_case.measurement, deltas=(0.0, 0.0))
        )
        result = experiment1(quiet, methods=("1,1,1",), n_samples=2, seed=13)
        vals = result.table["1,1,1"]["res_rel"]
        assert np.all(vals < 1e-3)

    def test_zero_noise_trivial_targets_hit_solver_floor(self, small_case):
        tiny = PriorGammas(1e-12, 1.0, 1e-12, 1e-12)
        quiet = replace(
            small_case,
            measurement=replace(small_case.measurement, deltas=(0.0, 0.0), gammas=tiny),
        )
        result = experiment1(quiet, methods=("1", "2", "1,1"), n_samples=2, seed=14)
        lam_scale = 40.0  # magnitude of the reference map entries
        for method in ("1", "2", "1,1"):
            assert np.all(result.table[method]["res"] < 1e-9 * lam_scale)

    def test_one_reversion_serves_methods_one_two_and_three(self, small_case, monkeypatch):
        counts = {"perturbation": 0, "dlambda2": 0, "tikhonov": 0}
        directions = []
        item = []
        simulate = harness.simulate_measurements
        dtau = Parametrization.dtau

        def item_start(*args, **kwargs):
            item.append(True)
            return simulate(*args, **kwargs)

        def logged(param, at, dirs):
            if item:
                directions.append(len(dirs))
            return dtau(param, at, dirs)

        def counted(name, method):
            def wrapper(*args, **kwargs):
                counts[name] += bool(item)
                return method(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(harness, "simulate_measurements", item_start)
        monkeypatch.setattr(Parametrization, "dtau", logged)
        for owner, attr, name in (
            (fem.AssembledSystem, "perturbation", "perturbation"),
            (DerivativeStack, "dlambda2", "dlambda2"),
            (TikhonovInverse, "__call__", "tikhonov"),
        ):
            monkeypatch.setattr(owner, attr, counted(name, getattr(owner, attr)))
        result = experiment1(small_case, methods=("1", "2", "3"), n_samples=1, seed=16)
        assert not result.failures
        # eta1, (eta1, eta1), (eta1, eta1, eta1), eta2 and (eta1, eta2), once each
        assert counts == {"perturbation": 5, "dlambda2": 1, "tikhonov": 3}
        assert sorted(directions) == [1, 1, 2, 2, 3]

    def test_failures_recorded_not_fatal(self, small_case, monkeypatch):
        calls = {"n": 0}
        original = Reconstructor.run

        def flaky(self, method, data):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("synthetic failure")
            return original(self, method, data)

        monkeypatch.setattr(Reconstructor, "run", flaky)
        result = experiment1(small_case, methods=("1",), n_samples=2, seed=15)
        assert len(result.failures) == 1
        assert result.failures[0][0] == 1  # second sample
        assert np.isnan(result.table["1"]["res"][1])

    def test_a_programming_error_propagates(self, small_case, monkeypatch):
        def broken(self, method, data):
            raise TypeError("planted")

        monkeypatch.setattr(Reconstructor, "run", broken)
        with pytest.raises(TypeError, match="planted"):
            experiment1(small_case, methods=("1",), n_samples=2, seed=15)

    def test_unknown_method_raises_before_any_model_is_built(self, small_case, monkeypatch):
        monkeypatch.setattr(harness, "build_models", _no_models)
        with pytest.raises(ValueError, match="'4'"):
            experiment1(small_case, methods=("1", "4"), n_samples=1)

    def test_no_samples_raises_before_any_model_is_built(self, small_case, monkeypatch):
        monkeypatch.setattr(harness, "build_models", _no_models)
        with pytest.raises(ValueError, match="n_samples"):
            experiment1(small_case, n_samples=0)
        with pytest.raises(ValueError, match="n_samples"):
            experiment1(replace(small_case, n_samples=0))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_bad_seed_raises_before_any_model_is_built(self, small_case, monkeypatch, seed):
        monkeypatch.setattr(harness, "build_models", _no_models)
        with pytest.raises(ValueError, match="seed must be an integer"):
            experiment1(small_case, n_samples=1, seed=seed)


def _no_models(case):
    raise AssertionError("models were built")


class TestExperiment2:
    def test_deterministic(self, small_case, tmp_path):
        svals = [0.5, 1.0]
        a = experiment2(small_case, svals, seed=21, methods=("1", "2"))
        b = experiment2(small_case, svals, seed=21, methods=("1", "2"))
        for m in ("1", "2"):
            assert np.array_equal(a.table[m]["res"], b.table[m]["res"])
            assert np.array_equal(a.table[m]["err"], b.table[m]["err"])
        write_experiment2_csv(a, tmp_path / "a")
        write_experiment2_csv(b, tmp_path / "b")
        assert (tmp_path / "a" / "curves.csv").read_bytes() == (
            tmp_path / "b" / "curves.csv"
        ).read_bytes()

    def test_rejects_nonpositive_scaling(self, small_case):
        with pytest.raises(ValueError):
            experiment2(small_case, [0.5, -1.0], seed=1)

    def test_unknown_method_raises_before_any_model_is_built(self, small_case, monkeypatch):
        monkeypatch.setattr(harness, "build_models", _no_models)
        with pytest.raises(ValueError, match="'1,2'"):
            experiment2(small_case, [0.5], seed=1, methods=("1", "1,2"))

    def test_repeated_method_raises_before_any_model_is_built(self, small_case, monkeypatch):
        monkeypatch.setattr(harness, "build_models", _no_models)
        with pytest.raises(ValueError, match="method '1' is given twice"):
            experiment2(small_case, [0.5], seed=1, methods=("1", "1"))

    def test_empty_grid_raises_before_any_model_is_built(self, small_case, monkeypatch):
        monkeypatch.setattr(harness, "build_models", _no_models)
        with pytest.raises(ValueError, match="empty"):
            experiment2(small_case, [], seed=1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_scaling_raises_before_any_model_is_built(
        self, small_case, monkeypatch, bad
    ):
        monkeypatch.setattr(harness, "build_models", _no_models)
        with pytest.raises(ValueError, match="positive and finite"):
            experiment2(small_case, [0.5, bad], seed=1)

    def test_bad_seed_raises_before_any_model_is_built(self, small_case, monkeypatch):
        monkeypatch.setattr(harness, "build_models", _no_models)
        with pytest.raises(ValueError, match="seed must be an integer"):
            experiment2(small_case, [0.5], seed=-1)

    @pytest.mark.parametrize("name", ["C1", "C3"])
    def test_set_up_computes_one_noise_inverse(self, name, monkeypatch):
        # the reconstruction side's, for its inverse; the measurement noise only draws
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        *_, recon, _, meas_noise = harness._setup(CASES[name])
        assert calls == [recon.noise.cov.shape]
        assert "inv" in vars(recon.noise) and "inv" not in vars(meas_noise)

    def test_one_origin_model_per_call(self, small_case, monkeypatch):
        stacks, noise_models = [], []

        def counted(log, build):
            def wrapper(*args, **kwargs):
                log.append(args)
                return build(*args, **kwargs)

            return wrapper

        for name, log in (("DerivativeStack", stacks), ("build_noise_cov", noise_models)):
            monkeypatch.setattr(harness, name, counted(log, getattr(harness, name)))
        experiment2(small_case, [0.5, 1.0, 2.0], seed=21, methods=("1", "2"))
        # one at the origin, and one at each of the 3 x 2 reconstructions for its indicators
        assert sum(1 for _, iota in stacks if not iota.to_flat().any()) == 1
        assert len(stacks) == 1 + 3 * 2
        # one noise model for the measurement side, one for the reconstruction side
        assert len(noise_models) == 2


def _bytes(outcome):
    """The bytes of an outcome's point and components, and its clamp flag."""
    points = (outcome.upsilon, *outcome.components)
    return [p.to_flat().tobytes() for p in points], outcome.clamped


class TestReconstructor:
    @pytest.fixture(scope="class")
    def data(self, sides):
        meas, _ = sides
        prior = build_prior(meas.param, CASES["C1"].measurement.gammas)
        noise = build_noise_cov_for_side(meas, CASES["C1"].measurement.deltas)
        rng = sample_rng(31, 0)
        return simulate_measurements(meas, draw_target(meas, prior, rng), noise, rng).upsilon

    @staticmethod
    def _flat(outcome):
        return [c.to_flat() for c in outcome.components], outcome.clamped

    def _assert_same(self, a, b):
        (ca, fa), (cb, fb) = self._flat(a), self._flat(b)
        assert len(ca) == len(cb) and fa == fb
        assert all(np.array_equal(x, y) for x, y in zip(ca, cb))

    @staticmethod
    def _run(recon, method, data):
        """``method`` on a fresh item of ``data``."""
        return recon.run(method, recon.item(data))

    @pytest.fixture
    def stack_builds(self, monkeypatch):
        built = []
        rebase = harness.Item._rebase

        def counted(self, iota):
            built.append(iota)
            return rebase(self, iota)

        monkeypatch.setattr(harness.Item, "_rebase", counted)
        return built

    def test_longer_chain_goes_on_from_the_kept_one(self, sides, data, stack_builds):
        _, rec = sides
        fresh = {m: self._run(Reconstructor(rec), m, data) for m in ("1,1", "1,1,1")}
        recon = Reconstructor(rec)
        item = recon.item(data)
        stack_builds.clear()
        two = recon.run("1,1", item)
        three = recon.run("1,1,1", item)
        assert len(stack_builds) == 2
        self._assert_same(two, fresh["1,1"])
        self._assert_same(three, fresh["1,1,1"])
        # a shorter chain on the same item is a prefix of the kept one
        self._assert_same(recon.run("1,1", item), fresh["1,1"])
        assert len(stack_builds) == 2
        # another item starts again from the origin
        self._run(recon, "1,1", data + 1e-6)
        assert len(stack_builds) == 3

    def test_failed_step_keeps_nothing(self, sides, data, monkeypatch):
        _, rec = sides
        expected = self._run(Reconstructor(rec), "1,1,1", data)
        recon = Reconstructor(rec)
        item = recon.item(data)
        recon.run("1,1", item)
        rebase = harness.Item._rebase

        def failing(self, iota):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(harness.Item, "_rebase", failing)
        with pytest.raises(RuntimeError):
            recon.run("1,1,1", item)
        monkeypatch.setattr(harness.Item, "_rebase", rebase)
        self._assert_same(recon.run("1,1,1", item), expected)

    @staticmethod
    def _fresh_outcome(recon, data, order):
        """Method ``order`` as a reversion computed from scratch for it alone gives it."""
        result = revert(recon.stack0, recon.inverse0, data, order)
        upsilon, clamped = recon.rec.param.clamp(result.partial_sum(order))
        diagnostics = {"operand_norms": list(result.operand_norms)}
        if order == 3:
            corr = harness._sign_correlation(result.etas[1].kappa, result.etas[2].kappa)
            diagnostics["eta2_eta3_sign_correlation"] = corr
        return harness.ReconOutcome(str(order), upsilon, result.etas, clamped, diagnostics)

    @staticmethod
    def _record(outcome, tmp_path):
        path = tmp_path / "record.json"
        write_reconstruction(outcome, path)
        return path.read_bytes()

    @pytest.fixture(scope="class")
    def fresh(self, sides, data):
        """Fresh outcomes of methods 1, 2 and 3, for the case's prior and a doubled one."""
        _, rec = sides
        out = {}
        for scale in (1.0, 2.0):
            recon = Reconstructor(rec, gammas=rec.spec.gammas.scaled(scale))
            out[scale] = {k: self._fresh_outcome(recon, data, k) for k in (1, 2, 3)}
        return out

    def _assert_fresh(self, outcome, expected, tmp_path):
        assert outcome.upsilon.to_flat().tobytes() == expected.upsilon.to_flat().tobytes()
        self._assert_same(outcome, expected)
        assert outcome.diagnostics == expected.diagnostics
        assert self._record(outcome, tmp_path) == self._record(expected, tmp_path)

    @pytest.mark.parametrize("orders", ["3,1,2", "2,3,1", "1,2,3"])
    def test_reversion_orders_equal_fresh_ones_in_any_order(
        self, sides, data, fresh, orders, tmp_path
    ):
        _, rec = sides
        recon = Reconstructor(rec)
        item = recon.item(data)
        for method in orders.split(","):
            outcome = recon.run(method, item)
            self._assert_fresh(outcome, fresh[1.0][int(method)], tmp_path)

    def test_reconstructors_sharing_the_origin_stack_keep_their_own_reversions(
        self, sides, data, fresh, tmp_path
    ):
        _, rec = sides
        base = Reconstructor(rec)
        other = base.with_gammas(rec.spec.gammas.scaled(2.0))
        orders = ("1", "2", "3")
        items = {1.0: base.item(data), 2.0: other.item(data)}
        runs = [(base, 1.0, "1"), (other, 2.0, "2"), (base, 1.0, "3"), (other, 2.0, "1")]
        runs += [(other, 2.0, "3"), (base, 1.0, "2")]
        seen = {1.0: [], 2.0: []}
        for recon, scale, method in runs:
            outcome = recon.run(method, items[scale])
            self._assert_fresh(outcome, fresh[scale][int(method)], tmp_path)
            seen[scale] += outcome.components
        assert not any(a is b for a in seen[1.0] for b in seen[2.0])

    def test_kept_chain_is_read_only_and_the_item_keeps_its_own_data(
        self, sides, data, stack_builds
    ):
        _, rec = sides
        recon = Reconstructor(rec)
        stack_builds.clear()
        mutable = data.copy()
        item = recon.item(mutable)
        mutable += 1.0
        outcome = recon.run("1,1", item)
        assert not outcome.upsilon.kappa.flags.writeable
        assert not item.data.flags.writeable
        self._assert_same(outcome, self._run(Reconstructor(rec), "1,1", data))
        stack_builds.clear()
        self._assert_same(recon.run("1,1", item), outcome)
        assert not stack_builds

    @pytest.fixture(scope="class")
    def recon(self, sides):
        return Reconstructor(sides[1])

    @pytest.mark.parametrize("xi_m", [[0.99, 0.0], [0.8, 0.0], [3.0, 0.0]])
    def test_inadmissible_stack_point_is_rejected(self, sides, recon, xi_m):
        _, rec = sides
        iota = rec.param.zero()
        xi = iota.xi.copy()
        xi[2] = xi_m
        bad = ParamVector(iota.kappa, iota.rho, xi)
        assert not rec.param.admissible(bad)
        item = recon.item(recon.lam0)
        with pytest.raises(AdmissibilityError):
            item._rebase(bad)

    def test_stack_point_is_checked_once(self, sides, recon, layout_checks):
        _, rec = sides
        recon.item(recon.lam0)._rebase(rec.param.zero())
        assert layout_checks == [list(range(rec.param.n_electrodes))]

    def test_data_of_another_shape_is_rejected(self, recon, data):
        for bad in (data[:1], data[:, :14], data.ravel()):
            with pytest.raises(ValueError, match=r"shape \(15, 15\)"):
                recon.item(bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_data_with_an_entry_that_is_not_finite_is_rejected(self, recon, data, value):
        bad = data.copy()
        bad[4, 7] = value
        with pytest.raises(ValueError, match=rf"data\[4, 7\] is not finite: {value!r}"):
            recon.item(bad)

    def test_an_item_of_another_reconstructor_is_rejected(self, sides, recon, data):
        other = recon.with_gammas(sides[1].spec.gammas.scaled(2.0))
        for item in (other.item(data), data):
            with pytest.raises(ValueError, match="item that this reconstructor"):
                recon.run("1", item)

    def test_with_gammas_shares_the_origin_model(self, sides, data):
        _, rec = sides
        gammas = rec.spec.gammas.scaled(2.0)
        base = Reconstructor(rec)
        other = base.with_gammas(gammas)
        assert other.stack0 is base.stack0 and other.noise is base.noise
        assert other.prior.gammas == gammas and base.prior.gammas == rec.spec.gammas
        fresh = Reconstructor(rec, gammas=gammas)
        for method in ("2", "1,1"):
            self._assert_same(self._run(other, method, data), self._run(fresh, method, data))

    S_GRID = np.geomspace(0.1, 3.2, 8)  # the scaling grid of the l4-scaling benchmark

    @staticmethod
    def _assert_same_inverse(inverse, fresh, data):
        """The same Cholesky factor and the same step on ``data``, bit for bit."""
        (factor, lower), (fresh_factor, fresh_lower) = inverse._cho, fresh._cho
        assert lower == fresh_lower and factor.tobytes() == fresh_factor.tobytes()
        assert inverse(data).to_flat().tobytes() == fresh(data).to_flat().tobytes()

    def test_with_gammas_inverse_equals_a_fresh_build_on_the_grid(self, sides, data):
        _, rec = sides
        base = recon = Reconstructor(rec)
        for s in self.S_GRID:  # chained, as experiment2 rebuilds it point by point
            gammas = rec.spec.gammas.scaled(float(s))
            recon = recon.with_gammas(gammas)
            fresh = TikhonovInverse(recon.stack0, build_prior(rec.param, gammas), recon.noise)
            assert recon.inverse0.jacobian is base.inverse0.jacobian
            assert recon.inverse0._JtGi is base.inverse0._JtGi
            self._assert_same_inverse(recon.inverse0, fresh, data)

    def test_with_prior_keeps_the_feed_and_measure_projections(self, sides, data):
        _, rec = sides
        recon = Reconstructor(rec)
        feed, measure = range(0, 16, 2), range(1, 16, 3)
        inverse = TikhonovInverse(recon.stack0, recon.prior, recon.noise, feed, measure)
        for s in self.S_GRID:
            prior = build_prior(rec.param, rec.spec.gammas.scaled(float(s)))
            inverse = inverse.with_prior(prior)
            fresh = TikhonovInverse(recon.stack0, prior, recon.noise, feed, measure)
            assert inverse.prior is prior
            self._assert_same_inverse(inverse, fresh, data)

    def test_an_unknown_method_is_rejected(self, recon, data):
        with pytest.raises(ValueError, match="unknown method '4'"):
            recon.run("4", recon.item(data))

    @staticmethod
    def _counted(monkeypatch, owner, attr):
        """The first argument of every call of ``owner.attr`` made from now on."""
        calls = []
        method = getattr(owner, attr)

        def counted(first, *args, **kwargs):
            calls.append(first)
            return method(first, *args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
        return calls

    def test_method_one_is_the_first_iterate_of_the_chain(self, sides, data, monkeypatch):
        _, rec = sides
        recon = Reconstructor(rec)
        applies = self._counted(monkeypatch, TikhonovInverse, "__call__")
        item = recon.item(data)
        first = recon.run("1", item)
        chain = recon.run("1,1,1", item)
        assert chain.components[0] is first.upsilon
        # eta1 from the origin's inverse, then a step at u1 and one at u2 (compared by identity)
        assert applies[0] is recon.inverse0
        assert [inverse.stack.iota for inverse in applies[1:]] == list(chain.components[:2])

        def rebase(iota):
            return TikhonovInverse(DerivativeStack(rec.param, iota), recon.prior, recon.noise)

        # the chain that steps from the origin, byte for byte
        origin = sequential_linearize(rebase, data, 3, recon.inverse0)
        assert [p.to_flat().tobytes() for p in chain.components] == [
            p.to_flat().tobytes() for p in origin.iterates
        ]
        assert chain.clamped == any(origin.clamped)

    @pytest.mark.parametrize("methods", [("2", "1,1"), ("1,1",)])
    def test_a_chain_without_method_one_takes_the_first_increment(
        self, sides, data, monkeypatch, methods
    ):
        _, rec = sides
        recon = Reconstructor(rec)
        reversions = self._counted(monkeypatch, harness, "revert")
        item = recon.item(data)
        outcomes = [recon.run(method, item) for method in methods]
        # one reversion: method "2"'s, or the one the chain starts from
        assert len(reversions) == 1
        first = self._run(recon, "1", data).upsilon
        assert outcomes[-1].components[0].to_flat().tobytes() == first.to_flat().tobytes()

    @pytest.mark.parametrize(
        "methods, kept",
        [
            # u1's stack from "1" on, and nothing for the reversions' points
            (("1", "2", "3"), [1, 1, 1]),
            # then u2's from "1,1" and u3's from "1,1,1"
            (harness.METHODS, [1, 1, 1, 2, 3]),
            # "1,1,1" rebases at u1 and u2 and maps u3; the rest find them
            (("1,1,1", "1,1", "1"), [3, 3, 3]),
        ],
        ids=["1;2;3", "all", "3;2;1 chains"],
    )
    def test_the_item_keeps_the_stack_of_each_chain_point(self, recon, data, methods, kept):
        item = recon.item(data)
        seen = []
        for method in methods:
            item.map_at(recon.run(method, item).upsilon)
            seen.append(len(item._stacks))
        assert seen == kept
        assert all(s.iota is p for s, p in zip(item._stacks, item._chain.iterates, strict=True))

    @pytest.fixture(scope="class")
    def alone(self, sides, data):
        """A reconstructor and each method's outcome on a fresh item of ``data``."""
        recon = Reconstructor(sides[1])
        return recon, {m: _bytes(self._run(recon, m, data)) for m in harness.METHODS}

    @settings(max_examples=30)
    @given(order=st.permutations(harness.METHODS), size=st.integers(1, len(harness.METHODS)))
    @example(order=("1,1,1", "1,1", "1", "2", "3"), size=2)
    @example(order=("1,1", "1", "2", "3", "1,1,1"), size=2)
    @example(order=("1,1,1", "1,1", "1", "2", "3"), size=3)
    def test_methods_in_any_order_equal_each_alone(self, alone, data, order, size):
        """Run like a study: every method, then the indicators' map at its point.

        The points are each method's point and the kept chain's iterates,
        told apart by identity. Whatever the order, each is built once, and
        the item keeps the stacks of the chain's points and of no other.
        """
        recon, expected = alone
        methods = order[:size]
        builds = []

        class Stack(DerivativeStack):
            def __init__(self, param, iota):
                super().__init__(param, iota)
                builds.append(iota)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "DerivativeStack", Stack)
            item = recon.item(data)
            points = []
            for method in methods:
                outcome = recon.run(method, item)
                assert _bytes(outcome) == expected[method]
                item.map_at(outcome.upsilon)
                points.append(outcome.upsilon)
        chain = item._chain.iterates if item._chain is not None else ()
        distinct = {id(p) for p in (*points, *chain)}
        assert len(builds) == len(distinct) and {id(p) for p in builds} == distinct
        assert [id(s.iota) for s in item._stacks] == [id(p) for p in chain]

    def test_a_reconstructor_holds_only_shared_state(self, sides, data):
        _, rec = sides
        recon = Reconstructor(rec)
        shared = dict(vars(recon))
        assert sorted(shared) == ["inverse0", "noise", "prior", "rec", "stack0"]
        item = recon.item(data)
        for method in harness.METHODS:
            item.map_at(recon.run(method, item).upsilon)
        assert vars(recon).keys() == shared.keys()
        assert all(vars(recon)[k] is v for k, v in shared.items())

    def test_items_leave_the_origin_stack_unwritten(self, sides, data):
        _, rec = sides
        recon = Reconstructor(rec)
        stack0 = recon.stack0
        J = stack0.jacobian()
        for shift in (0.0, 1e-6):
            item = recon.item(data + shift)
            for method in ("1", "2"):
                recon.run(method, item)
            assert stack0._handles == [] and stack0._ops == {} and stack0._chains == {}
        assert recon.stack0 is stack0 and stack0.jacobian() is J


class TestOnePointOneSystem:
    """An item assembles and factors each distinct point once, and holds nothing after."""

    @pytest.fixture(params=["experiment1", "experiment2"])
    def traced_study(self, request, small_case, monkeypatch):
        """Run a driver with all five methods and log its work.

        experiment1 runs two draws, experiment2 a grid of three points.
        ``points`` holds the exact bytes of every assembled point, one list
        for the set-up and one per item; ``alive`` whether each item opened
        before is still alive, when an item starts and when the study ends.
        """
        log = {"points": [[]], "alive": [], "items": [], "recons": [], "stacks": [], "rebased": []}
        in_map = []
        init = fem.AssembledSystem.__init__
        simulate = harness.simulate_measurements
        recon_init = Reconstructor.__init__
        item_init = harness.Item.__init__
        map_at = harness.Item.map_at
        tikhonov = harness.TikhonovInverse

        def assembled(system, layout, tau):
            log["points"][-1].append(tau.point.to_flat().tobytes())
            init(system, layout, tau)

        def item_start(*args, **kwargs):
            log["alive"] += [ref() is not None for ref in log["items"]]
            log["points"].append([])
            return simulate(*args, **kwargs)

        def recon_built(recon, *args, **kwargs):
            log["recons"].append(recon)
            recon_init(recon, *args, **kwargs)

        def item_opened(item, *args):
            log["items"].append(weakref.ref(item))
            item_init(item, *args)

        def mapped(item, iota):
            in_map.append(True)
            try:
                return map_at(item, iota)
            finally:
                in_map.pop()

        class Stack(DerivativeStack):
            def __init__(self, *args):
                super().__init__(*args)
                log["stacks"].append((self, bool(in_map)))

        def inverse(stack, *args):
            log["rebased"].append(stack)
            return tikhonov(stack, *args)

        monkeypatch.setattr(fem.AssembledSystem, "__init__", assembled)
        monkeypatch.setattr(harness, "simulate_measurements", item_start)
        monkeypatch.setattr(Reconstructor, "__init__", recon_built)
        monkeypatch.setattr(harness.Item, "__init__", item_opened)
        monkeypatch.setattr(harness.Item, "map_at", mapped)
        monkeypatch.setattr(harness, "DerivativeStack", Stack)
        monkeypatch.setattr(harness, "TikhonovInverse", inverse)
        if request.param == "experiment1":
            result = experiment1(small_case, n_samples=2, seed=5)
        else:
            result = experiment2(small_case, [0.5, 1.0, 2.0], seed=5)
        assert not result.failures
        log["alive"] += [ref() is not None for ref in log["items"]]
        return log

    def test_each_distinct_point_is_assembled_once(self, traced_study):
        setup, *items = traced_study["points"]
        # the origin, once: the measurement noise of an inverse crime reads its map
        assert len(setup) == 1
        assert len(items) in (2, 3)
        for points in items:
            # target, the results of "1", "2" and "3", and the iterates u2 and u3
            assert len(points) == 6
        every = [point for points in traced_study["points"] for point in points]
        assert len(set(every)) == len(every)

    def test_no_stack_is_held_after_an_item(self, traced_study):
        n = len(traced_study["points"]) - 1
        assert len(traced_study["recons"]) == 1
        assert len(traced_study["items"]) == n
        # when each item starts no earlier item is alive, nor any when the study ends
        assert traced_study["alive"] == [False] * (n * (n + 1) // 2)
        refs = [weakref.ref(stack) for stack, in_map in traced_study["stacks"] if in_map]
        assert len(refs) == n * 5
        traced_study.clear()
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_a_rebase_uses_the_stack_the_indicators_built(self, traced_study):
        n = len(traced_study["points"]) - 1
        stacks = traced_study["stacks"]
        recon = traced_study["recons"][0]
        # every stack but the origin's was built for an indicator map
        assert [in_map for _, in_map in stacks] == [False] + [True] * (n * 5)
        rebased = [s for s in traced_study["rebased"] if s is not recon.stack0]
        # the rebases at u1 ("1,1") and u2 ("1,1,1") of each item
        assert len(rebased) == n * 2
        for stack in rebased:
            assert any(stack is built for built, in_map in stacks if in_map)

    def test_a_miss_builds_its_own_stack(self, sides):
        _, rec = sides
        recon = Reconstructor(rec)
        item = recon.item(recon.lam0)
        first = recon.run("1", item).upsilon
        item.map_at(first)
        [kept] = item._stacks
        assert kept.iota is first
        assert item._rebase(first).stack is kept
        # a point with the same bytes, in other arrays, is another point
        copied = replace(first, kappa=first.kappa.copy())
        item.map_at(copied)  # not a chain iterate: built, and not kept
        assert item._stacks == [kept]
        rebased = item._rebase(copied).stack  # a rebase keeps its point's stack
        assert rebased is not kept and item._stacks == [kept, rebased]
        assert item._rebase(copied).stack is rebased


class TestStudyOrder:
    def test_no_state_crosses_items(self, small_case, sides):
        """The same items in reverse order give the same rows, byte for byte.

        An item's kept reversion, kept chain or kept stacks that reached the
        next item would change that item's rows with the order.
        """
        meas, rec = sides
        assert meas.param is rec.param  # an inverse crime
        prior = build_prior(meas.param, small_case.measurement.gammas)
        noise = build_noise_cov(*small_case.measurement.deltas, Reconstructor(rec).lam0)
        items = []
        for i in range(3):
            rng = sample_rng(41, i)
            target = draw_target(meas, prior, rng)
            items.append((target, simulate_measurements(meas, target, noise, rng)))

        def rows(order):
            recon = Reconstructor(rec)  # so that neither order starts from the other's state
            served = [(target, record, recon) for target, record in order]
            result = harness._study(
                small_case, harness.METHODS, meas, rec, served, len(order), record_failures=True
            )
            assert not result.failures
            arrays = [result.ref_res, result.eta23_sign_corr]
            keys = (*harness._INDICATORS, "clamped")
            arrays += [result.table[m][k] for m in result.methods for k in keys]
            return arrays

        forward, backward = rows(items), rows(items[::-1])
        for a, b in zip(forward, backward):
            assert a.tobytes() == b[::-1].tobytes()


class TestProjection:
    @staticmethod
    def _direct(source, values, target):
        dist = np.linalg.norm(target.centers[:, None, :] - source.centers[None, :, :], axis=2)
        return values[np.argmin(dist, axis=1)]

    def test_memo_equals_the_direct_formula(self, part20, part80):
        rng = np.random.default_rng(3)
        for source, target in ((part80, part20), (part20, part80)):
            for _ in range(2):
                values = rng.standard_normal(source.n_clusters)
                out = harness.nearest_neighbor_project(source, values, target)
                assert out.tobytes() == self._direct(source, values, target).tobytes()
        assert part20.nearest_clusters(part80) is part20.nearest_clusters(part80)

    def test_ties_go_to_the_lowest_source_index(self, part20):
        # sources 1 and 2 coincide; 0.5 lies halfway between sources 0 and 1
        source = Partition(
            part20.mesh, part20.cluster_of, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]])
        )
        target = Partition(
            part20.mesh, part20.cluster_of, np.array([[0.0, 0.0], [0.5, 0.0], [-0.5, 0.0]])
        )
        values = np.array([10.0, 11.0, 12.0, 13.0])
        for _ in range(2):
            out = harness.nearest_neighbor_project(source, values, target)
            assert out.tolist() == [11.0, 10.0, 11.0]
            assert out.tobytes() == self._direct(source, values, target).tobytes()

    def test_the_memo_keeps_its_source(self, part20):
        target = Partition(part20.mesh, part20.cluster_of, part20.centers.copy())
        source = Partition(part20.mesh, part20.cluster_of, part20.centers[::-1].copy())
        first = target.nearest_clusters(source)
        ref = weakref.ref(source)
        del source
        gc.collect()
        # alive while its entry is, so no later partition can take its id
        assert ref() is not None
        assert target.nearest_clusters(ref()) is first


class TestSerialization:
    def test_matrix_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        matrix = rng.standard_normal((15, 15)) * 1e-7
        path = tmp_path / "m.txt"
        write_matrix(path, matrix)
        again = read_matrix(path)
        assert np.array_equal(again, matrix)

    def test_an_empty_matrix_file_reads_as_an_empty_array(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("\n \n")
        assert read_matrix(path).size == 0

    def test_measurement_roundtrip(self, tmp_path, sides):
        meas, _ = sides
        noise = build_noise_cov_for_side(meas, (1e-4, 1e-3))
        prior = build_prior(meas.param, meas.spec.gammas)
        rng = sample_rng(10, 0)
        target = draw_target(meas, prior, rng)
        record = simulate_measurements(meas, target, noise, rng)
        write_measurement(record, tmp_path / "sim")
        upsilon, target2, deltas = read_measurement(tmp_path / "sim")
        assert np.array_equal(upsilon, record.upsilon)
        assert np.array_equal(target2.to_flat(), target.to_flat())
        assert deltas == (1e-4, 1e-3)

    def test_reconstruction_record(self, tmp_path, sides):
        meas, rec = sides
        recon = Reconstructor(rec)
        noise = build_noise_cov_for_side(meas, (0.0, 0.0))
        prior = build_prior(meas.param, meas.spec.gammas)
        rng = sample_rng(11, 0)
        target = draw_target(meas, prior, rng)
        record = simulate_measurements(meas, target, noise, rng)
        outcome = recon.run("2", recon.item(record.upsilon))
        path = tmp_path / "rec.json"
        write_reconstruction(outcome, path)
        import json

        data = json.loads(path.read_text())
        assert data["method"] == "2"
        assert len(data["components"]) == 2
        back = harness.param_from_json(data["upsilon"])
        assert np.array_equal(back.to_flat(), outcome.upsilon.to_flat())
        assert np.array_equal(harness.read_reconstruction(path).to_flat(), back.to_flat())
        # partial sums compose exactly
        comp = [harness.param_from_json(c) for c in data["components"]]
        assert np.array_equal((comp[0] + comp[1]).to_flat(), back.to_flat())


    @pytest.mark.parametrize(
        "record, message",
        [
            ({"method": "1"}, "has no 'upsilon' entry"),
            ([1, 2], "must be a mapping"),
            ({"upsilon": {"kappa": [0.0]}}, "has no 'rho' entry"),
            ({"upsilon": {"kappa": ["a"], "rho": [0.0]}}, "'kappa' of the parameter record"),
            ({"upsilon": 3}, "must be a mapping"),
        ],
        ids=["no-upsilon", "list", "no-rho", "kappa-strings", "upsilon-number"],
    )
    def test_malformed_reconstruction_record_names_file_and_key(self, tmp_path, record, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match=message) as info:
            harness.read_reconstruction(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda meta: meta["target"].pop("rho"), "has no 'rho' entry"),
            (lambda meta: meta.pop("target"), "has no 'target' entry"),
            (lambda meta: meta.pop("deltas"), "has no 'deltas' entry"),
            (lambda meta: meta.update(deltas=5), "deltas must be a list"),
        ],
        ids=["no-rho", "no-target", "no-deltas", "deltas-number"],
    )
    def test_malformed_measurement_record_names_file_and_key(
        self, tmp_path, sides, edit, message
    ):
        _, rec = sides
        zero = rec.param.zero()
        lam0 = side_forward_map(rec, zero)
        record = harness.MeasurementRecord(lam0, zero, lam0, (0.0, 0.0), np.zeros((16, 15)))
        write_measurement(record, tmp_path)
        path = tmp_path / "record.json"
        meta = json.loads(path.read_text())
        edit(meta)
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=message) as info:
            read_measurement(tmp_path)
        assert str(path) in str(info.value)


class TestCaseConfig:
    def test_case_table_matches_source_rows(self):
        c1 = CASES["C1"]
        assert c1.measurement.deltas == (5e-5, 5e-4)
        assert c1.reconstruction.deltas == (1e-4, 1e-3)
        assert c1.measurement.gammas.gamma_kappa == 0.1
        assert c1.measurement.gammas.lambda_kappa == 1.0
        assert c1.measurement.gammas.gamma_xi == 0.02
        assert c1.mu_kappa == -3.0 and c1.mu_zeta == -3.0
        assert c1.inverse_crime
        c5 = CASES["C5"]
        assert c5.measurement.contact == "cem"
        assert c5.reconstruction.gammas.gamma_rho == 0.2
        assert c5.reconstruction.gammas.gamma_kappa == 0.5
        assert c5.reconstruction.gammas.lambda_kappa == 0.7
        assert not c5.inverse_crime

    def test_reconstruction_always_smooth(self):
        for case in CASES.values():
            assert case.reconstruction.contact == "smooth"

    def test_config_overrides(self):
        case = case_from_config(
            {
                "case": "C2",
                "n_samples": 7,
                "measurement": {"deltas": [0.0, 0.0], "gammas": {"gamma_rho": 0.9}},
            }
        )
        assert case.n_samples == 7
        assert case.measurement.deltas == (0.0, 0.0)
        assert case.measurement.gammas.gamma_rho == 0.9
        assert case.measurement.gammas.gamma_kappa == 0.6  # untouched default

    def test_config_mapping_is_not_mutated(self):
        config = {
            "case": "C2",
            "measurement": {"deltas": [0.0, 0.0], "gammas": {"gamma_rho": 0.9}},
            "reconstruction": {"level": 3},
        }
        before = copy.deepcopy(config)
        first = case_from_config(config)
        second = case_from_config(config)
        assert first == second
        assert config == before

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"n_sample": 5}, "n_sample"),
            ({"meaurement": {"level": 4}}, "meaurement"),
            ({"measurement": {"levle": 4}}, "levle"),
            ({"reconstruction": {"gammas": {"gamma_rh": 0.1}}}, "gamma_rh"),
            ({"case": "C9"}, "C9"),
        ],
    )
    def test_unknown_key_raises_with_its_name(self, config, key):
        with pytest.raises(ValueError, match=key):
            case_from_config(config)

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"measurement": {"deltas": [1e-4]}}, "deltas"),
            ({"reconstruction": {"level": -1}}, "level"),
            ({"measurement": {"contact": "foo"}}, "contact"),
            ({"reconstruction": {"n_clusters": 0}}, "n_clusters"),
            ({"n_electrodes": 1}, "n_electrodes"),
            ({"seed": -3}, "seed"),
            ({"cluster_seed": -3}, "cluster_seed"),
            ({"seed": 2**64}, "seed"),
            ({"cluster_seed": 2.5}, "cluster_seed"),
            ([1, 2], "configuration"),
            ({"measurement": [1, 2]}, "measurement"),
            ({"reconstruction": {"gammas": 0.1}}, "reconstruction gammas"),
            ({"measurement": {"deltas": 5}}, "deltas"),
            ({"measurement": {"deltas": [1e-4, "a"]}}, "deltas"),
            ({"measurement": {"deltas": [-1e-4, 0.0]}}, "deltas"),
            ({"reconstruction": {"gammas": {"gamma_rho": "a"}}}, "gamma_rho"),
            ({"measurement": {"gammas": {"lambda_kappa": 0.0}}}, "lambda_kappa"),
            ({"reconstruction": {"n_clusters": "80"}}, "n_clusters"),
            ({"electrode_radius": "a"}, "electrode_radius"),
            ({"electrode_radius": float("inf")}, "electrode_radius"),
            ({"contact_radius": -0.1}, "contact_radius"),
            ({"contact_radius": 0.15}, "contact_radius"),
            ({"mu_kappa": None}, "mu_kappa"),
            ({"n_samples": 0}, "n_samples"),
            ({"n_samples": 2.0}, "n_samples"),
            ({"n_samples": True}, "n_samples"),
            ({"reconstruction": {"level": True}}, "level"),
            ({"mu_kappa": 10**400}, "mu_kappa"),
            ({"electrode_radius": 10**400}, "electrode_radius"),
            ({"measurement": {"deltas": [10**400, 0.0]}}, "deltas"),
            ({"reconstruction": {"gammas": {"gamma_xi": 10**400}}}, "gamma_xi"),
            # a scale whose square or exponential is not a positive normal float
            ({"measurement": {"gammas": {"gamma_kappa": 1e200}}}, "gamma_kappa"),
            ({"measurement": {"gammas": {"lambda_kappa": 1e200}}}, "lambda_kappa"),
            ({"reconstruction": {"gammas": {"gamma_rho": 1e200}}}, "gamma_rho"),
            ({"measurement": {"gammas": {"gamma_xi": 1e200}}}, "gamma_xi"),
            ({"reconstruction": {"gammas": {"lambda_kappa": 1e-200}}}, "lambda_kappa"),
            ({"reconstruction": {"gammas": {"lambda_kappa": 1e-160}}}, "lambda_kappa"),
            ({"mu_zeta": -740}, "mu_zeta"),
            ({"mu_zeta": -800}, "mu_zeta"),
            ({"mu_kappa": 800}, "mu_kappa"),
            ({"mu_kappa": -800.0}, "mu_kappa"),
        ],
    )
    def test_bad_value_raises_with_its_field(self, config, field):
        with pytest.raises(ValueError, match=field):
            case_from_config(config)
