"""Simulation, indicators, experiment drivers, and file formats."""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest

from eitrev import harness, model
from eitrev.harness import (
    CASES,
    Reconstructor,
    build_models,
    build_noise_cov_for_side,
    case_from_config,
    draw_from_prior,
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
from eitrev.inversion import PriorGammas, build_prior
from eitrev.model import AdmissibilityError, ParamVector


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

    def counted(layout, electrodes, xi, config):
        calls.append(np.asarray(electrodes).tolist())
        return check(layout, electrodes, xi, config)

    monkeypatch.setattr(model, "_admissible_contacts", counted)
    return calls


class TestDraws:
    def test_same_seed_same_draw(self, smooth8):
        prior = build_prior(smooth8, PriorGammas(0.1, 1.0, 0.1, 0.02))
        assert np.array_equal(draw_from_prior(prior, 5), draw_from_prior(prior, 5))
        assert not np.array_equal(draw_from_prior(prior, 5), draw_from_prior(prior, 6))

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


class TestRetention:
    def test_bottom_fraction_with_ties(self):
        ref = np.array([5.0, 1.0, 5.0, 0.5, 2.0])
        mask = retained_mask(ref, keep_fraction=0.8)
        # keeps 4 of 5; the tie at 5.0 breaks toward the lower index
        assert mask.tolist() == [True, True, False, True, True]

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
        assert len(stacks) == 1
        # one noise model for the measurement side, one for the reconstruction side
        assert len(noise_models) == 2


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

    @pytest.fixture
    def stack_builds(self, monkeypatch):
        built = []
        make_stack = Reconstructor._make_stack

        def counted(self, iota):
            built.append(iota)
            return make_stack(self, iota)

        monkeypatch.setattr(Reconstructor, "_make_stack", counted)
        return built

    def test_longer_chain_goes_on_from_the_kept_one(self, sides, data, stack_builds):
        _, rec = sides
        fresh = {m: Reconstructor(rec).run(m, data) for m in ("1,1", "1,1,1")}
        recon = Reconstructor(rec)
        stack_builds.clear()
        two = recon.run("1,1", data)
        three = recon.run("1,1,1", data)
        assert len(stack_builds) == 2
        self._assert_same(two, fresh["1,1"])
        self._assert_same(three, fresh["1,1,1"])
        # a shorter chain on the same data is a prefix of the kept one
        self._assert_same(recon.run("1,1", data.copy()), fresh["1,1"])
        assert len(stack_builds) == 2
        # other data starts again from the origin
        recon.run("1,1", data + 1e-6)
        assert len(stack_builds) == 3

    def test_failed_step_keeps_nothing(self, sides, data, monkeypatch):
        _, rec = sides
        expected = Reconstructor(rec).run("1,1,1", data)
        recon = Reconstructor(rec)
        recon.run("1,1", data)
        make_stack = Reconstructor._make_stack

        def failing(self, iota):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(Reconstructor, "_make_stack", failing)
        with pytest.raises(RuntimeError):
            recon.run("1,1,1", data)
        monkeypatch.setattr(Reconstructor, "_make_stack", make_stack)
        self._assert_same(recon.run("1,1,1", data), expected)

    def test_kept_chain_is_read_only_and_its_data_a_copy(self, sides, data, stack_builds):
        _, rec = sides
        recon = Reconstructor(rec)
        stack_builds.clear()
        mutable = data.copy()
        outcome = recon.run("1,1", mutable)
        mutable += 1.0
        assert not outcome.upsilon.kappa.flags.writeable
        self._assert_same(recon.run("1,1", data), outcome)
        assert len(stack_builds) == 1

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
        with pytest.raises(AdmissibilityError):
            recon._make_stack(bad)

    def test_stack_point_is_checked_once(self, sides, recon, layout_checks):
        _, rec = sides
        recon._make_stack(rec.param.zero())
        assert layout_checks == [list(range(rec.param.n_electrodes))]

    def test_with_gammas_shares_the_origin_model(self, sides, data):
        _, rec = sides
        gammas = rec.spec.gammas.scaled(2.0)
        base = Reconstructor(rec)
        other = base.with_gammas(gammas)
        assert other.stack0 is base.stack0 and other.noise is base.noise
        assert other.prior.gammas == gammas and base.prior.gammas == rec.spec.gammas
        fresh = Reconstructor(rec, gammas=gammas)
        for method in ("2", "1,1"):
            self._assert_same(other.run(method, data), fresh.run(method, data))


class TestSerialization:
    def test_matrix_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        matrix = rng.standard_normal((15, 15)) * 1e-7
        path = tmp_path / "m.txt"
        write_matrix(path, matrix)
        again = read_matrix(path)
        assert np.array_equal(again, matrix)

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
        outcome = recon.run("2", record.upsilon)
        path = tmp_path / "rec.json"
        write_reconstruction(outcome, path)
        import json

        data = json.loads(path.read_text())
        assert data["method"] == "2"
        assert len(data["components"]) == 2
        back = harness.param_from_json(data["upsilon"])
        assert np.array_equal(back.to_flat(), outcome.upsilon.to_flat())
        # partial sums compose exactly
        comp = [harness.param_from_json(c) for c in data["components"]]
        assert np.array_equal((comp[0] + comp[1]).to_flat(), back.to_flat())


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
        ],
    )
    def test_bad_value_raises_with_its_field(self, config, field):
        with pytest.raises(ValueError, match=field):
            case_from_config(config)
