"""Acceptance criteria, one test per criterion with a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report. Every tolerance is fixed here, not calibrated at runtime.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from eitrev import fem
from eitrev.calculus import vec
from eitrev.harness import CASES, experiment1, experiment2, sample_rng
from eitrev.inversion import (
    SubspacePseudoInverse,
    TikhonovInverse,
    build_noise_cov,
    build_prior,
    revert,
    sequential_linearize,
)
from eitrev.model import ConductivityPair, ParamVector, dtau, eval_zeta_smooth

_RESULTS: list[tuple[str, bool, str]] = []


def _report(name: str, ok: bool, detail: str) -> None:
    _RESULTS.append((name, ok, detail))
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session", autouse=True)
def _summary():
    yield
    if _RESULTS:
        print("\nacceptance summary:")
        for name, ok, detail in _RESULTS:
            print(f"  [{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _fit_slope(x, y):
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def _random_direction(rng, n_clusters, n_electrodes, xi_scale=0.04):
    return ParamVector(
        0.5 * rng.standard_normal(n_clusters),
        0.3 * rng.standard_normal(n_electrodes),
        xi_scale * rng.standard_normal((n_electrodes, 2)),
    )


class TestCriterion1TaylorRemainders:
    def test_taylor_remainder_orders(self, stack16, smooth16):
        started = time.time()
        rng = np.random.default_rng(101)
        eta = _random_direction(rng, 80, 16)
        svals = [2.0 ** (-k) for k in range(3, 10)]
        lam_s = {}
        for s in svals:
            tau_s = smooth16.tau(stack16.iota + s * eta)
            system = fem.assemble(
                stack16.system.mesh, stack16.system.layout, tau_s, stack16.basis
            )
            lam_s[s] = fem.forward_map(system, stack16.basis)
        slopes = {}
        for order, tol in ((1, 0.15), (2, 0.15), (3, 0.2)):
            rems = [
                np.linalg.norm(lam_s[s] - stack16.taylor_eval(s * eta, order))
                for s in svals
            ]
            slopes[order] = (_fit_slope(svals, rems), tol)
        elapsed = time.time() - started
        ok = all(abs(sl - (k + 1)) <= tol for k, (sl, tol) in slopes.items())
        ok = ok and elapsed < 120.0
        detail = (
            "remainder slopes "
            + ", ".join(f"K={k}: {sl:.3f} (want {k+1}+-{tol})" for k, (sl, tol) in slopes.items())
            + f"; runtime {elapsed:.1f}s < 120s"
        )
        _report("criterion 1 (Taylor remainder orders)", ok, detail)


def _subspace_directions(stack, dim):
    param = stack.param
    by_radius = np.argsort(-np.linalg.norm(param.partition.centers, axis=1))
    n_kappa = dim - min(param.n_electrodes // 2, dim // 2)
    idx = [int(i) for i in by_radius[:n_kappa]]
    idx += [param.n_clusters + 2 * m for m in range(dim - n_kappa)]
    dirs = []
    for i in idx:
        e = np.zeros(param.dim)
        e[i] = 1.0
        dirs.append(param.from_flat(e))
    return dirs


class TestCriterion2ReversionConvergence:
    def test_reversion_orders(self, stack16, smooth16):
        dirs = _subspace_directions(stack16, 10)
        inverse = SubspacePseudoInverse(stack16, dirs)
        cond = inverse.condition_number
        rng = np.random.default_rng(102)
        coeff = rng.standard_normal(10)
        w = coeff[0] * dirs[0]
        for c, d in zip(coeff[1:], dirs[1:]):
            w = w + c * d
        w = (1.0 / np.linalg.norm(w.to_flat())) * w
        tvals = [2.0 ** (-k) for k in range(1, 7)]
        errs = {1: [], 2: [], 3: []}
        for t in tvals:
            target = t * w
            data = fem.forward_map(
                fem.assemble(
                    stack16.system.mesh,
                    stack16.system.layout,
                    smooth16.tau(target),
                    stack16.basis,
                ),
                stack16.basis,
            )
            result = revert(stack16, inverse, data, order=3)
            for K in (1, 2, 3):
                errs[K].append(np.linalg.norm((target - result.partial_sum(K)).to_flat()))
        slopes = {K: _fit_slope(tvals, errs[K]) for K in (1, 2, 3)}
        ok = cond < 1e4 and all(abs(slopes[K] - (K + 1)) <= 0.25 for K in (1, 2, 3))
        detail = (
            f"cond(F) = {cond:.1f} < 1e4; error slopes "
            + ", ".join(f"K={K}: {slopes[K]:.3f} (want {K+1}+-0.25)" for K in (1, 2, 3))
        )
        _report("criterion 2 (reversion convergence orders)", ok, detail)


class TestCriterion3DerivativeCorrectness:
    def test_parametrization_derivatives_and_map_derivative(
        self, config, disk2, layout8, part20, smooth8, stack8
    ):
        rng = np.random.default_rng(103)
        iota = ParamVector(
            0.3 * rng.standard_normal(20),
            0.2 * rng.standard_normal(8),
            0.05 * rng.standard_normal((8, 2)),
        )
        assert smooth8.admissible(iota)
        w = layout8.equad_weights
        vols = disk2.cell_volumes

        def zeta_of(flat):
            return eval_zeta_smooth(
                config, layout8, flat[20:28], flat[28:].reshape(8, 2), strict=False
            )

        def sigma_of(flat):
            return np.exp(np.longdouble(config.mu_kappa) + flat[:20])[part20.cluster_of]

        def surf_l2(z):
            return float(np.sqrt((w * np.square(np.asarray(z, dtype=float))).sum()))

        def vol_l2(s):
            return float(np.sqrt((vols * np.square(np.asarray(s, dtype=float))).sum()))

        h = np.longdouble(1e-4)
        base = iota.to_flat().astype(np.longdouble)

        def fd(func, dirs, flat, k):
            if k == 0:
                return func(flat)
            d = dirs[k - 1].to_flat().astype(np.longdouble)
            return (fd(func, dirs, flat + h * d, k - 1) - fd(func, dirs, flat - h * d, k - 1)) / (
                2 * h
            )

        worst = 0.0
        checked = 0
        # all coordinate mixtures of (strength, location-x, location-y) on one
        # electrode, orders one to three
        coords = [20 + 2, 28 + 4, 28 + 5]  # rho_2, xi_2x, xi_2y
        for order in (1, 2, 3):
            for combo in itertools.combinations_with_replacement(coords, order):
                dirs = []
                for idx in combo:
                    e = np.zeros(44)
                    e[idx] = 1.0
                    dirs.append(ParamVector.from_flat(e, 20, 8, "smooth"))
                closed = dtau(config, layout8, part20, iota, dirs).zeta
                approx = fd(zeta_of, dirs, base, order).astype(float)
                rel = surf_l2(closed - approx) / max(surf_l2(closed), 1e-300)
                worst = max(worst, rel)
                checked += 1
        # random full directions, domain and contact parts, orders 1..3
        for order in (1, 2, 3):
            dirs = [_random_direction(rng, 20, 8) for _ in range(order)]
            closed = dtau(config, layout8, part20, iota, dirs)
            approx_z = fd(zeta_of, dirs, base, order).astype(float)
            approx_s = fd(sigma_of, dirs, base, order).astype(float)
            worst = max(worst, surf_l2(closed.zeta - approx_z) / surf_l2(closed.zeta))
            worst = max(worst, vol_l2(closed.sigma - approx_s) / vol_l2(closed.sigma))
            checked += 2

        # first derivative of the map: second-order remainder
        eta = _random_direction(rng, 20, 8)
        d1 = stack8.dlambda1(eta)
        svals = [2.0 ** (-k) for k in range(3, 9)]
        rems = []
        for s in svals:
            lam_s = fem.forward_map(
                fem.assemble(disk2, layout8, smooth8.tau(s * eta), stack8.basis),
                stack8.basis,
            )
            rems.append(np.linalg.norm(lam_s - stack8.lam - s * d1))
        slope = _fit_slope(svals, rems)
        ok = worst < 1e-5 and abs(slope - 2.0) <= 0.1
        detail = (
            f"{checked} derivative mixtures, worst FD relative error {worst:.2e} < 1e-5; "
            f"map-derivative remainder slope {slope:.3f} (want 2+-0.1)"
        )
        _report("criterion 3 (derivative correctness)", ok, detail)


class TestCriterion4Reciprocity:
    def test_reciprocity_and_scaling(self, disk2, layout8):
        rng = np.random.default_rng(104)
        worst = 0.0
        for _ in range(100):
            sigma = np.exp(-3.0 + 0.5 * rng.standard_normal(disk2.n_cells))
            zeta = 0.5 * np.exp(0.3 * rng.standard_normal(layout8.equad_weights.shape))
            lam = fem.forward_map(fem.assemble(disk2, layout8, ConductivityPair(sigma, zeta)))
            worst = max(worst, np.linalg.norm(lam - lam.T) / np.linalg.norm(lam))
        tau = ConductivityPair(
            np.exp(-3.0 + 0.2 * rng.standard_normal(disk2.n_cells)),
            np.full(layout8.equad_weights.shape, 0.4),
        )
        lam1 = fem.forward_map(fem.assemble(disk2, layout8, tau))
        s = 2.7
        lam_s = fem.forward_map(fem.assemble(disk2, layout8, s * tau))
        scale_err = np.abs(lam_s - lam1 / s).max() / np.abs(lam1).max()
        ok = worst < 1e-10 and scale_err < 1e-12
        detail = (
            f"worst asymmetry over 100 random pairs {worst:.2e} < 1e-10; "
            f"1/s scaling error {scale_err:.2e}"
        )
        _report("criterion 4 (reciprocity and scaling)", ok, detail)


class TestCriterion5NoiseCovariance:
    @pytest.mark.parametrize("deltas", [(0.005, 0.05), (0.01, 0.1)])
    def test_monte_carlo_covariance(self, stack16, basis16, deltas):
        noise = build_noise_cov(deltas[0], deltas[1], stack16.lam, basis16)
        M = 16
        rng = sample_rng(105, 0)
        n = 100_000
        chunk = 10_000
        dim = (M - 1) ** 2
        acc = np.zeros((dim, dim))
        tail = basis16.Bhat_pinv @ basis16.B
        for _ in range(n // chunk):
            theta = noise.pattern_std[None, :, :] * rng.standard_normal((chunk, M, M - 1))
            data = np.einsum("im,cmn,nj->cij", basis16.B_pinv, theta, tail)
            flat = data.reshape(chunk, -1, order="F")
            acc += flat.T @ flat
        emp = acc / n
        rel = np.linalg.norm(emp - noise.cov) / np.linalg.norm(noise.cov)
        ok = rel < 0.05
        _report(
            f"criterion 5 (noise covariance, deltas {deltas})",
            ok,
            f"Monte Carlo vs analytic relative Frobenius {rel:.4f} < 0.05 over {n} draws",
        )


class TestCriterion6PipelineOrdering:
    def test_c1_analog_ordering(self):
        started = time.time()
        case = replace(CASES["C1"], n_samples=50, seed=1)
        result = experiment1(case, n_samples=50, seed=1)
        mask = result.retained
        means_res = {
            m: float(np.mean(result.table[m]["res_rel"][mask]))
            for m in ("1", "2", "1,1")
        }
        means_err = {
            m: float(np.mean(result.table[m]["err"][mask])) for m in ("1", "2")
        }
        elapsed = time.time() - started
        ok = (
            means_res["1,1"] <= means_res["2"] <= means_res["1"]
            and means_err["2"] <= means_err["1"]
            and not result.failures
            and elapsed < 1800.0
        )
        detail = (
            f"E(res_rel): (1,1) {means_res['1,1']:.4f} <= (2) {means_res['2']:.4f}"
            f" <= (1) {means_res['1']:.4f}; E(err): (2) {means_err['2']:.4f}"
            f" <= (1) {means_err['1']:.4f}; runtime {elapsed:.0f}s < 1800s"
        )
        _report("criterion 6 (pipeline ordering, C1 analog)", ok, detail)


class TestCriterion7ScalingStudy:
    def test_c1_analog_scaling(self):
        case = CASES["C1"]
        s_values = [0.1, 0.1 * math.sqrt(2.0), 0.2, 0.8, 0.8 * math.sqrt(2.0), 1.6, 1.6 * math.sqrt(2.0), 3.2]
        result = experiment2(case, s_values, seed=2)
        top = slice(3, 8)
        slope = _fit_slope(result.s_values[top], result.table["1"]["res"][top])
        floor_ok = True
        details_floor = []
        for m in result.methods:
            r = result.table[m]["res"]
            floor = r[0]
            for k in (0, 1):
                diff = abs(r[k + 1] - r[k])
                floor_ok = floor_ok and diff < 0.1 * floor
            details_floor.append(f"({m}) {max(abs(r[1]-r[0]), abs(r[2]-r[1]))/floor:.3f}")
        ok = abs(slope - 2.0) <= 0.3 and floor_ok
        detail = (
            f"order-1 residual slope above floor {slope:.3f} (want 2+-0.3); "
            f"max relative floor steps: " + ", ".join(details_floor) + " (all < 0.1)"
        )
        _report("criterion 7 (scaling-study phenomenology)", ok, detail)


class TestCriterion8Equivalences:
    def test_equivalences(self, stack16, smooth16, basis16):
        prior = build_prior(smooth16, CASES["C1"].reconstruction.gammas)
        noise = build_noise_cov(1e-4, 1e-3, stack16.lam, basis16)
        inverse = TikhonovInverse(stack16, prior, noise)
        rng = np.random.default_rng(108)
        data = stack16.lam + 1e-3 * rng.standard_normal(stack16.lam.shape)
        rev = revert(stack16, inverse, data, order=1)
        seq = sequential_linearize(
            lambda up: None,
            lambda st: inverse,
            data,
            steps=1,
            initial_stack=stack16,
            initial_inverse=inverse,
        )
        bit_exact = np.array_equal(
            seq.iterates[0].to_flat(), rev.partial_sum(1).to_flat()
        )

        J = stack16.jacobian()
        scale = np.abs(J).max()
        worst_col = 0.0
        for p in np.random.default_rng(109).choice(smooth16.dim, size=12, replace=False):
            e = np.zeros(smooth16.dim)
            e[p] = 1.0
            col = vec(stack16.dlambda1(smooth16.from_flat(e)))
            worst_col = max(worst_col, float(np.abs(J[:, p] - col).max()))
        jac_ok = worst_col <= 1e-12 * max(scale, 1.0)

        eta = _random_direction(rng, 80, 16)
        polar = np.abs(
            stack16.mixed_dlambda2(eta, eta) - stack16.dlambda2(eta)
        ).max()
        polar_ok = polar <= 1e-12 * max(1.0, np.abs(stack16.dlambda2(eta)).max())

        ok = bit_exact and jac_ok and polar_ok
        detail = (
            f"revert(1) == sequential step 1 bit-exact: {bit_exact}; "
            f"jacobian vs dlambda1 worst abs dev {worst_col:.2e} <= 1e-12*scale; "
            f"polarization deviation {polar:.2e} (rounding level)"
        )
        _report("criterion 8 (equivalences)", ok, detail)
