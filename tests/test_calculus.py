"""Derivatives of the current-to-voltage map: orders, symmetry, Jacobian."""

import tracemalloc

import numpy as np
import pytest

from eitrev import fem, model
from eitrev.calculus import DerivativeStack, vec
from eitrev.model import AdmissibilityError, ConductivityPair, ParamVector


@pytest.fixture(scope="module")
def eta8():
    rng = np.random.default_rng(21)
    return ParamVector(
        0.5 * rng.standard_normal(20),
        0.3 * rng.standard_normal(8),
        0.04 * rng.standard_normal((8, 2)),
    )


class TestDirectionalDerivatives:
    def test_zero_direction(self, stack8):
        zero = stack8.param.zero()
        assert np.all(stack8.dlambda1(zero) == 0.0)
        assert np.all(stack8.dlambda2(zero) == 0.0)
        assert np.all(stack8.dlambda3(zero) == 0.0)

    def test_first_derivative_linear(self, stack8, eta8):
        d1 = stack8.dlambda1(eta8)
        d1_scaled = stack8.dlambda1(2.5 * eta8)
        assert np.allclose(d1_scaled, 2.5 * d1, rtol=1e-12)

    def test_output_matrices_symmetric(self, stack8, eta8):
        for matrix in (
            stack8.dlambda1(eta8),
            stack8.dlambda2(eta8),
            stack8.dlambda3(eta8),
        ):
            assert np.linalg.norm(matrix - matrix.T) < 1e-10 * np.linalg.norm(matrix)

    def test_second_derivative_quadratic(self, stack8, eta8):
        d2 = stack8.dlambda2(eta8)
        d2s = stack8.dlambda2(3.0 * eta8)
        assert np.allclose(d2s, 9.0 * d2, rtol=1e-11)

    def test_third_derivative_cubic(self, stack8, eta8):
        d3 = stack8.dlambda3(eta8)
        d3s = stack8.dlambda3(2.0 * eta8)
        assert np.allclose(d3s, 8.0 * d3, rtol=1e-11)

    @pytest.mark.parametrize("order,tol", [(1, 0.15), (2, 0.15), (3, 0.2)])
    def test_remainder_slopes(self, stack8, eta8, order, tol):
        system = stack8.system
        param = stack8.param
        svals = [2.0 ** (-k) for k in range(3, 10)]
        rems = []
        for s in svals:
            tau_s = param.tau(stack8.iota + s * eta8)
            lam_s = fem.forward_map(fem.AssembledSystem(system.layout, tau_s))
            rems.append(np.linalg.norm(lam_s - stack8.taylor_eval(s * eta8, order)))
        slope = np.polyfit(np.log(svals), np.log(rems), 1)[0]
        assert slope == pytest.approx(order + 1, abs=tol)


class TestMixedSecondDerivative:
    def test_polarization(self, stack8, eta8):
        assert np.allclose(
            stack8.mixed_dlambda2(eta8, eta8), stack8.dlambda2(eta8), rtol=1e-12
        )

    def test_swap_symmetric(self, stack8, eta8):
        rng = np.random.default_rng(22)
        other = ParamVector(
            rng.standard_normal(20), rng.standard_normal(8), 0.05 * rng.standard_normal((8, 2))
        )
        ab = stack8.mixed_dlambda2(eta8, other)
        ba = stack8.mixed_dlambda2(other, eta8)
        assert np.allclose(ab, ba, rtol=1e-11, atol=1e-14)

    def test_bilinear_random_combinations(self, stack8, eta8):
        rng = np.random.default_rng(23)
        other = ParamVector(
            rng.standard_normal(20), rng.standard_normal(8), 0.05 * rng.standard_normal((8, 2))
        )
        third = ParamVector(
            rng.standard_normal(20), rng.standard_normal(8), 0.05 * rng.standard_normal((8, 2))
        )
        a, b = 0.6, -2.2
        lhs = stack8.mixed_dlambda2(a * eta8 + b * other, third)
        rhs = a * stack8.mixed_dlambda2(eta8, third) + b * stack8.mixed_dlambda2(other, third)
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-13)


class TestCompositionOrder:
    def test_operators_do_not_commute(self, stack8, eta8):
        # P''(eta^2) P'(eta) differs from P'(eta) P''(eta^2) in general
        h = stack8._handle(eta8)
        left = stack8._trace(stack8._chain((h, h), (h,)))
        right = stack8._trace(stack8._chain((h,), (h, h)))
        denom = np.linalg.norm(left)
        assert np.linalg.norm(left - right) > 1e-6 * denom


class TestJacobian:
    def test_columns_match_dlambda1(self, stack8):
        J = stack8.jacobian()
        rng = np.random.default_rng(24)
        scale = np.abs(J).max()
        for p in rng.choice(stack8.param.dim, size=8, replace=False):
            e = np.zeros(stack8.param.dim)
            e[p] = 1.0
            col = vec(stack8.dlambda1(stack8.param.from_flat(e)))
            assert np.abs(J[:, p] - col).max() < 1e-12 * max(scale, 1.0)

    def test_zero_direction_zero_column(self, stack8):
        zero = stack8.param.zero()
        assert np.all(stack8.jacobian([zero]) == 0.0)

    def test_interior_cluster_less_sensitive(self, stack16):
        part = stack16.param.partition
        radii = np.linalg.norm(part.centers, axis=1)
        inner = int(np.argmin(radii))
        outer = int(np.argmax(radii))
        J = stack16.jacobian()
        assert np.linalg.norm(J[:, inner]) < np.linalg.norm(J[:, outer])

    def test_explicit_directions(self, stack8, eta8):
        J = stack8.jacobian([eta8, 2.0 * eta8])
        assert np.allclose(J[:, 1], 2.0 * J[:, 0], rtol=1e-12)
        picks = [0, 5, 21, 30, stack8.param.dim - 1]
        eye = np.eye(stack8.param.dim)
        coords = stack8.jacobian([stack8.param.from_flat(eye[p]) for p in picks])
        assert np.array_equal(coords, stack8.jacobian()[:, picks])


class TestTaylorEval:
    def test_zero_direction_returns_base(self, stack8):
        zero = stack8.param.zero()
        assert np.allclose(stack8.taylor_eval(zero, 1), stack8.lam)
        assert np.allclose(stack8.taylor_eval(zero, 3), stack8.lam)

    def test_order_guard(self, stack8, eta8):
        with pytest.raises(ValueError):
            stack8.taylor_eval(eta8, 4)

    def test_trivial_parametrization_matches_neumann_series(
        self, stack8, linear_parametrization
    ):
        # with an affine parametrization the truncated Taylor evaluation
        # equals the composition series Lambda + sum_k T P(eta)^k N
        system = stack8.system
        tau0 = system.tau
        rng = np.random.default_rng(25)
        modes = [
            ConductivityPair(
                0.01 * rng.standard_normal(system.mesh.n_cells) * tau0.sigma,
                0.01 * rng.standard_normal() * tau0.zeta,
            )
            for _ in range(3)
        ]
        linear = linear_parametrization(system.layout, tau0, modes)
        stack = DerivativeStack(linear, linear.zero())
        x = np.array([0.7, -0.4, 1.1])

        got = stack.taylor_eval(x, 3)
        eta_pair = linear.dtau(linear.tau(linear.zero()), [x])
        series = stack.lam.copy()
        current = stack.base
        for _ in range(3):
            current = system.perturbation(eta_pair).apply(current)
            series += current.coefficients(stack.basis)
        assert np.allclose(got, series, atol=1e-11 * np.abs(series).max())

    def test_trivial_parametrization_dlambda2_reduces(self, stack8, linear_parametrization):
        # tau'' = 0 collapses the second derivative to 2 T P(eta)^2 N
        system = stack8.system
        tau0 = system.tau
        rng = np.random.default_rng(26)
        modes = [
            ConductivityPair(
                0.01 * rng.standard_normal(system.mesh.n_cells) * tau0.sigma,
                0.01 * rng.standard_normal() * tau0.zeta,
            )
            for _ in range(2)
        ]
        linear = linear_parametrization(system.layout, tau0, modes)
        stack = DerivativeStack(linear, linear.zero())
        x = np.array([0.9, 0.3])
        d2 = stack.dlambda2(x)
        eta_pair = linear.dtau(linear.tau(linear.zero()), [x])
        once = system.perturbation(eta_pair).apply(stack.base)
        twice = system.perturbation(eta_pair).apply(once)
        expect = 2.0 * twice.coefficients(stack.basis)
        assert np.allclose(d2, expect, atol=1e-12 * max(1.0, np.abs(expect).max()))


class TestAccountingAndCache:
    def test_dlambda3_solve_budget(self, disk2, layout8, smooth8, basis8, eta8):
        stack = DerivativeStack(smooth8, smooth8.zero())
        system = stack.system
        base_solves = system.solve_count  # the M-1 base solutions
        stack.dlambda3(eta8)
        used = system.solve_count - base_solves
        assert used <= 7 * (basis8.B.shape[1])

    def test_cache_is_pure_memoization(self, disk2, layout8, smooth8, basis8, eta8):
        iota = smooth8.zero()
        stack = DerivativeStack(smooth8, iota)
        system = stack.system
        first = stack.dlambda3(eta8)
        solves = system.solve_count
        second = stack.dlambda3(eta8)
        assert system.solve_count == solves
        assert np.array_equal(first, second)
        # a fresh stack reproduces the cached values from scratch
        fresh = DerivativeStack(smooth8, iota)
        assert np.allclose(fresh.dlambda3(eta8), first, rtol=1e-12)

    @pytest.mark.parametrize("kind", ["smooth", "cem"])
    def test_coordinate_build_takes_one_dtau_per_block_and_no_perturbation(
        self, layout8, smooth8, cem8, kind, monkeypatch
    ):
        # the benchmark's per-build work counts are read off these two calls
        param = smooth8 if kind == "smooth" else cem8
        iota = param.zero()
        stack = DerivativeStack(param, iota)
        calls = {"dtau": 0, "perturbation": 0}

        def counted(name, method):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)

            return wrapper

        for owner, name in ((type(param), "dtau"), (fem.AssembledSystem, "perturbation")):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        # kappa and rho, and for smooth both components of xi
        blocks = 4 if kind == "smooth" else 2
        stack.jacobian()
        assert calls == {"dtau": blocks, "perturbation": 0}
        stack.jacobian()
        assert calls == {"dtau": blocks, "perturbation": 0}
        eye = np.eye(param.dim)
        stack.jacobian([param.from_flat(eye[p]) for p in (0, param.dim - 1)])
        assert calls == {"dtau": blocks + 2, "perturbation": 2}

    # traced peaks of the per-coordinate route that the block kernel replaced,
    # on this geometry with numpy 2.4 and scipy 1.17
    @pytest.mark.parametrize("kind, replaced_peak", [("smooth", 765_576), ("cem", 549_000)])
    def test_coordinate_build_peak_memory_stays_near_the_per_coordinate_route(
        self, smooth16, kind, replaced_peak
    ):
        # fem.CHUNK bounds the kernel's temporaries; the stacked plans are
        # cached per partition and layout, so a first build warms them
        param = model.Parametrization(smooth16.config, smooth16.partition, smooth16.layout, kind)
        DerivativeStack(param, param.zero()).jacobian()
        stack = DerivativeStack(param, param.zero())
        tracemalloc.start()
        try:
            stack.jacobian()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * replaced_peak

    @pytest.mark.parametrize("kind", ["smooth", "cem"])
    def test_stack_builds_its_bump_data_once(self, layout8, smooth8, cem8, eta8, kind, monkeypatch):
        param = smooth8 if kind == "smooth" else cem8
        iota = param.zero()
        builds = []
        build = model.BumpData.__init__

        def counted(self, *args, **kwargs):
            builds.append(self)
            build(self, *args, **kwargs)

        monkeypatch.setattr(model.BumpData, "__init__", counted)
        stack = DerivativeStack(param, iota)
        # the one build is tau's, kept in the pair every dtau is taken at
        assert builds == ([stack.system.tau.bumps] if kind == "smooth" else [])
        expected = list(builds)
        eta = eta8 if kind == "smooth" else ParamVector(eta8.kappa, eta8.rho)
        other = 0.5 * eta
        stack.dlambda3(eta)
        stack.mixed_dlambda2(eta, other)
        stack.jacobian()
        stack.branch().dlambda2(eta)
        assert builds == expected
        if kind == "cem":
            assert stack.system.tau.bumps is None
            return
        for group in stack.system.tau.bumps.groups:
            for values in group:
                with pytest.raises(ValueError):
                    values.flat[0] = 0


class TestBasePoint:
    def test_inadmissible_base_point_is_rejected_at_construction(self, smooth8, monkeypatch):
        iota = smooth8.zero()
        xi = iota.xi.copy()
        xi[2] = [0.55, 0.0]
        bad = ParamVector(iota.kappa, iota.rho, xi)
        assert not smooth8.admissible(bad)
        systems = []
        monkeypatch.setattr(fem.AssembledSystem, "__init__", lambda *args: systems.append(args))
        with pytest.raises(AdmissibilityError):
            DerivativeStack(smooth8, bad)
        assert systems == []  # rejected before anything is assembled
