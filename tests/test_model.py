"""Parametrizations: values, admissibility, and closed-form derivatives."""

import dataclasses
import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest

from eitrev.mesh import (
    cluster_partition,
    define_electrodes,
    disk_electrode_midpoints,
    generate_disk_mesh,
)
from eitrev.model import (
    AdmissibilityError,
    _bump_h123,
    ModelConfig,
    ParamVector,
    Parametrization,
    bump,
    contact_admissible,
)
from eitrev.quadrature import facet_rule


def electrode_integral(layout, values, m=None):
    w = layout.equad_weights
    if m is None:
        return float((w * values).sum())
    sl = layout.efacet_slices[m]
    return float((w[sl] * values[sl]).sum())


def cem_tau(param, kappa=None, theta=None):
    """tau of the cem parametrization at (kappa, theta), each zero when not given."""
    kappa = np.zeros(param.n_clusters) if kappa is None else kappa
    theta = np.zeros(param.n_electrodes) if theta is None else theta
    return param.tau(ParamVector(kappa, theta))


def smooth_zeta(param, rho, xi):
    """Contact density of the smooth parametrization at (0, rho, xi)."""
    return param.tau(ParamVector(np.zeros(param.n_clusters), rho, xi)).zeta


class TestSigma:
    def test_zero_shift_is_background(self, cem8):
        sigma = cem_tau(cem8).sigma
        assert np.allclose(sigma, math.exp(-3.0))
        assert sigma[0] == pytest.approx(0.049787068367863944)

    def test_unit_conductivity_on_cluster(self, cem8, part20):
        kappa = np.zeros(20)
        kappa[4] = 3.0
        sigma = cem_tau(cem8, kappa).sigma
        on = part20.cluster_of == 4
        assert np.allclose(sigma[on], 1.0)
        assert np.allclose(sigma[~on], math.exp(-3.0))

    def test_matches_scalar_oracle(self, cem8, part20):
        rng = np.random.default_rng(1)
        kappa = rng.standard_normal(20)
        sigma = cem_tau(cem8, kappa).sigma
        for cell in range(0, part20.mesh.n_cells, 7):
            i = part20.cluster_of[cell]
            assert sigma[cell] == pytest.approx(math.exp(-3.0 + kappa[i]), rel=1e-15)

    def test_length_mismatch(self, cem8):
        with pytest.raises(ValueError):
            cem_tau(cem8, np.zeros(7))


def tau_point(param):
    """A fixed admissible point of ``param`` away from the origin."""
    rng = np.random.default_rng(31)
    M = param.n_electrodes
    kappa = 0.3 * rng.standard_normal(param.n_clusters)
    rho = 0.2 * rng.standard_normal(M)
    xi = 0.03 * rng.standard_normal((M, 2)) if param.kind == "smooth" else None
    return ParamVector(kappa, rho, xi)


class TestTau:
    # sha256 of the little-endian sigma and zeta bytes, pinned so that a
    # rewrite of tau cannot move a single rounding of a float64 point.
    @pytest.mark.parametrize(
        "name, origin, digest",
        [
            ("smooth8", True, "804924bab35655c2921357ae60be53e0346261ef3209db932f69de1c0ff4ca7a"),
            ("smooth8", False, "ce04eb1cf34939e5475a3652a7ff94ac7c3c882e82690b631f6de46b731b0c46"),
            ("cem8", True, "1b14fa10b153723d59912bd939b8cb59d1e18e5b48e9a4d074d6ae1314829933"),
            ("cem8", False, "e495670fca82830371fdf6eed61a9b9bd37d4f88cfbed37422e38257c8e0f7dc"),
            ("smooth16", True, "d81aece801e930f7d94d6b3c621be1a0a35fe06eacc6bd5c1379c23045c8d534"),
            ("smooth16", False, "5fbdc4b5b28be35eece0a744b80fd66721001d141e837fecb66a32a78942075d"),
        ],
    )
    def test_outputs_are_pinned(self, request, name, origin, digest):
        param = request.getfixturevalue(name)
        iota = param.zero() if origin else tau_point(param)
        assert param.admissible(iota)
        out = param.tau(iota)
        assert out.sigma.dtype == np.float64 and out.zeta.dtype == np.float64
        sha = hashlib.sha256()
        sha.update(out.sigma.astype("<f8").tobytes())
        sha.update(out.zeta.astype("<f8").tobytes())
        assert sha.hexdigest() == digest

    @pytest.mark.parametrize("name", ["smooth8", "cem8"])
    def test_keeps_extended_precision(self, request, name):
        param = request.getfixturevalue(name)
        iota = tau_point(param)
        xi = None if iota.xi is None else iota.xi.astype(np.longdouble)
        wide = ParamVector(iota.kappa.astype(np.longdouble), iota.rho.astype(np.longdouble), xi)
        out, ref = param.tau(wide), param.tau(iota)
        assert out.sigma.dtype == np.longdouble and out.zeta.dtype == np.longdouble
        for wide_part, part in ((out.sigma, ref.sigma), (out.zeta, ref.zeta)):
            assert np.abs(wide_part - part).max() <= 1e-14 * np.abs(part).max()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("component", ["kappa", "rho"])
    @pytest.mark.parametrize("name", ["smooth8", "cem8"])
    def test_rejects_an_entry_that_is_not_finite(self, request, name, component, value):
        param = request.getfixturevalue(name)
        iota = tau_point(param)
        values = getattr(iota, component).copy()
        values[3] = value
        bad = dataclasses.replace(iota, **{component: values})
        with pytest.raises(ValueError, match=rf"^{component}\[3\] is not finite: {value!r}$") as info:
            param.tau(bad)
        # not an AdmissibilityError, which the indicators read as an infinite residual
        assert type(info.value) is ValueError

    @pytest.mark.parametrize(
        "value, flow",
        [
            (800.0, "large: its exponential overflows"),
            (-800.0, "small: its exponential underflows"),
        ],
    )
    @pytest.mark.parametrize("component", ["kappa", "rho"])
    @pytest.mark.parametrize("name", ["smooth8", "cem8"])
    def test_rejects_an_entry_whose_exponential_overflows(
        self, request, name, component, value, flow
    ):
        """The domain conductivity, the cem density and the smooth bump scale all check it.

        An exponential that underflows below the normal floats is named the same way.
        """
        param = request.getfixturevalue(name)
        iota = tau_point(param)
        values = getattr(iota, component).copy()
        values[3] = value
        bad = dataclasses.replace(iota, **{component: values})
        message = rf"^{component}\[3\] = {value!r} is too {flow}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no RuntimeWarning on the way
            with pytest.raises(ValueError, match=message) as info:
                param.tau(bad)
        assert type(info.value) is ValueError


class TestZetaCem:
    def test_conductance_is_exact(self, cem8, layout8):
        zeta = cem_tau(cem8, theta=np.zeros(8)).zeta
        for m in range(8):
            assert electrode_integral(layout8, zeta, m) == pytest.approx(
                math.exp(-3.0), rel=1e-14
            )

    def test_single_electrode_doubles(self, cem8, layout8):
        theta = np.zeros(8)
        theta[2] = math.log(2.0)
        zeta = cem_tau(cem8, theta=theta).zeta
        for m in range(8):
            expect = math.exp(-3.0) * (2.0 if m == 2 else 1.0)
            assert electrode_integral(layout8, zeta, m) == pytest.approx(expect, rel=1e-14)

    def test_rejects_a_contact_region_of_zero_area(self, config, part20, layout8):
        mask = layout8.contact_mask.copy()
        mask[layout8.efacet_slices[5]] = False
        layout = dataclasses.replace(layout8, contact_mask=mask)
        with pytest.raises(ValueError, match="positive area"):
            Parametrization(config, part20, layout, "cem")

    def test_vanishes_off_contact_region(self, cem8, layout8):
        zeta = cem_tau(cem8, theta=np.zeros(8)).zeta
        off = ~layout8.contact_mask
        assert np.all(zeta[off] == 0.0)
        assert np.all(zeta[layout8.contact_mask] > 0.0)

    def test_rejects_a_point_with_contact_locations(self, cem8):
        point = ParamVector(np.zeros(cem8.n_clusters), np.zeros(8), np.zeros((8, 2)))
        with pytest.raises(ValueError, match="no contact locations"):
            cem8.tau(point)


class TestBump:
    def test_center_value_one(self, config):
        assert bump(np.zeros(2), np.zeros(2), config) == 1.0

    def test_zero_at_and_beyond_radius(self, config):
        xi = np.array([0.1, -0.2])
        for r in (0.6, 0.61, 1.0, 5.0):
            y = xi + np.array([r, 0.0])
            assert bump(y, xi, config) == 0.0

    def test_half_radius_closed_form(self, config):
        y = np.array([0.3, 0.0])
        assert bump(y, np.zeros(2), config) == pytest.approx(math.exp(-4.0 / 3.0), rel=1e-14)
        assert bump(y, np.zeros(2), config) == pytest.approx(0.26360, abs=5e-6)

    def test_range_and_vectorized(self, config):
        rng = np.random.default_rng(0)
        ys = rng.uniform(-1, 1, size=(50, 2))
        vals = bump(ys, np.zeros(2), config)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert vals.shape == (50,)


class TestZetaSmooth:
    def test_normalized_conductance(self, smooth16, layout16):
        rho = np.zeros(16)
        xi = np.zeros((16, 2))
        zeta = smooth_zeta(smooth16, rho, xi)
        for m in range(16):
            assert electrode_integral(layout16, zeta, m) == pytest.approx(
                math.exp(-3.0), rel=1e-13
            )

    def test_strength_scales_conductance(self, smooth16, layout16):
        rho = np.zeros(16)
        rho[3] = 0.7
        zeta = smooth_zeta(smooth16, rho, np.zeros((16, 2)))
        assert electrode_integral(layout16, zeta, 3) == pytest.approx(
            math.exp(0.7 - 3.0), rel=1e-13
        )

    def test_reflection_symmetry(self, smooth16, layout16):
        # electrode 0 sits symmetrically about the x-axis; the density at
        # centered contact must be symmetric under the local reflection.
        zeta = smooth_zeta(smooth16, np.zeros(16), np.zeros((16, 2)))
        sl = layout16.efacet_slices[0]
        vals = zeta[sl]
        loc = layout16.equad_local[sl]
        flat_vals = vals.ravel()
        flat_loc = loc.reshape(-1, 2)
        for k in range(len(flat_vals)):
            mirrored = np.array([-flat_loc[k, 0], flat_loc[k, 1]])
            dists = np.linalg.norm(flat_loc - mirrored, axis=1)
            j = int(np.argmin(dists))
            if dists[j] < 1e-9:
                assert flat_vals[j] == pytest.approx(flat_vals[k], rel=1e-9)

    def test_nonnegative_not_identically_zero(self, smooth16, layout16):
        rng = np.random.default_rng(3)
        rho = 0.3 * rng.standard_normal(16)
        xi = 0.05 * rng.standard_normal((16, 2))
        zeta = smooth_zeta(smooth16, rho, xi)
        assert np.all(zeta >= 0.0)
        for m in range(16):
            sl = layout16.efacet_slices[m]
            assert zeta[sl].max() > 0.0

    def test_inadmissible_center_raises(self, smooth16):
        xi = np.zeros((16, 2))
        xi[5] = [0.9, 0.0]  # within R of the electrode rim
        with pytest.raises(AdmissibilityError):
            smooth_zeta(smooth16, np.zeros(16), xi)

    def test_far_center_vanishing_normalization(self, smooth16, layout16):
        # a contact narrower than the node spacing, centred on an interior facet
        # vertex of every electrode: clear of the rim, yet far from every
        # quadrature node, so not admissible; the electrode centres are not
        # either, so the parametrization is rejected when it is built
        config = ModelConfig(R=0.01)
        xi = np.zeros((16, 2))
        for m in range(16):
            facets = layout16.efacet_vertices[layout16.efacet_slices[m]]
            ends = layout16.local_maps[m].to_local(layout16.mesh.vertices[facets.ravel()])
            g = layout16.contact_geometry
            rim = g.a[g.seg_start[m] : g.seg_start[m] + g.n_seg[m]]
            to_rim = np.linalg.norm(ends[:, None] - rim[None], axis=2).min(axis=1)
            xi[m] = ends[np.argmax(to_rim)]
            assert to_rim.max() > 0.1
            assert not contact_admissible(layout16, m, xi[m], config)
            assert not contact_admissible(layout16, m, np.zeros(2), config)
        with pytest.raises(ValueError, match=r"R = 0\.01, a = 4\.0: electrode 0's centre is inad"):
            dataclasses.replace(smooth16, config=config)

    def test_normalization_whose_fourth_power_underflows_is_rejected(self):
        # a contact about R from its electrode curve: Z = 3.1e-204 is above
        # 1e-300, but Z**2 underflows to 0 and the quotient rule of dtau gave
        # NaN Jacobian columns (213 and 242-243) with only a RuntimeWarning
        mesh = generate_disk_mesh(4)
        layout = define_electrodes(mesh, disk_electrode_midpoints(16), 0.15, 0.10)
        partition = cluster_partition(mesh, 200, seed=2)
        param = Parametrization(ModelConfig(), partition, layout, "smooth")
        rng = np.random.default_rng(200)
        draws = [param.from_flat(0.2 * rng.standard_normal(param.dim)) for _ in range(4)]
        iota = draws[3]
        assert not param.admissible(iota)  # the rim is clear, the bump is not normalizable
        assert np.allclose(iota.xi[13], [-0.4834, -0.5849], atol=1e-4)
        with pytest.raises(AdmissibilityError, match="vanishes on electrode 13"):
            param.tau(iota)

    def test_quadrature_richardson(self, config):
        # The fixed facet rule integrates the bump with an error that decays
        # at least quadratically under facet refinement, measured against a
        # dense high-order reference on a straight segment chart.
        xi = np.array([0.13, 0.0])
        a_pt, b_pt = np.array([-1.0, 0.0]), np.array([1.0, 0.0])
        bary, ref_w = facet_rule(2)

        def fixed_rule(n_facets):
            ends = np.linspace(0.0, 1.0, n_facets + 1)
            total = 0.0
            for lo, hi in zip(ends[:-1], ends[1:]):
                p0 = a_pt + lo * (b_pt - a_pt)
                p1 = a_pt + hi * (b_pt - a_pt)
                pts = bary @ np.vstack([p0, p1])
                total += np.linalg.norm(p1 - p0) * float(
                    (ref_w * bump(pts, xi, config)).sum()
                )
            return total

        nodes, weights = np.polynomial.legendre.leggauss(60)
        ts = 0.5 * (nodes + 1.0)
        pts = a_pt + ts[:, None] * (b_pt - a_pt)
        reference = float((0.5 * weights * bump(pts, xi, config)).sum()) * np.linalg.norm(
            b_pt - a_pt
        )

        errs = [abs(fixed_rule(2**k) - reference) for k in range(1, 5)]
        for coarse, fine in zip(errs[:-1], errs[1:]):
            if coarse < 1e-13:
                break
            assert fine < coarse / 4.0 * 1.25


class TestAdmissibility:
    def test_center_admissible(self, config, layout16):
        for m in range(16):
            assert contact_admissible(layout16, m, np.zeros(2), config)

    def test_near_rim_inadmissible(self, config, layout16):
        assert not contact_admissible(layout16, 0, np.array([0.45, 0.0]), config)

    def test_off_curve_inadmissible_in_2d(self, config, layout16):
        assert not contact_admissible(layout16, 0, np.array([0.0, 0.7]), config)

    def test_clamp_restores_admissibility(self, smooth16):
        iota = smooth16.zero()
        xi = iota.xi.copy()
        xi[2] = [0.55, 0.0]
        bad = ParamVector(iota.kappa, iota.rho, xi)
        assert not smooth16.admissible(bad)
        fixed, flagged = smooth16.clamp(bad)
        assert flagged
        assert smooth16.admissible(fixed)
        # clamp moves along the ray toward the patch anchor
        assert fixed.xi[2][0] < 0.55
        ok, flagged2 = smooth16.clamp(iota)
        assert not flagged2 and ok is iota


class FlatZeta:
    """Helper: the smooth contact density at a flat vector, in the vector's precision."""

    def __init__(self, param):
        self.param = param
        self.n_c = param.n_clusters
        self.M = param.n_electrodes

    def __call__(self, flat):
        rho = flat[self.n_c : self.n_c + self.M]
        xi = flat[self.n_c + self.M :].reshape(self.M, 2)
        return smooth_zeta(self.param, rho, xi)


def surface_l2(layout, values):
    return float(np.sqrt((layout.equad_weights * np.square(values.astype(float))).sum()))


@pytest.fixture(scope="module")
def smooth_point(smooth8):
    rng = np.random.default_rng(5)
    iota = ParamVector(
        0.3 * rng.standard_normal(20),
        0.2 * rng.standard_normal(8),
        0.05 * rng.standard_normal((8, 2)),
    )
    assert smooth8.admissible(iota)
    return iota


class TestDtau:
    def test_zero_direction_gives_zero(self, smooth8, smooth_point):
        zero = smooth8.zero()
        out = smooth8.dtau(smooth8.tau(smooth_point), [zero])
        assert np.all(out.sigma == 0.0)
        assert np.all(out.zeta == 0.0)

    def test_second_derivative_of_exponential(self, part20, smooth8):
        # at kappa = 0 with both directions the indicator of one cluster, the
        # domain part is exp(mu_kappa) on that cluster and zero elsewhere
        iota = smooth8.zero()
        e = np.zeros(20)
        e[6] = 1.0
        d = ParamVector(e, np.zeros(8), np.zeros((8, 2)))
        out = smooth8.dtau(smooth8.tau(iota), [d, d])
        on = part20.cluster_of == 6
        assert np.allclose(out.sigma[on], math.exp(-3.0))
        assert np.all(out.sigma[~on] == 0.0)

    def test_order_guard(self, smooth8, smooth_point):
        d = smooth8.zero()
        at = smooth8.tau(smooth_point)
        with pytest.raises(ValueError):
            smooth8.dtau(at, [d] * 4)
        with pytest.raises(ValueError):
            smooth8.dtau(at, [])

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_matches_central_differences(self, layout8, smooth8, smooth_point, order):
        # independent oracle: nested central differences of the density with
        # step 1e-4, evaluated in extended precision
        rng = np.random.default_rng(40 + order)
        dirs = [
            ParamVector(
                np.zeros(20), rng.standard_normal(8), rng.standard_normal((8, 2))
            )
            for _ in range(order)
        ]
        closed = smooth8.dtau(smooth8.tau(smooth_point), dirs).zeta
        flat_zeta = FlatZeta(smooth8)
        h = np.longdouble(1e-4)
        base = smooth_point.to_flat().astype(np.longdouble)

        def fd(flat, k):
            if k == 0:
                return flat_zeta(flat)
            d = dirs[k - 1].to_flat().astype(np.longdouble)
            return (fd(flat + h * d, k - 1) - fd(flat - h * d, k - 1)) / (2 * h)

        approx = fd(base, order).astype(float)
        assert surface_l2(layout8, closed - approx) < 1e-5 * surface_l2(layout8, closed)

    def test_cross_electrode_partials_vanish(self, smooth8, smooth_point):
        # the density is a sum of per-electrode terms, so mixed partials
        # across electrodes are identically zero
        e1 = np.zeros(44)
        e1[20] = 1.0  # strength on electrode 0
        e2 = np.zeros(44)
        e2[21] = 1.0  # strength on electrode 1
        at = smooth8.tau(smooth_point)
        out = smooth8.dtau(at, [smooth8.from_flat(e1), smooth8.from_flat(e2)])
        assert np.all(out.zeta == 0.0)

    @pytest.mark.parametrize("coords", [(20, 28, 29), (22, 32, 33), (25, 38, 39)])
    def test_mixed_coordinate_partials(self, layout8, smooth8, smooth_point, coords):
        dirs = []
        for idx in coords:
            e = np.zeros(44)
            e[idx] = 1.0
            dirs.append(smooth8.from_flat(e))
        closed = smooth8.dtau(smooth8.tau(smooth_point), dirs).zeta
        flat_zeta = FlatZeta(smooth8)
        h = np.longdouble(1e-4)
        base = smooth_point.to_flat().astype(np.longdouble)

        def fd(flat, k):
            if k == 0:
                return flat_zeta(flat)
            d = dirs[k - 1].to_flat().astype(np.longdouble)
            return (fd(flat + h * d, k - 1) - fd(flat - h * d, k - 1)) / (2 * h)

        approx = fd(base, 3).astype(float)
        assert surface_l2(layout8, closed - approx) < 1e-5 * surface_l2(layout8, closed)

    def test_cem_derivatives_match_scalar_oracle(self, cem8, layout8):
        rng = np.random.default_rng(9)
        iota = ParamVector(0.2 * rng.standard_normal(20), 0.3 * rng.standard_normal(8))
        dirs = [
            ParamVector(rng.standard_normal(20), rng.standard_normal(8))
            for _ in range(3)
        ]
        out = cem8.dtau(cem8.tau(iota), dirs)
        areas = [
            layout8.efacet_measures[layout8.efacet_slices[m]][
                layout8.contact_mask[layout8.efacet_slices[m]]
            ].sum()
            for m in range(8)
        ]
        for m in range(3):
            sl = layout8.efacet_slices[m]
            on = layout8.contact_mask[sl]
            expect = (
                math.exp(-3.0 + iota.rho[m])
                * dirs[0].rho[m]
                * dirs[1].rho[m]
                * dirs[2].rho[m]
                / areas[m]
            )
            got = out.zeta[sl][on]
            assert np.allclose(got, expect, rtol=1e-13)
            assert np.all(out.zeta[sl][~on] == 0.0)

    def test_multilinearity(self, smooth8, smooth_point):
        rng = np.random.default_rng(12)

        def rand_dir():
            return ParamVector(
                rng.standard_normal(20),
                rng.standard_normal(8),
                rng.standard_normal((8, 2)),
            )

        a, b, c = rand_dir(), rand_dir(), rand_dir()
        alpha, beta = 0.7, -1.3
        combo = alpha * a + beta * b
        at = smooth8.tau(smooth_point)
        lhs = smooth8.dtau(at, [combo, c])
        t1 = smooth8.dtau(at, [a, c])
        t2 = smooth8.dtau(at, [b, c])
        assert np.allclose(lhs.sigma, alpha * t1.sigma + beta * t2.sigma, atol=1e-12)
        assert np.allclose(lhs.zeta, alpha * t1.zeta + beta * t2.zeta, atol=1e-12)

    def test_permutation_symmetry(self, smooth8, smooth_point):
        rng = np.random.default_rng(13)
        dirs = [
            ParamVector(
                rng.standard_normal(20),
                rng.standard_normal(8),
                rng.standard_normal((8, 2)),
            )
            for _ in range(3)
        ]
        import itertools

        at = smooth8.tau(smooth_point)
        base = smooth8.dtau(at, dirs)
        for perm in itertools.permutations(range(3)):
            out = smooth8.dtau(at, [dirs[p] for p in perm])
            assert np.allclose(out.sigma, base.sigma, rtol=1e-12, atol=1e-14)
            assert np.allclose(out.zeta, base.zeta, rtol=1e-12, atol=1e-14)

    def test_taylor_consistency_slope(self, layout8, smooth8, smooth_point):
        # the third-order Taylor polynomial of tau built from dtau reproduces
        # tau(iota + s eta) with a fourth-order remainder (log-log slope fit)
        rng = np.random.default_rng(14)
        eta = ParamVector(
            0.5 * rng.standard_normal(20),
            0.3 * rng.standard_normal(8),
            0.03 * rng.standard_normal((8, 2)),
        )
        at = smooth8.tau(smooth_point)
        d1 = smooth8.dtau(at, [eta])
        d2 = smooth8.dtau(at, [eta, eta])
        d3 = smooth8.dtau(at, [eta, eta, eta])
        svals = [2.0 ** (-k) for k in range(2, 8)]
        rems = []
        for s in svals:
            shifted = smooth8.tau(smooth_point + s * eta)
            model = (
                at.zeta
                + s * d1.zeta
                + 0.5 * s**2 * d2.zeta
                + s**3 / 6.0 * d3.zeta
            )
            rems.append(surface_l2(layout8, shifted.zeta - model))
        slope = np.polyfit(np.log(svals), np.log(rems), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.3)

    # sha256 of the little-endian sigma and zeta bytes of two calls (random
    # directions, then coordinate directions on electrode 2), pinned so that a
    # rewrite of the derivative expansion cannot move a single rounding.
    @pytest.mark.parametrize(
        "kind, order, digest",
        [
            ("smooth", 1, "60f659d11811032e2db2235ceb66a5bbebb7c72cf0952cb6b8df5c2eea06937d"),
            ("smooth", 2, "f3afe926ca3d466297c607678b0d934594bf6dee2ce9c92a37fd18541bd15455"),
            ("smooth", 3, "d85d3e54e4acfaab38fc54a874ea18fb62e0d9dfa7081f5f6ac2a2e3781c8731"),
            ("cem", 1, "a2e1edb833ba0454f1a98763fb8f5fe1becb083e0846154140ff1fea1c55a9bc"),
            ("cem", 2, "9fdcd9bce46581de46a78e5a5f777bafa73facdc88a262fec860330a36d3f8cf"),
            ("cem", 3, "22a42e534740fb8cdd65ecf3ac0b1d04838fcf3a131f9169b28631797c56f131"),
        ],
    )
    def test_outputs_are_pinned(self, smooth8, cem8, smooth_point, kind, order, digest):
        if kind == "smooth":
            param, iota = smooth8, smooth_point
        else:
            param, iota = cem8, ParamVector(smooth_point.kappa, smooth_point.rho)
        rng = np.random.default_rng(70 + order)
        rho2, xi2 = param.n_clusters + 2, param.n_clusters + param.n_electrodes + 4
        coordinate = [rho2, xi2, xi2 + 1] if kind == "smooth" else [rho2] * 3
        sha = hashlib.sha256()
        for dirs in (
            [param.from_flat(rng.standard_normal(param.dim)) for _ in range(order)],
            [param.from_flat(np.eye(param.dim)[i]) for i in coordinate[:order]],
        ):
            out = param.dtau(param.tau(iota), dirs)
            sha.update(out.sigma.astype("<f8").tobytes())
            sha.update(out.zeta.astype("<f8").tobytes())
        assert sha.hexdigest() == digest

    # The same pins for direction lists that repeat one object, where terms of
    # the expansion along identical remaining directions can be shared.
    @pytest.mark.parametrize(
        "pattern, digest",
        [
            ("a", "e542773bfcb433e87d8ace76da56a71bedfe49013d44846e9a518f993cd9b965"),
            ("aa", "315f4fa296ecb26583080929a648d1d5e770030a0230d3d364169ecd17837037"),
            ("aaa", "9045208c322d51662aacfdc4c7b92cbaeb9e5283d916fc088919043cce3e1777"),
            ("ab", "bdb1c8fa4932ebae82e09fc10bd2cd86d8b11094795e9d9803f88e189ac67606"),
            ("aab", "f8d3a01e92fb9ea7f25f063b4e4f39050a72580713be19daf37b18497b7681d0"),
            ("aba", "c0d57a2f3d0ebf16e693ae1c12a7125b1394e8a3bd92b5fc03b314f8271c5b91"),
            ("bab", "3cb04c6073aaeaaff6c1393328c2a953feb9445a23a2c08ab2a7e8225cc5297c"),
        ],
    )
    def test_repeated_directions_are_pinned(self, smooth8, smooth_point, pattern, digest):
        rng = np.random.default_rng(90)
        a, b = (smooth8.from_flat(rng.standard_normal(smooth8.dim)) for _ in range(2))
        dirs = [{"a": a, "b": b}[c] for c in pattern]
        out = smooth8.dtau(smooth8.tau(smooth_point), dirs)
        sha = hashlib.sha256()
        sha.update(out.sigma.astype("<f8").tobytes())
        sha.update(out.zeta.astype("<f8").tobytes())
        assert sha.hexdigest() == digest

    @pytest.mark.parametrize("kind", ["smooth", "cem"])
    def test_only_a_pair_from_tau_is_differentiated(self, smooth8, cem8, kind):
        param = smooth8 if kind == "smooth" else cem8
        at = param.tau(param.zero())
        assert at.point is not None and (at.bumps is None) == (kind == "cem")
        for pair in (2.0 * at, at + at, param.dtau(at, [param.zero()])):
            assert pair.point is None and pair.bumps is None
            with pytest.raises(ValueError, match="pair that tau returned"):
                param.dtau(pair, [param.zero()])

    @pytest.mark.parametrize("kind", ["smooth", "cem"])
    def test_a_pair_from_another_parametrization_is_rejected(self, part20, layout8, kind):
        # b's contact shape and level differ from a's; differentiating a's pair
        # with b's formulas mixed the two and gave no error
        a = Parametrization(ModelConfig(), part20, layout8, kind)
        b = Parametrization(ModelConfig(R=0.4, mu_zeta=-2.0), part20, layout8, kind)
        rng = np.random.default_rng(5)
        p = a.zero()
        d = a.from_flat(rng.standard_normal(a.dim))
        assert a.tau(p).zeta.tobytes() != b.tau(p).zeta.tobytes()
        for owner, other in ((a, b), (b, a)):
            at = owner.tau(p)
            assert at.owner is owner
            owner.dtau(at, [d])
            with pytest.raises(ValueError, match="pair that tau returned"):
                other.dtau(at, [d])

    # uniform facet counts, then two ragged layouts (5/6 and 8/9 facets)
    @pytest.mark.parametrize("n_electrodes, width", [(16, 0.15), (7, 0.25), (5, 0.4)])
    def test_matches_the_per_electrode_loop(self, config, disk3, n_electrodes, width):
        M = n_electrodes
        layout = define_electrodes(disk3, disk_electrode_midpoints(M), width, 0.6 * width)
        param = Parametrization(config, cluster_partition(disk3, 30, seed=3), layout, "smooth")
        rng = np.random.default_rng(M)
        iota = ParamVector(
            np.zeros(30), 0.2 * rng.standard_normal(M), 0.03 * rng.standard_normal((M, 2))
        )
        assert param.admissible(iota)
        a, b, c = (param.from_flat(rng.standard_normal(param.dim)) for _ in range(3))
        on = rng.random(M) < 0.5  # a scattered subset of the electrodes
        s = ParamVector(a.kappa, np.where(on, a.rho, 0.0), np.where(on[:, None], a.xi, 0.0))
        at = param.tau(iota)
        patterns = ([a], [a, a], [a, a, a], [a, b], [a, a, b], [a, b, a], [a, b, c], [s], [s, b, s])
        for dirs in patterns:
            got = param.dtau(at, dirs).zeta
            assert got.tobytes() == _loop_dzeta(config, layout, iota, dirs).tobytes()


def _loop_dzeta(config, layout, iota, directions):
    """Contact part of dtau one electrode at a time, in the arithmetic the kernel must keep."""
    R2 = np.float64(config.R) ** 2
    dzeta = np.zeros_like(layout.equad_weights)
    k = len(directions)
    subsets = [S for size in range(k, -1, -1) for S in itertools.combinations(range(k), size)]
    for m in range(layout.n_electrodes):
        if not all(e.rho[m] != 0 or np.any(e.xi[m] != 0) for e in directions):
            continue
        sl = layout.efacet_slices[m]
        w = layout.equad_weights[sl]
        y = layout.equad_local[sl] - iota.xi[m]
        u, h1, h2, h3 = _bump_h123(np.sum(y * y, axis=-1) / R2, np.float64(config.a))
        Z = (w * u).sum()

        def dt(x):
            return -2.0 * (y @ x) / R2

        def ddt(x1, x2):
            return 2.0 * float(np.dot(x1, x2)) / R2

        def d2(x1, x2):
            return h2 * dt(x1) * dt(x2) + h1 * ddt(x1, x2)

        def quotient(xs):
            du = [h1 * dt(x) for x in xs]
            dZ = [(w * v).sum() for v in du]
            if len(xs) == 0:
                return u / Z
            if len(xs) == 1:
                return du[0] / Z - u * dZ[0] / Z**2
            if len(xs) == 2:
                d2u = d2(*xs)
                return (
                    d2u / Z
                    - (du[0] * dZ[1] + du[1] * dZ[0]) / Z**2
                    - u * (w * d2u).sum() / Z**2
                    + 2.0 * u * dZ[0] * dZ[1] / Z**3
                )
            d2u = {(i, j): d2(xs[i], xs[j]) for i, j in ((0, 1), (0, 2), (1, 2))}
            d2Z = {key: (w * v).sum() for key, v in d2u.items()}
            t1, t2, t3 = (dt(x) for x in xs)
            d3u = h3 * t1 * t2 * t3 + h2 * (
                t1 * ddt(xs[1], xs[2]) + t2 * ddt(xs[0], xs[2]) + t3 * ddt(xs[0], xs[1])
            )
            return (
                d3u / Z
                - (d2u[(0, 1)] * dZ[2] + d2u[(0, 2)] * dZ[1] + d2u[(1, 2)] * dZ[0]) / Z**2
                - (du[0] * d2Z[(1, 2)] + du[1] * d2Z[(0, 2)] + du[2] * d2Z[(0, 1)]) / Z**2
                + 2.0 * (du[0] * dZ[1] * dZ[2] + du[1] * dZ[0] * dZ[2] + du[2] * dZ[0] * dZ[1])
                / Z**3
                - u * (w * d3u).sum() / Z**2
                + 2.0 * u * (d2Z[(0, 1)] * dZ[2] + d2Z[(0, 2)] * dZ[1] + d2Z[(1, 2)] * dZ[0])
                / Z**3
                - 6.0 * u * dZ[0] * dZ[1] * dZ[2] / Z**4
            )

        r = [float(e.rho[m]) for e in directions]
        xs = [np.asarray(e.xi[m], dtype=float) for e in directions]
        total = None
        for S in subsets:
            g = quotient([x for j, x in enumerate(xs) if j not in S])
            term = math.prod(r[i] for i in S) * g if S else g
            total = term if total is None else total + term
        dzeta[sl] = float(np.exp(iota.rho[m] + config.mu_zeta)) * total
    return dzeta


class TestParametrization:
    def test_partition_and_layout_on_different_meshes_rejected(self, config, part20, layout16):
        with pytest.raises(ValueError, match="different meshes"):
            Parametrization(config, part20, layout16, "smooth")


class TestParamVector:
    def test_flat_roundtrip_smooth(self, config):
        mesh = generate_disk_mesh(1)
        layout = define_electrodes(mesh, disk_electrode_midpoints(3), 0.3, 0.2)
        param = Parametrization(config, cluster_partition(mesh, 5, seed=1), layout, "smooth")
        rng = np.random.default_rng(2)
        pv = ParamVector(
            rng.standard_normal(5), rng.standard_normal(3), rng.standard_normal((3, 2))
        )
        again = param.from_flat(pv.to_flat())
        assert np.array_equal(again.kappa, pv.kappa)
        assert np.array_equal(again.rho, pv.rho)
        assert np.array_equal(again.xi, pv.xi)

    def test_flat_order_kappa_rho_xi(self):
        pv = ParamVector(np.array([1.0, 2.0]), np.array([3.0]), np.array([[4.0, 5.0]]))
        assert np.array_equal(pv.to_flat(), [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_algebra(self):
        a = ParamVector(np.array([1.0]), np.array([2.0]), np.array([[3.0, 4.0]]))
        b = ParamVector(np.array([10.0]), np.array([20.0]), np.array([[30.0, 40.0]]))
        s = a + 2.0 * b
        assert np.array_equal(s.to_flat(), [21.0, 42.0, 63.0, 84.0])
        assert np.array_equal((a - a).to_flat(), np.zeros(4))

    def test_wrong_length_rejected(self, smooth8):
        with pytest.raises(ValueError):
            smooth8.from_flat(np.zeros(4))
