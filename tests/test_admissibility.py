"""The one-pass contact admissibility kernel against the per-electrode scalar formulas.

The reference below checks one electrode at a time: one scalar point-segment
distance per rim entity, and the bump integral over the electrode's nodes,
whose fourth power must be a positive normal number. The clamp bisection
reads the admissible/inadmissible boundary, so decisions and distances must
agree bit for bit, not to a tolerance, and ``tau`` accepts exactly the
points that ``admissible`` does.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eitrev.mesh import (
    Partition,
    define_electrodes,
    disk_electrode_midpoints,
    generate_disk_mesh,
)
from eitrev.model import (
    ADMISSIBILITY_MARGIN,
    AdmissibilityError,
    ModelConfig,
    ParamVector,
    Parametrization,
    _admissible,
    _segment_distances,
    bump,
    contact_admissible,
)
from conftest import kuhn_cube

# ---------------------------------------------------------------------------
# Reference: the scalar per-electrode check
# ---------------------------------------------------------------------------


def _rim_rows(layout, m):
    """The local start ``a`` and direction ``ab`` of each rim entity of electrode m."""
    g = layout.contact_geometry
    rows = slice(g.seg_start[m], g.seg_start[m] + g.n_seg[m])
    return list(zip(g.a[rows], g.ab[rows]))


def _point_segment_distance(p, a, ab):
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    t = np.clip(float((p - a) @ ab) / denom, 0.0, 1.0)
    return float(np.linalg.norm(p - (a + t * ab)))


def reference_admissible(layout, m, xi, config):
    xi = np.asarray(xi, dtype=float)
    for a, ab in _rim_rows(layout, m):
        dist = _point_segment_distance(xi, a, ab)
        if dist < config.R + ADMISSIBILITY_MARGIN:
            return False
    # dtau divides by Z**2 to Z**4
    sl = layout.efacet_slices[m]
    Z = (layout.equad_weights[sl] * bump(layout.equad_local[sl], xi, config)).sum()
    return bool(np.finfo(float).tiny <= Z**4 < np.inf)


def reference_clamp(param, xi):
    """The per-electrode bisection; returns the clamped xi and every midpoint with its decision."""
    layout, config = param.layout, param.config
    xi = np.array(xi, dtype=float)
    probes = []
    for m in range(param.n_electrodes):
        if reference_admissible(layout, m, xi[m], config):
            continue
        sl = layout.efacet_slices[m]
        w = layout.equad_weights[sl]
        anchor = (w[..., None] * layout.equad_local[sl]).sum(axis=(0, 1)) / w.sum()
        if not reference_admissible(layout, m, anchor, config):
            raise AdmissibilityError(f"electrode {m} has no admissible contact location")
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            point = anchor + mid * (xi[m] - anchor)
            inside = reference_admissible(layout, m, point, config)
            probes.append((m, point, inside))
            if inside:
                lo = mid
            else:
                hi = mid
        xi[m] = anchor + lo * (xi[m] - anchor)
    return xi, probes


# ---------------------------------------------------------------------------
# Layouts: disk levels 1-3 with 4/8/16 electrodes, and the Kuhn cube
# ---------------------------------------------------------------------------

_RADII = {4: (0.5, 0.4), 8: (0.3, 0.2), 16: (0.15, 0.10)}
# Level 1 has 16 boundary facets centred between 16 equispaced midpoints, so
# no 16-electrode layout exists there.
_DISKS = [(level, M) for level in (1, 2, 3) for M in (4, 8, 16) if (level, M) != (1, 16)]


def _param(layout, R=0.6, a=4.0):
    mesh = layout.mesh
    partition = Partition(mesh, np.zeros(mesh.n_cells, dtype=int), np.zeros((1, mesh.dimension)))
    return Parametrization(ModelConfig(R=R, a=a), partition, layout, "smooth")


@pytest.fixture(scope="module")
def layouts():
    out = {}
    for level, M in _DISKS:
        out[f"L{level}/{M}"] = define_electrodes(
            generate_disk_mesh(level), disk_electrode_midpoints(M), *_RADII[M]
        )
    midpoints = np.array([[0.5, 0.0, 0.5], [1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.0, 0.5, 0.5]])
    out["cube"] = define_electrodes(kuhn_cube(2), midpoints, 0.5, 0.4)
    out["L4/16"] = define_electrodes(generate_disk_mesh(4), disk_electrode_midpoints(16), 0.15, 0.1)
    return out


_NAMES = [f"L{level}/{M}" for level, M in _DISKS] + ["cube"]
_R = st.sampled_from([0.3, 0.6, 0.9])


def _segments(layout, m):
    """The rim entities and facet edges of electrode m as (a, b) pairs in local coordinates."""
    out = [(a, a + ab) for a, ab in _rim_rows(layout, m)]
    for fv in layout.efacet_vertices[layout.efacet_slices[m]]:
        loc = layout.local_maps[m].to_local(layout.mesh.vertices[fv])
        out += [(loc[i], loc[(i + 1) % len(loc)]) for i in range(len(loc))]
    return out


@st.composite
def _near_boundary(draw, layout, m, R):
    """A point at or next to a decision threshold of some segment of electrode m."""
    a, b = draw(st.sampled_from(_segments(layout, m)))
    s = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    angle = draw(st.floats(0.0, 2.0 * np.pi))
    level = draw(st.sampled_from([R + ADMISSIBILITY_MARGIN, R - ADMISSIBILITY_MARGIN, 1e-12, 0.0]))
    ulps = draw(st.integers(-4, 4))
    dist = level
    for _ in range(abs(ulps)):
        dist = np.nextafter(dist, np.inf if ulps > 0 else -np.inf)
    return a + s * (b - a) + dist * np.array([np.cos(angle), np.sin(angle)])


def _point(draw, layout, m, R):
    return draw(
        st.tuples(st.floats(-1.6, 1.6), st.floats(-1.6, 1.6)).map(np.array)
        | _near_boundary(layout, m, R)
    )


@settings(max_examples=150)
@given(data=st.data())
def test_mask_matches_the_scalar_check(layouts, data):
    name = data.draw(st.sampled_from(_NAMES), label="layout")
    layout = layouts[name]
    config = ModelConfig(R=data.draw(_R, label="R"))
    xi = np.array([_point(data.draw, layout, m, config.R) for m in range(layout.n_electrodes)])
    mask = _admissible(layout, xi, config)
    expect = [reference_admissible(layout, m, p, config) for m, p in enumerate(xi)]
    assert mask.tolist() == expect
    for m, (p, ok) in enumerate(zip(xi, expect)):
        assert contact_admissible(layout, m, p, config) == ok


@settings(max_examples=60)
@given(data=st.data())
def test_distances_match_the_scalar_formula_bit_for_bit(layouts, data):
    layout = layouts[data.draw(st.sampled_from(_NAMES), label="layout")]
    m = data.draw(st.integers(0, layout.n_electrodes - 1), label="m")
    p = _point(data.draw, layout, m, 0.6)
    segments = _segments(layout, m)
    a = np.array([s[0] for s in segments])
    ab = np.array([s[1] for s in segments]) - a
    ab2 = np.array([float(d @ d) for d in ab])
    got = _segment_distances(np.repeat(p[None], len(a), axis=0), a, ab, ab2)
    expect = np.array([_point_segment_distance(p, *s) for s in zip(a, ab)])
    assert got.tobytes() == expect.tobytes()


@settings(max_examples=40)
@given(data=st.data())
def test_clamp_matches_the_scalar_bisection_at_every_midpoint(layouts, data):
    layout = layouts[data.draw(st.sampled_from(_NAMES), label="layout")]
    R = data.draw(_R, label="R")
    M = layout.n_electrodes
    # a parametrization whose electrode centres are inadmissible cannot be built
    assume(all(contact_admissible(layout, m, np.zeros(2), ModelConfig(R=R)) for m in range(M)))
    param = _param(layout, R)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    xi = param.layout.contact_geometry.anchors.copy()
    moved = data.draw(st.lists(st.integers(0, M - 1), min_size=1, max_size=M, unique=True))
    xi[moved] = rng.uniform(-3.0, 3.0, size=(len(moved), 2))
    iota = ParamVector(np.zeros(1), np.zeros(M), xi)
    try:
        expect, probes = reference_clamp(param, xi)
    except AdmissibilityError as err:
        with pytest.raises(AdmissibilityError, match=str(err)):
            param.clamp(iota)
        return
    for m, point, inside in probes:
        assert contact_admissible(layout, m, point, param.config) == inside
    clamped, flagged = param.clamp(iota)
    assert flagged == bool(probes)
    assert clamped.xi.tobytes() == expect.tobytes()


# ---------------------------------------------------------------------------
# One admissible set: admissible, tau and clamp agree
# ---------------------------------------------------------------------------


def _accepted(param, iota):
    try:
        param.tau(iota)
    except AdmissibilityError:
        return False
    return True


@settings(max_examples=80)
@given(
    name=st.sampled_from(_NAMES + ["L4/16"]),
    R=st.sampled_from([0.05, 0.1, 0.3, 0.6, 0.9]),
    a=st.sampled_from([0.1, 1.0, 4.0]),
    scale=st.sampled_from([0.05, 0.2, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
# C1's reconstruction side, xi ~ N(0, 0.3^2): while clamp bisected against
# the rim and patch test alone, tau rejected the clamped points of 11 of the
# rng seeds 0-19, seed 2 the first
@example(name="L3/16", R=0.6, a=4.0, scale=0.3, seed=2)
def test_admissible_tau_and_clamp_decide_one_set(layouts, name, R, a, scale, seed):
    layout, config = layouts[name], ModelConfig(R=R, a=a)
    M = layout.n_electrodes
    centred = [contact_admissible(layout, m, np.zeros(2), config) for m in range(M)]
    if not all(centred):
        first = centred.index(False)
        with pytest.raises(ValueError, match=f"electrode {first}'s centre is inadmissible"):
            _param(layout, R, a)
        return
    param = _param(layout, R, a)
    xi = scale * np.random.default_rng(seed).standard_normal((M, 2))
    iota = ParamVector(np.zeros(1), np.zeros(M), xi)
    assert param.admissible(iota) == _accepted(param, iota)
    clamped, moved = param.clamp(iota)
    assert moved != param.admissible(iota)
    assert param.admissible(clamped) and _accepted(param, clamped)


# ---------------------------------------------------------------------------
# Clamp outputs pinned before the array kernel replaced the scalar loop
# ---------------------------------------------------------------------------

# sha256 of the clamped xi when the listed electrodes of the origin move to
# locations that are each inadmissible; the other electrodes stay at 0. The
# 2D digests date from the clamp's bisection joining tau's normalization
# test: before, it stopped electrode 4 of 2d-8 and 11 of 2d-16 where their
# bumps miss every node; every other row kept its bytes.
_PINS = {
    "2d-8": (
        {1: [0.55, 0.0], 4: [-0.3, 0.8], 6: [3.0, -1.0]},
        "0559cf6ef6621d61fec4aa2688cb371a0aa61eb5cc2276dea51844c70f9509ab",
    ),
    "2d-16": (
        {2: [0.55, 0.0], 5: [0.9, 0.3], 11: [0.0, 0.7], 15: [-0.62, -0.05]},
        "a10373d62143525d03f45925d18d3f70e55df17c56004cb40b8b177bee007f26",
    ),
    "3d-cube": (
        {0: [0.95, 0.2], 2: [-2.0, 1.0], 3: [0.3, -0.5]},
        "f7696a9a03d054f9aa19c3e176922af536bfa7e44701ded510dd5075b475c18e",
    ),
}


@pytest.mark.parametrize("case", sorted(_PINS))
def test_clamp_output_is_pinned(smooth8, smooth16, layouts, case):
    param = {"2d-8": smooth8, "2d-16": smooth16, "3d-cube": _param(layouts["cube"])}[case]
    rows, digest = _PINS[case]
    iota = param.zero()
    xi = iota.xi.copy()
    for m, value in rows.items():
        assert not contact_admissible(param.layout, m, np.array(value), param.config)
        xi[m] = value
    clamped, moved = param.clamp(ParamVector(iota.kappa, iota.rho, xi))
    assert moved and param.admissible(clamped)
    param.tau(clamped)
    assert hashlib.sha256(clamped.xi.tobytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# Inputs checked where they enter
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [[np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf]])
@pytest.mark.parametrize("case", ["2d", "3d"])
def test_clamp_rejects_a_non_finite_location(smooth16, layouts, case, bad):
    param = smooth16 if case == "2d" else _param(layouts["cube"])
    iota = param.zero()
    xi = iota.xi.copy()
    xi[3] = bad
    bad_point = ParamVector(iota.kappa, iota.rho, xi)
    assert not param.admissible(bad_point)
    with pytest.raises(AdmissibilityError, match="electrode 3 is not finite"):
        param.clamp(bad_point)


@pytest.mark.parametrize("rows", [15, 17])
def test_wrong_contact_shape_is_rejected(smooth16, rows):
    iota = smooth16.zero()
    wrong = ParamVector(iota.kappa, iota.rho, np.zeros((rows, 2)))
    with pytest.raises(ValueError, match="shape"):
        smooth16.admissible(wrong)
    with pytest.raises(ValueError, match="shape"):
        smooth16.clamp(wrong)
