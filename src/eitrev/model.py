"""Conductivity parametrizations and their directional derivatives.

Two contact models are provided on top of a shared piecewise-constant
log-conductivity for the domain:

* the classical per-electrode constant contact ("cem"): a constant surface
  density on each contact region, parametrized by shifted log-conductances;
* the smooth contact ("smooth"): a normalized bump in the local electrode
  coordinates whose strength and center location are both unknowns.

All derivatives of the parametrization with respect to the parameter vector
are evaluated in closed form up to order three; every formula is gated by
finite-difference tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np

from .mesh import ElectrodeLayout, Partition

ADMISSIBILITY_MARGIN = 1e-9


class AdmissibilityError(ValueError):
    """A contact location leaves the admissible set of its electrode."""


def check_finite(name: str, values) -> None:
    """``ValueError`` naming the first entry of ``values`` that is not finite, by its index."""
    values = np.asarray(values)
    finite = np.isfinite(values)
    if not finite.all():
        at = tuple(np.argwhere(~finite)[0])
        raise ValueError(f"{name}[{', '.join(map(str, at))}] is not finite: {float(values[at])!r}")


def check_range(name: str, value, result, of: str) -> None:
    """``ValueError`` naming ``name`` unless its ``of``, ``result``, is a positive normal float."""
    if not np.finfo(float).tiny <= result < np.inf:
        size, flow = ("large", "overflows") if result >= 1 else ("small", "underflows")
        raise ValueError(f"{name} = {value!r} is too {size}: its {of} {flow}")


def _exp(name: str, values: np.ndarray, shift) -> np.ndarray:
    """``exp(values + shift)``; ``ValueError`` naming the first entry to overflow or underflow."""
    with np.errstate(over="ignore"):
        out = np.exp(values + shift)
    normal = (out >= np.finfo(float).tiny) & (out < np.inf)
    if not normal.all():
        i = int(np.argmin(normal))
        check_range(f"{name}[{i}]", float(values[i]), out[i], "exponential")
    return out


# ---------------------------------------------------------------------------
# Parameter vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ParamVector:
    """Unknowns of the inverse problem: (kappa, contact parameters).

    ``kappa`` holds the shifted log-conductivity coefficients, one per
    cluster. ``rho`` holds the per-electrode shifted log-conductances (the
    theta vector of the cem model plays the same role). The smooth model adds
    per-electrode contact centers ``xi`` in local electrode coordinates.

    Instances support vector-space algebra and a flat serialization in the
    order (kappa, rho, xi); :class:`Parametrization` reads flat vectors back.
    """

    kappa: np.ndarray
    rho: np.ndarray
    xi: np.ndarray | None = None  # (M, 2) for the smooth contact model

    @property
    def kind(self) -> str:
        return "cem" if self.xi is None else "smooth"

    def to_flat(self) -> np.ndarray:
        parts = [self.kappa, self.rho]
        if self.xi is not None:
            parts.append(self.xi.ravel())
        return np.concatenate(parts).astype(float)

    def __add__(self, other: "ParamVector") -> "ParamVector":
        xi = None if self.xi is None else self.xi + other.xi
        return ParamVector(self.kappa + other.kappa, self.rho + other.rho, xi)

    def __sub__(self, other: "ParamVector") -> "ParamVector":
        return self + (-1.0) * other

    def __mul__(self, s: float) -> "ParamVector":
        xi = None if self.xi is None else s * self.xi
        return ParamVector(s * self.kappa, s * self.rho, xi)

    __rmul__ = __mul__

    def __neg__(self) -> "ParamVector":
        return (-1.0) * self


@dataclass(frozen=True)
class ModelConfig:
    """Fixed model constants: background levels and contact shape."""

    mu_kappa: float = -3.0  # expected log-conductivity of the domain
    mu_zeta: float = -3.0  # expected log-conductance of a contact
    R: float = 0.6  # contact width in local electrode coordinates
    a: float = 4.0  # contact shape parameter

    def __post_init__(self) -> None:
        if self.R <= 0 or self.a <= 0:
            raise ValueError("contact shape constants R and a must be positive")
        for key in ("mu_kappa", "mu_zeta"):  # each scales a conductivity by its exponential
            value = getattr(self, key)
            with np.errstate(over="ignore"):
                check_range(key, value, np.exp(float(value)), "exponential")


@dataclass(frozen=True, eq=False)
class ConductivityPair:
    """Domain conductivity per cell and surface density at quadrature nodes.

    The same container carries admissible pairs (sigma > 0, zeta >= 0) and
    signed perturbation pairs produced by :meth:`Parametrization.dtau`. A
    pair that :meth:`Parametrization.tau` returns also carries the point it
    was evaluated at, the parametrization that evaluated it and, for the
    smooth model, that point's :class:`BumpData`; that parametrization's
    :meth:`~Parametrization.dtau` differentiates at such a pair. Sums,
    multiples and derivative pairs carry none of them.
    """

    sigma: np.ndarray  # (n_cells,)
    zeta: np.ndarray  # (n_electrode_facets, n_q)
    point: ParamVector | None = field(default=None, repr=False)
    bumps: BumpData | None = field(default=None, repr=False)
    owner: Parametrization | None = field(default=None, repr=False)

    def __add__(self, other: "ConductivityPair") -> "ConductivityPair":
        return ConductivityPair(self.sigma + other.sigma, self.zeta + other.zeta)

    def __mul__(self, s: float) -> "ConductivityPair":
        return ConductivityPair(s * self.sigma, s * self.zeta)

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# Contact models
# ---------------------------------------------------------------------------


def _cem_density(layout: ElectrodeLayout, coeff: np.ndarray) -> np.ndarray:
    """Density coeff_m / |e_m| on the contact region e_m, zero elsewhere, per quadrature node.

    Every contact region must have positive area; :class:`Parametrization`
    checks that when it is built for the cem model.
    """
    areas = layout.contact_measures
    per_facet = coeff[layout.efacet_electrode]
    per_facet = np.where(layout.contact_mask, per_facet / areas[layout.efacet_electrode], 0.0)
    return np.repeat(per_facet[:, None], layout.equad_weights.shape[1], axis=1)


def bump(y: np.ndarray, xi: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Compactly supported contact shape exp(a - a / (1 - |y-xi|^2/R^2)).

    Vanishes identically for |y - xi| >= R; the value at y = xi is one.
    Vectorized over leading axes of ``y``.
    """
    y = np.asarray(y)
    d = y - np.asarray(xi)
    t = np.sum(d * d, axis=-1) / config.R**2
    return _bump_h123(t, config.a)[0]


def _bump_h123(t: np.ndarray, a: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Radial profile h(t) = exp(a - a/(1-t)) and its first three t-derivatives."""
    inside = t < 1.0 - 1e-8
    om = np.where(inside, 1.0 - t, 1.0)
    h = np.where(inside, np.exp(a - a / om), np.zeros_like(t))
    h1 = -a * h / om**2
    h2 = h * (a**2 / om**4 - 2.0 * a / om**3)
    h3 = h * (-(a**3) / om**6 + 6.0 * a**2 / om**5 - 6.0 * a / om**4)
    return h, h1, h2, h3


class _BumpGroup(NamedTuple):
    """Bump data of the electrodes that share one facet count, stacked on axis 0.

    Every array has one row per electrode; per-electrode scalars are shaped
    (G, 1, 1) so that they broadcast over the (G, n_f, n_q) node arrays.
    """

    electrodes: np.ndarray  # (G,) electrode indices
    rows: np.ndarray  # (G, n_f) electrode-facet rows
    d: np.ndarray  # (G, n_f, n_q, 2) node minus center
    w: np.ndarray  # (G, n_f, n_q) quadrature weights
    h: np.ndarray  # bump values at the nodes
    h1: np.ndarray  # and their first three t-derivatives
    h2: np.ndarray
    h3: np.ndarray
    Z: np.ndarray  # quadrature integral of h and its powers, each (G, 1, 1)
    Z2: np.ndarray
    Z3: np.ndarray
    Z4: np.ndarray
    scale: np.ndarray  # exp(rho_m + mu_zeta)


def _facet_groups(layout: ElectrodeLayout, electrodes):
    """Per facet count: the places in ``electrodes`` of that count and their (G, n_f) rows."""
    slices = [layout.efacet_slices[m] for m in electrodes]
    starts = np.array([sl.start for sl in slices])
    counts = np.array([sl.stop for sl in slices]) - starts
    for n_f in np.unique(counts):
        at = np.flatnonzero(counts == n_f)
        yield at, starts[at, None] + np.arange(n_f)


def _integral(w: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The quadrature integral of each electrode's (n_f, n_q) block of ``values``."""
    return (w * values).reshape(len(w), -1).sum(axis=1)


def _positive_normal(x: np.ndarray) -> np.ndarray:
    """Whether each entry of ``x`` is finite and at least the smallest positive normal number."""
    return (np.finfo(x.dtype).tiny <= x) & (x < np.inf)


class BumpData:
    """Smooth-contact bumps at one base point, for every electrode, read-only.

    Holds the node offsets from the contact center, the bump values and their
    first three derivatives in t = |y - xi|^2 / R^2, the quadrature weights,
    the normalization integrals and exp(rho_m + mu_zeta). Electrodes with
    equal facet counts are stacked into one group, so one array operation
    serves a group, ragged 3D layouts included. Every per-electrode
    reduction and scalar keeps the operation order of a single electrode,
    which makes the results independent of the grouping bit for bit.

    :meth:`Parametrization.tau` builds this for its point and keeps it in
    the pair it returns, for every :meth:`Parametrization.dtau` at that pair.
    """

    def __init__(
        self, config: ModelConfig, layout: ElectrodeLayout, rho: np.ndarray, xi: np.ndarray
    ):
        local = layout.equad_local
        dtype = np.result_type(local, xi)
        xi = np.asarray(xi, dtype=dtype)
        scale = _exp("rho", rho, np.result_type(rho, dtype).type(config.mu_zeta))
        self.R2 = dtype.type(config.R) ** 2
        d = local.astype(dtype) - xi[layout.efacet_electrode][:, None, :]
        t = np.sum(d * d, axis=-1) / self.R2
        h = _bump_h123(t, dtype.type(config.a))
        w = layout.equad_weights.astype(dtype)
        self.groups: list[_BumpGroup] = []
        for electrodes, rows in _facet_groups(layout, range(layout.n_electrodes)):
            hs = [v[rows] for v in h]
            ws = w[rows]
            Z = _integral(ws, hs[0])
            # A float64 scalar's ** (libm pow) and an array's ** (square, SIMD
            # pow) can differ in the last bit; keep the scalar rounding.
            powers = [np.array([z**p for z in Z], dtype=Z.dtype) for p in (2, 3, 4)]
            per_electrode = [v[:, None, None] for v in (Z, *powers, scale[electrodes])]
            group = _BumpGroup(electrodes, rows, d[rows], ws, *hs, *per_electrode)
            for a in group:
                a.flags.writeable = False
            self.groups.append(group)


class _Expansion:
    """Derivatives of the normalized bump u/Z of one group along one call's directions.

    Directions are told apart by identity: a direction that recurs in the
    call has its node derivatives and their integrals computed once.
    """

    def __init__(self, group: _BumpGroup, directions: Sequence[ParamVector], R2):
        self.g = group
        self.R2 = R2
        self.handles = [next(i for i, e in enumerate(directions) if e is d) for d in directions]
        self.X = {
            h: np.asarray(directions[h].xi[group.electrodes], dtype=group.d.dtype)
            for h in set(self.handles)
        }
        self._memo: dict[tuple, np.ndarray] = {}

    def _cached(self, key: tuple, make) -> np.ndarray:
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = make()
        return out

    def integral(self, values: np.ndarray) -> np.ndarray:
        return _integral(self.g.w, values)[:, None, None]

    # Center derivatives of the node values, for directions x in R^2:
    # dt(x) = -2 (y - xi) . x / R^2 and ddt(x1, x2) = 2 x1 . x2 / R^2.
    def dt(self, i: int) -> np.ndarray:
        # one (n_q, 2) @ (2,) product per facet, as for a single electrode
        return self._cached(
            ("dt", i),
            lambda: -2.0 * np.matmul(self.g.d, self.X[i][:, None, :, None])[..., 0] / self.R2,
        )

    def ddt(self, i: int, j: int) -> np.ndarray:
        # one dot product of two 2-vectors per electrode, as np.dot takes it
        return 2.0 * np.matmul(self.X[i][:, None, :], self.X[j][:, :, None]) / self.R2

    def du(self, i: int) -> np.ndarray:
        return self._cached(("du", i), lambda: self.g.h1 * self.dt(i))

    def dZ(self, i: int) -> np.ndarray:
        return self._cached(("dZ", i), lambda: self.integral(self.du(i)))

    def d2u(self, i: int, j: int) -> np.ndarray:
        g = self.g
        return self._cached(
            ("d2u", i, j), lambda: g.h2 * self.dt(i) * self.dt(j) + g.h1 * self.ddt(i, j)
        )

    def d2Z(self, i: int, j: int) -> np.ndarray:
        return self._cached(("d2Z", i, j), lambda: self.integral(self.d2u(i, j)))

    def normalized(self, *hs: int) -> np.ndarray:
        """Derivative of u/Z along the directions with handles ``hs``, at the nodes.

        The quotient rule is expanded explicitly through order three.
        """
        g = self.g
        u, Z, Z2, Z3, Z4 = g.h, g.Z, g.Z2, g.Z3, g.Z4
        if len(hs) == 0:
            return u / Z
        if len(hs) == 1:
            return self.du(hs[0]) / Z - u * self.dZ(hs[0]) / Z2
        if len(hs) == 2:
            a, b = hs
            du1, du2, dZ1, dZ2 = self.du(a), self.du(b), self.dZ(a), self.dZ(b)
            return (
                self.d2u(a, b) / Z
                - (du1 * dZ2 + du2 * dZ1) / Z2
                - u * self.d2Z(a, b) / Z2
                + 2.0 * u * dZ1 * dZ2 / Z3
            )
        a, b, c = hs
        du = [self.du(a), self.du(b), self.du(c)]
        dZ = [self.dZ(a), self.dZ(b), self.dZ(c)]
        d2u = {(0, 1): self.d2u(a, b), (0, 2): self.d2u(a, c), (1, 2): self.d2u(b, c)}
        d2Z = {(0, 1): self.d2Z(a, b), (0, 2): self.d2Z(a, c), (1, 2): self.d2Z(b, c)}
        t1, t2, t3 = self.dt(a), self.dt(b), self.dt(c)
        d12, d13, d23 = self.ddt(a, b), self.ddt(a, c), self.ddt(b, c)
        d3u = g.h3 * t1 * t2 * t3 + g.h2 * (t1 * d23 + t2 * d13 + t3 * d12)
        d3Z = self.integral(d3u)
        return (
            d3u / Z
            - (d2u[(0, 1)] * dZ[2] + d2u[(0, 2)] * dZ[1] + d2u[(1, 2)] * dZ[0]) / Z2
            - (du[0] * d2Z[(1, 2)] + du[1] * d2Z[(0, 2)] + du[2] * d2Z[(0, 1)]) / Z2
            + 2.0 * (du[0] * dZ[1] * dZ[2] + du[1] * dZ[0] * dZ[2] + du[2] * dZ[0] * dZ[1]) / Z3
            - u * d3Z / Z2
            + 2.0 * u * (d2Z[(0, 1)] * dZ[2] + d2Z[(0, 2)] * dZ[1] + d2Z[(1, 2)] * dZ[0]) / Z3
            - 6.0 * u * dZ[0] * dZ[1] * dZ[2] / Z4
        )


def _ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the concatenated ranges [starts_i, starts_i + counts_i) and where each begins."""
    first = np.cumsum(counts) - counts
    return np.arange(counts.sum()) + np.repeat(starts - first, counts), first


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # one (1, 2) @ (2, 1) product per row, which numpy computes as the dot of two 2-vectors
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def _segment_distances(
    p: np.ndarray, a: np.ndarray, ab: np.ndarray, ab2: np.ndarray
) -> np.ndarray:
    """Distance from each point p_i to the segment from a_i to a_i + ab_i, with ab2_i = |ab_i|^2.

    A segment of length zero is the point a_i.
    """
    # a point at infinity meets 0 * inf here; its nan or inf distances pass the
    # rim test, but its bump misses every node, so it is inadmissible all the same
    with np.errstate(invalid="ignore"):
        t = np.divide(_dot(p - a, ab), ab2, out=np.zeros(len(p)), where=ab2 != 0.0)
        d = p - (a + np.clip(t, 0.0, 1.0)[:, None] * ab)
        return np.sqrt(_dot(d, d))


def _admissible_contacts(
    layout: ElectrodeLayout, electrodes: np.ndarray, xi: np.ndarray, config: ModelConfig
) -> np.ndarray:
    """Whether every rim entity of electrode electrodes[i] is at least R away from xi[i].

    The location half of :func:`_admissible`, and all that
    :meth:`Parametrization.tau` checks before it builds the bumps: one pass
    over the flattened :attr:`~eitrev.mesh.ElectrodeLayout.contact_geometry`.
    """
    g = layout.contact_geometry
    electrodes = np.asarray(electrodes, dtype=int)
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (len(electrodes), 2):
        raise ValueError(f"expected contact locations of shape ({len(electrodes)}, 2)")
    counts = g.n_seg[electrodes]
    rows, first = _ranges(g.seg_start[electrodes], counts)
    dist = _segment_distances(np.repeat(xi, counts, axis=0), g.a[rows], g.ab[rows], g.ab2[rows])
    return ~np.logical_or.reduceat(dist < config.R + ADMISSIBILITY_MARGIN, first)


def _admissible(
    layout: ElectrodeLayout, electrodes: np.ndarray, xi: np.ndarray, config: ModelConfig
) -> np.ndarray:
    """Whether xi[i] is an admissible contact location on electrode electrodes[i].

    The one admissible set: the rim is at least R away, and the bump's
    integral Z over the electrode has a fourth power that is a positive
    normal number (:meth:`Parametrization.dtau` divides by Z**2 to Z**4).
    Z and Z**4 are computed as in :class:`BumpData`, so
    :meth:`Parametrization.tau` accepts a float64 point exactly when all its
    locations are admissible.
    """
    electrodes, xi = np.asarray(electrodes, dtype=int), np.asarray(xi, dtype=float)
    ok = _admissible_contacts(layout, electrodes, xi, config)
    R2, a = np.float64(config.R) ** 2, np.float64(config.a)
    for at, rows in _facet_groups(layout, electrodes):
        d = layout.equad_local[rows] - xi[at][:, None, None, :]
        Z = _integral(layout.equad_weights[rows], _bump_h123(np.sum(d * d, axis=-1) / R2, a)[0])
        ok[at] &= _positive_normal(np.array([z**4 for z in Z]))
    return ok


def contact_admissible(
    layout: ElectrodeLayout, m: int, xi: np.ndarray, config: ModelConfig
) -> bool:
    """Whether xi is an admissible contact location on electrode m.

    The rim must be at least R away and the bump normalizable: the
    one-electrode view of the kernel that checks all electrodes.
    """
    return bool(_admissible(layout, [m], np.asarray(xi)[None], config)[0])


# ---------------------------------------------------------------------------
# The parametrization and its derivatives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Parametrization:
    """Map from parameter vectors to admissible conductivity pairs.

    Bundles the model constants and geometry needed to evaluate tau and its
    derivatives, and owns the flat-vector layout (kappa, rho, xi) used by
    priors and by the regularized inversion. The partition and the electrode
    layout must live on the same mesh, and for the cem model every contact
    region must have positive area.
    """

    config: ModelConfig
    partition: Partition
    layout: ElectrodeLayout
    kind: str  # "cem" | "smooth"

    def __post_init__(self) -> None:
        if self.kind not in ("cem", "smooth"):
            raise ValueError("kind must be 'cem' or 'smooth'")
        if self.partition.mesh is not self.layout.mesh:
            raise ValueError("the partition and the electrode layout are on different meshes")
        if self.kind == "cem" and np.any(self.layout.contact_measures <= 0):
            raise ValueError("every contact region must have positive area")

    @property
    def n_clusters(self) -> int:
        return self.partition.n_clusters

    @property
    def n_electrodes(self) -> int:
        return self.layout.n_electrodes

    @property
    def dim(self) -> int:
        M = self.n_electrodes
        return self.n_clusters + (M if self.kind == "cem" else 3 * M)

    def zero(self) -> ParamVector:
        return self.from_flat(np.zeros(self.dim))

    def coordinate_blocks(self) -> list[np.ndarray]:
        """The flat indices of the coordinates in blocks of one coordinate per label.

        The first block is kappa, with cluster ``i``'s coordinate at place
        ``i``. Each other block is one contact parameter, with electrode
        ``m``'s at place ``m``: rho and, for the smooth model, each component
        of xi. A first derivative of tau along one coordinate touches only
        its cluster or its electrode, so :meth:`dtau` along a whole block,
        restricted to one label, is the derivative along that label's
        coordinate, bit for bit.
        """
        K, M = self.n_clusters, self.n_electrodes
        blocks = [np.arange(K), K + np.arange(M)]
        if self.kind == "smooth":
            blocks += [K + M + 2 * np.arange(M) + c for c in (0, 1)]
        return blocks

    def from_flat(self, vec: np.ndarray) -> ParamVector:
        """Split a flat vector of length :attr:`dim` into (kappa, rho, xi)."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.dim,):
            raise ValueError(f"expected flat vector of length {self.dim}")
        k, M = self.n_clusters, self.n_electrodes
        xi = vec[k + M :].reshape(M, 2).copy() if self.kind == "smooth" else None
        return ParamVector(vec[:k].copy(), vec[k : k + M].copy(), xi)

    def tau(self, iota: ParamVector) -> ConductivityPair:
        """Conductivity pair at ``iota``, in the precision of ``iota``.

        The domain conductivity is exp(mu_kappa + kappa_i) on every cell of
        cluster i. The contact density on electrode m is
        exp(mu_zeta + rho_m) / |e_m| on its contact region e_m for cem, and
        the normalized bump exp(mu_zeta + rho_m) psi_xi / integral(psi_xi)
        for smooth. Either way its integral over electrode m equals
        exp(mu_zeta + rho_m), because the same facet quadrature defines the
        density and the integral. A point that is not :meth:`admissible`
        raises :class:`AdmissibilityError`. A ``kappa`` or ``rho`` entry that
        is not finite, or whose exponential overflows or underflows (is not a
        positive normal float), raises ``ValueError`` naming it.
        """
        config, layout = self.config, self.layout
        kappa, rho, xi = np.asarray(iota.kappa), np.asarray(iota.rho), iota.xi
        M = self.n_electrodes
        if kappa.shape != (self.n_clusters,):
            raise ValueError("kappa length must equal the cluster count")
        check_finite("kappa", kappa)
        check_finite("rho", rho)
        sigma = _exp("kappa", kappa, config.mu_kappa)[self.partition.cluster_of]
        if self.kind == "cem":
            if rho.shape != (M,):
                raise ValueError("theta length must equal the electrode count")
            if xi is not None:
                raise ValueError("a cem point carries no contact locations xi")
            zeta = _cem_density(layout, _exp("rho", rho, config.mu_zeta))
            return ConductivityPair(sigma, zeta, iota, owner=self)
        xi = np.asarray(xi)
        if rho.shape != (M,) or xi.shape != (M, 2):
            raise ValueError("contact parameters must provide (rho_m, xi_m) per electrode")
        clear = _admissible_contacts(layout, np.arange(M), xi, config)
        if not clear.all():
            m = np.argmin(clear)
            raise AdmissibilityError(
                f"contact location {np.asarray(xi[m], float)} leaves electrode {m}"
            )
        bumps = BumpData(config, layout, rho, xi)
        # dtau divides by Z**2, Z**3 and Z**4, so each must be a positive normal number
        vanishing = [m for g in bumps.groups for m in g.electrodes[~_positive_normal(g.Z4.ravel())]]
        if vanishing:
            raise AdmissibilityError(
                f"contact normalization integral vanishes on electrode {min(vanishing)} "
                "(its fourth power is not a positive normal number)"
            )
        dtype = np.result_type(rho, xi, layout.equad_local)
        zeta = np.zeros(layout.equad_weights.shape, dtype=dtype)
        for g in bumps.groups:
            zeta[g.rows.ravel()] = (g.scale * g.h / g.Z).reshape(-1, zeta.shape[1])
        return ConductivityPair(sigma, zeta, iota, bumps, self)

    def dtau(self, at: ConductivityPair, directions: Sequence[ParamVector]) -> ConductivityPair:
        """Directional derivative of tau at the pair ``at``, orders one to three.

        The derivative is multilinear and symmetric in the directions. The
        domain part is exp(mu_kappa + kappa_i) times the product of the
        direction components on each cluster; the contact part differentiates
        the cem exponential or the normalized bump in closed form.

        ``at`` must be a pair that this parametrization's :meth:`tau`
        returned, and any other pair raises ``ValueError``: it carries the
        base point, whose admissibility :meth:`tau` checked, and for the
        smooth model the point's :class:`BumpData`, built with this contact
        shape.
        """
        config, layout = self.config, self.layout
        if at.owner is not self:
            raise ValueError(
                "dtau differentiates at a pair that tau returned, this parametrization's own"
            )
        iota = at.point
        k = len(directions)
        if k < 1 or k > 3:
            raise ValueError("dtau supports derivative orders one to three")
        if any(d.kind != iota.kind for d in directions):
            raise ValueError("directions must match the parametrization variant")

        base = np.exp(config.mu_kappa + iota.kappa)
        prod = directions[0].kappa
        for d in directions[1:]:
            prod = prod * d.kappa
        dsigma = (base * prod)[self.partition.cluster_of]

        dzeta = np.zeros_like(layout.equad_weights)
        # Multilinearity: the contact part vanishes unless some electrode has a
        # nonzero contact component in every direction.
        contact_active = None
        for d in directions:
            active = d.rho != 0
            if d.xi is not None:
                active |= (d.xi != 0).any(axis=1)
            contact_active = active if contact_active is None else contact_active & active
        if not contact_active.any():
            return ConductivityPair(dsigma, dzeta)
        if iota.kind == "cem":
            coeff = np.exp(config.mu_zeta + iota.rho)
            for d in directions:
                coeff = coeff * d.rho
            return ConductivityPair(dsigma, _cem_density(layout, coeff))

        # Leibniz rule for exp(rho_m + mu_zeta) G(xi_m): one term per subset S of the
        # directions, largest first and lexicographic within one size. Two subsets
        # whose remaining directions are the same objects in the same order give
        # the same term, computed once: their own directions then agree up to
        # order, and a product of two factors commutes exactly.
        subsets = [S for size in range(k, -1, -1) for S in combinations(range(k), size)]
        for group in at.bumps.groups:
            expansion = _Expansion(group, directions, at.bumps.R2)
            handles = expansion.handles
            r = [d.rho[group.electrodes][:, None, None] for d in directions]
            terms: dict[tuple, np.ndarray] = {}
            total = None
            for S in subsets:
                rest = tuple(handles[j] for j in range(k) if j not in S)
                term = terms.get(rest)
                if term is None:
                    term = expansion.normalized(*rest)
                    if S:
                        coeff = r[S[0]]
                        for i in S[1:]:
                            coeff = coeff * r[i]
                        term = coeff * term
                    terms[rest] = term
                total = term if total is None else total + term
            dzeta[group.rows.ravel()] = (group.scale * total).reshape(-1, dzeta.shape[1])
        return ConductivityPair(dsigma, dzeta)

    def admissible(self, iota: ParamVector) -> bool:
        """Whether :meth:`tau` accepts ``iota``, a float64 point: is every location admissible?"""
        if self.kind == "cem":
            return True
        return bool(_admissible(self.layout, range(self.n_electrodes), iota.xi, self.config).all())

    def clamp(self, iota: ParamVector) -> tuple[ParamVector, bool]:
        """Pull inadmissible contact locations back inside their electrodes.

        Each offending center is moved along the ray toward the electrode
        image's surface centroid until it re-enters the admissible set: 60
        bisection steps, taken by all offending electrodes in lockstep. The
        flag reports whether any component was moved.
        """
        if self.kind == "cem":
            return iota, False
        everyone = range(self.n_electrodes)
        bad = np.flatnonzero(~_admissible(self.layout, everyone, iota.xi, self.config))
        if bad.size == 0:
            return iota, False
        target = np.asarray(iota.xi[bad], dtype=float)
        anchor = self.layout.contact_geometry.anchors[bad]
        anchor_ok = _admissible(self.layout, bad, anchor, self.config)
        finite = np.isfinite(target).all(axis=1)
        if not (anchor_ok & finite).all():
            i = np.argmin(anchor_ok & finite)
            if not anchor_ok[i]:
                raise AdmissibilityError(f"electrode {bad[i]} has no admissible contact location")
            raise AdmissibilityError(
                f"contact location {target[i]} of electrode {bad[i]} is not finite"
            )
        lo, hi = np.zeros(bad.size), np.ones(bad.size)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            inside = _admissible(
                self.layout, bad, anchor + mid[:, None] * (target - anchor), self.config
            )
            lo = np.where(inside, mid, lo)
            hi = np.where(inside, hi, mid)
        xi = iota.xi.copy()
        xi[bad] = anchor + lo[:, None] * (target - anchor)
        return replace(iota, xi=xi), True
