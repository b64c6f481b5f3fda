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

import math
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Sequence

import numpy as np

from .mesh import ElectrodeLayout, Partition

ADMISSIBILITY_MARGIN = 1e-9


class AdmissibilityError(ValueError):
    """A contact location leaves the admissible set of its electrode."""


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

    def norm(self) -> float:
        return float(np.linalg.norm(self.to_flat()))


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


@dataclass(frozen=True, eq=False)
class ConductivityPair:
    """Domain conductivity per cell and surface density at quadrature nodes.

    The same container carries admissible pairs (sigma > 0, zeta >= 0) and
    signed perturbation pairs produced by :func:`dtau`.
    """

    sigma: np.ndarray  # (n_cells,)
    zeta: np.ndarray  # (n_electrode_facets, n_q)

    def __add__(self, other: "ConductivityPair") -> "ConductivityPair":
        return ConductivityPair(self.sigma + other.sigma, self.zeta + other.zeta)

    def __mul__(self, s: float) -> "ConductivityPair":
        return ConductivityPair(s * self.sigma, s * self.zeta)

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# Domain conductivity
# ---------------------------------------------------------------------------


def eval_sigma(config: ModelConfig, partition: Partition, kappa: np.ndarray) -> np.ndarray:
    """Piecewise-constant conductivity exp(mu_kappa + kappa_i) per cell."""
    kappa = np.asarray(kappa)
    if kappa.shape != (partition.n_clusters,):
        raise ValueError("kappa length must equal the cluster count")
    return np.exp(config.mu_kappa + kappa)[partition.cluster_of]


# ---------------------------------------------------------------------------
# Contact models
# ---------------------------------------------------------------------------


def eval_zeta_cem(
    config: ModelConfig, layout: ElectrodeLayout, theta: np.ndarray
) -> np.ndarray:
    """Constant contact density exp(mu_zeta + theta_m) / |e_m| on each e_m.

    The integral of the density over electrode m equals
    exp(mu_zeta + theta_m) exactly, because the same facet measures define
    both the density and the integral.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (layout.n_electrodes,):
        raise ValueError("theta length must equal the electrode count")
    return _cem_density(layout, np.exp(config.mu_zeta + theta))


def _cem_density(layout: ElectrodeLayout, coeff: np.ndarray) -> np.ndarray:
    """Density coeff_m / |e_m| on the contact region e_m, zero elsewhere, per quadrature node."""
    areas = layout.contact_measures
    if np.any(areas <= 0):
        raise ValueError("every contact region must have positive area")
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


class _SmoothElectrode:
    """Bump values and their center derivatives on one electrode's nodes."""

    def __init__(self, local: np.ndarray, weights: np.ndarray, xi: np.ndarray, config: ModelConfig):
        dtype = np.result_type(local, np.asarray(xi))
        self.w = weights.astype(dtype)
        d = local.astype(dtype) - np.asarray(xi, dtype=dtype)
        self.d = d  # (n_f, n_q, 2), node minus center
        self.R2 = dtype.type(config.R) ** 2
        t = np.sum(d * d, axis=-1) / self.R2
        self.h, self.h1, self.h2, self.h3 = _bump_h123(t, dtype.type(config.a))

    # First three directional derivatives of the node values with respect
    # to the center, for directions x in R^2. dt(x) = -2 (y - xi) . x / R^2.
    def _dt(self, x: np.ndarray) -> np.ndarray:
        return -2.0 * (self.d @ np.asarray(x, dtype=self.d.dtype)) / self.R2

    def value(self) -> np.ndarray:
        return self.h

    def d1(self, x1: np.ndarray) -> np.ndarray:
        return self.h1 * self._dt(x1)

    def d2(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        ddt = 2.0 * float(np.dot(x1, x2)) / self.R2
        return self.h2 * self._dt(x1) * self._dt(x2) + self.h1 * ddt

    def d3(self, x1: np.ndarray, x2: np.ndarray, x3: np.ndarray) -> np.ndarray:
        t1, t2, t3 = self._dt(x1), self._dt(x2), self._dt(x3)
        d12 = 2.0 * float(np.dot(x1, x2)) / self.R2
        d13 = 2.0 * float(np.dot(x1, x3)) / self.R2
        d23 = 2.0 * float(np.dot(x2, x3)) / self.R2
        return self.h3 * t1 * t2 * t3 + self.h2 * (t1 * d23 + t2 * d13 + t3 * d12)

    def integral(self, values: np.ndarray) -> np.ndarray:
        return (self.w * values).sum()


def _normalized_derivs(
    el: _SmoothElectrode, xs: Sequence[np.ndarray]
) -> np.ndarray:
    """Directional derivative of u(xi)/Z(xi) of order len(xs) at the nodes.

    u is the bump sampled at the electrode quadrature nodes and Z its
    quadrature integral; the quotient rule is expanded explicitly through
    order three.
    """
    u = el.value()
    Z = el.integral(u)
    if len(xs) == 0:
        return u / Z
    if len(xs) == 1:
        du = el.d1(xs[0])
        dZ = el.integral(du)
        return du / Z - u * dZ / Z**2
    if len(xs) == 2:
        du1, du2 = el.d1(xs[0]), el.d1(xs[1])
        d2u = el.d2(xs[0], xs[1])
        dZ1, dZ2 = el.integral(du1), el.integral(du2)
        d2Z = el.integral(d2u)
        return (
            d2u / Z
            - (du1 * dZ2 + du2 * dZ1) / Z**2
            - u * d2Z / Z**2
            + 2.0 * u * dZ1 * dZ2 / Z**3
        )
    if len(xs) == 3:
        du = [el.d1(x) for x in xs]
        d2u = {
            (0, 1): el.d2(xs[0], xs[1]),
            (0, 2): el.d2(xs[0], xs[2]),
            (1, 2): el.d2(xs[1], xs[2]),
        }
        d3u = el.d3(*xs)
        dZ = [el.integral(g) for g in du]
        d2Z = {k: el.integral(v) for k, v in d2u.items()}
        d3Z = el.integral(d3u)
        return (
            d3u / Z
            - (d2u[(0, 1)] * dZ[2] + d2u[(0, 2)] * dZ[1] + d2u[(1, 2)] * dZ[0]) / Z**2
            - (du[0] * d2Z[(1, 2)] + du[1] * d2Z[(0, 2)] + du[2] * d2Z[(0, 1)]) / Z**2
            + 2.0 * (du[0] * dZ[1] * dZ[2] + du[1] * dZ[0] * dZ[2] + du[2] * dZ[0] * dZ[1]) / Z**3
            - u * d3Z / Z**2
            + 2.0 * u * (d2Z[(0, 1)] * dZ[2] + d2Z[(0, 2)] * dZ[1] + d2Z[(1, 2)] * dZ[0]) / Z**3
            - 6.0 * u * dZ[0] * dZ[1] * dZ[2] / Z**4
        )
    raise ValueError("derivative order above three is unsupported")


def _point_segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    t = np.clip(float((p - a) @ ab) / denom, 0.0, 1.0)
    return float(np.linalg.norm(p - (a + t * ab)))


def _distance_to_patch(layout: ElectrodeLayout, m: int, xi: np.ndarray) -> float:
    """Distance from xi to the local image of electrode m (0 when inside)."""
    sl = layout.efacet_slices[m]
    verts = layout.efacet_vertices[sl]
    lm = layout.local_maps[m]
    best = np.inf
    for fv in verts:
        loc = lm.to_local(layout.mesh.vertices[fv])
        if loc.shape[0] == 2:
            best = min(best, _point_segment_distance(xi, loc[0], loc[1]))
        else:
            bary = np.linalg.solve(
                np.vstack([loc.T, np.ones(3)]), np.array([xi[0], xi[1], 1.0])
            )
            if np.all(bary >= -1e-12):
                return 0.0
            for i in range(3):
                best = min(
                    best, _point_segment_distance(xi, loc[i], loc[(i + 1) % 3])
                )
    return float(best)


def contact_admissible(
    layout: ElectrodeLayout, m: int, xi: np.ndarray, config: ModelConfig
) -> bool:
    """Whether the contact disk of radius R around xi stays on electrode m.

    Every rim entity of the electrode image must be at least R away from xi,
    and xi must hit the patch image: inside it for surface patches, within
    R of the facet polyline for 2D meshes, whose electrode image is a curve.
    """
    xi = np.asarray(xi, dtype=float)
    for rim in layout.rim_local[m]:
        if rim.shape[0] == 1:
            dist = float(np.linalg.norm(xi - rim[0]))
        else:
            dist = _point_segment_distance(xi, rim[0], rim[1])
        if dist < config.R + ADMISSIBILITY_MARGIN:
            return False
    dmin = _distance_to_patch(layout, m, xi)
    if layout.mesh.dimension == 3:
        return dmin <= 1e-12
    return dmin <= config.R - ADMISSIBILITY_MARGIN


def eval_zeta_smooth(
    config: ModelConfig,
    layout: ElectrodeLayout,
    rho: np.ndarray,
    xi: np.ndarray,
    strict: bool = True,
) -> np.ndarray:
    """Normalized bump density exp(rho_m + mu_zeta) psi_xi / integral(psi_xi).

    The integral of the returned density over electrode m equals
    exp(rho_m + mu_zeta) by construction of the shared quadrature. With
    ``strict`` the contact locations must be admissible; otherwise only a
    vanishing normalization integral raises.
    """
    rho = np.asarray(rho)
    xi = np.asarray(xi)
    M = layout.n_electrodes
    if rho.shape != (M,) or xi.shape != (M, 2):
        raise ValueError("contact parameters must provide (rho_m, xi_m) per electrode")
    dtype = np.result_type(rho, xi, layout.equad_local)
    zeta = np.zeros(layout.equad_weights.shape, dtype=dtype)
    for m in range(M):
        if strict and not contact_admissible(layout, m, np.asarray(xi[m], dtype=float), config):
            raise AdmissibilityError(
                f"contact location {np.asarray(xi[m], float)} leaves electrode {m}"
            )
        sl = layout.efacet_slices[m]
        el = _SmoothElectrode(layout.equad_local[sl], layout.equad_weights[sl], xi[m], config)
        psi = el.value()
        Z = el.integral(psi)
        if not Z > 1e-300:
            raise AdmissibilityError(
                f"contact normalization integral vanishes on electrode {m}"
            )
        zeta[sl] = np.exp(rho[m] + dtype.type(config.mu_zeta)) * psi / Z
    return zeta


# ---------------------------------------------------------------------------
# The parametrization and its derivatives
# ---------------------------------------------------------------------------


def dtau(
    config: ModelConfig,
    layout: ElectrodeLayout,
    partition: Partition,
    iota: ParamVector,
    directions: Sequence[ParamVector],
) -> ConductivityPair:
    """Directional derivative of the conductivity pair, orders one to three.

    The derivative is multilinear and symmetric in the directions. The domain
    part is exp(mu_kappa + kappa_i) times the product of the direction
    components on each cluster; the contact part differentiates the cem
    exponential or the normalized bump in closed form.

    The base point must be admissible and is not checked here;
    :class:`~eitrev.calculus.DerivativeStack` checks it once, at construction.
    """
    k = len(directions)
    if k < 1 or k > 3:
        raise ValueError("dtau supports derivative orders one to three")
    if any(d.kind != iota.kind for d in directions):
        raise ValueError("directions must match the parametrization variant")

    base = np.exp(config.mu_kappa + iota.kappa)
    prod = np.ones_like(base)
    for d in directions:
        prod = prod * d.kappa
    dsigma = (base * prod)[partition.cluster_of]

    M = layout.n_electrodes
    dzeta = np.zeros_like(layout.equad_weights)
    # Multilinearity: electrode m contributes only when every direction has a
    # nonzero contact component there.
    contact_active = np.ones(M, dtype=bool)
    for d in directions:
        active = d.rho != 0
        if d.xi is not None:
            active = active | np.any(d.xi != 0, axis=1)
        contact_active &= active
    if not np.any(contact_active):
        return ConductivityPair(dsigma, dzeta)
    if iota.kind == "cem":
        coeff = np.exp(config.mu_zeta + iota.rho)
        for d in directions:
            coeff = coeff * d.rho
        return ConductivityPair(dsigma, _cem_density(layout, coeff))

    # Leibniz rule for exp(rho_m + mu_zeta) G(xi_m): one term per subset S of the
    # directions, largest first and lexicographic within one size.
    subsets = [S for size in range(k, -1, -1) for S in combinations(range(k), size)]
    for m in np.flatnonzero(contact_active):
        sl = layout.efacet_slices[m]
        el = _SmoothElectrode(
            layout.equad_local[sl], layout.equad_weights[sl], iota.xi[m], config
        )
        r = [float(d.rho[m]) for d in directions]
        xs = [np.asarray(d.xi[m], dtype=float) for d in directions]
        total = None
        for S in subsets:
            g = _normalized_derivs(el, [x for j, x in enumerate(xs) if j not in S])
            term = math.prod(r[i] for i in S) * g if S else g
            total = term if total is None else total + term
        dzeta[sl] = float(np.exp(iota.rho[m] + config.mu_zeta)) * total
    return ConductivityPair(dsigma, dzeta)


@dataclass(frozen=True)
class Parametrization:
    """Map from parameter vectors to admissible conductivity pairs.

    Bundles the model constants and geometry needed to evaluate tau and its
    derivatives, and owns the flat-vector layout (kappa, rho, xi) used by
    priors and by the regularized inversion. The partition and the electrode
    layout must live on the same mesh.
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

    def from_flat(self, vec: np.ndarray) -> ParamVector:
        """Split a flat vector of length :attr:`dim` into (kappa, rho, xi)."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.dim,):
            raise ValueError(f"expected flat vector of length {self.dim}")
        k, M = self.n_clusters, self.n_electrodes
        xi = vec[k + M :].reshape(M, 2).copy() if self.kind == "smooth" else None
        return ParamVector(vec[:k].copy(), vec[k : k + M].copy(), xi)

    def tau(self, iota: ParamVector, strict: bool = True) -> ConductivityPair:
        sigma = eval_sigma(self.config, self.partition, iota.kappa)
        if self.kind == "cem":
            zeta = eval_zeta_cem(self.config, self.layout, iota.rho)
        else:
            zeta = eval_zeta_smooth(
                self.config, self.layout, iota.rho, iota.xi, strict=strict
            )
        return ConductivityPair(sigma, np.asarray(zeta, dtype=float))

    def dtau(self, iota: ParamVector, directions: Sequence[ParamVector]) -> ConductivityPair:
        return dtau(self.config, self.layout, self.partition, iota, directions)

    def admissible(self, iota: ParamVector) -> bool:
        if self.kind == "cem":
            return True
        return all(
            contact_admissible(self.layout, m, iota.xi[m], self.config)
            for m in range(self.n_electrodes)
        )

    def clamp(self, iota: ParamVector) -> tuple[ParamVector, bool]:
        """Pull inadmissible contact locations back inside their electrodes.

        Each offending center is moved along the ray toward the electrode
        image's surface centroid until it re-enters the admissible set. The
        flag reports whether any component was moved.
        """
        if self.kind == "cem":
            return iota, False
        xi = iota.xi.copy()
        moved = False
        for m in range(self.n_electrodes):
            if contact_admissible(self.layout, m, xi[m], self.config):
                continue
            sl = self.layout.efacet_slices[m]
            w = self.layout.equad_weights[sl]
            anchor = (w[..., None] * self.layout.equad_local[sl]).sum(axis=(0, 1)) / w.sum()
            if not contact_admissible(self.layout, m, anchor, self.config):
                raise AdmissibilityError(
                    f"electrode {m} has no admissible contact location"
                )
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if contact_admissible(
                    self.layout, m, anchor + mid * (xi[m] - anchor), self.config
                ):
                    lo = mid
                else:
                    hi = mid
            xi[m] = anchor + lo * (xi[m] - anchor)
            moved = True
        return (replace(iota, xi=xi), True) if moved else (iota, False)
