"""Measurement simulation, experiment drivers, and result serialization.

The harness wires the geometry, model, solver and inversion layers into the
two statistical studies: a sample study comparing reversion orders with
sequential linearizations over prior draws, and a scaling study following a
single draw across target magnitudes. Desk-scale defaults use a 2D disk with
16 electrodes; measurement and reconstruction sides may share or differ in
mesh, partition, and contact model exactly as the case table prescribes.
"""

from __future__ import annotations

import copy
import csv
import json
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import fem
from .calculus import DerivativeStack
from .inversion import (
    NoiseModel,
    PriorGammas,
    PriorModel,
    ReversionResult,
    SequentialResult,
    TikhonovInverse,
    build_noise_cov,
    build_prior,
    check_number,
    revert,
    sequential_linearize,
)
from .mesh import (
    MAX_DISK_REFINEMENT,
    Partition,
    _lines,
    _row,
    check_seed,
    cluster_partition,
    define_electrodes,
    disk_electrode_midpoints,
    generate_disk_mesh,
    nearest_neighbor_project,
)
from .model import AdmissibilityError, ModelConfig, ParamVector, Parametrization, check_finite

METHODS = ("1", "2", "3", "1,1", "1,1,1")


def _check_methods(methods: Sequence[str]) -> tuple[str, ...]:
    """The method names as a tuple; an unknown or repeated name raises ``ValueError`` naming it."""
    methods = tuple(methods)
    for i, method in enumerate(methods):
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
        if method in methods[:i]:
            raise ValueError(f"method {method!r} is given twice")
    return methods


def _check_count(key: str, value, low: int) -> None:
    """``ValueError`` naming ``key`` unless ``value`` is an integer of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{key} must be at least {low}, got {value!r}")


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator for one sample stream: Philox keyed by (seed, index)."""
    key = [np.uint64(check_seed(seed)), np.uint64(check_seed(index, "sample index"))]
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# Experiment cases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SideSpec:
    """One side (measurement or reconstruction) of an experiment case."""

    level: int
    n_clusters: int
    contact: str  # "smooth" | "cem"
    deltas: tuple[float, float]
    gammas: PriorGammas

    def __post_init__(self) -> None:
        if not isinstance(self.deltas, tuple) or len(self.deltas) != 2:
            raise ValueError(f"deltas must hold two noise levels, got {self.deltas!r}")
        for delta in self.deltas:
            check_number("deltas", delta)
            if delta < 0:
                raise ValueError(f"deltas must be nonnegative, got {self.deltas!r}")
        level_ok = isinstance(self.level, int) and not isinstance(self.level, bool)
        if not level_ok or not 0 <= self.level <= MAX_DISK_REFINEMENT:
            raise ValueError(
                f"level must be an integer in 0..{MAX_DISK_REFINEMENT}, got {self.level!r}"
            )
        _check_count("n_clusters", self.n_clusters, 1)
        if self.contact not in ("smooth", "cem"):
            raise ValueError(f"contact must be 'smooth' or 'cem', got {self.contact!r}")


@dataclass(frozen=True)
class ExperimentCase:
    """Desk-scale analog of one row of the study table.

    The reconstruction side always uses the coarser discretization and the
    smooth contact model; sharing the measurement discretization (an inverse
    crime) happens exactly when both sides specify the same level, cluster
    count, and contact model.
    """

    name: str
    measurement: SideSpec
    reconstruction: SideSpec
    n_electrodes: int = 16
    electrode_radius: float = 0.15
    contact_radius: float = 0.10
    mu_kappa: float = -3.0
    mu_zeta: float = -3.0
    n_samples: int = 100
    seed: int = 1
    cluster_seed: int = 7

    def __post_init__(self) -> None:
        _check_count("n_electrodes", self.n_electrodes, 2)
        _check_count("n_samples", self.n_samples, 1)
        for key in ("electrode_radius", "contact_radius"):
            check_number(key, getattr(self, key), positive=True)
        if not self.contact_radius < self.electrode_radius:
            raise ValueError(
                f"contact_radius must be smaller than electrode_radius, got "
                f"{self.contact_radius!r} >= {self.electrode_radius!r}"
            )
        check_number("mu_kappa", self.mu_kappa)
        check_number("mu_zeta", self.mu_zeta)
        self.config  # which checks their exponentials
        check_seed(self.seed)
        check_seed(self.cluster_seed, "cluster_seed")
        if self.reconstruction.contact != "smooth":
            raise ValueError("the reconstruction side always uses the smooth contact model")

    @property
    def inverse_crime(self) -> bool:
        a, b = self.measurement, self.reconstruction
        return a.level == b.level and a.n_clusters == b.n_clusters and a.contact == b.contact

    @property
    def config(self) -> ModelConfig:
        return ModelConfig(mu_kappa=self.mu_kappa, mu_zeta=self.mu_zeta)


def _case(name, meas_contact, meas_deltas, meas_gr, meas_gk, rec_deltas, rec_gr, rec_gk):
    inverse_crime = meas_contact == "smooth"
    meas = SideSpec(
        level=3 if inverse_crime else 4,
        n_clusters=80 if inverse_crime else 200,
        contact=meas_contact,
        deltas=meas_deltas,
        gammas=PriorGammas(meas_gk[0], meas_gk[1], meas_gr),
    )
    rec = SideSpec(
        level=3,
        n_clusters=80,
        contact="smooth",
        deltas=rec_deltas,
        gammas=PriorGammas(rec_gk[0], rec_gk[1], rec_gr),
    )
    return ExperimentCase(name=name, measurement=meas, reconstruction=rec)


# Table of study cases; the percent noise levels of the source table are
# stored as fractions.
CASES: dict[str, ExperimentCase] = {
    "C1": _case("C1", "smooth", (5e-5, 5e-4), 0.1, (0.1, 1.0), (1e-4, 1e-3), 0.1, (0.1, 1.0)),
    "C2": _case("C2", "smooth", (1e-4, 1e-3), 0.3, (0.6, 0.6), (5e-4, 5e-3), 0.3, (0.5, 0.7)),
    "C3": _case("C3", "cem", (5e-5, 5e-4), 0.1, (0.1, 1.0), (1e-4, 1e-3), 0.07, (0.1, 1.0)),
    "C4": _case("C4", "cem", (5e-5, 5e-4), 0.3, (0.6, 0.6), (5e-4, 5e-3), 0.2, (0.6, 0.6)),
    "C5": _case("C5", "cem", (5e-5, 5e-4), 0.3, (0.6, 0.6), (5e-4, 5e-3), 0.2, (0.5, 0.7)),
    "C6": _case("C6", "cem", (1e-4, 1e-3), 0.3, (0.6, 0.6), (5e-4, 5e-3), 0.2, (0.5, 0.7)),
}


_SIDES = ("measurement", "reconstruction")
_CASE_KEYS = tuple(f.name for f in fields(ExperimentCase) if f.name not in ("name", *_SIDES))


def _check_mapping(where: str, value) -> None:
    if not isinstance(value, Mapping):
        raise ValueError(f"{where} must be a mapping, got {value!r}")


def _check_keys(where: str, mapping: dict, allowed) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {where} key(s) {unknown}; allowed: {sorted(allowed)}")


def case_from_config(data: dict) -> ExperimentCase:
    """Build a case from a configuration mapping, starting from table defaults.

    ``data`` holds the case name under "case" plus optional overrides
    mirroring the :class:`ExperimentCase` fields; side overrides use nested
    mappings with ``gammas`` given as a mapping of the prior fields. The
    mapping is left unchanged. An unknown case name or key, and a value of
    the wrong type or out of range, raise ``ValueError`` naming it.
    """
    _check_mapping("configuration", data)
    name = data.get("case", "C1")
    if not isinstance(name, str) or name not in CASES:
        raise ValueError(f"unknown case {name!r}; choose from {sorted(CASES)}")
    _check_keys("configuration", data, ("case",) + _SIDES + _CASE_KEYS)
    base = CASES[name]
    kwargs = {key: data[key] for key in _CASE_KEYS if key in data}
    for side_name in _SIDES:
        spec = getattr(base, side_name)
        override = data.get(side_name, {})
        _check_mapping(side_name, override)
        override = dict(override)
        if override:
            _check_keys(side_name, override, [f.name for f in fields(SideSpec)])
            gam = override.pop("gammas", None)
            if gam is not None:
                _check_mapping(f"{side_name} gammas", gam)
                _check_keys(f"{side_name} gammas", gam, [f.name for f in fields(PriorGammas)])
                override["gammas"] = replace(spec.gammas, **gam)
            if isinstance(override.get("deltas"), list):
                override["deltas"] = tuple(override["deltas"])
            kwargs[side_name] = replace(spec, **override)
    return replace(base, **kwargs)


# ---------------------------------------------------------------------------
# Model sides
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SideModel:
    """One side of an experiment: its spec and its parametrization.

    The parametrization holds the side's geometry: ``param.layout`` with its
    mesh and ``param.partition``.
    """

    spec: SideSpec
    param: Parametrization


def build_side(case: ExperimentCase, spec: SideSpec) -> SideModel:
    mesh = generate_disk_mesh(spec.level)
    layout = define_electrodes(
        mesh,
        disk_electrode_midpoints(case.n_electrodes),
        case.electrode_radius,
        case.contact_radius,
    )
    partition = cluster_partition(mesh, spec.n_clusters, seed=case.cluster_seed)
    return SideModel(spec, Parametrization(case.config, partition, layout, spec.contact))


def build_models(case: ExperimentCase) -> tuple[SideModel, SideModel]:
    """Measurement and reconstruction sides; shared when the case is an inverse crime."""
    rec = build_side(case, case.reconstruction)
    if case.inverse_crime:
        return replace(rec, spec=case.measurement), rec
    return build_side(case, case.measurement), rec


def side_forward_map(side: SideModel, iota: ParamVector) -> np.ndarray:
    """Noiseless map at ``iota``; an inadmissible point raises ``AdmissibilityError``."""
    system = fem.AssembledSystem(side.param.layout, side.param.tau(iota))
    return fem.forward_map(system)


def build_noise_cov_for_side(side: SideModel, deltas: tuple[float, float]) -> NoiseModel:
    """Noise model scaled by the side's own reference measurements."""
    lam0 = side_forward_map(side, side.param.zero())
    return build_noise_cov(deltas[0], deltas[1], lam0)


# ---------------------------------------------------------------------------
# Prior draws and measurement simulation
# ---------------------------------------------------------------------------


def draw_target(side: SideModel, prior: PriorModel, rng: np.random.Generator) -> ParamVector:
    """Draw target parameters for data simulation.

    Smooth-contact targets keep their contact locations at the electrode
    centers: only the strengths are random, and the location freedom is left
    to the reconstruction side as a compensation tool.
    """
    target = side.param.from_flat(prior.sample(rng))
    if side.param.kind == "smooth":
        target = ParamVector(target.kappa, target.rho, np.zeros_like(target.xi))
    return target


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """Noisy data matrix with the target and noise realization metadata."""

    upsilon: np.ndarray  # (M-1, M-1)
    target: ParamVector
    lam_target: np.ndarray  # noiseless map at the target
    deltas: tuple[float, float]
    physical_voltages: np.ndarray  # (M, M-1), mean-free columns


def simulate_measurements(
    side: SideModel,
    target: ParamVector,
    noise: NoiseModel,
    rng: np.random.Generator,
    theta_hat: np.ndarray | None = None,
) -> MeasurementRecord:
    """Simulate the physical two-electrode measurements and transform to data.

    The noiseless voltages for the pairwise patterns are contaminated with
    independent Gaussian noise, each voltage vector is normalized to zero
    mean, and the collection is mapped back into the orthonormal-basis data
    matrix. A fixed noise realization may be supplied instead of drawing one.
    An inadmissible target raises ``AdmissibilityError``.
    """
    lam = side_forward_map(side, target)
    return simulate_from_map(lam, target, noise, rng, theta_hat)


def simulate_from_map(
    lam: np.ndarray,
    target: ParamVector,
    noise: NoiseModel,
    rng: np.random.Generator,
    theta_hat: np.ndarray | None = None,
) -> MeasurementRecord:
    """Noise stage of the simulator for a precomputed noiseless map."""
    basis = noise.basis
    U = basis.B @ lam @ basis.B_pinv @ basis.Bhat
    if theta_hat is None:
        theta_hat = noise.draw_raw(rng)
    V = U + theta_hat - theta_hat.mean(axis=0, keepdims=True)
    upsilon = basis.B_pinv @ V @ basis.Bhat_pinv @ basis.B
    return MeasurementRecord(
        upsilon=upsilon,
        target=target,
        lam_target=lam,
        deltas=(noise.delta1, noise.delta2),
        physical_voltages=V,
    )


# ---------------------------------------------------------------------------
# Reconstruction driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ReconOutcome:
    """One reconstruction: final parameters plus per-stage components."""

    method: str
    upsilon: ParamVector
    components: tuple  # reversion increments or sequential iterates
    clamped: bool
    diagnostics: dict = field(default_factory=dict)


class Reconstructor:
    """All five reconstruction methods over a fixed reconstruction model.

    It holds only what every item shares, built once and not changed after:
    the origin stack (with its coordinate Jacobian), the noise model, the
    prior and the regularized inverse. :meth:`with_gammas` gives one for
    another prior that shares the stack and the noise model. :meth:`item`
    opens the state of one data matrix, and :meth:`run` reconstructs it.
    """

    def __init__(self, rec: SideModel, gammas: PriorGammas | None = None):
        self.rec = rec
        self.stack0 = DerivativeStack(rec.param, rec.param.zero())
        self.noise = build_noise_cov(*rec.spec.deltas, self.stack0.lam)
        self._set_prior(gammas if gammas is not None else rec.spec.gammas)

    def _set_prior(self, gammas: PriorGammas) -> None:
        self.prior = build_prior(self.rec.param, gammas)
        self.inverse0 = TikhonovInverse(self.stack0, self.prior, self.noise)

    def with_gammas(self, gammas: PriorGammas) -> "Reconstructor":
        """A reconstructor with another prior on the same model.

        It shares the origin stack, its cached Jacobian and the noise model,
        and builds only its own prior and regularized inverse.
        """
        other = copy.copy(self)
        other._set_prior(gammas)
        return other

    @property
    def lam0(self) -> np.ndarray:
        return self.stack0.lam

    def item(self, data: np.ndarray) -> "Item":
        """The :class:`Item` of one data matrix."""
        return Item(self, data)

    def run(self, method: str, item: "Item") -> ReconOutcome:
        """Reconstruct an item's data with one of the named methods.

        Methods "1", "2", "3" are one-step series reversions of that order;
        "1,1" and "1,1,1" are two and three sequential linearizations. The
        item must be one that this reconstructor opened.
        """
        _check_methods((method,))
        if getattr(item, "recon", None) is not self:
            raise ValueError("run takes an item that this reconstructor's item() opened")
        if "," in method:
            seq = item._linearize(method.count(",") + 1)
            return ReconOutcome(method, seq.iterates[-1], seq.iterates, any(seq.clamped))
        order = int(method)
        result = item._revert(order)
        if order == 1:
            chain = item._seeded()
            upsilon, clamped = chain.iterates[0], chain.clamped[0]
        else:
            upsilon, clamped = self.rec.param.clamp(result.partial_sum(order))
        diagnostics = {"operand_norms": list(result.operand_norms)}
        if order >= 3:
            corr = _sign_correlation(result.etas[1].kappa, result.etas[2].kappa)
            diagnostics["eta2_eta3_sign_correlation"] = corr
        return ReconOutcome(method, upsilon, result.etas, clamped, diagnostics)


class Item:
    """One data matrix and what its reconstructions keep, opened by :meth:`Reconstructor.item`.

    Data not shaped like the reference map, or not finite, raise
    ``ValueError``; the item keeps a read-only copy. Methods "1", "2" and "3"
    are partial sums of one reversion, the highest order computed. Method
    "1"'s point, the clamped first increment, is the first iterate of the
    kept sequential chain, the longest computed, which every sequential
    method goes on from. The item keeps the stack of each chain point it
    rebases at or maps, found by identity; any other point's stack is built
    and not kept. So each distinct point is built once, in any method order.
    """

    def __init__(self, recon: Reconstructor, data: np.ndarray):
        _check_data(data, recon.lam0)
        self.recon = recon
        self.data = np.array(data, dtype=float)
        self.data.setflags(write=False)
        self._reversion: ReversionResult | None = None
        self._chain: SequentialResult | None = None
        self._stacks: list[DerivativeStack] = []  # at points of the chain

    def _stack(self, iota: ParamVector, keep: bool) -> DerivativeStack:
        """The kept stack at ``iota`` (the same object), else a new one, kept if ``keep``."""
        for stack in self._stacks:
            if stack.iota is iota:
                return stack
        stack = DerivativeStack(self.recon.rec.param, iota)
        if keep:
            self._stacks.append(stack)
        return stack

    def map_at(self, iota: ParamVector) -> np.ndarray:
        """Noiseless map of the reconstruction side at ``iota``, from a stack built there.

        It is bitwise :func:`side_forward_map` at ``iota``. The stack is kept
        when ``iota`` is an iterate of the kept chain (the same object).
        """
        chain = self._chain
        keep = chain is not None and any(iota is point for point in chain.iterates)
        return self._stack(iota, keep).lam

    def _rebase(self, iota: ParamVector) -> TikhonovInverse:
        """The regularized inverse linearized at ``iota``, from a kept stack there."""
        return TikhonovInverse(self._stack(iota, True), self.recon.prior, self.recon.noise)

    def _seeded(self) -> SequentialResult:
        """The kept chain; if there is none, one iterate long, at method "1"'s point.

        That point is the kept reversion's first increment, clamped. The
        chain's own first step would clamp the origin plus that increment;
        the origin is all zeros, so the two differ at most in the sign of a
        zero entry.
        """
        if self._chain is None:
            reversion = self._reversion or self._revert(1)
            first, clamped = self.recon.rec.param.clamp(reversion.etas[0])
            _freeze([first])
            self._chain = SequentialResult((first,), (clamped,))
        return self._chain

    def _linearize(self, steps: int) -> SequentialResult:
        """Sequential linearization, going on from the kept chain."""
        start = self._seeded()
        seq = sequential_linearize(self._rebase, self.data, steps, self.recon.inverse0, start)
        if len(seq.iterates) > len(start.iterates):
            _freeze(seq.iterates)
            self._chain = seq
        return seq

    def _revert(self, order: int) -> ReversionResult:
        """Series reversion of an order, continuing or slicing the kept one."""
        start = self._reversion
        result = revert(self.recon.stack0, self.recon.inverse0, self.data, order, start)
        if start is None or result.order > start.order:
            _freeze(result.etas)
            self._reversion = result
        return result


def _freeze(points: Sequence[ParamVector]) -> None:
    """Make the points read-only: later runs read a kept result, so nothing may write to it."""
    for point in points:
        for arr in (point.kappa, point.rho, point.xi):
            if arr is not None:
                arr.setflags(write=False)


def _check_data(data: np.ndarray, lam0: np.ndarray) -> None:
    """``ValueError`` unless the data matrix has the shape of the reference map and is finite."""
    if np.shape(data) != lam0.shape:
        raise ValueError(
            f"the data matrix must have the shape {lam0.shape} of the reference map, "
            f"got {np.shape(data)}"
        )
    check_finite("data", data)


def _sign_correlation(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(a @ b / (na * nb))


# ---------------------------------------------------------------------------
# Performance indicators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Indicators:
    res: float
    res_rel: float
    err: float
    err_rel: float


def _pc_norm(partition: Partition, values: np.ndarray) -> float:
    """L2 norm of a piecewise-constant cluster field."""
    return float(np.sqrt(np.sum(partition.cluster_volumes * np.square(values))))


def indicators(
    rec: SideModel,
    meas: SideModel,
    upsilon_i: ParamVector,
    target: ParamVector,
    data: np.ndarray,
    lam0: np.ndarray,
    map_at: Callable[[ParamVector], np.ndarray] | None = None,
) -> Indicators:
    """Residual and domain-error indicators for one reconstruction.

    The residual compares the reconstruction's simulated measurements with
    the data in the Frobenius norm, normalized by the initial-guess residual.
    The simulated measurements are ``map_at(upsilon_i)``, the noiseless map
    of the side ``rec``: :func:`side_forward_map` there by default, or a
    :meth:`Item.map_at` of that side.
    The domain error is the piecewise-constant L2 distance of the shifted
    log-conductivities, after nearest-neighbor projection onto the
    measurement partition when the partitions differ. Data not shaped like
    the reference map ``lam0``, or not finite, raise ``ValueError``.
    """
    _check_data(data, lam0)
    if map_at is None:
        map_at = partial(side_forward_map, rec)
    try:
        lam_i = map_at(upsilon_i)
        res = float(np.linalg.norm(lam_i - data))
    except AdmissibilityError:
        res = float("inf")
    denom = float(np.linalg.norm(lam0 - data))
    if denom == 0.0:
        res_rel = 0.0 if res == 0.0 else float("inf")
    else:
        res_rel = res / denom

    rec_part, meas_part = rec.param.partition, meas.param.partition
    if rec_part is meas_part:
        kappa_on_meas = upsilon_i.kappa
    else:
        kappa_on_meas = nearest_neighbor_project(rec_part, upsilon_i.kappa, meas_part)
    err = _pc_norm(meas_part, kappa_on_meas - target.kappa)
    target_norm = _pc_norm(meas_part, target.kappa)
    err_rel = err / target_norm if target_norm > 0 else (0.0 if err == 0.0 else float("inf"))
    return Indicators(res=res, res_rel=res_rel, err=err, err_rel=err_rel)


# ---------------------------------------------------------------------------
# Studies: statistics over prior draws and the scaling study
# ---------------------------------------------------------------------------


_INDICATORS = ("res", "res_rel", "err", "err_rel")
KEEP_FRACTION = 0.8  # share of items kept for the means


@dataclass(frozen=True, eq=False)
class StudyResult:
    """Indicators of one study, one entry per item (a prior draw or a grid point)."""

    case: ExperimentCase
    methods: tuple[str, ...]
    ref_res: np.ndarray  # |Lambda(0) - data| per item
    ref_err: np.ndarray  # |kappa_target| in the measurement norm
    table: dict  # method -> dict of arrays res/res_rel/err/err_rel/clamped
    failures: tuple  # (item, method, repr) of the reconstructions that raised
    # diagnostic only: oscillation indicator of the higher-order increments
    eta23_sign_corr: np.ndarray | None = None
    s_values: np.ndarray | None = None  # scaling factors of a scaling study

    @property
    def retained(self) -> np.ndarray:
        """Items kept for the means: the top fifth by initial-guess residual is excluded."""
        return retained_mask(self.ref_res)

    def mean_log10(self, method: str, indicator: str) -> float:
        if method == "0":
            vals = np.ones_like(self.ref_res) if indicator == "res_rel" else self.ref_err
        else:
            vals = self.table[method][indicator]
        return float(np.log10(np.mean(vals[self.retained])))

    def summary_rows(self) -> list[dict]:
        return [
            {
                "method": method,
                "log10_mean_res_rel": self.mean_log10(method, "res_rel"),
                "log10_mean_err": self.mean_log10(method, "err"),
            }
            for method in ("0",) + self.methods
        ]


def retained_mask(ref_res: np.ndarray) -> np.ndarray:
    """Bottom KEEP_FRACTION of samples by initial-guess residual, at least one, ties by index."""
    n = len(ref_res)
    keep = max(1, int(np.floor(KEEP_FRACTION * n)))
    order = np.lexsort((np.arange(n), ref_res))
    mask = np.zeros(n, dtype=bool)
    mask[order[:keep]] = True
    return mask


def _study(
    case: ExperimentCase,
    methods: tuple[str, ...],
    meas: SideModel,
    rec: SideModel,
    items: Iterable[tuple[ParamVector, MeasurementRecord, Reconstructor]],
    n: int,
    record_failures: bool,
) -> StudyResult:
    """Reconstruct every item with every method and tabulate the indicators.

    Each item gives its target, its simulated measurement and the
    reconstructor that serves it. The study opens an :class:`Item` of the
    data there, runs every method on it and takes the indicators' maps from
    its :meth:`~Item.map_at`; the item is dropped when the item ends, so
    only shared state crosses items. A numerical failure (``ValueError`` or
    ``RuntimeError``) is recorded in ``failures`` when ``record_failures`` is
    set, else re-raised; any other exception propagates.
    """
    ref_res = np.full(n, np.nan)
    ref_err = np.full(n, np.nan)
    table = {
        m: {k: np.full(n, np.nan) for k in _INDICATORS} | {"clamped": np.zeros(n, dtype=bool)}
        for m in methods
    }
    sign_corr = np.full(n, np.nan)
    failures = []
    for i, (target, record, recon) in enumerate(items):
        item = recon.item(record.upsilon)
        ref_res[i] = float(np.linalg.norm(recon.lam0 - record.upsilon))
        ref_err[i] = _pc_norm(meas.param.partition, target.kappa)
        for method in methods:
            try:
                outcome = recon.run(method, item)
            except (ValueError, RuntimeError) as exc:
                if not record_failures:
                    raise
                failures.append((i, method, repr(exc)))
                continue
            ind = indicators(
                rec, meas, outcome.upsilon, target, record.upsilon, recon.lam0, item.map_at
            )
            row = table[method]
            for k in _INDICATORS:
                row[k][i] = getattr(ind, k)
            row["clamped"][i] = outcome.clamped
            if method == "3":
                sign_corr[i] = outcome.diagnostics.get("eta2_eta3_sign_correlation", np.nan)
        del item  # with its kept results and stacks, before the next item starts
    return StudyResult(
        case=case,
        methods=methods,
        ref_res=ref_res,
        ref_err=ref_err,
        table=table,
        failures=tuple(failures),
        eta23_sign_corr=sign_corr if "3" in methods else None,
    )


def _setup(case: ExperimentCase, gammas: PriorGammas | None = None) -> tuple:
    """The sides, the reconstructor, and the measurement prior and noise of both drivers.

    An inverse crime's measurement noise reads the reconstructor's origin map: one assembly.
    """
    meas, rec = build_models(case)
    recon = Reconstructor(rec, gammas)
    meas_prior = build_prior(meas.param, case.measurement.gammas)
    if meas.param is rec.param:
        meas_noise = build_noise_cov(*case.measurement.deltas, recon.lam0)
    else:
        meas_noise = build_noise_cov_for_side(meas, case.measurement.deltas)
    return meas, rec, recon, meas_prior, meas_noise


def experiment1(
    case: ExperimentCase,
    methods: Sequence[str] = METHODS,
    n_samples: int | None = None,
    seed: int | None = None,
) -> StudyResult:
    """Statistical comparison of the reconstruction methods over prior draws.

    Draws targets from the measurement-side prior, simulates noisy data,
    reconstructs with every requested method, and aggregates the indicators
    over the retained samples (the top fifth by initial-guess residual is
    excluded). Per-sample numerical failures are recorded, not fatal.
    Deterministic for a fixed seed.
    """
    methods = _check_methods(methods)
    n = case.n_samples if n_samples is None else n_samples
    _check_count("n_samples", n, 1)
    seed = case.seed if seed is None else check_seed(seed)
    meas, rec, recon, meas_prior, meas_noise = _setup(case)

    def draws():
        for i in range(n):
            rng = sample_rng(seed, i)
            target = draw_target(meas, meas_prior, rng)
            yield target, simulate_measurements(meas, target, meas_noise, rng), recon

    return _study(case, methods, meas, rec, draws(), n, record_failures=True)


def experiment2(
    case: ExperimentCase,
    s_values: Sequence[float],
    seed: int | None = None,
    methods: Sequence[str] = METHODS,
) -> StudyResult:
    """Scaling study: one prior draw, targets s * draw over a grid of s.

    The prior standard deviations for the log-conductivity and the contact
    strengths are scaled along with the target; the noise level tracks the
    absolute size of the reference data and so does not vanish with s. Only
    the prior changes with s: the origin model (stack, Jacobian, noise model)
    is built once, in set-up, and shared through
    :meth:`Reconstructor.with_gammas`. The first failed reconstruction raises.
    """
    methods = _check_methods(methods)
    seed = case.seed if seed is None else check_seed(seed)
    s_values = np.asarray(list(s_values), dtype=float)
    if s_values.size == 0:
        raise ValueError("the grid of scaling factors is empty")
    if not np.all(np.isfinite(s_values) & (s_values > 0)):
        raise ValueError(f"scaling factors must be positive and finite, got {s_values.tolist()}")
    gammas = [case.reconstruction.gammas.scaled(float(s)) for s in s_values]
    meas, rec, recon, meas_prior, meas_noise = _setup(case, gammas[0])
    rng = sample_rng(seed, 0)
    draw = draw_target(meas, meas_prior, rng)
    theta_hat = meas_noise.draw_raw(rng)  # one noise realization for the whole sweep

    def points():
        nonlocal recon  # each point's reconstructor replaces the one before
        for k, s in enumerate(s_values):
            target = float(s) * draw
            record = simulate_measurements(meas, target, meas_noise, rng, theta_hat=theta_hat)
            if k:
                recon = recon.with_gammas(gammas[k])
            yield target, record, recon

    result = _study(case, methods, meas, rec, points(), len(s_values), record_failures=False)
    return replace(result, s_values=s_values)


# ---------------------------------------------------------------------------
# Serialization (CSV statistics, structured-text records)
# ---------------------------------------------------------------------------


def write_matrix(path: str | Path, matrix: np.ndarray) -> None:
    """Row-major decimal text block; round-trips bit-exactly."""
    lines = [" ".join(repr(float(x)) for x in row) for row in np.atleast_2d(matrix)]
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix(path: str | Path) -> np.ndarray:
    """The matrix of :func:`write_matrix`.

    A token that is not a number, or a row whose length differs from the
    first row's, raises ``ValueError`` naming the file and the line.
    """
    try:
        lines = list(_lines(path))
        # every row as wide as the first; an empty file reads as an empty array
        return np.array([_row(*line, len(lines[0][1]), float) for line in lines])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def param_to_json(pv: ParamVector) -> dict:
    out = {"kind": pv.kind, "kappa": pv.kappa.tolist(), "rho": pv.rho.tolist()}
    if pv.xi is not None:
        out["xi"] = pv.xi.tolist()
    return out


def _entry(where: str, mapping, key: str):
    """``mapping[key]``; ``ValueError`` naming ``where`` unless it is a mapping holding ``key``."""
    _check_mapping(where, mapping)
    if key not in mapping:
        raise ValueError(f"{where} has no {key!r} entry")
    return mapping[key]


def _numeric(value) -> bool:
    """Whether a JSON value is a number, or lists of numbers nested to any depth."""
    if isinstance(value, list):
        return all(map(_numeric, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def param_from_json(data: dict) -> ParamVector:
    """The parameters of :func:`param_to_json`; a malformed record raises ``ValueError``.

    ``kappa``, ``rho`` and, for the smooth model, ``xi`` hold finite numbers
    (not a string, boolean, null or NaN) in lists nested to one shape. A
    ``kind`` entry, where there is one, is ``smooth`` if ``xi`` is there and
    ``cem`` if not.
    """

    def numbers(key: str) -> np.ndarray:
        value = _entry("the parameter record", data, key)
        try:
            array = np.array(value, dtype=float) if _numeric(value) else None
        except (ValueError, OverflowError):  # lists of unequal lengths, an int beyond float
            array = None
        if array is None or not np.isfinite(array).all():
            raise ValueError(f"{key!r} of the parameter record must be finite numbers of one shape")
        return array

    point = ParamVector(numbers("kappa"), numbers("rho"), numbers("xi") if "xi" in data else None)
    if data.get("kind", point.kind) != point.kind:
        raise ValueError(f"kind {data['kind']!r} of the parameter record does not fit its entries")
    return point


def _read_json(path: Path, parse):
    """``parse`` of the JSON document in ``path``; ``ValueError`` naming the file if it fails."""
    text = path.read_text()
    try:
        return parse(json.loads(text))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_measurement(record: MeasurementRecord, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_matrix(directory / "upsilon.txt", record.upsilon)
    meta = {
        "target": param_to_json(record.target),
        "deltas": list(record.deltas),
    }
    (directory / "record.json").write_text(json.dumps(meta, indent=1))


def read_measurement(directory: str | Path) -> tuple[np.ndarray, ParamVector, tuple]:
    """Data matrix, target and noise levels of :func:`write_measurement`.

    A malformed ``record.json`` raises ``ValueError`` naming the file.
    """
    directory = Path(directory)
    upsilon = read_matrix(directory / "upsilon.txt")

    def parse(meta) -> tuple[ParamVector, tuple]:
        target = param_from_json(_entry("the record", meta, "target"))
        deltas = _entry("the record", meta, "deltas")
        if not isinstance(deltas, list):
            raise ValueError(f"the record's deltas must be a list, got {deltas!r}")
        return target, tuple(deltas)

    return (upsilon, *_read_json(directory / "record.json", parse))


def write_reconstruction(outcome: ReconOutcome, path: str | Path) -> None:
    data = {
        "method": outcome.method,
        "upsilon": param_to_json(outcome.upsilon),
        "components": [param_to_json(c) for c in outcome.components],
        "clamped": bool(outcome.clamped),
        "diagnostics": outcome.diagnostics,
        "flat": outcome.upsilon.to_flat().tolist(),
    }
    Path(path).write_text(json.dumps(data, indent=1))


def read_reconstruction(path: str | Path) -> ParamVector:
    """Reconstructed parameters of :func:`write_reconstruction`.

    A malformed record raises ``ValueError`` naming the file.
    """

    def parse(data) -> ParamVector:
        return param_from_json(_entry("the reconstruction record", data, "upsilon"))

    return _read_json(Path(path), parse)


def _method_header(methods: Sequence[str], keys: Sequence[str]) -> list[str]:
    return [f"{k}_{m.replace(',', '')}" for m in methods for k in keys]


def _method_cells(table: dict, methods: Sequence[str], keys: Sequence[str], i: int) -> list[str]:
    return [_fmt(table[m][k][i]) for m in methods for k in keys]


def write_experiment1_csv(result: StudyResult, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["method", "log10_mean_res_rel", "log10_mean_err"])
        writer.writeheader()
        for row in result.summary_rows():
            writer.writerow(
                {k: (v if k == "method" else _fmt(v)) for k, v in row.items()}
            )
    methods, table = result.methods, result.table
    keys = _INDICATORS + ("clamped",)
    corr = result.eta23_sign_corr
    retained = result.retained
    with open(directory / "samples.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["sample", "ref_res", "retained"] + _method_header(methods, keys)
        writer.writerow(header + (["eta23_sign_corr"] if corr is not None else []))
        for i in range(len(result.ref_res)):
            row = [i, _fmt(result.ref_res[i]), int(retained[i])]
            row += _method_cells(table, methods, keys, i)
            if corr is not None:
                row.append(_fmt(corr[i]))
            writer.writerow(row)
    # Sorted distributions over the full sample, for distribution-style plots.
    keys = ("res_rel", "err_rel")
    ranked = {m: {k: np.sort(table[m][k]) for k in keys} for m in methods}
    with open(directory / "distributions.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank"] + _method_header(methods, keys))
        for i in range(len(result.ref_res)):
            writer.writerow([i] + _method_cells(ranked, methods, keys, i))


def write_experiment2_csv(result: StudyResult, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    keys = ("res", "err")
    with open(directory / "curves.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "ref_res", "ref_err"] + _method_header(result.methods, keys))
        for k, s in enumerate(result.s_values):
            row = [_fmt(s), _fmt(result.ref_res[k]), _fmt(result.ref_err[k])]
            writer.writerow(row + _method_cells(result.table, result.methods, keys, k))


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))
    return repr(float(value))
