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
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import fem
from .calculus import DerivativeStack
from .inversion import (
    NoiseModel,
    PriorGammas,
    PriorModel,
    SequentialResult,
    TikhonovInverse,
    build_noise_cov,
    build_prior,
    revert,
    sequential_linearize,
)
from .mesh import (
    MAX_DISK_REFINEMENT,
    Partition,
    check_seed,
    cluster_partition,
    define_electrodes,
    disk_electrode_midpoints,
    generate_disk_mesh,
    nearest_neighbor_project,
)
from .model import AdmissibilityError, ModelConfig, ParamVector, Parametrization

METHODS = ("1", "2", "3", "1,1", "1,1,1")


def _check_methods(methods: Sequence[str]) -> tuple[str, ...]:
    """The method names as a tuple; an unknown name raises ``ValueError`` naming it."""
    methods = tuple(methods)
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    return methods


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
        if len(self.deltas) != 2:
            raise ValueError(f"deltas must hold two noise levels, got {self.deltas!r}")
        if not isinstance(self.level, int) or not 0 <= self.level <= MAX_DISK_REFINEMENT:
            raise ValueError(
                f"level must be an integer in 0..{MAX_DISK_REFINEMENT}, got {self.level!r}"
            )
        if self.n_clusters < 1:
            raise ValueError(f"n_clusters must be at least 1, got {self.n_clusters!r}")
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
        if self.n_electrodes < 2:
            raise ValueError(f"n_electrodes must be at least 2, got {self.n_electrodes!r}")
        check_seed(self.seed)
        check_seed(self.cluster_seed, "cluster_seed")
        if self.reconstruction.contact != "smooth":
            raise ValueError("the reconstruction side always uses the smooth contact model")
        for spec in (self.measurement, self.reconstruction):
            if min(spec.deltas) < 0 or min(spec.gammas.gamma_kappa, spec.gammas.gamma_rho) <= 0:
                raise ValueError("noise levels must be nonnegative and variances positive")

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


_CASE_KEYS = (
    "n_electrodes",
    "electrode_radius",
    "contact_radius",
    "mu_kappa",
    "mu_zeta",
    "n_samples",
    "seed",
    "cluster_seed",
)
_SIDES = ("measurement", "reconstruction")


def _check_keys(where: str, mapping: dict, allowed) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {where} key(s) {unknown}; allowed: {sorted(allowed)}")


def case_from_config(data: dict) -> ExperimentCase:
    """Build a case from a configuration mapping, starting from table defaults.

    ``data`` holds the case name under "case" plus optional overrides
    mirroring the :class:`ExperimentCase` fields; side overrides use nested
    mappings with ``gammas`` given as a mapping of the prior fields. The
    mapping is left unchanged, and an unknown case name or key raises
    ``ValueError`` naming it.
    """
    name = data.get("case", "C1")
    if name not in CASES:
        raise ValueError(f"unknown case {name!r}; choose from {sorted(CASES)}")
    _check_keys("configuration", data, ("case",) + _SIDES + _CASE_KEYS)
    base = CASES[name]
    kwargs = {key: data[key] for key in _CASE_KEYS if key in data}
    for side_name in _SIDES:
        spec = getattr(base, side_name)
        override = dict(data.get(side_name, {}))
        if override:
            _check_keys(side_name, override, [f.name for f in fields(SideSpec)])
            gam = override.pop("gammas", None)
            if gam is not None:
                _check_keys(f"{side_name} gammas", gam, [f.name for f in fields(PriorGammas)])
                override["gammas"] = replace(spec.gammas, **gam)
            if "deltas" in override:
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


def side_forward_map(side: SideModel, iota: ParamVector, strict: bool = True) -> np.ndarray:
    system = fem.AssembledSystem(side.param.layout, side.param.tau(iota, strict=strict))
    return fem.forward_map(system)


def build_noise_cov_for_side(side: SideModel, deltas: tuple[float, float]) -> NoiseModel:
    """Noise model scaled by the side's own reference measurements."""
    lam0 = side_forward_map(side, side.param.zero())
    return build_noise_cov(deltas[0], deltas[1], lam0)


# ---------------------------------------------------------------------------
# Prior draws and measurement simulation
# ---------------------------------------------------------------------------


def draw_from_prior(prior: PriorModel, seed: int) -> np.ndarray:
    """Deterministic zero-mean draw with the prior covariance, as a flat vector."""
    return prior.sample(sample_rng(seed, 0))


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
    """
    if not side.param.admissible(target):
        raise AdmissibilityError("target parameters are inadmissible on the measurement side")
    lam = side_forward_map(side, target, strict=False)
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

    The base stack at the origin (with its coordinate Jacobian), the noise
    model, the prior and the regularized inverse are built once and shared
    across samples; :meth:`with_gammas` gives a reconstructor for another
    prior that shares the stack and the noise model. Sequential steps rebuild
    the stack at each iterate, and the longest sequential chain computed for
    the last data matrix is kept, so a longer chain on the same data goes on
    from it.
    """

    def __init__(self, rec: SideModel, gammas: PriorGammas | None = None):
        self.rec = rec
        self.stack0 = self._make_stack(rec.param.zero())
        deltas = rec.spec.deltas
        self.noise = build_noise_cov(deltas[0], deltas[1], self.stack0.lam)
        self._set_prior(gammas if gammas is not None else rec.spec.gammas)

    def _set_prior(self, gammas: PriorGammas) -> None:
        self.prior = build_prior(self.rec.param, gammas)
        self.inverse0 = TikhonovInverse(self.stack0, self.prior, self.noise)
        self._sequential: tuple[np.ndarray, SequentialResult] | None = None

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

    def _make_stack(self, iota: ParamVector) -> DerivativeStack:
        # the stack checks the base point, so tau need not check it first
        param = self.rec.param
        tau = param.tau(iota, strict=False)
        return DerivativeStack(fem.AssembledSystem(param.layout, tau), param, iota)

    def _make_inverse(self, stack: DerivativeStack) -> TikhonovInverse:
        return TikhonovInverse(stack, self.prior, self.noise)

    def _run_sequential(self, data: np.ndarray, steps: int) -> SequentialResult:
        """Sequential linearization, going on from the kept chain on equal data."""
        kept = self._sequential
        start = kept[1] if kept is not None and np.array_equal(kept[0], data) else None
        seq = sequential_linearize(
            self._make_stack,
            self._make_inverse,
            data,
            steps,
            initial_stack=self.stack0,
            initial_inverse=self.inverse0,
            start=start,
        )
        if start is None or len(seq.iterates) > len(start.iterates):
            # later runs read the kept data and iterates, so nothing may write to them
            kept_data = np.array(data, dtype=float)
            for arr in [kept_data] + [a for it in seq.iterates for a in (it.kappa, it.rho, it.xi)]:
                if arr is not None:
                    arr.setflags(write=False)
            self._sequential = (kept_data, seq)
        return seq

    def run(self, method: str, data: np.ndarray) -> ReconOutcome:
        """Reconstruct from a data matrix with one of the named methods.

        Methods "1", "2", "3" are one-step series reversions of that order;
        "1,1" and "1,1,1" are two and three sequential linearizations.
        """
        _check_methods((method,))
        if "," in method:
            seq = self._run_sequential(data, method.count(",") + 1)
            return ReconOutcome(
                method=method,
                upsilon=seq.iterates[-1],
                components=seq.iterates,
                clamped=any(seq.clamped),
            )
        order = int(method)
        result = revert(self.stack0, self.inverse0, data, order)
        upsilon, clamped = self.rec.param.clamp(result.partial_sum(order))
        diagnostics = dict(result.diagnostics)
        if order >= 3:
            corr = _sign_correlation(result.etas[1].kappa, result.etas[2].kappa)
            diagnostics["eta2_eta3_sign_correlation"] = corr
        return ReconOutcome(
            method=method,
            upsilon=upsilon,
            components=result.etas,
            clamped=clamped,
            diagnostics=diagnostics,
        )


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
) -> Indicators:
    """Residual and domain-error indicators for one reconstruction.

    The residual compares the reconstruction's simulated measurements with
    the data in the Frobenius norm, normalized by the initial-guess residual.
    The domain error is the piecewise-constant L2 distance of the shifted
    log-conductivities, after nearest-neighbor projection onto the
    measurement partition when the partitions differ.
    """
    try:
        lam_i = side_forward_map(rec, upsilon_i, strict=False)
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


def retained_mask(ref_res: np.ndarray, keep_fraction: float = 0.8) -> np.ndarray:
    """Bottom fraction of samples by initial-guess residual, ties by index."""
    n = len(ref_res)
    keep = int(np.floor(keep_fraction * n))
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
    reconstructor that serves it. A reconstruction that raises is recorded
    in ``failures`` when ``record_failures`` is set and re-raised otherwise.
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
        ref_res[i] = float(np.linalg.norm(recon.lam0 - record.upsilon))
        ref_err[i] = _pc_norm(meas.param.partition, target.kappa)
        for method in methods:
            try:
                outcome = recon.run(method, record.upsilon)
            except Exception as exc:
                if not record_failures:
                    raise
                failures.append((i, method, repr(exc)))
                continue
            ind = indicators(rec, meas, outcome.upsilon, target, record.upsilon, recon.lam0)
            row = table[method]
            for k in _INDICATORS:
                row[k][i] = getattr(ind, k)
            row["clamped"][i] = outcome.clamped
            if method == "3":
                sign_corr[i] = outcome.diagnostics.get("eta2_eta3_sign_correlation", np.nan)
    return StudyResult(
        case=case,
        methods=methods,
        ref_res=ref_res,
        ref_err=ref_err,
        table=table,
        failures=tuple(failures),
        eta23_sign_corr=sign_corr if "3" in methods else None,
    )


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
    excluded). Per-sample failures are recorded, not fatal. Deterministic for
    a fixed seed.
    """
    methods = _check_methods(methods)
    n = case.n_samples if n_samples is None else n_samples
    if n < 1:
        raise ValueError(f"n_samples must be at least 1, got {n}")
    seed = case.seed if seed is None else check_seed(seed)
    meas, rec = build_models(case)
    recon = Reconstructor(rec)
    meas_prior = build_prior(meas.param, case.measurement.gammas)
    meas_noise = build_noise_cov_for_side(meas, case.measurement.deltas)

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
    is built once, at the first grid point, and shared through
    :meth:`Reconstructor.with_gammas`. The first failed reconstruction raises.
    """
    methods = _check_methods(methods)
    seed = case.seed if seed is None else check_seed(seed)
    s_values = np.asarray(list(s_values), dtype=float)
    if s_values.size == 0:
        raise ValueError("the grid of scaling factors is empty")
    if not np.all(np.isfinite(s_values) & (s_values > 0)):
        raise ValueError(f"scaling factors must be positive and finite, got {s_values.tolist()}")
    meas, rec = build_models(case)
    meas_prior = build_prior(meas.param, case.measurement.gammas)
    meas_noise = build_noise_cov_for_side(meas, case.measurement.deltas)
    rng = sample_rng(seed, 0)
    draw = draw_target(meas, meas_prior, rng)
    theta_hat = meas_noise.draw_raw(rng)  # one noise realization for the whole sweep

    def points():
        recon = None
        for s in s_values:
            target = float(s) * draw
            record = simulate_measurements(meas, target, meas_noise, rng, theta_hat=theta_hat)
            gammas = case.reconstruction.gammas.scaled(float(s))
            if recon is None:
                recon = Reconstructor(rec, gammas=gammas)
            else:
                recon = recon.with_gammas(gammas)
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
    rows = [
        [float(tok) for tok in line.split()]
        for line in Path(path).read_text().splitlines()
        if line.strip()
    ]
    return np.array(rows)


def param_to_json(pv: ParamVector) -> dict:
    out = {"kind": pv.kind, "kappa": pv.kappa.tolist(), "rho": pv.rho.tolist()}
    if pv.xi is not None:
        out["xi"] = pv.xi.tolist()
    return out


def param_from_json(data: dict) -> ParamVector:
    xi = np.array(data["xi"]) if "xi" in data else None
    return ParamVector(np.array(data["kappa"]), np.array(data["rho"]), xi)


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
    directory = Path(directory)
    upsilon = read_matrix(directory / "upsilon.txt")
    meta = json.loads((directory / "record.json").read_text())
    return upsilon, param_from_json(meta["target"]), tuple(meta["deltas"])


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
