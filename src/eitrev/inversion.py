"""Priors, noise covariance, regularized inversion, and series reversion.

The reconstruction family inverts the truncated Taylor series of the
parametrized forward map around the origin. The leading-order inverse is
either an unregularized pseudo-inverse on a subspace where the Jacobian is
injective, or the minimizer of a Bayesian-Tikhonov functional; the same
inverse is reused for every order of the recursion.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import scipy.linalg as sla

from .calculus import DerivativeStack, vec
from .fem import CurrentBasis, current_basis
from .model import check_range

RANK_CUTOFF = 1e-12
_JITTER_TRIES = 3


class AssumptionViolatedError(RuntimeError):
    """The restricted Jacobian is rank deficient (injectivity assumption fails)."""


# ---------------------------------------------------------------------------
# Prior model
# ---------------------------------------------------------------------------


def check_number(key: str, value, positive: bool = False) -> None:
    """``ValueError`` naming ``key`` unless ``value`` is a finite real, positive if asked."""
    ok = not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))
    try:
        ok = ok and math.isfinite(value) and (value > 0 or not positive)
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        kind = "a finite positive number" if positive else "a finite number"
        raise ValueError(f"{key} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class PriorGammas:
    """Standard deviations and correlation length of the Gaussian prior."""

    gamma_kappa: float
    lambda_kappa: float
    gamma_rho: float
    gamma_xi: float = 0.02

    def __post_init__(self) -> None:
        # gamma_xi is checked positive by build_prior, and only for the smooth model
        for name in ("gamma_kappa", "lambda_kappa", "gamma_rho", "gamma_xi"):
            value = getattr(self, name)
            check_number(name, value, positive=name != "gamma_xi")
            if value:  # build_prior squares every field
                check_range(name, value, float(value) * float(value), "square")

    def scaled(self, s: float) -> "PriorGammas":
        """Scale the log-conductivity and log-conductance deviations only."""
        return PriorGammas(
            s * self.gamma_kappa, self.lambda_kappa, s * self.gamma_rho, self.gamma_xi
        )


@dataclass(frozen=True, eq=False)
class PriorModel:
    """Block-diagonal Gaussian prior covariance in (kappa, rho, xi) order."""

    cov: np.ndarray
    chol: np.ndarray  # lower Cholesky factor
    inv: np.ndarray
    gammas: PriorGammas

    @property
    def dim(self) -> int:
        return self.cov.shape[0]

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Zero-mean draw with the prior covariance, as a flat vector."""
        return self.chol @ rng.standard_normal(self.dim)


def build_prior(param, gammas: PriorGammas) -> PriorModel:
    """Assemble the smoothness prior for a parametrization.

    The log-conductivity block has entries
    gamma_kappa^2 exp(-|z_i - z_j|^2 / (2 lambda_kappa^2)) over the cluster
    centers; contact strengths and locations get independent diagonal blocks.
    A tiny diagonal jitter is added (at most three times) if rounding spoils
    positive definiteness.
    """
    centers = param.partition.centers
    diff = centers[:, None, :] - centers[None, :, :]
    sq = np.sum(diff * diff, axis=2)
    g_kappa = gammas.gamma_kappa**2 * np.exp(-sq / (2.0 * gammas.lambda_kappa**2))
    M = param.n_electrodes
    blocks = [g_kappa, gammas.gamma_rho**2 * np.eye(M)]
    if param.kind == "smooth":
        if gammas.gamma_xi <= 0:
            raise ValueError("gamma_xi must be positive for the smooth contact model")
        blocks.append(gammas.gamma_xi**2 * np.eye(2 * M))
    cov = sla.block_diag(*blocks)

    jitter = 1e-12 * np.trace(cov) / cov.shape[0]
    for attempt in range(_JITTER_TRIES + 1):
        try:
            chol = np.linalg.cholesky(cov)
            break
        except np.linalg.LinAlgError:
            if attempt == _JITTER_TRIES:
                raise
            cov = cov + jitter * np.eye(cov.shape[0])
    inv = sla.cho_solve((chol, True), np.eye(cov.shape[0]))
    for arr in (cov, chol, inv):
        arr.setflags(write=False)
    return PriorModel(cov=cov, chol=chol, inv=inv, gammas=gammas)


# ---------------------------------------------------------------------------
# Noise model
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Additive Gaussian noise on the physical two-electrode measurements.

    ``pattern_std[i, m]`` is the standard deviation of the noise on electrode
    i under the m-th physical current pattern; ``cov`` is the exact covariance
    of the transformed noise on the vectorized data matrix, and ``inv`` its
    (pseudo-)inverse with a relative rank cutoff, computed on first read: a
    model that only draws noise never needs it.
    """

    delta1: float
    delta2: float
    pattern_std: np.ndarray  # (M, M-1)
    cov: np.ndarray  # ((M-1)^2, (M-1)^2)
    basis: CurrentBasis

    @cached_property
    def inv(self) -> np.ndarray:
        """The read-only pseudo-inverse of ``cov`` by ``eigh``; zero without noise."""
        if self.delta1 == 0.0 and self.delta2 == 0.0:
            inv = np.zeros_like(self.cov)
        else:
            evals, evecs = np.linalg.eigh(self.cov)
            cut = RANK_CUTOFF * evals.max()
            with np.errstate(divide="ignore"):
                inv_evals = np.where(evals > cut, 1.0 / evals, 0.0)
            inv = (evecs * inv_evals[None, :]) @ evecs.T
        inv.setflags(write=False)
        return inv

    def draw_raw(self, rng: np.random.Generator) -> np.ndarray:
        """One draw of the physical noise matrix (columns per pattern)."""
        return self.pattern_std * rng.standard_normal(self.pattern_std.shape)


def build_noise_cov(delta1: float, delta2: float, lam_ref: np.ndarray) -> NoiseModel:
    """Noise covariance induced by the physical measurement protocol.

    Per-pattern noise is independent Gaussian with variance
    (delta1 max|U|)^2 + (delta2 |U_i^{(m)}|)^2 built from the noiseless
    measurements at the reference parameters, an (M-1) x (M-1) map whose
    shape fixes the electrode count M; the covariance of the data matrix
    follows by pushing the per-column mean removal and the basis changes
    through the vectorization exactly. Noise levels too large for a finite
    covariance raise ``ValueError`` naming ``deltas``.
    """
    M = lam_ref.shape[0] + 1
    basis = current_basis(M)
    B, Bhat = basis.B, basis.Bhat
    U0 = B @ lam_ref @ basis.B_pinv @ Bhat  # noiseless physical measurements
    peak = np.abs(U0).max()
    center = np.eye(M) - np.ones((M, M)) / M
    # vec(B_pinv C Theta Bhat_pinv B) = kron((Bhat_pinv B)^T, B_pinv C) vec(Theta)
    K = np.kron((basis.Bhat_pinv @ B).T, basis.B_pinv @ center)
    with np.errstate(over="ignore", invalid="ignore"):
        var = (delta1 * peak) ** 2 + (delta2 * np.abs(U0)) ** 2
        pattern_std = np.sqrt(var)
        scaled = K * pattern_std.reshape(-1, order="F")[None, :]
        cov = scaled @ scaled.T
    if not np.isfinite(cov).all():
        raise ValueError(f"deltas {(delta1, delta2)!r} are too large: their covariance overflows")
    return NoiseModel(delta1=delta1, delta2=delta2, pattern_std=pattern_std, cov=cov, basis=basis)


# ---------------------------------------------------------------------------
# Electrode subset projections
# ---------------------------------------------------------------------------


def inout_projector(basis: CurrentBasis, electrodes: Sequence[int]) -> np.ndarray:
    """Orthogonal projector (in basis coordinates) onto mean-free currents
    supported on the given electrode subset."""
    idx = np.asarray(sorted(set(int(i) for i in electrodes)), dtype=int)
    if idx.size == 0:
        raise ValueError("electrode subset must be nonempty")
    M = basis.n_electrodes
    mask = np.zeros(M)
    mask[idx] = 1.0
    P = np.diag(mask) - np.outer(mask, mask) / idx.size
    return basis.B.T @ P @ basis.B


def project_in_out(
    matrix: np.ndarray,
    in_electrodes: Sequence[int],
    out_electrodes: Sequence[int],
    basis: CurrentBasis,
) -> np.ndarray:
    """Restrict a data or derivative matrix to separate feed/measure electrodes."""
    p_in = inout_projector(basis, in_electrodes)
    p_out = inout_projector(basis, out_electrodes)
    return p_out @ matrix @ p_in


# ---------------------------------------------------------------------------
# Inverses for the reversion recursion
# ---------------------------------------------------------------------------


class SubspacePseudoInverse:
    """Unregularized inverse of the Jacobian restricted to a subspace.

    Exactly the Moore-Penrose solve in the Frobenius/Euclidean inner products:
    a left-inverse of the restricted derivative on its range and the
    orthogonal projection onto the range elsewhere. Rank deficiency raises
    instead of being silently regularized.
    """

    def __init__(
        self,
        stack: DerivativeStack,
        directions: Sequence,
        in_electrodes: Sequence[int] | None = None,
        out_electrodes: Sequence[int] | None = None,
    ):
        self.stack = stack
        self.directions = list(directions)
        self._proj = _vec_projector(stack.basis, in_electrodes, out_electrodes)
        F = stack.jacobian(self.directions)
        if self._proj is not None:
            F = self._proj @ F
        self._U, self._s, self._Vt = np.linalg.svd(F, full_matrices=False)
        if self._s[-1] <= RANK_CUTOFF * self._s[0]:
            raise AssumptionViolatedError(
                "restricted Jacobian is rank deficient on the chosen subspace"
            )

    @property
    def condition_number(self) -> float:
        return float(self._s[0] / self._s[-1])

    def __call__(self, matrix: np.ndarray):
        rhs = vec(matrix)
        if self._proj is not None:
            rhs = self._proj @ rhs
        coef = self._Vt.T @ ((self._U.T @ rhs) / self._s)
        out = coef[0] * self.directions[0]
        for c, w in zip(coef[1:], self.directions[1:]):
            out = out + c * w
        return out


class TikhonovInverse:
    """Regularized inverse: the Gaussian MAP estimate of the linearized problem.

    Minimizes |vec(J eta - Psi)|^2 in the inverse noise covariance plus
    |eta|^2 in the inverse prior covariance, through the normal equations;
    the solution is unique because the normal matrix is positive definite.
    :meth:`with_prior` gives the inverse of the same linearization under
    another prior.
    """

    def __init__(
        self,
        stack: DerivativeStack,
        prior: PriorModel,
        noise: NoiseModel,
        in_electrodes: Sequence[int] | None = None,
        out_electrodes: Sequence[int] | None = None,
    ):
        self.stack = stack
        self.prior = prior
        self.noise = noise
        J = stack.jacobian()
        self._proj = _vec_projector(stack.basis, in_electrodes, out_electrodes)
        if self._proj is not None:
            J = self._proj @ J
        self.jacobian = J
        self._JtGi = J.T @ noise.inv
        self._normal = self._JtGi @ J  # J.T Gamma^-1 J, which with_prior shares
        self._cho = sla.cho_factor(self._normal + prior.inv)

    def with_prior(self, prior: PriorModel) -> "TikhonovInverse":
        """The inverse of this linearization and projection under ``prior``.

        It shares the Jacobian, ``J.T Gamma^-1`` and ``J.T Gamma^-1 J``, which
        it and every inverse it gives keep, and only adds ``prior.inv`` and
        factors: bit for bit the inverse built afresh with ``prior``.
        """
        other = copy.copy(self)
        other.prior = prior
        other._cho = sla.cho_factor(self._normal + prior.inv)
        return other

    def __call__(self, matrix: np.ndarray):
        rhs = vec(matrix)
        if self._proj is not None:
            rhs = self._proj @ rhs
        flat = sla.cho_solve(self._cho, self._JtGi @ rhs)
        return self.stack.param.from_flat(flat)


def _vec_projector(
    basis: CurrentBasis,
    in_electrodes: Sequence[int] | None,
    out_electrodes: Sequence[int] | None,
) -> np.ndarray | None:
    if in_electrodes is None and out_electrodes is None:
        return None
    M = basis.n_electrodes
    p_in = inout_projector(basis, in_electrodes if in_electrodes is not None else range(M))
    p_out = inout_projector(basis, out_electrodes if out_electrodes is not None else range(M))
    return np.kron(p_in.T, p_out)


def solve_tikhonov(
    jacobian: np.ndarray, prior: PriorModel, noise: NoiseModel, data_matrix: np.ndarray
) -> np.ndarray:
    """One-shot Tikhonov solve on an explicit Jacobian; returns a flat vector."""
    JtGi = jacobian.T @ noise.inv
    H = JtGi @ jacobian + prior.inv
    return sla.cho_solve(sla.cho_factor(H), JtGi @ vec(data_matrix))


# ---------------------------------------------------------------------------
# Series reversion and sequential linearization
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ReversionResult:
    """Increments of the reversion recursion, their operand norms and partial sums."""

    etas: tuple
    operand_norms: tuple  # Frobenius norm of the operand each increment inverts
    stack: DerivativeStack | None  # the branch a continuation reads; none at order three

    @property
    def order(self) -> int:
        return len(self.etas)

    def partial_sum(self, order: int):
        if order < 1 or order > self.order:
            raise ValueError("partial sum order out of range")
        out = self.etas[0]
        for eta in self.etas[1:order]:
            out = out + eta
        return out


def revert(
    stack: DerivativeStack,
    inverse: Callable[[np.ndarray], object],
    data: np.ndarray,
    order: int,
    start: ReversionResult | None = None,
) -> ReversionResult:
    """Series reversion of the forward map around the stack's base point.

    The recursion inverts the truncated Taylor series: the first increment
    linearizes the residual, the second compensates the quadratic term driven
    by the first, and the third uses both previous increments. The supplied
    inverse is applied to every operand matrix. The order-K method is the
    partial sum of the first K increments, so the orders share them.

    ``start`` is an earlier result for the same stack, inverse and data: its
    first ``min(order, start.order)`` increments and operand norms are taken
    as they are and only the missing ones are computed, with the same bits a
    fresh reversion gives. The derivatives are taken on a
    :meth:`~eitrev.calculus.DerivativeStack.branch` of ``stack``, whose memo
    is keyed by increment identity: a continuation reads the start's, where
    the kept increments find their chains, and any other reversion makes
    one. So ``stack`` itself is never written, and what a reversion that
    raises has memoized stays in its branch.
    """
    if order < 1 or order > 3:
        raise ValueError("reversion order must be between 1 and 3")
    if start is None:
        etas, norms = [], []
    else:
        etas, norms = list(start.etas[:order]), list(start.operand_norms[:order])
    stack = stack.branch() if start is None or start.stack is None else start.stack
    operands = (
        lambda: np.asarray(data, dtype=float) - stack.lam,
        lambda: -0.5 * stack.dlambda2(etas[0]),
        lambda: -(stack.dlambda3(etas[0]) / 6.0 + stack.mixed_dlambda2(etas[0], etas[1])),
    )
    for k in range(len(etas), order):
        operand = operands[k]()
        norms.append(float(np.linalg.norm(operand)))
        etas.append(inverse(operand))
    return ReversionResult(tuple(etas), tuple(norms), stack if len(etas) < 3 else None)


@dataclass(frozen=True, eq=False)
class SequentialResult:
    """Iterates of the sequential linearization and their clamp flags."""

    iterates: tuple
    clamped: tuple


def sequential_linearize(
    rebase: Callable[[object], Callable[[np.ndarray], object]],
    data: np.ndarray,
    steps: int,
    initial_inverse: Callable[[np.ndarray], object],
    start: SequentialResult | None = None,
) -> SequentialResult:
    """Iterated linearized updates rebased at every iterate.

    Each step applies the regularized inverse at the current iterate to the
    current data residual. ``rebase(upsilon)`` returns the inverse at an
    iterate; the step reads the forward map and the parametrization from
    that inverse's ``stack``. The first step uses ``initial_inverse``, whose
    stack stands at the origin. One step coincides with the first-order
    reversion for the same inverse. Iterates leaving the admissible
    parameter set are clamped back and flagged.

    ``start`` is an earlier result for the same data and initial inverse: its
    iterates are taken as they are (at most ``steps`` of them) and the chain
    goes on from its last one, with the same iterates a run from the origin
    would give. ``rebase`` is called once per step after the first that
    ``start`` does not supply.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    data = np.asarray(data, dtype=float)
    iterates = list(start.iterates[:steps]) if start is not None else []
    clamp_flags = list(start.clamped[:steps]) if start is not None else []
    inverse = initial_inverse
    upsilon = iterates[-1] if iterates else inverse.stack.param.zero()
    for step in range(len(iterates), steps):
        if step > 0:
            inverse = rebase(upsilon)
        stack = inverse.stack
        upsilon, flagged = stack.param.clamp(upsilon + inverse(data - stack.lam))
        iterates.append(upsilon)
        clamp_flags.append(flagged)
    return SequentialResult(iterates=tuple(iterates), clamped=tuple(clamp_flags))
