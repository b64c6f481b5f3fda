"""Directional derivatives of the parametrized current-to-voltage map.

A :class:`DerivativeStack` fixes a base parameter vector, solves the forward
problem once for every basis current, and exposes the first three directional
derivatives of the map, a Jacobian assembled without extra solves through the
bilinear identity, and truncated Taylor evaluation. Operator compositions are
always applied right-to-left to solution batches; operator matrices are never
materialized.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .fem import (
    AssembledSystem,
    CurrentBasis,
    PerturbationOperator,
    SolutionSet,
    apply_P,
    solve_forward,
)

_FACTORIALS = {1: 1.0, 2: 2.0, 3: 6.0}


class DerivativeStack:
    """Base-point solutions and memoized perturbation solves.

    The cache is pure memoization keyed by direction identity and composition
    path; every entry is reproducible from scratch.
    """

    def __init__(self, system: AssembledSystem, param, iota, basis: CurrentBasis | None = None):
        self.system = system
        self.param = param
        self.iota = iota
        self.basis = basis if basis is not None else system.basis
        self.base = solve_forward(system, self.basis.B)
        self.lam = self.base.coefficients(self.basis)
        self._handles: list = []
        self._ops: dict[tuple, PerturbationOperator] = {}
        self._chains: dict[tuple, SolutionSet] = {}
        self._jacobian: np.ndarray | None = None

    # -- direction bookkeeping ------------------------------------------------

    def _handle(self, eta) -> int:
        for i, known in enumerate(self._handles):
            if known is eta:
                return i
        self._handles.append(eta)
        return len(self._handles) - 1

    def _op(self, order_key: tuple, directions: Sequence) -> PerturbationOperator:
        op = self._ops.get(order_key)
        if op is None:
            pair = self.param.dtau(self.iota, list(directions))
            op = self.system.perturbation(pair)
            self._ops[order_key] = op
        return op

    def _op1(self, h: int) -> PerturbationOperator:
        return self._op(("d1", h), [self._handles[h]])

    def _op2(self, ha: int, hb: int) -> PerturbationOperator:
        key = ("d2",) + tuple(sorted((ha, hb)))
        return self._op(key, [self._handles[ha], self._handles[hb]])

    def _op3(self, h: int) -> PerturbationOperator:
        eta = self._handles[h]
        return self._op(("d3", h), [eta, eta, eta])

    def _chain(self, key: tuple, op: PerturbationOperator, inputs: SolutionSet) -> SolutionSet:
        out = self._chains.get(key)
        if out is None:
            out = apply_P(self.system, op, inputs)
            self._chains[key] = out
        return out

    # -- elementary compositions applied to the base solutions ----------------

    def _p1(self, h: int) -> SolutionSet:
        return self._chain(("P1", h), self._op1(h), self.base)

    def _p1p1(self, ha: int, hb: int) -> SolutionSet:
        """P'(eta_a) applied to P'(eta_b) base."""
        return self._chain(("P1P1", ha, hb), self._op1(ha), self._p1(hb))

    def _p1p1p1(self, h: int) -> SolutionSet:
        return self._chain(("P1P1P1", h), self._op1(h), self._p1p1(h, h))

    def _p2(self, ha: int, hb: int) -> SolutionSet:
        key = ("P2",) + tuple(sorted((ha, hb)))
        return self._chain(key, self._op2(ha, hb), self.base)

    def _p2p1(self, h: int) -> SolutionSet:
        return self._chain(("P2P1", h), self._op2(h, h), self._p1(h))

    def _p1p2(self, h: int) -> SolutionSet:
        return self._chain(("P1P2", h), self._op1(h), self._p2(h, h))

    def _p3(self, h: int) -> SolutionSet:
        return self._chain(("P3", h), self._op3(h), self.base)

    def _trace(self, sols: SolutionSet) -> np.ndarray:
        return sols.coefficients(self.basis)

    # -- public derivative matrices -------------------------------------------

    def dlambda1(self, eta) -> np.ndarray:
        """First derivative along ``eta``, evaluated on all basis currents."""
        h = self._handle(eta)
        return self._trace(self._p1(h))

    def dlambda2(self, eta) -> np.ndarray:
        """Second directional derivative along equal directions."""
        h = self._handle(eta)
        return self._trace(2.0 * self._p1p1(h, h) + self._p2(h, h))

    def dlambda3(self, eta) -> np.ndarray:
        """Third directional derivative along equal directions."""
        h = self._handle(eta)
        combo = (
            6.0 * self._p1p1p1(h)
            + 3.0 * self._p2p1(h)
            + 3.0 * self._p1p2(h)
            + self._p3(h)
        )
        return self._trace(combo)

    def mixed_dlambda2(self, eta_a, eta_b) -> np.ndarray:
        """Mixed second derivative, symmetric in its two directions."""
        ha = self._handle(eta_a)
        hb = self._handle(eta_b)
        combo = self._p1p1(ha, hb) + self._p1p1(hb, ha) + self._p2(ha, hb)
        return self._trace(combo)

    def dlambda1_identity(self, eta) -> np.ndarray:
        """First derivative via the bilinear identity; no extra solves."""
        pair = self.param.dtau(self.iota, [eta])
        return -self.system.perturbation(pair).bform(self.base, self.base).T

    def taylor_eval(self, eta, order: int) -> np.ndarray:
        """Truncated Taylor evaluation of the map at the base point plus eta."""
        if order < 1 or order > 3:
            raise ValueError("taylor_eval supports orders one to three")
        out = self.lam.copy()
        out += self.dlambda1(eta)
        if order >= 2:
            out += self.dlambda2(eta) / _FACTORIALS[2]
        if order >= 3:
            out += self.dlambda3(eta) / _FACTORIALS[3]
        return out

    # -- Jacobian --------------------------------------------------------------

    def jacobian(self, directions: Sequence | None = None) -> np.ndarray:
        """Derivative of the vectorized map, one column per direction.

        Columns are assembled from the stored forward solutions through the
        bilinear identity, without any additional linear solves. With no
        explicit directions, all coordinate directions of the parametrization
        are used and the result is cached.
        """
        if directions is None:
            if self._jacobian is None:
                self._jacobian = self._coordinate_jacobian()
            return self._jacobian
        cols = [vec(self.dlambda1_identity(d)) for d in directions]
        return np.column_stack(cols)

    def _coordinate_jacobian(self) -> np.ndarray:
        param = self.param
        flat_dim = param.dim
        cols = np.empty(((self.lam.shape[0]) ** 2, flat_dim))
        for p in range(flat_dim):
            e = np.zeros(flat_dim)
            e[p] = 1.0
            cols[:, p] = vec(self.dlambda1_identity(param.from_flat(e)))
        return cols


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(matrix).reshape(-1, order="F")

