"""Directional derivatives of the parametrized current-to-voltage map.

A :class:`DerivativeStack` fixes a base parameter vector, solves the forward
problem once for every basis current, and exposes the first three directional
derivatives of the map, a Jacobian assembled without extra solves through the
bilinear identity, and truncated Taylor evaluation. Operator compositions are
always applied right-to-left to solution batches; operator matrices are never
materialized. The coordinate Jacobian is built a block of coordinates at a
time, from one derivative of tau per block and batched Gram matrices over
its clusters or electrodes, with no perturbation per coordinate.
"""

from __future__ import annotations

import copy
from typing import Sequence

import numpy as np

from .fem import (
    AssembledSystem,
    PerturbationOperator,
    SolutionSet,
    cluster_grams,
    electrode_grams,
    solve_forward,
)

_FACTORIALS = {1: 1.0, 2: 2.0, 3: 6.0}


class DerivativeStack:
    """Base-point solutions and memoized perturbation solves.

    Every derivative is a combination of chains: products of perturbation
    operators, each the solution operator of one derivative of tau along a
    tuple of directions, applied right-to-left to the base solutions. The
    memo of directions, operators and chains is pure memoization keyed by
    direction identity, and every entry is reproducible from scratch. The
    memo is the only state a stack changes after construction; a caller that
    must not leave entries behind works on a :meth:`branch`.

    The stack assembles and factors the system at ``param.tau(iota)`` itself,
    and ``tau`` raises :class:`~eitrev.model.AdmissibilityError` for an
    inadmissible base point first. Every derivative of tau is taken at that
    pair, ``system.tau``, which carries the base point's contact data.
    """

    def __init__(self, param, iota):
        self.system = system = AssembledSystem(param.layout, param.tau(iota))
        self.param = param
        self.iota = iota
        self.basis = system.basis
        self.base = solve_forward(system, self.basis.B)
        self.lam = self.base.coefficients(self.basis)
        self._handles: list = []
        self._ops: dict[tuple, PerturbationOperator] = {}
        self._chains: dict[tuple, SolutionSet] = {}
        self._jacobian: np.ndarray | None = None

    def branch(self) -> "DerivativeStack":
        """The same stack with an empty memo of its own.

        It shares the system, the base solutions, ``lam`` and the coordinate
        Jacobian if it is cached, and writes its entries to its own memo only.
        """
        other = copy.copy(self)
        other._handles, other._ops, other._chains = [], {}, {}
        return other

    def _handle(self, eta) -> int:
        for i, known in enumerate(self._handles):
            if known is eta:
                return i
        self._handles.append(eta)
        return len(self._handles) - 1

    def _chain(self, *factors: tuple) -> SolutionSet:
        """Operators of the factors applied right-to-left to the base solutions.

        A factor is a tuple of direction handles and stands for the
        perturbation by the derivative of tau along those directions, which
        is symmetric in them.
        """
        key = tuple(tuple(sorted(f)) for f in factors)
        out = self._chains.get(key)
        if out is None:
            op = self._ops.get(key[0])
            if op is None:
                directions = [self._handles[h] for h in factors[0]]
                pair = self.param.dtau(self.system.tau, directions)
                op = self._ops[key[0]] = self.system.perturbation(pair)
            inputs = self._chain(*factors[1:]) if len(factors) > 1 else self.base
            out = self._chains[key] = op.apply(inputs)
        return out

    def _trace(self, sols: SolutionSet) -> np.ndarray:
        return sols.coefficients(self.basis)

    # -- public derivative matrices -------------------------------------------

    def dlambda1(self, eta) -> np.ndarray:
        """First derivative along ``eta``, evaluated on all basis currents."""
        e = self._handle(eta)
        return self._trace(self._chain((e,)))

    def dlambda2(self, eta) -> np.ndarray:
        """Second directional derivative along equal directions."""
        e = self._handle(eta)
        return self._trace(2.0 * self._chain((e,), (e,)) + self._chain((e, e)))

    def dlambda3(self, eta) -> np.ndarray:
        """Third directional derivative along equal directions."""
        e = self._handle(eta)
        combo = (
            6.0 * self._chain((e,), (e,), (e,))
            + 3.0 * self._chain((e, e), (e,))
            + 3.0 * self._chain((e,), (e, e))
            + self._chain((e, e, e))
        )
        return self._trace(combo)

    def mixed_dlambda2(self, eta_a, eta_b) -> np.ndarray:
        """Mixed second derivative, symmetric in its two directions."""
        a = self._handle(eta_a)
        b = self._handle(eta_b)
        combo = self._chain((a,), (b,)) + self._chain((b,), (a,)) + self._chain((a, b))
        return self._trace(combo)

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
        bilinear identity, without any additional linear solves: column ``j``
        is ``vec(-G_j.T)`` for the Gram matrix ``G_j`` of the perturbed form
        of direction ``j`` over the base solutions. Explicit directions take
        one derivative of tau and one perturbation each.

        With no directions, all coordinate directions of the parametrization
        are used and the result is cached. They are built a block at a time
        (see :meth:`~eitrev.model.Parametrization.coordinate_blocks`): one
        derivative of tau along the whole block, then the Gram matrices of
        its restriction to every cluster or electrode at once, with no
        perturbation per coordinate. Every column equals what the explicit
        coordinate direction gives, bit for bit.
        """
        if directions is not None:
            cols = []
            for d in directions:
                op = self.system.perturbation(self.param.dtau(self.system.tau, [d]))
                cols.append(vec(-op.bform(self.base, self.base).T))
            return np.column_stack(cols)
        if self._jacobian is None:
            param, system = self.param, self.system
            J = np.empty((len(self.base) ** 2, param.dim))
            for b, block in enumerate(param.coordinate_blocks()):
                flat = np.zeros(param.dim)
                flat[block] = 1.0
                pair = param.dtau(system.tau, [param.from_flat(flat)])
                if b == 0:
                    grams = cluster_grams(system, pair.sigma, param.partition.cell_stack, self.base)
                else:
                    grams = electrode_grams(system, pair.zeta, self.base)
                J[:, block] = -grams.reshape(len(block), -1).T
            self._jacobian = J
        return self._jacobian


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(matrix).reshape(-1, order="F")

