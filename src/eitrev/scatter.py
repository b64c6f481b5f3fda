"""Summation plans for assembling local element matrices into CSR matrices.

Assembling a sparse matrix from per-element blocks through
``coo_matrix(...).tocsr()`` sorts and sums every term on every call. A
:class:`ScatterPlan` does the sorting once per element set and records, for
each entry of the result, which terms it sums and in which order. Applying
the plan repeats exactly the additions of scipy's conversion, so the result
equals ``tocsr`` bit for bit: the same structure, the same explicit zeros and
the same rounding in every entry.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def _summation_order(rows: np.ndarray, cols: np.ndarray, n: int) -> sp.csr_matrix:
    """The terms, by COO position, grouped and ordered as ``tocsr`` sums them.

    ``coo_tocsr`` moves the terms into rows in input order (a stable sort by
    row), and ``sum_duplicates`` then sorts each row by column with an
    unstable ``std::sort`` before adding equal columns left to right. The
    probe carries each term's COO position as its value through that same
    row sort, so its data is the summation permutation.
    """
    by_row = np.argsort(rows, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    probe = sp.csr_matrix((by_row.astype(float), cols[by_row], indptr), shape=(n, n))
    probe.sort_indices()
    return probe


class ScatterPlan:
    """How the ``(k, k)`` local matrices of fixed elements sum into an ``n x n`` CSR matrix.

    ``elements`` lists the ``k`` node ids of each element; local entry
    ``(a, b)`` of an element lands at row ``elements[e, a]`` and column
    ``elements[e, b]``, as in the COO triplets of a standard assembly. The
    plan stores the COO position of the first term of every output entry
    and, for each rank ``j >= 1``, the entries with more than ``j`` terms and
    the position of their ``j``-th term. All arrays are read-only.
    """

    def __init__(self, elements: np.ndarray, n: int):
        n_elements, k = elements.shape
        rows = np.repeat(elements, k, axis=1).ravel()
        cols = np.tile(elements, (1, k)).ravel()
        probe = _summation_order(rows, cols, n)
        order = probe.data.astype(np.intp)
        term_rows = np.repeat(np.arange(n), np.diff(probe.indptr))
        first = np.ones(len(order), dtype=bool)
        first[1:] = (probe.indices[1:] != probe.indices[:-1]) | (term_rows[1:] != term_rows[:-1])
        starts = np.flatnonzero(first)
        n_terms = np.diff(np.append(starts, len(order)))
        self.local_shape = (n_elements, k, k)
        self.shape = (n, n)
        self.first = order[starts]
        ranks = []
        for j in range(1, int(n_terms.max())):
            entries = np.flatnonzero(n_terms > j)
            ranks.append((entries, order[starts[entries] + j]))
        self.ranks = tuple(ranks)
        self.indices = probe.indices[starts]
        self.indptr = np.searchsorted(starts, probe.indptr).astype(probe.indptr.dtype)
        for arr in (self.first, self.indices, self.indptr, *(a for r in self.ranks for a in r)):
            arr.setflags(write=False)

    def assemble(self, support: np.ndarray, local: np.ndarray) -> sp.csr_matrix:
        """The sum of the local matrices ``local`` of the elements ``support``.

        Every other element contributes a block of zeros, so the result has
        the full structure of the plan, explicit zeros included. It owns its
        arrays: changing it in place leaves the plan intact.
        """
        terms = np.zeros(self.local_shape)
        terms[support] = local
        terms = terms.reshape(-1)
        data = terms[self.first]
        for entries, positions in self.ranks:
            data[entries] += terms[positions]
        return sp.csr_matrix(
            (data, self.indices.copy(), self.indptr.copy()), shape=self.shape
        )
