"""Summation plans for assembling local element matrices into CSR matrices.

Assembling a sparse matrix from per-element blocks through
``coo_matrix(...).tocsr()`` sorts and sums every term on every call. A
:class:`ScatterPlan` does the sorting once per set of elements and records,
for each entry of the result, which terms it sums and in which order.
Applying the plan to one local matrix per element repeats exactly the
additions of scipy's conversion, so the result equals ``tocsr`` followed by
``eliminate_zeros()`` bit for bit: the same structure and the same rounding
in every entry. Keeping the order costs one gather and one add per rank,
several times less than the conversion's sort on every call.
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


def _rank_steps(starts: np.ndarray, n_terms: np.ndarray, order: np.ndarray) -> tuple:
    """For each rank ``j >= 1``: the groups with more than ``j`` terms and their ``j``-th term.

    Group ``g`` holds the terms ``order[starts[g]:starts[g] + n_terms[g]]``.
    """
    steps = []
    for j in range(1, int(n_terms.max(initial=0))):
        groups = np.flatnonzero(n_terms > j)
        steps.append((groups, order[starts[groups] + j]))
    return tuple(steps)


def _summed(local: np.ndarray, first: np.ndarray, ranks: tuple) -> np.ndarray:
    """Each entry's terms of ``local``, by COO position, added left to right in rank order."""
    terms = np.asarray(local, dtype=float).reshape(-1)
    data = terms[first]
    for groups, positions in ranks:
        data[groups] += terms[positions]
    return data


def _group_starts(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each run of equal ``keys`` starts, and its length."""
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    return starts, np.diff(np.append(starts, len(keys)))


def compressed(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray) -> tuple:
    """``(data, indices, indptr)`` of a compressed matrix without its entries that are zero.

    Dropping them is what every sparse sum of scipy does with a sum that is
    exactly zero. The arrays returned are the caller's own: the pattern
    passed in is copied, not shared.
    """
    if data.all():
        return data, indices.copy(), indptr.copy()
    kept = np.flatnonzero(data)
    return data[kept], indices[kept], np.searchsorted(kept, indptr).astype(indptr.dtype)


class ScatterPlan:
    """How the ``(k, k)`` local matrices of fixed elements sum into an ``n x n`` CSR matrix.

    ``elements`` lists the ``k`` node ids of each element; local entry
    ``(a, b)`` of an element lands at row ``elements[e, a]`` and column
    ``elements[e, b]``, as in the COO triplets of a standard assembly. The
    plan stores the COO position of the first term of every output entry
    and, for each rank ``j >= 1``, the entries with more than ``j`` terms and
    the position of their ``j``-th term. It also maps every term to its
    entry and its rank there, from which a :class:`StackedPlan` is built.
    All these arrays are read-only, and assembling changes none of them.
    """

    def __init__(self, elements: np.ndarray, n: int):
        n_elements, k = elements.shape
        rows = np.repeat(elements, k, axis=1).ravel()
        cols = np.tile(elements, (1, k)).ravel()
        probe = _summation_order(rows, cols, n)
        order = probe.data.astype(np.intp)
        term_rows = np.repeat(np.arange(n), np.diff(probe.indptr))
        starts, n_terms = _group_starts(term_rows * n + probe.indices)
        self.local_shape = (n_elements, k, k)
        self.shape = (n, n)
        self.first = order[starts]
        self.ranks = _rank_steps(starts, n_terms, order)
        self.indices = probe.indices[starts]
        self.indptr = np.searchsorted(starts, probe.indptr).astype(probe.indptr.dtype)
        self.term_entry = np.empty(len(order), dtype=np.intp)
        self.term_entry[order] = np.repeat(np.arange(len(starts)), n_terms)
        self.term_rank = np.empty(len(order), dtype=np.intp)
        self.term_rank[order] = np.arange(len(order)) - np.repeat(starts, n_terms)
        for arr in (
            self.first,
            self.indices,
            self.indptr,
            self.term_entry,
            self.term_rank,
            *(a for r in self.ranks for a in r),
        ):
            arr.setflags(write=False)

    def sums(self, local: np.ndarray) -> np.ndarray:
        """Every entry's sum of ``local``, one local matrix per element, shaped ``local_shape``.

        The entries are those of ``indices`` and ``indptr``, each summing
        its terms in scipy's order; a sum that is zero stays.
        """
        if np.shape(local) != self.local_shape:
            raise ValueError(f"local matrices of shape {np.shape(local)}, not {self.local_shape}")
        return _summed(local, self.first, self.ranks)


class StackedPlan:
    """How labelled local matrices sum into one ``n x n`` block per label, stacked vertically.

    The elements are those of ``plan``, element ``e`` with label
    ``labels[e]``, one of ``0 .. n_labels - 1``. Block ``i`` of the
    ``(n_labels * n, n)`` stack holds what :meth:`ScatterPlan.sums` gives
    for a local array that is zero outside label ``i``, though it sums only
    the terms of that label, in the plan's rank order. The zeros of the other
    elements, of either sign, would change no bit: they leave a non-zero
    partial sum as it is and the other terms in their order, a zero partial
    sum plus the next term is that term, and an entry whose sum is zero is
    dropped either way. Most rows of the stack are empty, so the plan keeps
    only the others, ordered by label and then by row: row ``r`` of
    :meth:`assemble` is row ``row_vertex[r]`` of block ``row_label[r]``.

    Entries that sum to zero stay stored, where :func:`compressed` drops
    them. A product with finite operands is the same bit for bit either way:
    its rows start at +0.0, and adding a zero of either sign to a sum that
    starts there changes no bit of it.
    """

    def __init__(self, plan: ScatterPlan, labels: np.ndarray, n_labels: int):
        n = plan.shape[0]
        kk = plan.local_shape[1] * plan.local_shape[2]
        term_label = np.repeat(np.asarray(labels, dtype=np.intp), kk)
        order = np.lexsort((plan.term_rank, plan.term_entry, term_label))
        label, entry = term_label[order], plan.term_entry[order]
        starts, n_terms = _group_starts(label * len(plan.first) + entry)
        entry_row = np.repeat(np.arange(n), np.diff(plan.indptr))
        row_starts, _ = _group_starts(label[starts] * n + entry_row[entry[starts]])
        self.n_labels = n_labels
        self.n = n
        self.first = order[starts]
        self.ranks = _rank_steps(starts, n_terms, order)
        self.indices = plan.indices[entry[starts]]
        self.indptr = np.append(row_starts, len(starts)).astype(plan.indptr.dtype)
        self.row_label = label[starts[row_starts]]
        self.row_vertex = entry_row[entry[starts[row_starts]]]
        for arr in (
            self.first,
            self.indices,
            self.indptr,
            self.row_label,
            self.row_vertex,
            *(a for r in self.ranks for a in r),
        ):
            arr.setflags(write=False)

    def assemble(self, local: np.ndarray) -> sp.csr_matrix:
        """The non-empty rows of the stack of ``local``, one local matrix per element."""
        data = _summed(local, self.first, self.ranks)
        shape = (len(self.row_label), self.n)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=shape)
