"""A fixed kernel, sampled all through a study, whose time tracks the host's speed.

The benchmark runs on a few cores of a shared host. Other tenants' load makes
every instruction slower for seconds to minutes at a time, by up to half,
without showing as steal time, and every wall time of the program moves with
it. A ``Sampler`` times this kernel every ``INTERVAL_S`` seconds while the
program runs, from a timer signal, and takes the kernel's time off the clock
that the program's pieces are timed with. ``Sampler.scale`` turns such a piece
into seconds on a host where the kernel takes ``REFERENCE_S``: it multiplies
the piece by ``REFERENCE_S`` over the mean kernel time sampled during it.

The kernel belongs to the benchmark and never changes with the program, so a
change to the program moves the scaled times and leaves the kernel's alone.
It mixes the kinds of work the program does. Its interpreted part walks an
adjacency list of NumPy integers into sets and takes many reductions of small
arrays, as partitioning does. Its numeric part is vector arithmetic, sparse
assembly, a sparse LU solve with several right-hand sides and single-threaded
dense BLAS, as the solves, Jacobians and inversions do.
"""

from __future__ import annotations

import signal
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spl

# About the kernel's time, in seconds, on the host the benchmark was written
# on (2 vCPUs of an Intel Xeon at 2.1 GHz, 1 BLAS thread). It read 0.014 to
# 0.027 s there (5th to 95th percentile over ten minutes) as the host's load
# varied. Scaled times are seconds on a host of that speed.
REFERENCE_S = 0.02
# Seconds of program time between two kernel samples.
INTERVAL_S = 0.25


class Kernel:
    """Inputs are made once, from a fixed seed; ``sample`` times the kernel."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        n_nodes, n_groups = 3000, 200
        self._adjacency = [rng.integers(0, n_nodes, 3) for _ in range(n_nodes)]
        self._group = rng.integers(0, n_groups, n_nodes)
        self._n_groups = n_groups
        m = 40
        path = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
        eye = sp.identity(m)
        self._laplacian = (sp.kron(path, eye) + sp.kron(eye, path) + 0.1 * sp.identity(m * m)).tocsc()
        self._rhs = rng.standard_normal((m * m, 16))
        self._rows = rng.integers(0, 2000, 30000)
        self._cols = rng.integers(0, 2000, 30000)
        self._vals = rng.standard_normal(30000)
        self._small = rng.standard_normal((50, 3))
        self._dense = rng.standard_normal((120, 120))
        self.sample()  # warm-up: first-call costs are not host speed

    def _interpreted(self) -> None:
        group = self._group
        graph: list[set[int]] = [set() for _ in range(self._n_groups)]
        for node, neighbours in enumerate(self._adjacency):
            for nb in neighbours:
                if group[nb] != group[node]:
                    graph[group[node]].add(int(group[nb]))
        for start in range(0, len(group), 10):
            group[start : start + 10].max()
        acc = np.zeros(3)
        for i in range(500):
            acc = acc + np.dot(self._small[i % 50], self._small[(7 * i) % 50]) * self._small[i % 13]

    def _numeric(self) -> None:
        x = self._rhs[:, 0].copy()
        for _ in range(100):
            x = np.sqrt(np.abs(x * 1.0001 + 0.5))[::-1]
        for _ in range(2):
            sp.coo_matrix((self._vals, (self._rows, self._cols)), shape=(2000, 2000)).tocsr()
        spl.splu(self._laplacian).solve(self._rhs)
        a = self._dense
        for _ in range(6):
            a = a @ a.T / 120.0 + np.eye(120)

    def sample(self) -> float:
        """Seconds the kernel takes now."""
        start = time.perf_counter()
        self._interpreted()
        self._numeric()
        return time.perf_counter() - start


class Sampler:
    """Samples the kernel from a timer signal while active; keeps a program clock.

    ``now`` is ``time.perf_counter`` less the time spent in the kernel, so a
    piece timed with it holds no kernel time. Samples are stamped with ``now``.
    The timer is re-armed after each sample, so samples never nest. Interrupted
    system calls restart.
    """

    def __init__(self, kernel: Kernel) -> None:
        self._kernel = kernel
        self._spent = 0.0  # seconds spent sampling
        self.samples: list[tuple[float, float]] = []  # (program time, kernel seconds)

    def now(self) -> float:
        while True:
            spent = self._spent
            t = time.perf_counter()
            if spent == self._spent:  # no sample ran in between
                return t - spent

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append((start - self._spent, self._kernel.sample()))
        self._spent += time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)
        self.samples.append((self.now(), self._kernel.sample()))
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append((self.now(), self._kernel.sample()))

    def scale(self, start: float, end: float) -> float:
        """The piece from ``start`` to ``end`` (``now`` times), scaled to the reference host.

        The speed is the mean kernel time of the samples taken during the
        piece, or, with fewer than two, of those and the nearest sample before
        and after it.
        """
        inside = [k for t, k in self.samples if start <= t <= end]
        if len(inside) < 2:
            before = [k for t, k in self.samples if t < start]
            after = [k for t, k in self.samples if t > end]
            inside = inside + before[-1:] + after[:1]
        return (end - start) * REFERENCE_S / (sum(inside) / len(inside))
