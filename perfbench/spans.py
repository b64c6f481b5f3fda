"""Per-layer spans and work counts, recorded from outside the program.

``traced`` swaps wrappers in for the public functions of each eitrev layer
where their callers look them up, and puts the originals back on exit. The
harness imports most functions by name (``from .mesh import
cluster_partition``), so those are wrapped in the harness namespace; methods
are wrapped on their class. Nothing under ``src/`` knows about the tracer.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

from eitrev import fem, harness
from eitrev.calculus import DerivativeStack
from eitrev.inversion import TikhonovInverse
from eitrev.model import Parametrization

SPAN_NAMES = (
    "mesh.generate_disk_mesh",
    "mesh.cluster_partition",
    "mesh.nearest_neighbor_project",
    "model.tau",
    "model.dtau",
    "fem.assemble",
    "fem.perturbation",
    "fem.solve",
    "fem.forward_map",
    "calculus.stack",
    "calculus.jacobian",
    "calculus.dlambda2",
    "calculus.dlambda3",
    "calculus.mixed_dlambda2",
    "inversion.build_prior",
    "inversion.build_noise_cov",
    "inversion.tikhonov_build",
    "inversion.tikhonov_apply",
    "inversion.revert",
    "inversion.sequential_linearize",
    "harness.build_models",
    "harness.reconstructor",
    "harness.simulate",
    "harness.indicators",
    "harness.write_csv",
)

class Tracer:
    """Spans of one traced study, kept in memory, with their aggregates.

    Inclusive time counts only the outermost span of a name, so a layer that
    re-enters itself is not counted twice; self time is a span's duration
    minus the time covered by its child spans.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, depth
        self.busy_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.top_level_s = 0.0
        # fem.perturbation calls made by each jacobian() call, 0 when served from cache
        self.jacobian_perturbations: list[int] = []
        self._stack: list[list] = []  # [name, seconds covered by child spans]

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            outermost = all(frame[0] != name for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if outermost:
                    self.busy_s[name] += duration
                if stack:
                    stack[-1][1] += duration
                else:
                    self.top_level_s += duration
                self.spans.append((name, start, end, len(stack)))

        return wrapper

    def metrics(self, study_s: float) -> dict[str, float]:
        """Per-layer times and counts of this study; ``study_s`` is its traced wall time."""
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.s"] = self.busy_s[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.calls"] = self.calls[name]
        builds = self.jacobian_perturbations
        out["fem.solve.columns"] = self.counts["fem.solve.columns"]
        out["calculus.jacobian.hit_ratio"] = (
            sum(1 for n in builds if n == 0) / len(builds) if builds else 0.0
        )
        out["inversion.clamped"] = self.counts["inversion.clamped"]
        out["trace.coverage_frac"] = self.top_level_s / study_s
        return out

    def write(self, path) -> None:
        """Spans in closing order, times in seconds from the first span's start."""
        origin = min((start for _, start, _, _ in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,depth\n")
            for name, start, end, depth in self.spans:
                fh.write(f"{name},{start - origin!r},{end - origin!r},{depth}\n")


def _count_solve_columns(tracer: Tracer, solve):
    def counted(system, rhs, *args, **kwargs):
        tracer.counts["fem.solve.columns"] += rhs.shape[1] if rhs.ndim == 2 else 1
        return solve(system, rhs, *args, **kwargs)

    return counted


def _count_jacobian_perturbations(tracer: Tracer, jacobian):
    def counted(*args, **kwargs):
        before = tracer.calls["fem.perturbation"]
        out = jacobian(*args, **kwargs)
        tracer.jacobian_perturbations.append(tracer.calls["fem.perturbation"] - before)
        return out

    return counted


def _count_clamped(tracer: Tracer, run):
    def counted(*args, **kwargs):
        outcome = run(*args, **kwargs)
        tracer.counts["inversion.clamped"] += bool(outcome.clamped)
        return outcome

    return counted


# (owner, attribute, span name or None, counting wrapper or None)
TARGETS = (
    (harness, "generate_disk_mesh", "mesh.generate_disk_mesh", None),
    (harness, "cluster_partition", "mesh.cluster_partition", None),
    (harness, "nearest_neighbor_project", "mesh.nearest_neighbor_project", None),
    (Parametrization, "tau", "model.tau", None),
    (Parametrization, "dtau", "model.dtau", None),
    (fem.AssembledSystem, "__init__", "fem.assemble", None),
    (fem.AssembledSystem, "perturbation", "fem.perturbation", None),
    (fem.AssembledSystem, "solve", "fem.solve", _count_solve_columns),
    (fem, "forward_map", "fem.forward_map", None),
    (DerivativeStack, "__init__", "calculus.stack", None),
    (DerivativeStack, "jacobian", "calculus.jacobian", _count_jacobian_perturbations),
    (DerivativeStack, "dlambda2", "calculus.dlambda2", None),
    (DerivativeStack, "dlambda3", "calculus.dlambda3", None),
    (DerivativeStack, "mixed_dlambda2", "calculus.mixed_dlambda2", None),
    (harness, "build_prior", "inversion.build_prior", None),
    (harness, "build_noise_cov", "inversion.build_noise_cov", None),
    (TikhonovInverse, "__init__", "inversion.tikhonov_build", None),
    (TikhonovInverse, "__call__", "inversion.tikhonov_apply", None),
    (harness, "revert", "inversion.revert", None),
    (harness, "sequential_linearize", "inversion.sequential_linearize", None),
    (harness, "build_models", "harness.build_models", None),
    (harness.Reconstructor, "__init__", "harness.reconstructor", None),
    (harness.Reconstructor, "run", None, _count_clamped),
    (harness, "simulate_measurements", "harness.simulate", None),
    (harness, "indicators", "harness.indicators", None),
    (harness, "write_experiment1_csv", "harness.write_csv", None),
    (harness, "write_experiment2_csv", "harness.write_csv", None),
)


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore the originals."""
    originals = []
    try:
        for owner, attr, name, count in TARGETS:
            original = vars(owner)[attr]
            fn = count(tracer, original) if count is not None else original
            if name is not None:
                fn = tracer.span(name, fn)
            setattr(owner, attr, fn)
            originals.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
