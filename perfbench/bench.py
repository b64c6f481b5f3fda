"""Workloads, study timing and output checks of the eitrev benchmark.

A study is one driver call (``experiment1`` or ``experiment2``) plus its CSV
writer, on a case built by ``case_from_config`` exactly as the CLI builds it.
A run repeats the study with the same seed for the requested number of
seconds. Untraced runs give the end-to-end metrics, with their times scaled
to the host's speed by ``hostspeed``; traced runs alternate an untraced and a
traced study and give the per-layer metrics of ``spans`` in wall time.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
SOURCES = HERE.parent / "src"
if not (SOURCES / "eitrev").is_dir():
    raise SystemExit(f"no eitrev sources under {SOURCES}")
# The checkout's own sources, ahead of any installed copy.
sys.path.insert(0, str(SOURCES))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from eitrev import harness  # noqa: E402

import hostspeed  # noqa: E402
import spans  # noqa: E402

REFERENCE_DIR = HERE / "reference"
OUT_DIR = HERE / "out"
DEFAULT_SEED = 1
# Largest relative deviation from a stored reference that still counts as
# correct. The references hold at one BLAS thread only: two threads move the
# log10 means by about 1e-6.
TOLERANCE = 1e-8


def _c1_config() -> dict:
    return {"case": "C1"}


def _c3_config() -> dict:
    return {"case": "C3"}


def _l4_config() -> dict:
    # case_from_config pops "gammas" out of the side mappings it is given, so
    # every study gets a mapping of its own.
    side = {"level": 4, "n_clusters": 200}
    return {"case": "C1", "measurement": dict(side), "reconstruction": dict(side)}


@dataclass(frozen=True)
class Workload:
    """One study: the case mapping, the driver, its methods and its items.

    An item is a prior draw for ``experiment1`` and a grid point for
    ``experiment2``; every item runs every method once.
    """

    name: str
    config: Callable[[], dict]
    driver: str  # "experiment1" | "experiment2"
    methods: tuple[str, ...]
    n_samples: int = 0
    s_grid: tuple[float, ...] = ()

    @property
    def n_items(self) -> int:
        return self.n_samples if self.driver == "experiment1" else len(self.s_grid)

    @property
    def checked_csv(self) -> str:
        return "summary.csv" if self.driver == "experiment1" else "curves.csv"

    @property
    def written_csv(self) -> tuple[str, ...]:
        if self.driver == "experiment1":
            return ("summary.csv", "samples.csv", "distributions.csv")
        return ("curves.csv",)

    def drive(self, case, seed: int):
        if self.driver == "experiment1":
            return harness.experiment1(
                case, methods=self.methods, n_samples=self.n_samples, seed=seed
            )
        return harness.experiment2(case, self.s_grid, seed=seed, methods=self.methods)

    def write(self, result, directory: Path) -> None:
        if self.driver == "experiment1":
            harness.write_experiment1_csv(result, directory)
        else:
            harness.write_experiment2_csv(result, directory)

    def failures(self, result) -> int:
        # experiment2 aborts on the first failure, so a returned result has none
        return len(result.failures) if self.driver == "experiment1" else 0


WORKLOADS = {
    w.name: w
    for w in (
        # Inverse crime at L3/80: the sequential methods rebuild the 128-column
        # Jacobian three times per draw, so Jacobian work dominates every item.
        Workload("c1-study", _c1_config, "experiment1", harness.METHODS, n_samples=16),
        # L4/200 cem measurement side, L3/80 reconstruction side, reversions
        # only: set-up is partitioning, draws are reversion chains and L4
        # solves, and one Jacobian is built in all.
        Workload("c3-reversion", _c3_config, "experiment1", ("1", "2", "3"), n_samples=40),
        # Level above desk scale: the Reconstructor and four 248-column
        # Jacobians are rebuilt at every grid point.
        Workload(
            "l4-scaling",
            _l4_config,
            "experiment2",
            harness.METHODS,
            s_grid=tuple(float(s) for s in np.geomspace(0.1, 3.2, 8)),
        ),
    )
}


@dataclass
class Study:
    setup_s: float  # driver call to the first item
    study_s: float  # driver call plus CSV writer
    item_s: list[float]
    attempted: int  # reconstructions
    failed: int
    outputs: dict[str, bytes] | None  # CSV files written; None when the driver raised


def run_study(
    workload: Workload, seed: int, directory: Path, sampler: hostspeed.Sampler | None = None
) -> Study:
    """Time one study; items start where the driver simulates their measurements.

    The study is cut into pieces: set-up, each item and the CSV writer. Without
    ``sampler`` a piece's time is its wall time. With it, a piece is timed on
    the sampler's clock, which leaves out the kernel, and scaled to the host's
    speed by ``sampler.scale``.
    """
    clock = sampler.now if sampler is not None else time.perf_counter
    case = harness.case_from_config(workload.config())
    # Piece k runs from bounds[k] to bounds[k + 1].
    bounds: list[float] = []
    simulate = harness.simulate_measurements

    def stamped(*args, **kwargs):
        bounds.append(clock())
        return simulate(*args, **kwargs)

    harness.simulate_measurements = stamped
    try:
        bounds.append(clock())
        try:
            result = workload.drive(case, seed)
        except Exception:  # counted as failed items; the run goes on and reports
            traceback.print_exc()
            result = None
        bounds.append(clock())
        if result is not None:
            workload.write(result, directory)
            bounds.append(clock())
    finally:
        harness.simulate_measurements = simulate

    if sampler is None:
        pieces = [b - a for a, b in zip(bounds, bounds[1:])]
    else:
        pieces = [sampler.scale(a, b) for a, b in zip(bounds, bounds[1:])]
    n_stamps = len(bounds) - (3 if result is not None else 2)

    attempted = workload.n_items * len(workload.methods)
    if result is None:
        done = max(n_stamps - 1, 0)  # the item in progress failed with every later one
        failed = (workload.n_items - done) * len(workload.methods)
        outputs = None
    else:
        failed = workload.failures(result)
        outputs = {name: (directory / name).read_bytes() for name in workload.written_csv}
    return Study(
        setup_s=pieces[0],
        study_s=sum(pieces),
        item_s=pieces[1 : 1 + n_stamps],
        attempted=attempted,
        failed=failed,
        outputs=outputs,
    )


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _cells(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode())))


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def max_rel_dev(data: bytes, reference: bytes) -> float:
    """Largest relative deviation between two CSV files of the same layout.

    Text cells must match exactly; a reference value of zero must be matched
    exactly. Any mismatch in layout or text counts as an infinite deviation.
    """
    rows, ref_rows = _cells(data), _cells(reference)
    if len(rows) != len(ref_rows):
        return math.inf
    worst = 0.0
    for row, ref_row in zip(rows, ref_rows):
        if len(row) != len(ref_row):
            return math.inf
        for cell, ref_cell in zip(row, ref_row):
            value, ref = _number(cell), _number(ref_cell)
            if value is None or ref is None:
                if cell != ref_cell:
                    return math.inf
                continue
            if not (math.isfinite(value) and math.isfinite(ref)):
                return math.inf
            if ref == 0.0:
                dev = 0.0 if value == 0.0 else math.inf
            else:
                dev = abs(value - ref) / abs(ref)
            worst = max(worst, dev)
    return worst


def reference_path(workload: Workload, seed: int) -> Path:
    return REFERENCE_DIR / workload.name / f"seed{seed}" / workload.checked_csv


def check_outputs(workload: Workload, seed: int, studies: list[Study]) -> tuple[float, list[str]]:
    """Deviation of the checked CSV from its reference, and the problems found.

    Every study of a run must write byte-identical CSV files with finite
    numbers. With a stored reference for the seed the deviation is measured
    against it, otherwise between the run's own studies.
    """
    problems = []
    outputs = [s.outputs for s in studies if s.outputs is not None]
    if len(outputs) < len(studies):
        problems.append(f"{len(studies) - len(outputs)} of {len(studies)} driver calls raised")
    if not outputs:
        return math.inf, problems
    first = outputs[0]
    if any(o != first for o in outputs[1:]):
        problems.append("studies with the same seed wrote different CSV files")
    for name, data in first.items():
        for row in _cells(data)[1:]:
            if any(v is not None and not math.isfinite(v) for v in map(_number, row)):
                problems.append(f"{name} holds a value that is not finite")
                break
    checked = workload.checked_csv
    ref = reference_path(workload, seed)
    if ref.exists():
        dev = max(max_rel_dev(o[checked], ref.read_bytes()) for o in outputs)
    else:
        dev = max(max_rel_dev(o[checked], first[checked]) for o in outputs)
    if dev > TOLERANCE:
        problems.append(f"{checked} deviates by {dev:.3g} > {TOLERANCE:g}")
    return dev, problems


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """Highest order statistic with ten values beyond it, and its percentile.

    A run with fewer than forty values keeps a quarter of them beyond it, so
    the tail never falls to the maximum of a handful of items.
    """
    if not values:  # the driver raised before its first item
        return math.inf, 0.0
    ordered = sorted(values)
    n = len(ordered)
    beyond = min(10, n // 4)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n


def item_medians(studies: list[Study]) -> list[float]:
    """Each item's median over the studies that reached it.

    Every study of a run repeats the same items with the same seed, so the
    median removes a passing slowdown of one repeat and keeps the item's own
    cost. A study whose driver raised reached only its first items.
    """
    n = max((len(s.item_s) for s in studies), default=0)
    return [
        statistics.median(s.item_s[k] for s in studies if len(s.item_s) > k) for k in range(n)
    ]


def environment() -> dict:
    return {
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _repeat(seconds: float, unit: Callable[[], float]) -> None:
    """Run ``unit`` at least once, and again while another one fits in ``seconds``."""
    start = time.perf_counter()
    longest = 0.0
    while True:
        longest = max(longest, unit())
        if time.perf_counter() - start + longest > seconds:
            return


@dataclass
class Report:
    result: dict  # the benchmark's result object
    lines: list[str]  # human-readable summary, printed before the result


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> Report:
    directory = OUT_DIR / workload.name / f"seed{seed}"
    directory.mkdir(parents=True, exist_ok=True)
    studies: list[Study] = []
    tracers: list[tuple[spans.Tracer, float]] = []
    # End-to-end times are scaled to the host's speed; traced runs keep wall
    # times, so that spans, coverage and overhead compare like with like.
    sampler = None if trace else hostspeed.Sampler(hostspeed.Kernel())

    # Read when the first study ends: the peak of one study, as one CLI call
    # has it. Later studies of the run would add the heap's growth from
    # repeating the study in one process, which no user sees.
    peak_rss_mb: list[float] = []

    def untraced() -> float:
        start = time.perf_counter()
        studies.append(run_study(workload, seed, directory, sampler))
        if not peak_rss_mb:
            peak_rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        return time.perf_counter() - start

    def pair() -> float:
        plain = untraced()
        tracer = spans.Tracer()
        with spans.traced(tracer):
            studies.append(run_study(workload, seed, directory))
        tracers.append((tracer, studies[-1].study_s))
        return plain + studies[-1].study_s

    if sampler is None:
        _repeat(seconds, pair)
    else:
        with sampler:
            _repeat(seconds, untraced)
    if tracers:
        tracers[0][0].write(directory / "spans.csv")

    dev, problems = check_outputs(workload, seed, studies)
    attempted = sum(s.attempted for s in studies)
    failed = sum(s.failed for s in studies)
    failed_frac = failed / attempted
    items = [t for s in studies for t in s.item_s]
    if trace:
        metrics = _layer_metrics(tracers, studies, problems)
        metrics["failed_frac"] = failed_frac
        metrics["result_max_rel_dev"] = dev
        units = {name: _layer_unit(name) for name in metrics}
    else:
        per_item = item_medians(studies)
        tail_s, tail_pct = tail(per_item)
        metrics = {
            "setup_s": statistics.median(s.setup_s for s in studies),
            "study_s": statistics.median(s.study_s for s in studies),
            "item_s.p50": statistics.median(per_item) if per_item else math.inf,
            "item_s.tail": tail_s,
            "peak_rss_mb": peak_rss_mb[0],
        }
        units = {name: "s" for name in metrics} | {"peak_rss_mb": "MB"}
    env = environment()
    has_reference = reference_path(workload, seed).exists()
    lines = [
        f"workload {workload.name}  seed {seed}  trace {int(trace)}  "
        f"studies {len(studies)}  items {len(items)}",
        "env " + "  ".join(f"{k} {v}" for k, v in env.items()),
    ]
    if not trace:
        kernel_s = [k for _, k in sampler.samples]
        lines.append(
            f"item_s.tail is p{tail_pct:.1f} of {len(per_item)} items, "
            f"each the median of up to {len(studies)} studies"
        )
        lines.append(
            f"times scaled to host speed: kernel median {statistics.median(kernel_s):.4g} s "
            f"over {len(kernel_s)} samples, reference {hostspeed.REFERENCE_S:g} s"
        )
    lines += [f"{name} = {value:.6g} {units[name]}" for name, value in metrics.items()]
    if not trace:
        lines.append(f"failed_frac = {failed_frac:.6g} fraction")
        lines.append(f"result_max_rel_dev = {dev:.6g} fraction")
    lines.append(
        f"reference {'seed' + str(seed) if has_reference else 'none, deviation between studies'}; "
        f"outputs in {os.path.relpath(directory)}"
    )
    lines += [f"problem: {p}" for p in problems]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": _json_number(v), "unit": units[name]} for name, v in metrics.items()
        },
    }
    record = {"environment": env, "summary": lines, **result}
    (directory / f"result-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return Report(result=result, lines=lines)


def _json_number(value: float) -> float:
    # JSON has no infinity; an unbounded deviation is reported as the largest float
    return value if math.isfinite(value) else sys.float_info.max


def _layer_unit(name: str) -> str:
    if name.endswith(".calls") or name in ("fem.solve.columns", "inversion.clamped"):
        return "count"
    if name.endswith("_frac") or name.endswith("_ratio") or name == "result_max_rel_dev":
        return "fraction"
    return "s"


def _layer_metrics(tracers, studies: list[Study], problems: list[str]) -> dict:
    """Medians over the traced studies; counts must repeat exactly between them."""
    per_study = [tracer.metrics(study_s) for tracer, study_s in tracers]
    metrics = {}
    for name in per_study[0]:
        values = [m[name] for m in per_study]
        if _layer_unit(name) == "count" or name == "calculus.jacobian.hit_ratio":
            if any(v != values[0] for v in values):
                problems.append(f"{name} differs between traced studies: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    plain = statistics.median(s.study_s for s in studies[0::2])
    traced_s = statistics.median(s.study_s for s in studies[1::2])
    metrics["trace.overhead_frac"] = traced_s / plain - 1.0
    return metrics
