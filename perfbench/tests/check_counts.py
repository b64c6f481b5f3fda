"""The traced run's work counts repeat exactly, and its wrappers leave nothing behind."""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import bench  # noqa: E402
import spans  # noqa: E402

# Small instances of two workloads, under names with no stored reference.
# Each builds at least one coordinate Jacobian, with param.dim columns:
# 80 clusters + 3 x 16 electrode coordinates at L3/80 smooth, 200 + 3 x 16
# at L4/200 smooth.
SMALL = {
    "c1-study": (
        dataclasses.replace(
            bench.WORKLOADS["c1-study"], name="c1-small", n_samples=2, methods=("1,1",)
        ),
        128,
    ),
    "l4-scaling": (
        dataclasses.replace(
            bench.WORKLOADS["l4-scaling"], name="l4-small", s_grid=(0.5,), methods=("1",)
        ),
        248,
    ),
}


def _is_count(name: str) -> bool:
    return name.endswith(".calls") or name in (
        "fem.solve.columns",
        "calculus.jacobian.hit_ratio",
        "inversion.clamped",
    )


def _installed() -> dict:
    return {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in spans.TARGETS}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat_and_wrappers_are_removed(name, tmp_path, monkeypatch):
    workload, _ = SMALL[name]
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    before = _installed()
    reports = [bench.run(workload, bench.DEFAULT_SEED, 0.0, trace=True) for _ in range(2)]
    after = _installed()

    assert all(after[key] is fn for key, fn in before.items())
    counts = [
        {k: m["value"] for k, m in r.result["metrics"].items() if _is_count(k)} for r in reports
    ]
    assert len(counts[0]) == len(spans.SPAN_NAMES) + 3
    assert counts[0] == counts[1]
    assert all(r.result["correct"] for r in reports)
    assert reports[0].result["metrics"]["trace.coverage_frac"]["value"] >= 0.9


@pytest.mark.parametrize("name", sorted(SMALL))
def test_each_jacobian_build_assembles_one_perturbation_per_coordinate(name, tmp_path):
    workload, dim = SMALL[name]
    originals = _installed()
    tracer = spans.Tracer()
    with spans.traced(tracer):
        assert all(fn is not originals[key] for key, fn in _installed().items())
        bench.run_study(workload, bench.DEFAULT_SEED, tmp_path)
    builds = [n for n in tracer.jacobian_perturbations if n]
    assert builds
    assert builds == [dim] * len(builds)


def test_metric_names_match_benchmark_json(tmp_path, monkeypatch):
    spec = json.loads((Path(bench.HERE).parent / "BENCHMARK.json").read_text())
    workload, _ = SMALL["c1-study"]
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        metrics = bench.run(workload, bench.DEFAULT_SEED, 0.0, trace=trace).result["metrics"]
        expected = {m["name"]: m["unit"] for m in spec[key]}
        assert {name: m["unit"] for name, m in metrics.items()} == expected
