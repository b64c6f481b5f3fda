"""The names the benchmark tracer wraps from outside the package still exist, and see the work."""

import importlib.util
from pathlib import Path

from eitrev import harness
from eitrev.model import Parametrization

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_wrapped_name_exists():
    spans = _spans()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in spans.TARGETS
        if attr not in vars(owner)
    ]
    assert not missing


def test_every_reconstruction_passes_the_wrapped_run(monkeypatch):
    """The tracer counts clamps on ``Reconstructor.run``, so every reconstruction must call it."""
    spans = _spans()
    calls = []
    run, clamp = harness.Reconstructor.run, Parametrization.clamp

    def counted(self, method, item):
        calls.append(method)
        return run(self, method, item)

    def flagged(param, iota):
        # C1 draws seldom leave the admissible set: flag every other clamp as moved
        point, _ = clamp(param, iota)
        return point, len(calls) % 2 == 1

    monkeypatch.setattr(harness.Reconstructor, "run", counted)
    monkeypatch.setattr(Parametrization, "clamp", flagged)
    methods = ("1", "3")
    tracer = spans.Tracer()
    with spans.traced(tracer):
        result = harness.experiment1(harness.CASES["C1"], methods=methods, n_samples=2, seed=1)
    assert not result.failures
    assert len(calls) == 2 * len(methods)
    clamped = sum(int(result.table[m]["clamped"].sum()) for m in methods)
    assert clamped == 2
    assert tracer.counts["inversion.clamped"] == clamped


def test_every_reversion_derivative_passes_the_wrapped_methods():
    """A reversion's derivatives are taken on a branch of the origin stack, through the class."""
    spans = _spans()
    tracer = spans.Tracer()
    with spans.traced(tracer):
        harness.experiment1(harness.CASES["C1"], methods=("1", "2", "3"), n_samples=2, seed=1)
    for name in ("dlambda2", "dlambda3", "mixed_dlambda2"):
        assert tracer.calls[f"calculus.{name}"] == 2
