"""A failed reconstruction is counted, and the command still reports."""

import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import bench  # noqa: E402
import run  # noqa: E402
from eitrev import harness  # noqa: E402


def _fail_on_call(monkeypatch, k: int) -> None:
    """Make the k-th reconstruction (1-based) raise."""
    original = harness.Reconstructor.run
    calls = []

    def run_or_fail(self, method, data):
        calls.append(method)
        if len(calls) == k:
            raise RuntimeError("injected failure")
        return original(self, method, data)

    monkeypatch.setattr(harness.Reconstructor, "run", run_or_fail)


def _main(capsys, workload) -> tuple[int, list[str]]:
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0"])
    return code, capsys.readouterr().out.splitlines()


def test_experiment1_counts_the_failed_reconstruction(monkeypatch, tmp_path, capsys):
    small = dataclasses.replace(
        bench.WORKLOADS["c1-study"], name="c1-small", n_samples=2, methods=("1", "2")
    )
    monkeypatch.setitem(bench.WORKLOADS, "c1-study", small)
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    _fail_on_call(monkeypatch, 3)  # second draw, method "1"

    code, lines = _main(capsys, "c1-study")
    result = json.loads(lines[-1])
    assert code in (0, 1)
    assert (result["attempted"], result["failed"]) == (4, 1)
    assert "failed_frac = 0.25 fraction" in lines


def test_experiment2_counts_the_failed_point_and_every_later_one(monkeypatch, tmp_path, capsys):
    # experiment2 on the L3/80 case keeps the test short; the accounting is the same
    small = dataclasses.replace(
        bench.WORKLOADS["l4-scaling"],
        name="exp2-small",
        config=lambda: {"case": "C1"},
        s_grid=(0.5, 1.0, 2.0),
        methods=("1",),
    )
    monkeypatch.setitem(bench.WORKLOADS, "l4-scaling", small)
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    _fail_on_call(monkeypatch, 2)  # second grid point

    code, lines = _main(capsys, "l4-scaling")
    result = json.loads(lines[-1])
    assert code == 1  # no outputs were written
    assert (result["attempted"], result["failed"]) == (3, 2)
    assert "failed_frac = 0.666667 fraction" in lines
    assert not result["correct"]
