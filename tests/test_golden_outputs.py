"""Seeded CLI studies reproduce the committed reference outputs.

Both experiment commands run in a subprocess with one BLAS thread, where the
seeded outputs are reproducible to rounding. Numeric cells must agree to a
relative 1e-12 and every other cell exactly. Regenerate the references under
``tests/golden/`` only for a change that is meant to alter the numbers.
"""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eitrev

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-12
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

RUNS = {
    "experiment1": (
        ["experiment1", "--case", "C1", "--samples", "2", "--seed", "4"],
        ("summary.csv", "samples.csv", "distributions.csv"),
    ),
    "experiment2": (
        ["experiment2", "--case", "C1", "--s-grid", "0.5,2", "--seed", "5"],
        ("curves.csv",),
    ),
}


def _run(argv, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(Path(eitrev.__file__).parents[1]), **ONE_THREAD)
    proc = subprocess.run(
        [sys.executable, "-m", "eitrev.cli", *argv, "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def _cells_agree(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_references(name, tmp_path):
    argv, files = RUNS[name]
    _run(argv, tmp_path)
    for fname in files:
        with open(tmp_path / fname, newline="") as f:
            got = list(csv.reader(f))
        with open(GOLDEN / name / fname, newline="") as f:
            want = list(csv.reader(f))
        assert len(got) == len(want), fname
        for r, (row, ref) in enumerate(zip(got, want)):
            assert len(row) == len(ref), (fname, r)
            for c, (g, w) in enumerate(zip(row, ref)):
                assert _cells_agree(g, w), (fname, r, c, g, w)
