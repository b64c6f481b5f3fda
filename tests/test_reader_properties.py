"""Generated malformed inputs: every reader names what is at fault.

Each text-file property starts from a valid file, breaks one line of it and
asks the reader to reject it with its documented error type, naming the file
and the broken line's number. The configuration property puts one generated
number at one numeric key of a valid configuration, and the command-line
property one mutated value at one option of a valid ``eitrev`` command. The
record properties make one mutation of a valid measurement or reconstruction
record, which loads as its text says or is rejected naming the file.
"""

import contextlib
import copy
import inspect
import io
import json
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitrev import cli, harness
from eitrev.harness import (
    CASES,
    METHODS,
    MeasurementRecord,
    ReconOutcome,
    case_from_config,
    read_matrix,
    read_measurement,
    read_reconstruction,
    write_matrix,
    write_measurement,
    write_reconstruction,
)
from eitrev.mesh import (
    MeshFormatError,
    cluster_partition,
    generate_disk_mesh,
    load_mesh,
    load_partition,
    save_mesh,
    save_partition,
)
from eitrev.model import ParamVector

# Tokens that neither ``int`` nor ``float`` reads.
NOT_A_NUMBER = ["x", "one", "1,5", "0x1", "1e", "--1", "."]


@pytest.fixture(scope="module")
def disk1():
    return generate_disk_mesh(1)


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


@pytest.fixture(scope="module")
def valid(directory, disk1) -> dict[str, list[str]]:
    """The lines of a valid mesh, partition and data-matrix file."""
    save_mesh(disk1, directory / "mesh.txt")
    save_partition(cluster_partition(disk1, 4, seed=1), directory / "part.txt")
    write_matrix(directory / "upsilon.txt", np.random.default_rng(3).standard_normal((15, 15)))
    names = ("mesh", "part", "upsilon")
    return {name: (directory / f"{name}.txt").read_text().splitlines() for name in names}


def _break_one_line(data, lines: list[str], first: int) -> tuple[str, int]:
    """The text of ``lines`` with one line from index ``first`` on broken, and that line's number.

    A token is dropped, added or replaced by one that is not a number, or the
    line is split into two or joined with the next one. Each leaves the line
    with a token count or a token that its reader rejects.
    """
    lines = list(lines)
    i = data.draw(st.integers(first, len(lines) - 1), label="line index")
    tokens = lines[i].split()
    kinds = ["add", "not a number"]
    kinds += ["drop", "split"] if len(tokens) > 1 else []
    kinds += ["join"] if i + 1 < len(lines) else []
    kind = data.draw(st.sampled_from(kinds), label="mutation")
    if kind == "add":
        tokens.insert(data.draw(st.integers(0, len(tokens))), "0")
    elif kind == "not a number":
        at = data.draw(st.integers(0, len(tokens) - 1))
        tokens[at] = data.draw(st.sampled_from(NOT_A_NUMBER))
    elif kind == "drop":
        del tokens[data.draw(st.integers(0, len(tokens) - 1))]
    elif kind == "split":
        tokens.insert(data.draw(st.integers(1, len(tokens) - 1)), "\n")
    else:
        tokens += lines.pop(i + 1).split()
    lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n", i + 1


def _assert_rejected(error, read, path, text: str, number: int):
    path.write_text(text)
    with pytest.raises(error) as caught:
        read(path)
    assert f"{path}: line {number}: " in str(caught.value)


@given(data=st.data())
def test_a_broken_mesh_line_is_named(directory, valid, data):
    text, number = _break_one_line(data, valid["mesh"], 0)
    _assert_rejected(MeshFormatError, load_mesh, directory / "mesh.txt", text, number)


@given(data=st.data())
def test_a_broken_partition_line_is_named(directory, valid, disk1, data):
    text, number = _break_one_line(data, valid["part"], 0)
    read = partial(load_partition, disk1)
    _assert_rejected(MeshFormatError, read, directory / "part.txt", text, number)


@given(data=st.data())
def test_a_broken_matrix_row_is_named(directory, valid, data):
    # the first row sets the width that every other row is held to
    text, number = _break_one_line(data, valid["upsilon"], 1)
    _assert_rejected(ValueError, read_matrix, directory / "upsilon.txt", text, number)


# Every numeric key of a configuration, as its path in the mapping.
_SIDE_KEYS = [
    ("level",),
    ("n_clusters",),
    ("deltas", 0),
    ("deltas", 1),
    *[("gammas", key) for key in ("gamma_kappa", "lambda_kappa", "gamma_rho", "gamma_xi")],
]
NUMERIC_KEYS = [
    *[
        (key,)
        for key in ("n_electrodes", "electrode_radius", "contact_radius", "mu_kappa", "mu_zeta")
        + ("n_samples", "seed", "cluster_seed")
    ],
    *[(side, *key) for side in ("measurement", "reconstruction") for key in _SIDE_KEYS],
]

# Huge, tiny, negative and non-finite numbers, and ones whose square or
# exponential leaves the floats; st.floats draws subnormals, nan and ±inf too.
NUMBERS = st.one_of(
    st.sampled_from([1e200, -1e200, 1e-200, 5e-324, -800.0, 800.0, float("nan"), float("inf")]),
    st.floats(),
    st.integers(-(10**400), 10**400),
)


@given(name=st.sampled_from(sorted(CASES)), path=st.sampled_from(NUMERIC_KEYS), value=NUMBERS)
def test_a_config_number_loads_as_written_or_is_named(name, path, value):
    """The case holds exactly the number at its key, or ``ValueError`` names the key."""
    case = CASES[name]
    config = {"case": name}
    if len(path) == 1:
        config[path[0]] = value
    elif path[1] == "deltas":
        deltas = list(getattr(case, path[0]).deltas)
        deltas[path[2]] = value
        config[path[0]] = {"deltas": deltas}
    elif path[1] == "gammas":
        config[path[0]] = {"gammas": {path[2]: value}}
    else:
        config[path[0]] = {path[1]: value}
    key = [part for part in path if isinstance(part, str)][-1]
    try:
        loaded = case_from_config(json.loads(json.dumps(config)))
    except ValueError as exc:
        assert key in str(exc)
        return
    for part in path:
        loaded = loaded[part] if isinstance(part, int) else getattr(loaded, part)
    assert type(loaded) is type(value) and repr(loaded) == repr(value)


# Each command-line option that takes a value the program parses itself, with
# the command it is given to and a valid value.
CLI_OPTIONS = [
    ("experiment1", "--seed", "3"),
    ("experiment1", "--methods", "1;2;1,1"),
    ("experiment2", "--seed", "3"),
    ("experiment2", "--s-grid", "0.5,1,2"),
    ("simulate", "--seed", "3"),
    ("simulate", "--sample", "2"),
]
CLI_CHARACTERS = "0123456789,;.-+e _xn"
CLI_VALUES = ["", "-1", str(2**64), str(2**64 - 1), "nan", "inf", "1e400", "1e-400", ";", ","]


class _Ran(Exception):
    """Raised where a command's set-up starts, after every check of its values."""


def _mutated(data, text: str) -> str:
    """``text`` with one to three characters inserted, dropped or replaced, or another value."""
    if data.draw(st.booleans(), label="another value"):
        return data.draw(st.sampled_from(CLI_VALUES) | st.text(CLI_CHARACTERS, max_size=8))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        kind = data.draw(st.sampled_from(["insert", "drop", "replace"] if text else ["insert"]))
        at = data.draw(st.integers(0, len(text) - (kind != "insert")), label="at")
        new = data.draw(st.sampled_from(CLI_CHARACTERS)) if kind != "drop" else ""
        text = text[:at] + new + text[at + (kind != "insert") :]
    return text


def _as_written(option: str, text: str):
    """The value ``text`` says, as the program should take it, and whether it is admissible."""
    if option == "--methods":
        value = tuple(text.split(";"))
        return value, all(method in METHODS for method in value)
    if option == "--s-grid":
        value = [float(token) for token in text.split(",") if token.strip()]
        return value, bool(value) and all(1e-100 < s < 1e100 for s in value)
    value = int(text)  # argparse's own conversion
    return value, 0 <= value < 2**64


def _recording(calls: list, function):
    def call(*args, **kwargs):
        calls.append(inspect.signature(function).bind(*args, **kwargs).arguments)
        return function(*args, **kwargs)

    return call


def _stop(*args, **kwargs):
    raise _Ran


def _main_until_setup(patch, argv):
    """``cli.main(argv)`` stopped where set-up starts: its status (None there) and stderr."""
    for module, name in ((harness, "_setup"), (harness, "build_side"), (cli, "build_models")):
        patch.setattr(module, name, _stop)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            return cli.main(argv), err.getvalue()
        except _Ran:
            return None, err.getvalue()


@pytest.mark.parametrize("option", CLI_OPTIONS, ids=[" ".join(o[:2]) for o in CLI_OPTIONS])
@settings(max_examples=50)
@given(data=st.data())
def test_a_cli_value_runs_as_written_or_is_one_error_line(directory, option, data):
    """A mutated value reaches the run as it is written, or ``main`` writes one error line.

    The run stops where set-up starts: the case's models are not built. A
    value that argparse rejects is one error line after its usage lines.
    Every admissible value runs.
    """
    command, name, valid = option
    text = _mutated(data, valid)
    out = directory / "cli-out"
    rest = ["--s-grid=1"] if command == "experiment2" and name != "--s-grid" else []
    argv = [command, f"{name}={text}", *rest, "--out", str(out)]
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for driver in ("experiment1", "experiment2"):
            patch.setattr(harness, driver, _recording(calls, getattr(harness, driver)))
        patch.setattr(cli, "sample_rng", _recording(calls, harness.sample_rng))
        status, err = _main_until_setup(patch, argv)
    assert not out.exists()
    try:
        value, admissible = _as_written(name, text)
    except ValueError:
        value, admissible = None, False
    if status is None:
        key = {"--s-grid": "s_values", "--sample": "index"}.get(name, name[2:])
        assert calls[0][key] == value
        return
    assert not admissible
    assert status == 2
    lines = err.splitlines()
    while lines and (lines[0].startswith("usage: ") or lines[0].startswith(" ")):
        del lines[0]
    assert len(lines) == 1 and lines[0] and not lines[0].startswith(" ")


# ---------------------------------------------------------------------------
# Measurement and reconstruction records
# ---------------------------------------------------------------------------

# A value of each JSON type, numbers written as numbers and as strings.
JSON_VALUES = ["x", "1.5", 1.5, 2, True, None, {}, [], [1.5]]


def _mutated_record(data, tree):
    """A copy of the JSON value ``tree`` with one value mutated.

    The value is the whole document or one reached by descending into it. Its
    type is swapped, one of its keys dropped, its nesting changed (wrapped in
    a list or a mapping, or a list replaced by its first item) or it is NaN.
    """
    tree = copy.deepcopy(tree)
    parent, key, node = None, None, tree
    while isinstance(node, (dict, list)) and node and data.draw(st.booleans(), label="descend"):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(keys), label="key")
        node = node[key]
    kinds = ["type", "nest", "nan"] + (["drop"] if isinstance(node, dict) and node else [])
    kind = data.draw(st.sampled_from(kinds), label="mutation")
    if kind == "type":
        others = [v for v in JSON_VALUES if type(v) is not type(node)]
        new = copy.deepcopy(data.draw(st.sampled_from(others), label="value"))
    elif kind == "nest":
        nestings = [[node], {"value": node}]
        nestings += [node[0]] if isinstance(node, list) and node else []
        new = data.draw(st.sampled_from(nestings), label="nesting")
    elif kind == "drop":
        new = dict(node)
        del new[data.draw(st.sampled_from(sorted(node)), label="dropped")]
    else:
        new = float("nan")
    if parent is None:
        return new
    parent[key] = new
    return tree


def _array_as_written(value):
    """The array a JSON value spells (finite numbers in lists nested to one shape), or None."""
    if isinstance(value, list):
        items = [_array_as_written(item) for item in value]
        if any(item is None for item in items) or len({item.shape for item in items}) > 1:
            return None
        return np.stack(items) if items else np.zeros(0)
    if isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
        return np.array(float(value))
    return None


def _point_as_written(value):
    """kappa, rho and, for the smooth model, xi of a parameter record, by key; None if malformed."""
    if not isinstance(value, dict) or "kappa" not in value or "rho" not in value:
        return None
    arrays = {key: _array_as_written(value[key]) for key in ("kappa", "rho", "xi") if key in value}
    kind = "smooth" if "xi" in arrays else "cem"
    if any(array is None for array in arrays.values()) or value.get("kind", kind) != kind:
        return None
    return arrays


def _assert_point(point: ParamVector, arrays):
    for key in ("kappa", "rho", "xi"):
        got, want = getattr(point, key), arrays.get(key)
        assert (got is None) == (want is None), key
        if got is not None:
            assert got.shape == want.shape and np.array_equal(got, want), key


def _fits_c1(arrays) -> bool:
    """Whether a point has the shapes of both C1 sides: L3/80 with 16 smooth contacts."""
    shapes = {key: array.shape for key, array in arrays.items()}
    return shapes == {"kappa": (80,), "rho": (16,), "xi": (16, 2)}


@pytest.fixture(scope="module")
def records(directory):
    """A valid measurement record (a directory) and a valid reconstruction record, for C1."""
    rng = np.random.default_rng(5)
    target = ParamVector(rng.standard_normal(80), rng.standard_normal(16), rng.random((16, 2)))
    upsilon = rng.standard_normal((15, 15))
    measurement = directory / "measurement"
    write_measurement(MeasurementRecord(upsilon, target, None, (5e-5, 5e-4), None), measurement)
    reconstruction = directory / "reconstruction.json"
    outcome = ReconOutcome("1", 0.5 * target, (0.5 * target,), False, {"steps": 1})
    write_reconstruction(outcome, reconstruction)
    return measurement, reconstruction


def _assert_cli(argv, path, fits: bool):
    """A record that loads and fits the case reaches set-up; any other is one error line on it."""
    with pytest.MonkeyPatch.context() as patch:
        status, err = _main_until_setup(patch, argv)
    if fits:
        assert status is None and err == ""
        return
    assert status == 2
    assert err.count("\n") == 1 and err.startswith("ValueError: ") and str(path) in err


@settings(max_examples=60)
@given(data=st.data())
def test_a_mutated_measurement_record_loads_as_written_or_is_named(directory, records, data):
    valid, reconstruction = records
    meta = _mutated_record(data, json.loads((valid / "record.json").read_text()))
    record = directory / "mutated-measurement"
    record.mkdir(exist_ok=True)
    (record / "upsilon.txt").write_text((valid / "upsilon.txt").read_text())
    path = record / "record.json"
    path.write_text(json.dumps(meta, indent=1))
    target = meta.get("target") if isinstance(meta, dict) else None
    arrays = _point_as_written(target)
    deltas = meta.get("deltas") if isinstance(meta, dict) else None
    readable = arrays is not None and isinstance(deltas, list)
    try:
        upsilon, point, loaded_deltas = read_measurement(record)
    except ValueError as exc:
        assert not readable and str(path) in str(exc)
    else:
        assert readable
        assert upsilon.tobytes() == read_matrix(valid / "upsilon.txt").tobytes()
        _assert_point(point, arrays)
        assert repr(loaded_deltas) == repr(tuple(deltas))
    fits = readable and _fits_c1(arrays)
    out = directory / "cli-out"
    argv = ["reconstruct", "--data", str(record), "--order", "1", "--out", str(out)]
    _assert_cli(argv, path, fits)
    argv = ["indicators", "--data", str(record), "--recon", str(reconstruction), "--out", str(out)]
    _assert_cli(argv, path, fits)
    assert not out.exists()


@settings(max_examples=60)
@given(data=st.data())
def test_a_mutated_reconstruction_record_loads_as_written_or_is_named(directory, records, data):
    measurement, valid = records
    record = _mutated_record(data, json.loads(valid.read_text()))
    path = directory / "mutated-reconstruction.json"
    path.write_text(json.dumps(record, indent=1))
    arrays = _point_as_written(record.get("upsilon") if isinstance(record, dict) else None)
    try:
        point = read_reconstruction(path)
    except ValueError as exc:
        assert arrays is None and str(path) in str(exc)
    else:
        assert arrays is not None
        _assert_point(point, arrays)
    out = directory / "cli-out"
    argv = ["indicators", "--data", str(measurement), "--recon", str(path), "--out", str(out)]
    _assert_cli(argv, path, arrays is not None and _fits_c1(arrays))
    assert not out.exists()
