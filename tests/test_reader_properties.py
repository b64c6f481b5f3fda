"""Generated malformed inputs: every reader names what is at fault.

Each text-file property starts from a valid file, breaks one line of it and
asks the reader to reject it with its documented error type, naming the file
and the broken line's number. The configuration property puts one generated
number at one numeric key of a valid configuration.
"""

import json
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eitrev.harness import CASES, case_from_config, read_matrix, write_matrix
from eitrev.mesh import (
    MeshFormatError,
    cluster_partition,
    generate_disk_mesh,
    load_mesh,
    load_partition,
    save_mesh,
    save_partition,
)

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
