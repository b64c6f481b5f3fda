"""Generated malformed files: every text reader names the file and the line at fault.

Each property starts from a valid file, breaks one line of it and asks the
reader to reject it with its documented error type, naming the file and the
broken line's number.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eitrev.harness import read_matrix, write_matrix
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
