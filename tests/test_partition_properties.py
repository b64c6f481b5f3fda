"""Partition invariants over generated levels, cluster counts and seeds."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from eitrev.mesh import cluster_partition, generate_disk_mesh

_MESHES = {level: generate_disk_mesh(level) for level in (1, 2)}


def _is_connected(cells, adjacency):
    """Depth-first search restricted to ``cells``, independent of the package code."""
    inside = set(cells.tolist())
    seen = {cells[0]}
    stack = [cells[0]]
    while stack:
        for nb in adjacency[stack.pop()]:
            if nb in inside and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(inside)


@settings(max_examples=30)
@given(data=st.data())
def test_partition_invariants(data):
    mesh = _MESHES[data.draw(st.sampled_from(sorted(_MESHES)), label="level")]
    n_clusters = data.draw(st.integers(1, mesh.n_cells), label="n_clusters")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    part = cluster_partition(mesh, n_clusters, seed)

    assert part.n_clusters == n_clusters
    vols, cents = mesh.cell_volumes, mesh.cell_centroids
    for i, cells in enumerate(part.cluster_cells):
        assert cells.size > 0
        assert _is_connected(cells, mesh.cell_adjacency)
        w = vols[cells]
        expect = (cents[cells] * w[:, None]).sum(axis=0) / w.sum()
        assert np.allclose(part.centers[i], expect)

    again = cluster_partition(mesh, n_clusters, seed)
    assert np.array_equal(again.cluster_of, part.cluster_of)
    assert np.array_equal(again.centers, part.centers)
