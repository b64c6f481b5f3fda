"""Geometry layer: meshes, electrode layouts, partitions, projections."""

import dataclasses
import hashlib
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eitrev.mesh
from eitrev import fem
from eitrev.mesh import (
    ElectrodeOverlapError,
    EmptyElectrodeError,
    LayoutError,
    MeshFormatError,
    TopologyError,
    _balance_clusters,
    _ClusterState,
    _components,
    build_mesh,
    cluster_partition,
    define_electrodes,
    disk_electrode_midpoints,
    generate_disk_mesh,
    load_mesh,
    load_partition,
    nearest_neighbor_project,
    save_mesh,
    save_partition,
)


def _arrays(value):
    """Every array reachable from a value through dataclass fields and tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name))
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


def _adjacency_by_shared_vertices(mesh):
    """Brute force: two cells are neighbours when they share ``dimension`` vertices."""
    incidence = np.zeros((mesh.n_cells, mesh.n_vertices), dtype=int)
    np.put_along_axis(incidence, mesh.cells, 1, axis=1)
    shared = incidence @ incidence.T
    np.fill_diagonal(shared, 0)
    return [np.flatnonzero(row == mesh.dimension).tolist() for row in shared]


def _reference_balance(labels, points, weights, adjacency, n_clusters):
    """The balancing loop in its first form, kept as the oracle of ``_balance_clusters``.

    Every donor search starts afresh, every chain recomputes the centers and
    moves its cells through ``_ClusterState.move``, and a chain that cannot
    finish is undone move by move.
    """
    state = _ClusterState(labels, adjacency, n_clusters)
    counts = state.counts
    stuck, blocked = set(), set()

    def nearest_donor(smallest, need):
        parent = {smallest: -1}
        queue = [smallest]
        for node in queue:
            for nb in state.neighbours(node):
                if nb not in parent:
                    parent[nb] = node
                    if counts[nb] >= need and (smallest, nb) not in blocked:
                        return nb, parent
                    queue.append(nb)
        return -1, parent

    def rim_cell(centers, donor, receiver):
        candidates = sorted(
            state.rims[donor].get(receiver, ()),
            key=lambda c: (np.linalg.norm(points[c] - centers[receiver]), c),
        )
        return next((c for c in candidates if state.stays_connected(c)), -1)

    cap = eitrev.mesh._BALANCE_MAX_MOVES
    for _ in range(cap):
        sizes = np.array(counts)
        top = sizes.max()
        sizes[list(stuck)] = top
        smallest = int(np.argmin(sizes))
        if sizes[smallest] > top - 2:
            break
        donor, parent = nearest_donor(smallest, counts[smallest] + 2)
        if donor < 0:
            stuck.add(smallest)
            continue
        centers = eitrev.mesh._weighted_centers(points, weights, state.array, n_clusters)
        moves = []
        node = donor
        while node != smallest:
            c = rim_cell(centers, node, parent[node])
            if c < 0:
                blocked.add((smallest, donor))
                for cell, source, target in reversed(moves):
                    state.move(cell, target, source)
                break
            state.move(c, node, parent[node])
            moves.append((c, node, parent[node]))
            node = parent[node]
        else:
            stuck.clear()
            blocked.clear()
    else:
        warnings.warn(
            f"cluster balancing stopped at its cap of {cap} iterations "
            f"with cluster sizes {min(counts)}..{max(counts)}",
            RuntimeWarning,
        )
    return state.array


_DISKS = {level: generate_disk_mesh(level) for level in (1, 2, 3)}


class _Captured(Exception):
    pass


def _balance_arguments(mesh, n_clusters, seed):
    """The arguments ``cluster_partition`` passes to ``_balance_clusters``."""

    def capture(*args):
        raise _Captured(args)

    with mock.patch("eitrev.mesh._balance_clusters", capture):
        with pytest.raises(_Captured) as caught:
            cluster_partition(mesh, n_clusters, seed)
    return caught.value.args[0]


def _write(tmp_path, text):
    path = tmp_path / "mesh.txt"
    path.write_text(text)
    return path


class TestLoadMesh:
    def test_reference_triangle(self, tmp_path):
        path = _write(tmp_path, "dim 2\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n0 1 2\n")
        mesh = load_mesh(path)
        assert mesh.n_cells == 1
        assert mesh.n_boundary_facets == 3
        assert mesh.cell_volumes[0] == pytest.approx(0.5)

    def test_reference_tetrahedron(self, tmp_path):
        path = _write(
            tmp_path,
            "dim 3\nvertices 4\n0 0 0\n1 0 0\n0 1 0\n0 0 1\ncells 1\n0 1 2 3\n",
        )
        mesh = load_mesh(path)
        assert mesh.n_cells == 1
        assert mesh.n_boundary_facets == 4
        assert mesh.cell_volumes[0] == pytest.approx(1.0 / 6.0)

    def test_duplicated_cell_is_topology_error(self, tmp_path):
        path = _write(
            tmp_path, "dim 2\nvertices 3\n0 0\n1 0\n0 1\ncells 2\n0 1 2\n0 2 1\n"
        )
        with pytest.raises(TopologyError):
            load_mesh(path)

    def test_malformed_file(self, tmp_path):
        with pytest.raises(MeshFormatError):
            load_mesh(_write(tmp_path, "dim 2\nvertices x\n"))
        with pytest.raises(MeshFormatError):
            load_mesh(_write(tmp_path, "vertices 3\n"))

    @pytest.mark.parametrize(
        "line, text, message",
        [
            (4, "0.5 abc", "could not convert string to float: 'abc'"),
            (1, "dim x", "invalid literal for int.* 'x'"),
            (2, "vertices 9.5", "invalid literal for int.* '9.5'"),
            (12, "cells 8 8", "expected 'cells' and a count, found 'cells 8 8'"),
            (2, "vertixes 9", "expected 'vertices' and a count, found 'vertixes 9'"),
            (4, "0.0 0.0 0.0", "wrong number of entries: expected 2, found 3"),
            (4, "0.0", "wrong number of entries: expected 2, found 1"),
            (14, "0 1 2 3", "wrong number of entries: expected 3, found 4"),
            (1, "dim 5", "dimension must be 2 or 3, got 5"),
            (2, "vertices -1", "index -1 is out of range"),
            (12, "cells -1", "index -1 is out of range"),
            (4, "0.5 inf", "vertex coordinates must be finite, found 'inf'"),
        ],
    )
    def test_a_malformed_token_names_its_line(self, tmp_path, line, text, message):
        path = tmp_path / "mesh.txt"
        save_mesh(generate_disk_mesh(0), path)
        lines = path.read_text().splitlines()
        lines[line - 1] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshFormatError, match=f"mesh.txt: line {line}: {message}"):
            load_mesh(path)

    def test_index_out_of_range(self, tmp_path):
        path = _write(tmp_path, "dim 2\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n0 1 5\n")
        with pytest.raises(TopologyError):
            load_mesh(path)

    @pytest.mark.parametrize("index", ["99999999999999999999999", "-99999999999999999999999"])
    def test_index_beyond_int64(self, tmp_path, index):
        path = _write(tmp_path, f"dim 2\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n0 {index} 2\n")
        message = f"malformed mesh file .*mesh.txt: line 7: index {index} is out of range"
        with pytest.raises(MeshFormatError, match=message):
            load_mesh(path)

    def test_partition_index_beyond_int64(self, tmp_path, disk2):
        path = tmp_path / "part.txt"
        path.write_text("0\n" * 5 + "99999999999999999999999\n" + "0\n" * (disk2.n_cells - 6))
        message = "malformed partition file .*part.txt: line 6: index 9+ is out of range"
        with pytest.raises(MeshFormatError, match=message):
            load_partition(disk2, path)

    def test_unused_vertex(self, tmp_path):
        path = _write(tmp_path, "dim 2\nvertices 5\n0 0\n1 0\n2 2\n0 1\n3 3\ncells 1\n0 1 3\n")
        with pytest.raises(TopologyError, match="vertex 2 belongs to no cell"):
            load_mesh(path)

    def test_nonmanifold_facet(self, tmp_path):
        path = _write(
            tmp_path,
            "dim 2\nvertices 5\n0 0\n1 0\n0 1\n-1 0\n0.5 -1\ncells 3\n0 1 2\n0 2 3\n0 2 4\n",
        )
        with pytest.raises(TopologyError):
            load_mesh(path)

    def test_save_load_roundtrip(self, tmp_path, disk2):
        path = tmp_path / "m.txt"
        save_mesh(disk2, path)
        again = load_mesh(path)
        assert np.array_equal(again.vertices, disk2.vertices)
        assert np.array_equal(again.cells, disk2.cells)
        assert np.array_equal(again.boundary_facets, disk2.boundary_facets)

    def test_orientation_fixed(self, tmp_path):
        path = _write(tmp_path, "dim 2\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n0 2 1\n")
        mesh = load_mesh(path)
        assert mesh.cell_volumes[0] > 0

    def test_non_finite_coordinate_rejected(self, tmp_path):
        path = _write(tmp_path, "dim 2\nvertices 3\n0 0\n1 nan\n0 1\ncells 1\n0 1 2\n")
        with pytest.raises(MeshFormatError, match="finite"):
            load_mesh(path)


class TestDiskMesh:
    def test_level0_is_hardcoded_fan(self):
        mesh = generate_disk_mesh(0)
        assert mesh.n_vertices == 9
        assert mesh.n_cells == 8
        assert np.allclose(mesh.vertices[0], [0.0, 0.0])
        radii = np.linalg.norm(mesh.vertices[1:], axis=1)
        assert np.allclose(radii, 1.0)

    def test_refinement_quadruples_cells(self):
        c0 = generate_disk_mesh(0).n_cells
        for level in (1, 2, 3):
            assert generate_disk_mesh(level).n_cells == c0 * 4**level

    def test_boundary_snapped_to_circle(self, disk3):
        bverts = np.unique(disk3.boundary_facets)
        radii = np.linalg.norm(disk3.vertices[bverts], axis=1)
        assert np.abs(radii - 1.0).max() < 1e-14

    def test_guard(self):
        with pytest.raises(ValueError):
            generate_disk_mesh(9)
        with pytest.raises(ValueError):
            generate_disk_mesh(-1)

    def test_deterministic(self):
        a = generate_disk_mesh(2)
        b = generate_disk_mesh(2)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.cells, b.cells)

    def test_cell_adjacency_matches_shared_facets(self, disk2):
        assert _adjacency_by_shared_vertices(disk2) == [n.tolist() for n in disk2.cell_adjacency]
        assert all(not n.flags.writeable for n in disk2.cell_adjacency)

    def test_boundary_facets_cover_boundary_once(self, disk2):
        # every boundary facet belongs to exactly one cell
        counts = {}
        for cell in disk2.cells:
            for k in range(3):
                key = tuple(sorted(np.delete(cell, k)))
                counts[key] = counts.get(key, 0) + 1
        boundary = {tuple(sorted(f)) for f in disk2.boundary_facets}
        assert boundary == {k for k, v in counts.items() if v == 1}


class TestElectrodes:
    def test_paper_radii_contacts_inside_electrodes(self, layout8):
        # radius 0.3 / 0.2 construction: e_m strictly inside E_m
        for m in range(layout8.n_electrodes):
            electrode = set(layout8.electrodes[m].tolist())
            contact = set(layout8.contact_regions[m].tolist())
            assert contact < electrode

    def test_disjoint(self, layout16):
        seen = set()
        for facets in layout16.electrodes:
            ids = set(facets.tolist())
            assert not ids & seen
            seen |= ids

    def test_empty_electrode_error(self, disk3):
        with pytest.raises(EmptyElectrodeError):
            define_electrodes(disk3, disk_electrode_midpoints(4), 0.01, 0.005)

    def test_overlap_error(self, disk3):
        mids = np.array([[1.0, 0.0], [np.cos(0.15), np.sin(0.15)]])
        with pytest.raises(ElectrodeOverlapError):
            define_electrodes(disk3, mids, 0.3, 0.2)

    def test_contact_radius_must_be_smaller(self, disk3):
        with pytest.raises(ValueError):
            define_electrodes(disk3, disk_electrode_midpoints(8), 0.2, 0.2)

    def test_local_map_touches_square(self, layout16):
        mesh = layout16.mesh
        for m in range(layout16.n_electrodes):
            verts = np.unique(mesh.boundary_facets[layout16.electrodes[m]])
            loc = layout16.local_maps[m].to_local(mesh.vertices[verts])
            assert np.abs(loc).max() == pytest.approx(1.0)
            assert np.abs(loc).max() <= 1.0 + 1e-12

    def test_layout_and_basis_arrays_are_read_only(self, layout16):
        arrays = list(_arrays(layout16)) + list(_arrays(fem.current_basis(8)))
        assert len(arrays) > 3 * 16
        assert [a.shape for a in arrays if a.flags.writeable] == []

    def test_derived_geometry_is_read_only(self, disk2, part20):
        arrays = [
            disk2.cell_volumes,
            disk2.cell_centroids,
            disk2.boundary_centroids,
            *disk2.cell_adjacency,
            *part20.cluster_cells,
            part20.cluster_volumes,
        ]
        assert [a.shape for a in arrays if a.flags.writeable] == []

    def test_contact_measures_are_cached_per_region_sums(self, layout16):
        measures = layout16.contact_measures
        assert measures is layout16.contact_measures
        assert not measures.flags.writeable
        expect = [
            float(layout16.efacet_measures[sl][layout16.contact_mask[sl]].sum())
            for sl in layout16.efacet_slices
        ]
        assert measures.tobytes() == np.array(expect).tobytes()
        assert np.all(measures > 0.0)

    def test_contact_geometry_is_cached_and_read_only(self, layout16):
        geometry = layout16.contact_geometry
        assert geometry is layout16.contact_geometry
        arrays = list(_arrays(geometry))
        assert len(arrays) == len(geometry)
        assert [a.shape for a in arrays if a.flags.writeable] == []
        # 2D: the two rim points of every electrode, as segments of length zero
        assert geometry.n_seg.tolist() == [2] * 16
        assert geometry.seg_start.tolist() == list(range(0, 32, 2))
        assert not geometry.ab.any() and not geometry.ab2.any()
        assert geometry.anchors.shape == (16, 2)
        # the facet groups of the bump kernel: each electrode once, with its own rows
        groups = layout16.facet_groups
        assert groups is layout16.facet_groups
        assert [a.shape for a in _arrays(groups) if a.flags.writeable] == []
        rows = {int(m): r.tolist() for ms, block in groups for m, r in zip(ms, block)}
        assert rows == {
            m: list(range(sl.start, sl.stop)) for m, sl in enumerate(layout16.efacet_slices)
        }

    def test_patch_that_closes_on_itself_is_rejected(self):
        # a 3 x 3 grid of unit squares without the middle one: electrode 0
        # takes the whole inner boundary loop, which has no rim
        index = {(i, j): 4 * i + j for i in range(4) for j in range(4)}
        vertices = np.array([[i, j] for i in range(4) for j in range(4)], dtype=float)
        cells = []
        for i in range(3):
            for j in range(3):
                if (i, j) != (1, 1):
                    a, b, c, d = index[i, j], index[i + 1, j], index[i + 1, j + 1], index[i, j + 1]
                    cells += [[a, b, c], [a, c, d]]
        mesh = build_mesh(2, vertices, np.array(cells))
        midpoints = np.array([[1.5, 1.5], [1.5, 0.0]])
        with pytest.raises(LayoutError, match="electrode 0 has no rim"):
            define_electrodes(mesh, midpoints, 0.8, 0.6)

    def test_quadrature_weights_sum_to_measures(self, layout16):
        assert np.allclose(
            layout16.equad_weights.sum(axis=1), layout16.efacet_measures
        )


class TestPartition:
    def test_each_cell_own_cluster(self, disk2):
        part = cluster_partition(disk2, disk2.n_cells, seed=0)
        assert sorted(part.cluster_of.tolist()) == list(range(disk2.n_cells))

    def test_single_cluster(self, disk2):
        part = cluster_partition(disk2, 1, seed=0)
        assert np.all(part.cluster_of == 0)
        vols = disk2.cell_volumes
        centroid = (disk2.cell_centroids * vols[:, None]).sum(axis=0) / vols.sum()
        assert np.allclose(part.centers[0], centroid)

    def test_balance_on_level3(self, disk3):
        part = cluster_partition(disk3, 50, seed=0)
        counts = np.bincount(part.cluster_of)
        assert counts.max() / counts.min() <= 3.0

    def test_connected_by_bfs(self, part80, disk3):
        adjacency = disk3.cell_adjacency
        for cells in part80.cluster_cells:
            member = np.zeros(disk3.n_cells, dtype=bool)
            member[cells] = True
            stack = [cells[0]]
            member[cells[0]] = False
            seen = 1
            while stack:
                c = stack.pop()
                for nb in adjacency[c]:
                    if member[nb]:
                        member[nb] = False
                        seen += 1
                        stack.append(int(nb))
            assert seen == len(cells)

    def test_centers_are_volume_weighted_centroids(self, part80, disk3):
        vols = disk3.cell_volumes
        cents = disk3.cell_centroids
        for i, cells in enumerate(part80.cluster_cells):
            w = vols[cells]
            expect = (cents[cells] * w[:, None]).sum(axis=0) / w.sum()
            assert np.allclose(part80.centers[i], expect)

    def test_deterministic(self, disk2):
        a = cluster_partition(disk2, 20, seed=3)
        b = cluster_partition(disk2, 20, seed=3)
        assert np.array_equal(a.cluster_of, b.cluster_of)
        assert np.array_equal(a.centers, b.centers)

    def test_cluster_count_bounds(self, disk2):
        with pytest.raises(ValueError):
            cluster_partition(disk2, disk2.n_cells + 1, seed=0)
        with pytest.raises(ValueError):
            cluster_partition(disk2, 0, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
    def test_seed_outside_philox_key_range_is_rejected(self, disk2, seed):
        with pytest.raises(ValueError, match="seed must be an integer in 0..2\\*\\*64-1"):
            cluster_partition(disk2, 4, seed)

    def test_largest_seed_is_accepted(self, disk2):
        assert cluster_partition(disk2, 4, 2**64 - 1).n_clusters == 4

    def test_cluster_state_moves_and_undo(self, disk2, part20):
        # The incremental rims and counts after a run of moves equal those
        # built from scratch, and undoing the moves restores the start.
        adjacency = disk2.cell_adjacency
        state = _ClusterState(part20.cluster_of, adjacency, 20)
        start = (list(state.counts), [{b: set(r) for b, r in rims.items()} for rims in state.rims])
        rng = np.random.default_rng(3)
        moves = []
        for _ in range(40):
            a = int(rng.integers(20))
            b = sorted(state.rims[a])[int(rng.integers(len(state.rims[a])))]
            c = min(state.rims[a][b])
            state.move(c, a, b)
            moves.append((c, a, b))
            fresh = _ClusterState(state.array, adjacency, 20)
            assert state.labels == state.array.tolist() == fresh.labels
            assert state.counts == fresh.counts
            assert state.rims == fresh.rims
            assert all(state.neighbours(i) == sorted(fresh.rims[i]) for i in range(20))
        for c, a, b in reversed(moves):
            state.move(c, b, a)
        assert np.array_equal(state.array, part20.cluster_of)
        assert (state.counts, state.rims) == start

    def test_removal_check_matches_component_count(self, disk3, part80):
        # A cell may leave its cluster exactly when the rest is one component.
        state = _ClusterState(part80.cluster_of, disk3.cell_adjacency, 80)
        for cells in part80.cluster_cells:
            for c in cells:
                rest = cells[cells != c]
                whole = len(_components(rest, disk3.cell_adjacency)) == 1
                assert state.stays_connected(int(c)) == whole

    def test_partition_file_roundtrip(self, tmp_path, part20, disk2):
        path = tmp_path / "part.txt"
        save_partition(part20, path)
        again = load_partition(disk2, path)
        assert np.array_equal(again.cluster_of, part20.cluster_of)
        assert np.allclose(again.centers, part20.centers)

    def test_loaded_partition_is_read_only(self, tmp_path, part20, disk2):
        path = tmp_path / "part.txt"
        save_partition(part20, path)
        again = load_partition(disk2, path)
        assert not again.cluster_of.flags.writeable
        assert not again.centers.flags.writeable

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda labels: labels[:-1], "partition length does not match the cell count"),
            (lambda labels: labels[:5] + ["-1"] + labels[6:], "line 6: index -1 is out of range"),
            (lambda labels: labels[:5] + ["0 0"] + labels[6:], "line 6: wrong number of entries"),
            (lambda labels: labels[:-1] + ["2"], "partition file skips a cluster index"),
        ],
        ids=["short", "negative", "two-labels", "skipped-index"],
    )
    def test_a_malformed_partition_file_is_named(self, tmp_path, edit, message):
        mesh = generate_disk_mesh(1)
        path = tmp_path / "part.txt"
        path.write_text("\n".join(edit(["0"] * mesh.n_cells)) + "\n")
        with pytest.raises(MeshFormatError, match=f"malformed partition file .*part.txt: {message}"):
            load_partition(mesh, path)

    def test_disconnected_cluster_in_file_is_rejected(self, tmp_path, disk2):
        assert 100 not in disk2.cell_adjacency[0]
        labels = np.zeros(disk2.n_cells, dtype=int)
        labels[[0, 100]] = 1
        path = tmp_path / "part.txt"
        path.write_text("\n".join(map(str, labels)) + "\n")
        with pytest.raises(MeshFormatError, match="cluster 1 "):
            load_partition(disk2, path)

    # sha256 of ``cluster_of`` as little-endian int64, pinned so that a rewrite
    # of the repair or balancing passes cannot silently move a single label.
    # (4, 200, 7) is the reconstruction side of the C3 measurement case.
    @pytest.mark.parametrize(
        "level, n_clusters, seed, digest",
        [
            (2, 20, 1, "2282a85a8d050c0ca9e1d6ddd22d72ae5a8a9ab99a450b3c86c26ce222e7f6c5"),
            (3, 80, 7, "6c07080e67865b175d4884461660420a2749058c2f5ffb06f60cc0c96d022140"),
            (2, 11, 5, "f78ee05d1be24d35b3a8ee8c4b53596348079515b14b7d8acab01085e2263400"),
            (3, 50, 0, "7d99343a5bce1b767e478d4c1a459aeff0ea38307717345213fe4e8ee0c60bbd"),
            (1, 10, 1, "9911d0f7abbb92b6dd852683580881c1f9706512f05583cb17e16ed635fe2b27"),
            (4, 200, 7, "0116cbe12f814aa536b55c47fbeeb89928afa1f3d53c4d978d30daea0bb5b78c"),
            # These three try many balancing chains that fail; no cell moves until one completes.
            (4, 100, 2, "3dc9f6eb25a6ddbc67c09f3b8ca3f95315bba749dd43a5b9df9c61a46bbb5163"),
            (3, 30, 3, "1081040b5fbcac7bf99f1bcd94a00380e9224d7b87452b59a6a4d8f4ba59f405"),
            (2, 40, 9, "b2ea03310d859a367ca95091dd9b4cd9747537893c02e3c90acd30b29ea2a975"),
        ],
    )
    def test_labels_are_pinned(self, level, n_clusters, seed, digest):
        part = cluster_partition(generate_disk_mesh(level), n_clusters, seed)
        labels = part.cluster_of.astype("<i8").tobytes()
        assert hashlib.sha256(labels).hexdigest() == digest

    def test_balancing_within_its_cap_warns_nothing(self, disk3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cluster_partition(disk3, 80, seed=7)

    # The labels left at a lowered cap, pinned as in ``test_labels_are_pinned``.
    # (3, 80, 7) runs 60-odd iterations before its first chain completes, so a
    # cap of 40 leaves the labels of the repair pass.
    @pytest.mark.parametrize(
        "level, n_clusters, seed, cap, digest",
        [
            (3, 80, 7, 40, "120b1d514189bc47dba6a4a400a66016bcb444ee6da8528af1422cc42e9fcf9d"),
            (3, 80, 7, 100, "b3d6f05c55209ada8ad0f4f88b64d4145396ad151845895137d3e3b99ce542be"),
            (3, 80, 7, 400, "9b89a94e734d40ea7d5680881590bd42f4cfbc978e7518c3d7503b237d55d58d"),
            (4, 100, 2, 3, "7e6a2b68a473c4c6b130815e7b76852bf9622d4d0b38c7fcd31abe2de802fa3a"),
            (4, 100, 2, 40, "a4102efe263a310ba37d1b77d669b74267c94c97f9b0c3d59677db6cf8c4468f"),
            (4, 100, 2, 400, "5dccf00875bad7a742f536738065a60e03a865abc02a733b542fe509271e7466"),
        ],
    )
    def test_balancing_cap_is_reported(self, monkeypatch, level, n_clusters, seed, cap, digest):
        monkeypatch.setattr("eitrev.mesh._BALANCE_MAX_MOVES", cap)
        with pytest.warns(RuntimeWarning, match=f"cap of {cap} iterations") as record:
            part = cluster_partition(generate_disk_mesh(level), n_clusters, seed)
        sizes = np.bincount(part.cluster_of)
        assert f"cluster sizes {sizes.min()}..{sizes.max()}" in str(record[0].message)
        assert hashlib.sha256(part.cluster_of.astype("<i8").tobytes()).hexdigest() == digest

    def test_full_scale_cap_is_reported(self):
        # An L4/200 partition with seed 1 does not balance within the cap.
        with pytest.warns(RuntimeWarning, match="cap of 20000 iterations with cluster sizes 9..18"):
            part = cluster_partition(generate_disk_mesh(4), 200, seed=1)
        labels = part.cluster_of.astype("<i8").tobytes()
        digest = "0831cba77aac4dcef3cb3097d5c4d5617aa228898b16f1331ed7d52b65def26c"
        assert hashlib.sha256(labels).hexdigest() == digest

    @settings(max_examples=200)
    @given(data=st.data())
    def test_balancing_equals_the_reference(self, data):
        mesh = _DISKS[data.draw(st.integers(1, 3), label="level")]
        n_clusters = data.draw(st.integers(1, min(mesh.n_cells, 120)), label="n_clusters")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        cap = data.draw(st.integers(1, 300) | st.just(eitrev.mesh._BALANCE_MAX_MOVES), label="cap")
        args = _balance_arguments(mesh, n_clusters, seed)
        results, messages = [], []
        with mock.patch("eitrev.mesh._BALANCE_MAX_MOVES", cap):
            for balance in (_balance_clusters, _reference_balance):
                with warnings.catch_warnings(record=True) as record:
                    warnings.simplefilter("always")
                    results.append(balance(*args))
                messages.append([str(w.message) for w in record])
        assert results[0].dtype == results[1].dtype
        assert results[0].tobytes() == results[1].tobytes()
        assert messages[0] == messages[1]


class TestNearestNeighborProject:
    def test_identity_on_same_partition(self, part20):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(part20.n_clusters)
        assert np.array_equal(nearest_neighbor_project(part20, values, part20), values)

    def test_preserves_constants(self, disk2, part20):
        other = cluster_partition(disk2, 11, seed=5)
        out = nearest_neighbor_project(part20, np.full(20, 3.25), other)
        assert np.all(out == 3.25)

    def test_brute_force_distances(self, disk2, disk3):
        source = cluster_partition(disk2, 2, seed=2)
        target = cluster_partition(disk3, 4, seed=2)
        values = np.array([10.0, -4.0])
        out = nearest_neighbor_project(source, values, target)
        for j in range(target.n_clusters):
            dists = [
                np.linalg.norm(target.centers[j] - source.centers[i]) for i in range(2)
            ]
            assert out[j] == values[int(np.argmin(dists))]
