"""Simplicial meshes, electrode boundary patches, and conductivity partitions.

The geometry layer provides:

* :class:`SimplicialMesh` -- triangle (2D) or tetrahedral (3D) meshes with a
  recomputed, outward-oriented boundary;
* :class:`ElectrodeLayout` -- per-electrode boundary patches, smaller contact
  regions, and affine local coordinate maps onto the square [-1, 1]^2;
* :class:`Partition` -- connected, roughly balanced cell clusters used as the
  support of piecewise-constant conductivity parameters.

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from .quadrature import facet_measure, facet_rule

MAX_DISK_REFINEMENT = 8
_KMEANS_MAX_ITER = 100
_REPAIR_MAX_PASSES = 50
_BALANCE_MAX_MOVES = 20000


class MeshFormatError(ValueError):
    """Raised when a mesh or partition file cannot be parsed."""


class TopologyError(ValueError):
    """Raised for non-manifold boundaries, duplicate or inverted cells."""


class LayoutError(ValueError):
    """Base class for electrode layout construction failures."""


class ElectrodeOverlapError(LayoutError):
    """Two electrodes claim the same boundary facet."""


class EmptyElectrodeError(LayoutError):
    """An electrode radius captured no boundary facet."""


class PartitionError(RuntimeError):
    """Cluster connectivity could not be repaired within the pass budget."""


# ---------------------------------------------------------------------------
# Simplicial mesh
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimplicialMesh:
    """Immutable simplicial mesh in dimension 2 or 3.

    Cells are consistently oriented to positive signed volume and the
    boundary facets are recomputed from cell adjacency with outward
    orientation; they are never trusted from input files.
    """

    dimension: int
    vertices: np.ndarray  # (n_vertices, dim)
    cells: np.ndarray  # (n_cells, dim + 1)
    boundary_facets: np.ndarray  # (n_bfacets, dim), outward oriented
    boundary_cells: np.ndarray  # (n_bfacets,) index of the owning cell

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def n_boundary_facets(self) -> int:
        return self.boundary_facets.shape[0]

    @cached_property
    def cell_volumes(self) -> np.ndarray:
        return _freeze(_signed_volumes(self.vertices, self.cells))

    @cached_property
    def cell_centroids(self) -> np.ndarray:
        return _freeze(self.vertices[self.cells].mean(axis=1))

    @cached_property
    def boundary_centroids(self) -> np.ndarray:
        return _freeze(self.vertices[self.boundary_facets].mean(axis=1))

    @cached_property
    def boundary_measures(self) -> np.ndarray:
        coords = self.vertices[self.boundary_facets]
        return _freeze(np.array([facet_measure(c) for c in coords]))

    @cached_property
    def cell_adjacency(self) -> tuple[np.ndarray, ...]:
        """Face-adjacent neighbor cells for every cell."""
        facets: dict[tuple[int, ...], list[int]] = {}
        d = self.dimension
        for ci, cell in enumerate(self.cells):
            for k in range(d + 1):
                key = tuple(sorted(np.delete(cell, k)))
                facets.setdefault(key, []).append(ci)
        neighbors: list[list[int]] = [[] for _ in range(self.n_cells)]
        for owners in facets.values():
            if len(owners) == 2:
                a, b = owners
                neighbors[a].append(b)
                neighbors[b].append(a)
        return tuple(_freeze(np.array(sorted(n), dtype=int)) for n in neighbors)


def _signed_volumes(vertices: np.ndarray, cells: np.ndarray) -> np.ndarray:
    coords = vertices[cells]
    edges = coords[:, 1:, :] - coords[:, :1, :]
    det = np.linalg.det(edges)
    dim = vertices.shape[1]
    return det / (2.0 if dim == 2 else 6.0)


def build_mesh(dimension: int, vertices: np.ndarray, cells: np.ndarray) -> SimplicialMesh:
    """Assemble a validated mesh from raw vertex and cell arrays.

    Cells with negative signed volume are reoriented; degenerate or duplicate
    cells and non-manifold facet incidences raise :class:`TopologyError`.
    """
    if dimension not in (2, 3):
        raise MeshFormatError(f"dimension must be 2 or 3, got {dimension}")
    vertices = np.ascontiguousarray(vertices, dtype=float)
    cells = np.ascontiguousarray(cells, dtype=int)
    if vertices.ndim != 2 or vertices.shape[1] != dimension:
        raise MeshFormatError("vertex array shape does not match dimension")
    if not np.all(np.isfinite(vertices)):
        raise MeshFormatError("vertex coordinates must be finite")
    if cells.ndim != 2 or cells.shape[1] != dimension + 1:
        raise MeshFormatError("cell array shape does not match dimension")
    if cells.size and (cells.min() < 0 or cells.max() >= len(vertices)):
        raise TopologyError("cell vertex index out of range")

    cells = cells.copy()
    vol = _signed_volumes(vertices, cells)
    flip = vol < 0
    cells[flip, -2], cells[flip, -1] = cells[flip, -1].copy(), cells[flip, -2].copy()
    vol = np.abs(vol)
    if np.any(vol <= 0):
        raise TopologyError("mesh contains a degenerate (zero volume) cell")

    sorted_cells = {tuple(sorted(c)) for c in cells}
    if len(sorted_cells) != len(cells):
        raise TopologyError("mesh contains duplicated cells")

    # Facet incidence: boundary facets belong to exactly one cell.
    incidence: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for ci, cell in enumerate(cells):
        for k in range(dimension + 1):
            key = tuple(sorted(np.delete(cell, k)))
            incidence.setdefault(key, []).append((ci, k))
    bfacets = []
    bcells = []
    for owners in incidence.values():
        if len(owners) > 2:
            raise TopologyError("non-manifold facet shared by more than two cells")
        if len(owners) == 1:
            ci, k = owners[0]
            facet = np.delete(cells[ci], k)
            bfacets.append(_orient_outward(vertices, cells[ci], facet))
            bcells.append(ci)
    if not bfacets:
        raise TopologyError("mesh has no boundary")
    order = np.lexsort(np.array(bfacets, dtype=int).T[::-1])
    boundary_facets = np.array(bfacets, dtype=int)[order]
    boundary_cells = np.array(bcells, dtype=int)[order]

    _freeze(vertices, cells, boundary_facets, boundary_cells)
    return SimplicialMesh(dimension, vertices, cells, boundary_facets, boundary_cells)


def _freeze(*arrays: np.ndarray) -> np.ndarray:
    """Make the arrays read-only; return the first, so a cached property can freeze its value."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays[0]


def _orient_outward(vertices: np.ndarray, cell: np.ndarray, facet: np.ndarray) -> np.ndarray:
    coords = vertices[facet]
    cell_centroid = vertices[cell].mean(axis=0)
    facet_centroid = coords.mean(axis=0)
    if len(facet) == 2:
        t = coords[1] - coords[0]
        normal = np.array([t[1], -t[0]])
    else:
        normal = np.cross(coords[1] - coords[0], coords[2] - coords[0])
    if np.dot(normal, facet_centroid - cell_centroid) < 0:
        facet = facet.copy()
        facet[-2], facet[-1] = facet[-1], facet[-2]
    return facet


# ---------------------------------------------------------------------------
# Mesh file format (minimal ASCII, see README)
# ---------------------------------------------------------------------------


def save_mesh(mesh: SimplicialMesh, path: str | Path) -> None:
    """Write a mesh in the plain ASCII format (`dim`, `vertices`, `cells`)."""
    lines = [f"dim {mesh.dimension}", f"vertices {mesh.n_vertices}"]
    lines += [" ".join(repr(float(x)) for x in v) for v in mesh.vertices]
    lines.append(f"cells {mesh.n_cells}")
    lines += [" ".join(str(int(i)) for i in c) for c in mesh.cells]
    Path(path).write_text("\n".join(lines) + "\n")


def load_mesh(path: str | Path) -> SimplicialMesh:
    """Read a mesh file; the boundary is recomputed, never read.

    Raises
    ------
    MeshFormatError
        If the file is malformed.
    TopologyError
        If the cell data is topologically invalid.
    """
    tokens = Path(path).read_text().split()
    pos = 0

    def take(expect: str | None = None) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise MeshFormatError(f"unexpected end of file in {path}")
        tok = tokens[pos]
        pos += 1
        if expect is not None and tok != expect:
            raise MeshFormatError(f"expected {expect!r}, found {tok!r}")
        return tok

    take("dim")
    try:
        dimension = int(take())
        take("vertices")
        n_vertices = int(take())
        vertices = np.array(
            [[float(take()) for _ in range(dimension)] for _ in range(n_vertices)]
        )
        take("cells")
        n_cells = int(take())
        cells = np.array(
            [[int(take()) for _ in range(dimension + 1)] for _ in range(n_cells)],
            dtype=int,
        ).reshape(n_cells, dimension + 1)
    except ValueError as exc:
        raise MeshFormatError(f"malformed mesh file {path}: {exc}") from exc
    if pos != len(tokens):
        raise MeshFormatError(f"trailing data in mesh file {path}")
    return build_mesh(dimension, vertices, cells)


# ---------------------------------------------------------------------------
# Unit disk meshes
# ---------------------------------------------------------------------------


def _coarse_disk() -> tuple[np.ndarray, np.ndarray]:
    """Hard-coded eight-sector fan of the unit disk."""
    angles = np.arange(8) * (np.pi / 4.0)
    ring = np.column_stack([np.cos(angles), np.sin(angles)])
    vertices = np.vstack([[0.0, 0.0], ring])
    cells = np.array([[0, 1 + k, 1 + (k + 1) % 8] for k in range(8)], dtype=int)
    return vertices, cells


def generate_disk_mesh(refinement_level: int) -> SimplicialMesh:
    """Uniformly refined mesh of the unit disk.

    Each level splits every triangle into four; midpoints of boundary edges
    are snapped back onto the unit circle, so cell counts grow exactly by a
    factor of four per level. The construction is deterministic.
    """
    if refinement_level < 0:
        raise ValueError("refinement_level must be nonnegative")
    if refinement_level > MAX_DISK_REFINEMENT:
        raise ValueError(
            f"refinement_level {refinement_level} exceeds guard {MAX_DISK_REFINEMENT}"
        )
    vertices, cells = _coarse_disk()
    mesh = build_mesh(2, vertices, cells)
    for _ in range(refinement_level):
        mesh = _refine_once(mesh)
    return mesh


def _refine_once(mesh: SimplicialMesh) -> SimplicialMesh:
    boundary = {tuple(sorted(f)) for f in mesh.boundary_facets}
    vertices = [v for v in mesh.vertices]
    midpoint: dict[tuple[int, int], int] = {}

    def mid(a: int, b: int) -> int:
        key = (a, b) if a < b else (b, a)
        idx = midpoint.get(key)
        if idx is None:
            p = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
            if key in boundary:
                p = p / np.linalg.norm(p)
            idx = len(vertices)
            vertices.append(p)
            midpoint[key] = idx
        return idx

    new_cells = []
    for a, b, c in mesh.cells:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        new_cells += [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
    return build_mesh(2, np.array(vertices), np.array(new_cells, dtype=int))


# ---------------------------------------------------------------------------
# Electrode layout
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalMap:
    """Affine chart of one electrode patch into the square [-1, 1]^2.

    A plane is fitted to the electrode vertices by least squares, the in-plane
    axes are the principal directions of the projected vertex cloud (signs
    fixed toward the global coordinate axes), and an isotropic scale makes the
    projection just fit inside the square.
    """

    origin: np.ndarray  # (dim,)
    axes: np.ndarray  # (2, dim) orthonormal rows
    scale: float

    def to_local(self, points: np.ndarray) -> np.ndarray:
        return (np.asarray(points) - self.origin) @ self.axes.T * self.scale


@dataclass(frozen=True)
class ElectrodeLayout:
    """Electrode patches, contact regions, local charts, and their quadrature.

    ``electrodes[m]`` and ``contact_regions[m]`` index into the mesh boundary
    facets; contact regions are strict subsets built with a smaller radius.
    The quadrature block caches, for every electrode facet, the physical
    quadrature nodes, their images in the local chart, and physical weights,
    so that all surface integrals share one fixed rule.
    """

    mesh: SimplicialMesh
    electrodes: tuple[np.ndarray, ...]
    contact_regions: tuple[np.ndarray, ...]
    local_maps: tuple[LocalMap, ...]

    # Quadrature over electrode facets, electrode-major ordering.
    efacets: np.ndarray  # (n_ef,) boundary facet indices
    efacet_electrode: np.ndarray  # (n_ef,) owning electrode
    efacet_slices: tuple[slice, ...]  # per-electrode range into efacets
    efacet_vertices: np.ndarray  # (n_ef, dim) vertex ids
    equad_local: np.ndarray  # (n_ef, n_q, 2)
    equad_weights: np.ndarray  # (n_ef, n_q) physical weights
    efacet_measures: np.ndarray  # (n_ef,)
    contact_mask: np.ndarray  # (n_ef,) facet belongs to its contact region
    rim_local: tuple[np.ndarray, ...]  # per-electrode rim vertices in local coords

    @property
    def n_electrodes(self) -> int:
        return len(self.electrodes)

    def contact_measure(self, m: int) -> float:
        """Surface measure of the contact region e_m."""
        sl = self.efacet_slices[m]
        return float(self.efacet_measures[sl][self.contact_mask[sl]].sum())

    def unmap(self, m: int, y: np.ndarray) -> np.ndarray:
        """Invert the local chart on electrode ``m`` for a point of its image.

        The facet whose local image contains ``y`` is located and the point is
        mapped back barycentrically, so round-tripping a facet point returns
        the physical point up to floating tolerance.
        """
        sl = self.efacet_slices[m]
        verts = self.efacet_vertices[sl]
        best = None
        best_res = np.inf
        for fv in verts:
            loc = self.local_maps[m].to_local(self.mesh.vertices[fv])
            bary, res = _barycentric_fit(loc, np.asarray(y, dtype=float))
            if res < best_res:
                best_res = res
                best = self.mesh.vertices[fv].T @ bary
        if best is None or best_res > 1e-8:
            raise ValueError(f"point {y} is not on the image of electrode {m}")
        return best


def _barycentric_fit(local_coords: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Barycentric coordinates of y w.r.t. a simplex given in local 2D coords."""
    k = local_coords.shape[0]
    A = np.vstack([local_coords.T, np.ones(k)])
    b = np.append(y, 1.0)
    bary, *_ = np.linalg.lstsq(A, b, rcond=None)
    res = float(np.linalg.norm(A @ bary - b))
    if np.any(bary < -1e-9) or np.any(bary > 1 + 1e-9):
        res = np.inf
    return bary, res


def _principal_axes(centered: np.ndarray, dim: int) -> np.ndarray:
    """Deterministic principal directions of a centered vertex cloud."""
    _, _, vt = np.linalg.svd(centered, full_matrices=True)
    a1 = vt[0]
    if dim == 2:
        a2 = np.array([-a1[1], a1[0]])
    else:
        a2 = vt[1]
    axes = []
    for a in (a1, a2):
        if a[0] < 0 or (a[0] == 0 and a[1] < 0):
            a = -a
        axes.append(a)
    return np.array(axes)


def _rim_entities(facets: np.ndarray) -> list[tuple[int, ...]]:
    """Sub-facets (vertices in 2D, edges in 3D) on the rim of a patch."""
    counts: dict[tuple[int, ...], int] = {}
    for f in facets:
        if len(f) == 2:
            subs = [(f[0],), (f[1],)]
        else:
            subs = [tuple(sorted((f[i], f[(i + 1) % 3]))) for i in range(3)]
        for s in subs:
            counts[s] = counts.get(s, 0) + 1
    return [s for s, c in counts.items() if c == 1]


def define_electrodes(
    mesh: SimplicialMesh,
    midpoints: np.ndarray,
    electrode_radius: float,
    contact_radius: float,
) -> ElectrodeLayout:
    """Construct electrode patches around given boundary midpoints.

    A boundary facet belongs to electrode ``m`` when its centroid lies within
    ``electrode_radius`` of the midpoint ``x_m``; the contact region uses the
    same construction with the smaller ``contact_radius``.

    Raises
    ------
    ElectrodeOverlapError
        If two electrodes claim the same boundary facet.
    EmptyElectrodeError
        If some electrode captures no facet.
    """
    midpoints = np.atleast_2d(np.asarray(midpoints, dtype=float))
    if len(midpoints) < 2:
        raise LayoutError("at least two electrodes are required")
    if not contact_radius < electrode_radius:
        raise LayoutError("contact_radius must be smaller than electrode_radius")

    centroids = mesh.boundary_centroids
    dist = np.linalg.norm(centroids[None, :, :] - midpoints[:, None, :], axis=2)
    owner = np.full(len(centroids), -1, dtype=int)
    electrodes: list[np.ndarray] = []
    contacts: list[np.ndarray] = []
    for m in range(len(midpoints)):
        inside = np.where(dist[m] < electrode_radius)[0]
        if inside.size == 0:
            raise EmptyElectrodeError(f"electrode {m} captured no boundary facet")
        clash = inside[owner[inside] >= 0]
        if clash.size:
            raise ElectrodeOverlapError(
                f"electrodes {owner[clash[0]]} and {m} share boundary facet {clash[0]}"
            )
        owner[inside] = m
        electrodes.append(inside)
        contacts.append(inside[dist[m, inside] < contact_radius])

    local_maps = []
    for m, facet_ids in enumerate(electrodes):
        vert_ids = np.unique(mesh.boundary_facets[facet_ids])
        cloud = mesh.vertices[vert_ids]
        origin = cloud.mean(axis=0)
        axes = _principal_axes(cloud - origin, mesh.dimension)
        proj = (cloud - origin) @ axes.T
        extent = np.abs(proj).max()
        if extent <= 0:
            raise LayoutError(f"electrode {m} is degenerate")
        _freeze(origin, axes)
        local_maps.append(LocalMap(origin, axes, 1.0 / extent))

    # Electrode-major quadrature cache.
    bary, ref_w = facet_rule(mesh.dimension)
    ef, ef_el, slices, contact_mask = [], [], [], []
    start = 0
    for m, facet_ids in enumerate(electrodes):
        ef.extend(facet_ids.tolist())
        ef_el.extend([m] * len(facet_ids))
        contact_mask.extend(np.isin(facet_ids, contacts[m]).tolist())
        slices.append(slice(start, start + len(facet_ids)))
        start += len(facet_ids)
    efacets = np.array(ef, dtype=int)
    efacet_electrode = np.array(ef_el, dtype=int)
    efacet_vertices = mesh.boundary_facets[efacets]
    coords = mesh.vertices[efacet_vertices]  # (n_ef, dim_facet, dim)
    equad_points = np.einsum("qk,fkd->fqd", bary, coords)
    measures = np.array([facet_measure(c) for c in coords])
    equad_weights = measures[:, None] * ref_w[None, :]
    equad_local = np.empty(equad_points.shape[:2] + (2,))
    for m in range(len(midpoints)):
        sl = slices[m]
        pts = equad_points[sl].reshape(-1, mesh.dimension)
        equad_local[sl] = local_maps[m].to_local(pts).reshape(sl.stop - sl.start, -1, 2)

    rim_local = []
    for m, facet_ids in enumerate(electrodes):
        rims = _rim_entities(mesh.boundary_facets[facet_ids])
        rim_local.append(
            np.array([local_maps[m].to_local(mesh.vertices[list(r)]) for r in rims])
        )

    contact_mask = np.array(contact_mask, dtype=bool)
    _freeze(*electrodes, *contacts, *rim_local, efacets, efacet_electrode, efacet_vertices)
    _freeze(equad_local, equad_weights, measures, contact_mask)
    return ElectrodeLayout(
        mesh=mesh,
        electrodes=tuple(electrodes),
        contact_regions=tuple(contacts),
        local_maps=tuple(local_maps),
        efacets=efacets,
        efacet_electrode=efacet_electrode,
        efacet_slices=tuple(slices),
        efacet_vertices=efacet_vertices,
        equad_local=equad_local,
        equad_weights=equad_weights,
        efacet_measures=measures,
        contact_mask=contact_mask,
        rim_local=tuple(rim_local),
    )


def disk_electrode_midpoints(n_electrodes: int, phase: float = 0.0) -> np.ndarray:
    """Equispaced electrode midpoints on the unit circle."""
    angles = phase + 2.0 * np.pi * np.arange(n_electrodes) / n_electrodes
    return np.column_stack([np.cos(angles), np.sin(angles)])


# ---------------------------------------------------------------------------
# Conductivity partition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Assignment of cells to connected clusters with volume-weighted centers."""

    mesh: SimplicialMesh
    cluster_of: np.ndarray  # (n_cells,) values in 0..n_clusters-1
    centers: np.ndarray  # (n_clusters, dim)

    @property
    def n_clusters(self) -> int:
        return self.centers.shape[0]

    @cached_property
    def cluster_cells(self) -> tuple[np.ndarray, ...]:
        return tuple(_freeze(np.flatnonzero(self.cluster_of == i)) for i in range(self.n_clusters))

    @cached_property
    def cluster_volumes(self) -> np.ndarray:
        vols = self.mesh.cell_volumes
        return _freeze(np.array([vols[c].sum() for c in self.cluster_cells]))


def _weighted_centers(
    points: np.ndarray, weights: np.ndarray, labels: np.ndarray, k: int
) -> np.ndarray:
    acc = [np.bincount(labels, weights=p * weights, minlength=k) for p in points.T]
    return np.column_stack(acc) / np.bincount(labels, weights=weights, minlength=k)[:, None]


def _components(cells: np.ndarray, adjacency: tuple[np.ndarray, ...]) -> list[list[int]]:
    """Connected components of a cell subset under face adjacency.

    Each component is a sorted cell list; the largest comes first and ties
    go to the component with the smallest cell.
    """
    remaining = set(cells.tolist())
    comps = []
    while remaining:
        seed = min(remaining)
        stack = [seed]
        remaining.discard(seed)
        comp = [seed]
        while stack:
            for nb in adjacency[stack.pop()].tolist():
                if nb in remaining:
                    remaining.discard(nb)
                    comp.append(nb)
                    stack.append(nb)
        comps.append(sorted(comp))
    return sorted(comps, key=lambda c: (-len(c), c[0]))


def _move_cell(
    labels: np.ndarray,
    adjacency: tuple[np.ndarray, ...],
    points: np.ndarray,
    centers: np.ndarray,
    donor: int,
    receiver: int,
) -> bool:
    """Move the best rim cell of ``donor`` into adjacent ``receiver``."""
    donor_cells = np.flatnonzero(labels == donor)
    candidates = [c for c in donor_cells if (labels[adjacency[c]] == receiver).any()]
    candidates.sort(key=lambda c: (np.linalg.norm(points[c] - centers[receiver]), c))
    for c in candidates:
        if len(_components(donor_cells[donor_cells != c], adjacency)) == 1:
            labels[c] = receiver
            return True
    return False


def _balance_clusters(
    labels: np.ndarray,
    points: np.ndarray,
    weights: np.ndarray,
    adjacency: tuple[np.ndarray, ...],
    n_clusters: int,
) -> np.ndarray:
    """Even out cluster cell counts while preserving connectivity.

    Repeatedly shifts one cell along the shortest cluster-adjacency path from
    the nearest over-full cluster toward the currently smallest cluster. Each
    successful chain strictly decreases the sum of squared counts, so the
    loop terminates.
    """
    labels = labels.copy()
    edges = np.array(
        [(c, int(nb)) for c in range(len(labels)) for nb in adjacency[c] if nb > c],
        dtype=int,
    ).reshape(-1, 2)
    stuck: set[int] = set()
    blocked: set[tuple[int, int]] = set()
    for _ in range(_BALANCE_MAX_MOVES):
        counts = np.bincount(labels, minlength=n_clusters).tolist()
        top = max(counts)
        smallest = min(
            (c for c in range(n_clusters) if counts[c] <= top - 2 and c not in stuck),
            key=lambda c: (counts[c], c),
            default=-1,
        )
        if smallest < 0:
            break
        la, lb = labels[edges[:, 0]], labels[edges[:, 1]]
        cross = la != lb
        graph = np.zeros((n_clusters, n_clusters), dtype=bool)
        graph[la[cross], lb[cross]] = True
        graph[lb[cross], la[cross]] = True
        # The nearest unblocked donor with two more cells, in breadth-first order;
        # a CSR matrix built from a dense array lists neighbours by index.
        order, parent = breadth_first_order(
            csr_matrix(graph), smallest, return_predecessors=True
        )
        need = counts[smallest] + 2
        donor = next(
            (h for h in order[1:].tolist() if counts[h] >= need and (smallest, h) not in blocked),
            -1,
        )
        if donor < 0:
            stuck.add(smallest)
            continue
        # Shift one cell along the path donor -> ... -> smallest, atomically.
        centers = _weighted_centers(points, weights, labels, n_clusters)
        trial = labels.copy()
        node = donor
        while node != smallest:
            if not _move_cell(trial, adjacency, points, centers, node, parent[node]):
                blocked.add((smallest, donor))
                break
            node = parent[node]
        else:
            labels = trial
            stuck.clear()
            blocked.clear()
    return labels


def cluster_partition(mesh: SimplicialMesh, n_clusters: int, seed: int) -> Partition:
    """Partition cells into connected clusters of roughly equal size.

    Lloyd iterations on the cell centroids (k-means++ seeding from ``seed``)
    are followed by a connectivity repair pass (every disconnected fragment is
    reassigned to the face-adjacent cluster with the nearest center) and a
    count-balancing pass over rim cells. Identical inputs give identical
    partitions.
    """
    if n_clusters < 1 or n_clusters > mesh.n_cells:
        raise ValueError("n_clusters must be between 1 and the cell count")
    points = mesh.cell_centroids
    weights = mesh.cell_volumes
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))

    # k-means++ seeding on cell centroids.
    centers = np.empty((n_clusters, points.shape[1]))
    first = int(rng.integers(mesh.n_cells))
    centers[0] = points[first]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for i in range(1, n_clusters):
        total = d2.sum()
        if total <= 0:
            centers[i] = points[int(rng.integers(mesh.n_cells))]
        else:
            centers[i] = points[int(rng.choice(mesh.n_cells, p=d2 / total))]
        d2 = np.minimum(d2, np.sum((points - centers[i]) ** 2, axis=1))

    labels = np.zeros(mesh.n_cells, dtype=int)
    for _ in range(_KMEANS_MAX_ITER):
        dist = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
        new_labels = np.argmin(dist, axis=1)
        # Re-seed empty clusters from the farthest-off cell.
        for i in range(n_clusters):
            if not np.any(new_labels == i):
                far = int(np.argmax(dist[np.arange(len(points)), new_labels]))
                new_labels[far] = i
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
        centers = _weighted_centers(points, weights, labels, n_clusters)

    adjacency = mesh.cell_adjacency
    for _ in range(_REPAIR_MAX_PASSES):
        centers = _weighted_centers(points, weights, labels, n_clusters)
        moved = False
        for i in range(n_clusters):
            for frag in _components(np.flatnonzero(labels == i), adjacency)[1:]:
                neighbor_clusters = sorted(
                    {
                        int(labels[nb])
                        for c in frag
                        for nb in adjacency[c]
                        if labels[nb] != i
                    }
                )
                if not neighbor_clusters:
                    continue
                frag_w = weights[frag]
                frag_center = (points[frag] * frag_w[:, None]).sum(axis=0) / frag_w.sum()
                dists = [np.linalg.norm(centers[j] - frag_center) for j in neighbor_clusters]
                target = neighbor_clusters[int(np.argmin(dists))]
                labels[frag] = target
                moved = True
        if not moved:
            break
    else:
        raise PartitionError("connectivity repair did not converge")

    labels = _balance_clusters(labels, points, weights, adjacency, n_clusters)

    for i in range(n_clusters):
        cells = np.flatnonzero(labels == i)
        if cells.size == 0:
            raise PartitionError(f"cluster {i} is empty after repair")
        if len(_components(cells, adjacency)) != 1:
            raise PartitionError(f"cluster {i} is disconnected after repair")

    centers = _weighted_centers(points, weights, labels, n_clusters)
    return _frozen_partition(mesh, labels, centers)


def _frozen_partition(mesh: SimplicialMesh, labels: np.ndarray, centers: np.ndarray) -> Partition:
    _freeze(labels, centers)
    return Partition(mesh=mesh, cluster_of=labels, centers=centers)


def nearest_neighbor_project(
    source: Partition, values: np.ndarray, target: Partition
) -> np.ndarray:
    """Transfer cluster values between partitions by nearest cluster center.

    Each target cluster receives the value of the source cluster whose center
    is closest; ties break toward the lowest source index.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[0] != source.n_clusters:
        raise ValueError("value vector length must match the source cluster count")
    dist = np.linalg.norm(
        target.centers[:, None, :] - source.centers[None, :, :], axis=2
    )
    return values[np.argmin(dist, axis=1)]


def save_partition(partition: Partition, path: str | Path) -> None:
    """Write one cluster index per cell line."""
    Path(path).write_text("\n".join(str(int(i)) for i in partition.cluster_of) + "\n")


def load_partition(mesh: SimplicialMesh, path: str | Path) -> Partition:
    """Read a partition file written by :func:`save_partition`."""
    try:
        labels = np.array([int(t) for t in Path(path).read_text().split()], dtype=int)
    except ValueError as exc:
        raise MeshFormatError(f"malformed partition file {path}: {exc}") from exc
    if labels.shape[0] != mesh.n_cells:
        raise MeshFormatError("partition length does not match the cell count")
    if labels.min() < 0:
        raise MeshFormatError("negative cluster index")
    k = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=k)
    if np.any(counts == 0):
        raise MeshFormatError("partition file skips a cluster index")
    for i in range(k):
        if len(_components(np.flatnonzero(labels == i), mesh.cell_adjacency)) != 1:
            raise MeshFormatError(f"cluster {i} in partition file {path} is not connected")
    centers = _weighted_centers(mesh.cell_centroids, mesh.cell_volumes, labels, k)
    return _frozen_partition(mesh, labels, centers)
