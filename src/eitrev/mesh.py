"""Simplicial meshes, electrode boundary patches, and conductivity partitions.

The geometry layer provides:

* :class:`SimplicialMesh` -- triangle (2D) or tetrahedral (3D) meshes with a
  recomputed, outward-oriented boundary;
* :class:`ElectrodeLayout` -- per-electrode boundary patches, smaller contact
  regions, and affine local coordinate maps onto the square [-1, 1]^2;
* :class:`Partition` -- connected, roughly balanced cell clusters used as the
  support of piecewise-constant conductivity parameters.

Arrays built here are read-only, but two caches change: a layout's
``system_plan`` keeps the ordering of the last pattern it factored, and a
partition fills its memo of nearest clusters per source partition.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .quadrature import facet_measure, facet_rule
from .scatter import ScatterPlan, StackedPlan

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
    def cell_gradients(self) -> np.ndarray:
        """Constant gradients of the nodal hat functions per cell, (n_cells, d+1, d)."""
        d = self.dimension
        coords = self.vertices[self.cells]  # (nc, d+1, d)
        edges = coords[:, 1:, :] - coords[:, :1, :]  # (nc, d, d)
        inv = np.linalg.inv(edges)  # rows of inv.T are gradients of vertices 1..d
        grads = np.empty((self.n_cells, d + 1, d))
        grads[:, 1:, :] = np.swapaxes(inv, 1, 2)
        grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
        return _freeze(grads)

    @cached_property
    def cell_plan(self) -> ScatterPlan:
        """How per-cell (d+1) x (d+1) matrices sum into the nodal CSR matrix."""
        return ScatterPlan(self.cells, self.n_vertices)

    @cached_property
    def cell_adjacency(self) -> tuple[np.ndarray, ...]:
        """Face-adjacent neighbor cells for every cell, each in ascending order."""
        n_local = self.dimension + 1
        entries, starts, sizes = _facet_incidence(self.cells)
        first = starts[sizes == 2]
        a, b = entries[first] // n_local, entries[first + 1] // n_local
        cell, neighbor = np.concatenate([a, b]), np.concatenate([b, a])
        order = np.lexsort((neighbor, cell))
        split = np.cumsum(np.bincount(cell, minlength=self.n_cells))[:-1]
        return tuple(_freeze(n) for n in np.split(neighbor[order], split))


def _facet_incidence(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The facets of all cells, grouped by vertex set.

    Entry ``e`` is the facet of cell ``e // (d + 1)`` that omits its local
    vertex ``e % (d + 1)``. Returns the entries sorted by facet, the start
    of each group of equal facets and the group sizes; within a group the
    entries keep ascending order.
    """
    n_local = cells.shape[1]
    omit = np.array([[j for j in range(n_local) if j != k] for k in range(n_local)])
    keys = np.sort(cells[:, omit], axis=2).reshape(-1, n_local - 1)
    entries = np.lexsort(keys.T[::-1])
    keys = keys[entries]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    starts = np.flatnonzero(new)
    sizes = np.diff(np.append(starts, len(keys)))
    return entries, starts, sizes


def _signed_volumes(vertices: np.ndarray, cells: np.ndarray) -> np.ndarray:
    coords = vertices[cells]
    edges = coords[:, 1:, :] - coords[:, :1, :]
    det = np.linalg.det(edges)
    dim = vertices.shape[1]
    return det / (2.0 if dim == 2 else 6.0)


def build_mesh(dimension: int, vertices: np.ndarray, cells: np.ndarray) -> SimplicialMesh:
    """Assemble a validated mesh from raw vertex and cell arrays.

    A row of ``vertices`` holds ``dimension`` (2 or 3) finite coordinates, a
    row of ``cells`` ``dimension + 1`` indices. Cells with negative signed
    volume are reoriented; out-of-range indices, degenerate or duplicate
    cells, non-manifold facet incidences and vertices that no cell uses raise
    :class:`TopologyError`.
    """
    vertices = np.ascontiguousarray(vertices, dtype=float)
    cells = np.ascontiguousarray(cells, dtype=int)
    if cells.size and (cells.min() < 0 or cells.max() >= len(vertices)):
        raise TopologyError("cell vertex index out of range")
    unused = np.flatnonzero(np.bincount(cells.ravel(), minlength=len(vertices)) == 0)
    if unused.size:
        raise TopologyError(f"vertex {unused[0]} belongs to no cell")

    cells = cells.copy()
    vol = _signed_volumes(vertices, cells)
    flip = vol < 0
    cells[flip, -2], cells[flip, -1] = cells[flip, -1].copy(), cells[flip, -2].copy()
    vol = np.abs(vol)
    if np.any(vol <= 0):
        raise TopologyError("mesh contains a degenerate (zero volume) cell")

    if len(np.unique(np.sort(cells, axis=1), axis=0)) != len(cells):
        raise TopologyError("mesh contains duplicated cells")

    # Facet incidence: boundary facets belong to exactly one cell.
    entries, starts, sizes = _facet_incidence(cells)
    if np.any(sizes > 2):
        raise TopologyError("non-manifold facet shared by more than two cells")
    bcells, omitted = np.divmod(entries[starts[sizes == 1]], dimension + 1)
    if bcells.size == 0:
        raise TopologyError("mesh has no boundary")
    bfacets = [
        _orient_outward(vertices, cells[ci], np.delete(cells[ci], k))
        for ci, k in zip(bcells, omitted)
    ]
    order = np.lexsort(np.array(bfacets, dtype=int).T[::-1])
    boundary_facets = np.array(bfacets, dtype=int)[order]

    _freeze(vertices, cells, boundary_facets)
    return SimplicialMesh(dimension, vertices, cells, boundary_facets)


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


def _lines(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """The number and the whitespace-separated tokens of each non-blank line of a text file."""
    for number, text in enumerate(Path(path).read_text().splitlines(), 1):
        if tokens := text.split():
            yield number, tokens


def _row(number: int, tokens: list[str], width: int, convert) -> list:
    """``convert`` of each of the ``width`` tokens of line ``number``; errors name the line."""
    try:
        if len(tokens) != width:
            raise ValueError(f"wrong number of entries: expected {width}, found {len(tokens)}")
        return [convert(token) for token in tokens]
    except ValueError as exc:
        raise ValueError(f"line {number}: {exc}") from None


_INDEX_MAX = np.iinfo(np.intp).max


def _index(token: str) -> int:
    """The integer ``token``, checked to be an index or a count that fits an index array."""
    value = int(token)
    if not 0 <= value <= _INDEX_MAX:
        raise ValueError(f"index {token} is out of range")
    return value


def _dimension(token: str) -> int:
    """The mesh dimension ``token``: 2 or 3."""
    value = int(token)
    if value not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {value}")
    return value


def _coordinate(token: str) -> float:
    """The finite vertex coordinate ``token``."""
    value = float(token)
    if not -np.inf < value < np.inf:
        raise ValueError(f"vertex coordinates must be finite, found {token!r}")
    return value


def load_mesh(path: str | Path) -> SimplicialMesh:
    """Read a mesh file; the boundary is recomputed, never read.

    Blank lines are skipped. A keyword line holds the keyword and its count
    alone, a vertex line ``dim`` coordinates and a cell line ``dim + 1``
    indices. A malformed line is named by its number.

    Raises
    ------
    MeshFormatError
        If the file is malformed.
    TopologyError
        If the cell data is topologically invalid.
    """
    lines = _lines(path)

    def count(keyword: str, convert=_index) -> int:
        number, tokens = next(lines)
        if tokens[0] != keyword or len(tokens) != 2:
            found = " ".join(tokens)
            raise ValueError(f"line {number}: expected {keyword!r} and a count, found {found!r}")
        return _row(number, tokens[1:], 1, convert)[0]

    try:
        dimension = count("dim", _dimension)
        vertices = [_row(*next(lines), dimension, _coordinate) for _ in range(count("vertices"))]
        cells = [_row(*next(lines), dimension + 1, _index) for _ in range(count("cells"))]
        for number, tokens in lines:
            raise ValueError(f"line {number}: trailing data {tokens[0]!r}")
    except StopIteration:
        raise MeshFormatError(f"malformed mesh file {path}: unexpected end of file") from None
    except ValueError as exc:
        raise MeshFormatError(f"malformed mesh file {path}: {exc}") from exc
    vertices = np.array(vertices).reshape(-1, dimension)
    return build_mesh(dimension, vertices, np.array(cells, dtype=int).reshape(-1, dimension + 1))


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


class ContactGeometry(NamedTuple):
    """The rim of each electrode image and its clamp anchor, all electrodes flattened.

    Segment rows hold, electrode by electrode, the rim entities in local
    coordinates: 2D rim points as segments of length zero, 3D rim edges. A
    segment is stored as its start ``a``, its direction ``ab = b - a`` and
    ``ab . ab``. Every value is computed per rim entity or per electrode with
    the same operations a single-electrode check would use, so batched
    kernels over these arrays reproduce it bit for bit.
    """

    a: np.ndarray  # (n_seg, 2) segment starts
    ab: np.ndarray  # (n_seg, 2) segment directions
    ab2: np.ndarray  # (n_seg,) squared segment lengths
    seg_start: np.ndarray  # (M,) first segment row of each electrode
    n_seg: np.ndarray  # (M,) segment rows of each electrode
    anchors: np.ndarray  # (M, 2) weighted centroid of each electrode image


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

    @cached_property
    def facet_bary(self) -> np.ndarray:
        """Barycentric nodes of the facet quadrature rule, (n_q, d)."""
        return _freeze(facet_rule(self.mesh.dimension)[0])

    @cached_property
    def facet_plan(self) -> ScatterPlan:
        """How per-facet d x d matrices sum into the nodal CSR matrix."""
        return ScatterPlan(self.efacet_vertices, self.mesh.n_vertices)

    @cached_property
    def facet_stack(self) -> StackedPlan:
        """How per-facet d x d matrices sum into one nodal block per electrode."""
        return StackedPlan(self.facet_plan, self.efacet_electrode, self.n_electrodes)

    @cached_property
    def system_plan(self):
        """Where the terms of the system matrix land, a :class:`~eitrev.fem.SystemPlan`."""
        from .fem import SystemPlan  # fem builds on this module

        return SystemPlan(self)

    @cached_property
    def contact_geometry(self) -> ContactGeometry:
        """Read-only local rim images and clamp anchors, for contact admissibility."""
        a = np.concatenate([rim[:, 0] for rim in self.rim_local])
        ab = np.concatenate([rim[:, -1] for rim in self.rim_local]) - a
        n_seg = np.array([len(rim) for rim in self.rim_local])
        w, y = self.equad_weights, self.equad_local
        anchors = [
            (w[sl, :, None] * y[sl]).sum(axis=(0, 1)) / w[sl].sum() for sl in self.efacet_slices
        ]
        geometry = ContactGeometry(
            a=a,
            ab=ab,
            ab2=np.array([float(d @ d) for d in ab]),
            seg_start=np.cumsum(n_seg) - n_seg,
            n_seg=n_seg,
            anchors=np.array(anchors),
        )
        _freeze(*geometry)
        return geometry

    @cached_property
    def facet_groups(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Read-only electrodes of equal facet count, each group with its (G, n_f) facet rows."""
        counts = np.array([sl.stop - sl.start for sl in self.efacet_slices])
        groups = [np.flatnonzero(counts == n_f) for n_f in np.unique(counts)]
        rows = [np.array([np.r_[self.efacet_slices[m]] for m in ms]) for ms in groups]
        return tuple((_freeze(ms), _freeze(r)) for ms, r in zip(groups, rows))

    @cached_property
    def contact_measures(self) -> np.ndarray:
        """Surface measure of each contact region e_m, (M,)."""
        return _freeze(
            np.array(
                [self.efacet_measures[sl][self.contact_mask[sl]].sum() for sl in self.efacet_slices]
            )
        )


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
        if not rims:
            raise LayoutError(f"electrode {m} has no rim: its patch closes on itself")
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


def disk_electrode_midpoints(n_electrodes: int) -> np.ndarray:
    """Equispaced electrode midpoints on the unit circle."""
    angles = 2.0 * np.pi * np.arange(n_electrodes) / n_electrodes
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
    def cell_stack(self) -> StackedPlan:
        """How per-cell local matrices sum into one nodal block per cluster."""
        return StackedPlan(self.mesh.cell_plan, self.cluster_of, self.n_clusters)

    @cached_property
    def cluster_volumes(self) -> np.ndarray:
        vols = self.mesh.cell_volumes
        return _freeze(np.array([vols[c].sum() for c in self.cluster_cells]))

    def nearest_clusters(self, source: "Partition") -> np.ndarray:
        """For each cluster, the cluster of ``source`` whose center is closest.

        Ties break toward the lowest source index. The map is computed once
        per source and kept with a reference to that source, so the id it is
        filed under cannot pass to another partition while the entry lives.
        """
        entry = self._nearest.get(id(source))
        if entry is None:
            dist = np.linalg.norm(self.centers[:, None, :] - source.centers[None, :, :], axis=2)
            entry = self._nearest[id(source)] = (source, _freeze(np.argmin(dist, axis=1)))
        return entry[1]

    @cached_property
    def _nearest(self) -> dict[int, tuple["Partition", np.ndarray]]:
        return {}


def check_seed(seed: int, name: str = "seed") -> int:
    """``seed`` as an int; ``ValueError`` unless it is an integer in 0..2**64-1.

    Philox keys are unsigned 64-bit words, so this is every seed a generator
    of this package accepts.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ValueError(f"{name} must be an integer in 0..2**64-1, got {seed!r}")
    return int(seed)


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


class _ClusterState:
    """Cluster labels kept up to date under single-cell moves.

    Alongside the labels (a list, and an array mirror for the weighted
    centers) it holds the cell counts and the rims: ``rims[a][b]`` is the set
    of cells of cluster ``a`` with a face neighbour in cluster ``b``, kept
    only while non-empty, so the keys of ``rims[a]`` are the clusters next
    to ``a``.
    """

    def __init__(self, labels: np.ndarray, adjacency: tuple[np.ndarray, ...], k: int):
        self.array = labels.copy()
        self.labels = labels.tolist()
        self.adjacency = [a.tolist() for a in adjacency]
        self.counts = np.bincount(labels, minlength=k).tolist()
        self.rims: list[dict[int, set[int]]] = [{} for _ in range(k)]
        # Sorted neighbour lists, rebuilt when a cluster gains or loses a neighbour.
        self._neighbours: list[list[int] | None] = [None] * k
        for c, a in enumerate(self.labels):
            for nb in self.adjacency[c]:
                if self.labels[nb] != a:
                    self._enter(a, self.labels[nb], c)

    def _enter(self, a: int, b: int, c: int) -> None:
        rim = self.rims[a].get(b)
        if rim is None:
            rim = self.rims[a][b] = set()
            self._neighbours[a] = None
        rim.add(c)

    def _leave(self, a: int, b: int, c: int) -> None:
        rim = self.rims[a][b]
        rim.discard(c)
        if not rim:
            del self.rims[a][b]
            self._neighbours[a] = None

    def neighbours(self, a: int) -> list[int]:
        """The clusters face-adjacent to cluster ``a``, in ascending order."""
        nbs = self._neighbours[a]
        if nbs is None:
            nbs = self._neighbours[a] = sorted(self.rims[a])
        return nbs

    def move(self, c: int, source: int, target: int) -> None:
        label, adjacency = self.labels, self.adjacency
        for b in {label[nb] for nb in adjacency[c]} - {source}:
            self._leave(source, b, c)
        label[c] = self.array[c] = target
        self.counts[source] -= 1
        self.counts[target] += 1
        for nb in adjacency[c]:
            b = label[nb]
            if b != target:
                self._enter(target, b, c)
                self._enter(b, target, nb)
            if b != source and source not in map(label.__getitem__, adjacency[nb]):
                self._leave(b, source, nb)

    def donors(self, smallest: int, need: int) -> Iterator[tuple[int, dict[int, int]]]:
        """The clusters with ``need`` cells, in breadth-first order from ``smallest``.

        Neighbours are expanded in ascending index order. Each donor comes with
        the breadth-first parent of every cluster reached so far. Resume the
        search only while the state is the one it started from.
        """
        counts, neighbours = self.counts, self.neighbours
        parent = {smallest: -1}
        queue = [smallest]
        for node in queue:
            for nb in neighbours(node):
                if nb not in parent:
                    parent[nb] = node
                    if counts[nb] >= need:
                        yield nb, parent
                    queue.append(nb)

    def stays_connected(self, c: int) -> bool:
        """Whether the (connected) cluster of ``c`` stays non-empty and connected without it."""
        label, adjacency = self.labels, self.adjacency
        own = label[c]
        kin = [nb for nb in adjacency[c] if label[nb] == own]
        if len(kin) < 2:
            return bool(kin)
        missing = set(kin[1:])
        seen = {c, kin[0]}
        stack = [kin[0]]
        while stack:
            for nb in adjacency[stack.pop()]:
                if nb not in seen and label[nb] == own:
                    seen.add(nb)
                    missing.discard(nb)
                    if not missing:
                        return True
                    stack.append(nb)
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
    chain that commits strictly decreases the sum of squared counts, so the
    loop terminates; at ``_BALANCE_MAX_MOVES`` iterations (each tries a chain
    or finds a cluster stuck) it stops with a ``RuntimeWarning``. Every
    cluster must be connected on entry.

    A chain that fails changes no state, so until the next commit the
    smallest cluster changes only by becoming stuck (which lasts until a
    commit), its donor search resumes where a fresh one skipping the failed
    donor would go on, and the centers, rim distances and picked rim cells
    stay. Each cluster on a chain's path takes one cell from its child before
    it gives one to its parent; the child lies two breadth-first levels from
    the parent, so that cell does not border it. A chain is therefore tried
    with only that cell's label set, and ``move`` runs when it commits.
    """
    state = _ClusterState(labels, adjacency, n_clusters)
    counts, label, rims = state.counts, state.labels, state.rims
    stuck: set[int] = set()
    donors, centers = None, _weighted_centers(points, weights, labels, n_clusters)
    distance = cache(lambda c, receiver: np.linalg.norm(points[c] - centers[receiver]))

    @cache
    def rim_cell(node: int, receiver: int, incoming: int) -> int:
        # The cell ``node`` gives ``receiver`` after taking ``incoming`` (-1: none), or -1.
        if incoming >= 0:
            child, label[incoming] = label[incoming], node
        candidates = sorted(rims[node][receiver], key=lambda c: (distance(c, receiver), c))
        cell = next((c for c in candidates if state.stays_connected(c)), -1)
        if incoming >= 0:
            label[incoming] = child
        return cell

    for _ in range(_BALANCE_MAX_MOVES):
        if donors is None:
            # The smallest cluster not stuck (ties to the lower index), if it
            # is two cells short of the largest.
            sizes = np.array(counts)
            top = sizes.max()
            sizes[list(stuck)] = top
            smallest = int(np.argmin(sizes))
            if sizes[smallest] > top - 2:
                break
            donors = state.donors(smallest, counts[smallest] + 2)
        donor, parent = next(donors, (-1, None))
        if donor < 0:
            stuck.add(smallest)
            donors = None
            continue
        # Shift one cell along the path donor -> ... -> smallest.
        chain, node, c = [], donor, -1
        while node != smallest:
            c = rim_cell(node, parent[node], c)
            if c < 0:
                break
            chain.append((c, node, parent[node]))
            node = parent[node]
        else:
            for move in chain:
                state.move(*move)
            stuck.clear()
            donors, centers = None, _weighted_centers(points, weights, state.array, n_clusters)
            distance.cache_clear()
            rim_cell.cache_clear()
    else:
        warnings.warn(
            f"cluster balancing stopped at its cap of {_BALANCE_MAX_MOVES} iterations "
            f"with cluster sizes {min(counts)}..{max(counts)}",
            RuntimeWarning,
            stacklevel=3,
        )
    return state.array


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
    seed = check_seed(seed)
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
        # Summed one coordinate at a time, with no (n_cells, k, d) temporary.
        dist = np.sqrt(
            sum((points[:, i, None] - centers[:, i]) ** 2 for i in range(points.shape[1]))
        )
        new_labels = np.argmin(dist, axis=1)
        # Re-seed empty clusters from the farthest-off cell, one at a time.
        if not np.bincount(new_labels, minlength=n_clusters).all():
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
    return Partition(mesh=mesh, cluster_of=_freeze(labels, centers), centers=centers)


def nearest_neighbor_project(
    source: Partition, values: np.ndarray, target: Partition
) -> np.ndarray:
    """Transfer cluster values between partitions by nearest cluster center.

    Each target cluster receives the value of the source cluster whose center
    is closest; ties break toward the lowest source index. The target
    partition keeps that index map per source (see
    :meth:`Partition.nearest_clusters`).
    """
    values = np.asarray(values, dtype=float)
    if values.shape[0] != source.n_clusters:
        raise ValueError("value vector length must match the source cluster count")
    return values[target.nearest_clusters(source)]


def save_partition(partition: Partition, path: str | Path) -> None:
    """Write one cluster index per cell line."""
    Path(path).write_text("\n".join(str(int(i)) for i in partition.cluster_of) + "\n")


def load_partition(mesh: SimplicialMesh, path: str | Path) -> Partition:
    """Read a partition file written by :func:`save_partition`: one label per non-blank line."""
    try:
        labels = np.array([_row(*line, 1, _index)[0] for line in _lines(path)], dtype=int)
        if labels.shape[0] != mesh.n_cells:
            raise ValueError("partition length does not match the cell count")
        k = int(labels.max()) + 1
        if not np.all(np.bincount(labels)):
            raise ValueError("partition file skips a cluster index")
    except ValueError as exc:
        raise MeshFormatError(f"malformed partition file {path}: {exc}") from exc
    for i in range(k):
        if len(_components(np.flatnonzero(labels == i), mesh.cell_adjacency)) != 1:
            raise MeshFormatError(f"cluster {i} in partition file {path} is not connected")
    centers = _weighted_centers(mesh.cell_centroids, mesh.cell_volumes, labels, k)
    return Partition(mesh=mesh, cluster_of=_freeze(labels, centers), centers=centers)
