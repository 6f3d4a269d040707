"""Domain construction and triangulation.

Two families of domains are meshed here:

* the macroscopic channel pair: an upper channel joined to a lower channel
  (collateral branch or closed sac) through a thin layer containing a row of
  m = 1/eps scaled obstacle disks,
* the truncated periodic strip used for the microscopic boundary-layer
  problems, holding a single obstacle.

Meshes are assembled from horizontal bands on shared x-grids: uniform bands
of right triangles, 2:1 transition bands that coarsen the grid isotropically,
and Delaunay-stitched blocks around obstacle disks (polar point rings glued
to the surrounding lattice).  All constructions are deterministic: identical
inputs produce identical meshes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .errors import MeshQualityFailure, NonIntegerReciprocal, PeriodicMismatch

GEOM_TOL = 1e-12


def cross2(a, b):
    """z-component of the cross product of stacked 2D vectors."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


class BoundaryTag(Enum):
    """Labels attached to boundary edges and interior interface edges."""

    GAMMA_IN = "GAMMA_IN"          # inflow {0} x ]0,1[
    GAMMA_OUT1 = "GAMMA_OUT1"      # upper outflow {1} x ]0,1[
    GAMMA_OUT2 = "GAMMA_OUT2"      # lower outflow ]0,1[ x {-1}
    GAMMA1 = "GAMMA1"              # top wall ]0,1[ x {1}
    GAMMA2 = "GAMMA2"              # lower lateral walls (and closed bottom)
    GAMMA_EPS = "GAMMA_EPS"        # obstacle circles
    GAMMA0 = "GAMMA0"              # fictitious interface ]0,1[ x {0}
    STRIP_LEFT = "STRIP_LEFT"
    STRIP_RIGHT = "STRIP_RIGHT"
    STRIP_TOP = "STRIP_TOP"
    STRIP_BOTTOM = "STRIP_BOTTOM"
    SIGMA = "SIGMA"                # strip interface ]0,1[ x {0}


@dataclass(frozen=True)
class ObstacleSpec:
    """A single solid obstacle in the unit periodicity cell.

    A disk: ``center`` is expressed in unit-cell coordinates, ``radius`` is
    dimensionless.  The disk lies in the open unit cell ]0,1[^2, as the
    paper's holes lie in ]0,eps[^2; this check is the one every command
    and mesher reads.
    """

    center: tuple[float, float] = (0.5, 0.25)
    radius: float = 3.0 / 16.0

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"obstacle.r must be positive, got {self.radius!r}; "
                             "use 'cell --no-obstacle' for the unobstructed strip")
        if not self.cell_margin() > GEOM_TOL:
            raise ValueError(f"obstacle.cx, obstacle.cy, obstacle.r = {self.center[0]!r}, "
                             f"{self.center[1]!r}, {self.radius!r}: the disk must lie "
                             "inside the open unit cell ]0,1[^2")

    def cell_margin(self) -> float:
        """Distance from the disk to the boundary of the unit cell ]0,1[^2."""
        cx, cy = self.center
        return min(cx, cy, 1.0 - cx, 1.0 - cy) - self.radius


@dataclass(frozen=True)
class RefineSpec:
    """Grading parameters for :func:`triangulate`.

    ``obstacle_factor`` scales the target element size inside and within one
    eps of the obstacle layer; ``min_circle_segments`` bounds the polygonal
    resolution of each obstacle circle from below; meshes whose minimum angle
    falls under ``min_angle_deg`` are rejected.
    """

    obstacle_factor: float = 0.5
    min_circle_segments: int = 16
    min_angle_deg: float = 20.0

    def __post_init__(self):
        if not self.obstacle_factor > 0:
            raise ValueError("mesh.obstacle_factor must be positive, "
                             f"got {self.obstacle_factor!r}")
        # the ring rounds up to a multiple of 4 points: below 6 segments a
        # lattice sized to the polygon's chord can meet a ring of 8 points
        # with chords of 5/8 of its spacing, and thin triangles
        if self.min_circle_segments < 6:
            raise ValueError("mesh.min_circle_segments must be >= 6, "
                             f"got {self.min_circle_segments!r}")
        if not 0 <= self.min_angle_deg < 60:
            raise ValueError("mesh.min_angle must lie in [0, 60), "
                             f"got {self.min_angle_deg!r}")


def _period_count(eps) -> int:
    """The integer m = 1/eps of an obstacle-row period eps in (0, 1].

    Raises :class:`NonIntegerReciprocal` for any other eps.
    """
    if not (math.isfinite(eps) and 0.0 < eps <= 1.0):
        raise NonIntegerReciprocal(f"eps = {eps} must lie in (0, 1]")
    m = 1.0 / eps
    if abs(m - round(m)) > 1e-12 * max(1.0, m):
        raise NonIntegerReciprocal(f"1/eps = {m} is not an integer")
    return int(round(m))


@dataclass(frozen=True)
class MacroGeometry:
    """The channel pair with an eps-periodic row of obstacles in the layer.

    The upper channel is ]0,1[ x ]eps,1[, the layer ]0,1[ x ]0,eps[ carries
    m = 1/eps scaled obstacle copies, the lower channel is ]0,1[ x ]-1,0[.
    ``case`` is ``"collateral"`` (open bottom) or ``"aneurysm"`` (closed).
    """

    eps: float
    case: str
    obstacle: ObstacleSpec
    m: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "m", _period_count(self.eps))
        _lower_bottom(self.case)            # checks the case

    def hole_centers(self) -> np.ndarray:
        """Centers of the m scaled obstacle copies, shape (m, 2)."""
        cx, cy = self.obstacle.center
        i = np.arange(self.m)
        return np.column_stack([self.eps * (i + cx), np.full(self.m, self.eps * cy)])

    def hole_radius(self) -> float:
        return self.eps * self.obstacle.radius


@dataclass
class Mesh:
    """Conforming triangulation with tagged boundary and interface edges.

    ``triangles`` are counter-clockwise.  Boundary edges keep the orientation
    of the triangle they came from (domain to the left).  ``interface_edges``
    lists interior edges lying on the fictitious interface x2 = 0 of either
    domain family.  ``holes`` records (cx, cy, r) for every obstacle disk
    removed from the domain.  ``edge_table`` holds the unique edges (E, 2)
    in lexicographic order, their integer keys (as :func:`_mesh_edges` gives
    them) and the edge opposite each vertex of every triangle (M, 3), the
    FE space's numbering of the local edges; a mesh built without it sorts
    its edges once, on construction.  The band and section integration
    rules of :mod:`.fem` are kept on the mesh once built, outside its
    fields, so that equality, ``repr`` and the mesh file do not see them.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_tags: np.ndarray
    interface_edges: np.ndarray
    interface_tags: np.ndarray
    holes: np.ndarray
    meta: dict = field(default_factory=dict)
    edge_table: tuple = field(default=None, repr=False)

    def __post_init__(self):
        if self.edge_table is None:
            edges, keys, tri_edges, _, _ = _mesh_edges(self.vertices,
                                                       self.triangles.astype(np.int64))
            self.edge_table = (edges, keys, tri_edges[:, [1, 2, 0]])

    @functools.cached_property
    def _integration_rules(self) -> dict:
        """Integration rules built on this mesh, by band or heights."""
        return {}

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def signed_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        return 0.5 * cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])

    def min_angle_deg(self) -> float:
        return _min_angle(self.vertices, self.triangles)

    def edges_with_tag(self, tag: BoundaryTag) -> np.ndarray:
        """All edges (boundary or interface) carrying ``tag``, shape (k, 2)."""
        parts = []
        if len(self.boundary_edges):
            parts.append(self.boundary_edges[self.boundary_tags == tag])
        if len(self.interface_edges):
            parts.append(self.interface_edges[self.interface_tags == tag])
        parts = [p for p in parts if len(p)]
        if not parts:
            return np.empty((0, 2), dtype=np.int32)
        return np.concatenate(parts, axis=0)


def _min_angle(verts, tris) -> float:
    p = verts[tris]
    worst = 180.0
    for k in range(3):
        a = p[:, (k + 1) % 3] - p[:, k]
        b = p[:, (k + 2) % 3] - p[:, k]
        cosang = np.einsum("ij,ij->i", a, b) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        )
        worst = min(worst, float(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))).min()))
    return worst


# ----------------------------------------------------------------------------
# band-stack builder
# ----------------------------------------------------------------------------


class _Builder:
    """Accumulates vertices/triangles while stacking horizontal bands."""

    def __init__(self):
        self.verts: list[np.ndarray] = []
        self.tris: list[np.ndarray] = []             # blocks of (k, 3) ids
        self.circle_edges: list[np.ndarray] = []     # blocks of (k, 2) ids
        self.n = 0

    def add_points(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        ids = np.arange(self.n, self.n + len(pts), dtype=np.int64)
        self.verts.append(pts)
        self.n += len(pts)
        return ids

    def add_row(self, x: np.ndarray, y: float) -> np.ndarray:
        return self.add_points(np.column_stack([x, np.full(len(x), float(y))]))

    def quad_rows(self, bottom: np.ndarray, top: np.ndarray):
        """Triangulate the strip between two rows sharing one x-grid.

        Diagonals point toward the middle of the row, so the band is mirror
        symmetric; symmetric domains then get parity-exact meshes.
        """
        n = len(bottom) - 1
        a, b, c, d = bottom[:-1], bottom[1:], top[:-1], top[1:]
        left = np.stack([a, b, d, a, d, c], axis=1)
        right = np.stack([a, b, c, b, d, c], axis=1)
        tris = np.where((2 * np.arange(n) < n)[:, None], left, right)
        self.tris.append(tris.reshape(-1, 3))

    def transition_rows(self, fine, coarse, fine_on_bottom):
        """2:1 band between a fine row (2k+1 points) and a coarse row (k+1).

        The three-triangle pattern is mirrored on the right half, keeping the
        band symmetric.
        """
        k = len(coarse) - 1
        assert len(fine) == 2 * k + 1
        f0, f1, f2 = fine[0:-1:2], fine[1::2], fine[2::2]
        c0, c1 = coarse[:-1], coarse[1:]
        left = np.stack([f0, f1, c0, f1, c1, c0, f1, f2, c1], axis=1)
        right = np.stack([f1, f0, c0, f1, c0, c1, f2, f1, c1], axis=1)
        tris = np.where((2 * np.arange(k) < k)[:, None], left, right).reshape(-1, 3)
        if not fine_on_bottom:
            tris = tris[:, [0, 2, 1]]
        self.tris.append(tris)

    def finish(self):
        verts = np.concatenate(self.verts, axis=0)
        tris = np.concatenate(self.tris).astype(np.int64)
        p = verts[tris]
        area2 = cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        flip = area2 < 0
        tris[flip] = tris[flip][:, [0, 2, 1]]
        return verts, tris


def _halvings(x: np.ndarray, h_max: float) -> list[np.ndarray]:
    """Successively halved x-grids, stopping at spacing h_max or odd cells."""
    grids = [np.asarray(x)]
    while True:
        cur = grids[-1]
        ncell = len(cur) - 1
        if ncell % 2 or ncell <= 2:
            break
        if (cur[2] - cur[0]) > h_max * (1 + 1e-9):
            break
        grids.append(cur[::2])
    return grids


def _uniform_fill(b, row, x, y, y_end, dy_target, upward=True):
    """Stack uniform rows from y to exactly y_end; returns (row, y_end)."""
    sgn = 1.0 if upward else -1.0
    remaining = sgn * (y_end - y)
    if remaining <= GEOM_TOL:
        return row, y
    nrows = max(1, int(round(remaining / dy_target)))
    for yy in np.linspace(y, y_end, nrows + 1)[1:]:
        new = b.add_row(x, yy)
        if upward:
            b.quad_rows(row, new)
        else:
            b.quad_rows(new, row)
        row = new
    return row, y_end


def _coarsen_away(b, row, x, y, y_end, h_max, upward):
    """Coarsen by 2:1 steps then run uniformly to y_end (frontier is fine)."""
    grids = _halvings(x, h_max)
    sgn = 1.0 if upward else -1.0
    cur_x = x
    level = 0
    while level + 1 < len(grids):
        coarse = grids[level + 1]
        dy = 0.5 * (coarse[1] - coarse[0])
        y_next = y + sgn * dy
        if sgn * (y_end - y_next) < dy:
            break
        new = b.add_row(coarse, y_next)
        b.transition_rows(row, new, fine_on_bottom=upward)
        row, cur_x, y = new, coarse, y_next
        level += 1
    row, y = _uniform_fill(b, row, cur_x, y, y_end, cur_x[1] - cur_x[0], upward)
    return row, cur_x, y


def _graded_channels(b, x0, x1, y, ends, h, spec: RefineSpec):
    """Fill ``b`` with channels on ]x0, x1[ graded away from the row at y
    toward each height of ``ends``: an even number of columns at spacing
    s <= h * obstacle_factor, four rows at s next to y, then coarsening."""
    nx = int(math.ceil((x1 - x0) / (h * spec.obstacle_factor)))
    nx += nx % 2
    x = np.linspace(x0, x1, nx + 1)
    s = (x1 - x0) / nx
    row = b.add_row(x, y)
    for y_end in ends:
        _graded_fill(b, row, x, y, y_end, 4 * s, s, h)


def _graded_fill(b, row, x, y, y_end, fine, h_fine, h_far):
    """Fill from the row at y to the far wall y_end, graded away from y.

    Spacing is capped at h_fine within ``fine`` of y (clamped at y_end), at
    h_far beyond; each part coarsens by 2:1 steps.  An h_fine equal to the
    row's own spacing keeps the fine part uniform.
    """
    upward = y_end > y
    y_fine = min(y_end, y + fine) if upward else max(y_end, y - fine)
    row, x, y = _coarsen_away(b, row, x, y, y_fine, h_fine, upward)
    _coarsen_away(b, row, x, y, y_end, h_far, upward)


# ----------------------------------------------------------------------------
# obstacle block: lattice + polar rings, Delaunay-stitched
# ----------------------------------------------------------------------------


def _circle_points(center, radius, n_c):
    th = -0.5 * np.pi + 2.0 * np.pi * np.arange(n_c) / n_c
    return np.column_stack(
        [center[0] + radius * np.cos(th), center[1] + radius * np.sin(th)]
    )


def _disk_block(b, x, y_rows, disk, n_c, known):
    """Mesh one rectangular block containing a disk hole.

    ``known`` (len(y_rows), len(x)) holds the global vertex ids of lattice
    points created by neighbouring bands/blocks (shared rows and columns),
    -1 elsewhere.  Lattice points too close to the disk are dropped and
    replaced by a polar ring on the circle; the block is then triangulated
    by Delaunay.  Lattice lines and ring chords carry empty-circumcircle
    clearances, so they are kept as mesh edges.  Returns the global ids of
    all lattice points in the same layout, -1 at dropped points.
    """
    cx, cy, r = disk
    s = x[1] - x[0]
    clear = r + 0.75 * s
    X, Y = np.meshgrid(x, y_rows)
    inner = np.zeros(X.shape, dtype=bool)
    inner[1:-1, 1:-1] = True
    kept = ~(inner & (np.hypot(X - cx, Y - cy) < clear))
    n_lat = int(kept.sum())
    local_pts = np.concatenate([np.column_stack([X[kept], Y[kept]]),
                                _circle_points((cx, cy), r, n_c)])
    local_gid = np.concatenate([known[kept], np.full(n_c, -1, dtype=np.int64)])

    new_mask = local_gid < 0
    local_gid[new_mask] = b.add_points(local_pts[new_mask])

    simplices = _triangulate_block(local_pts, (cx, cy, r), x)
    cent = local_pts[simplices].mean(axis=1)
    keep = np.hypot(cent[:, 0] - cx, cent[:, 1] - cy) > r
    b.tris.append(local_gid[simplices[keep]])

    ring_ids = local_gid[n_lat:]
    b.circle_edges.append(np.stack([ring_ids, np.roll(ring_ids, -1)], axis=1))

    lattice = np.full(X.shape, -1, dtype=np.int64)
    lattice[kept] = local_gid[:n_lat]
    return lattice


def _triangulate_block(pts, disk, x):
    """Delaunay triangulation of a disk block, mirror-symmetric when possible.

    If the point set is symmetric about the disk's vertical axis, the left
    half is triangulated and reflected, so symmetric problems see parity-
    exact meshes; otherwise a plain Delaunay is used.
    """
    cx = disk[0]
    tol = 1e-9
    symmetric = abs((x[0] + x[-1]) * 0.5 - cx) < tol
    if symmetric:
        # mirror partner of every point: the point within tol of its reflection
        dist, mirror = cKDTree(pts).query(
            np.column_stack([2 * cx - pts[:, 0], pts[:, 1]]), p=np.inf)
        symmetric = bool(np.all(dist < tol))
    if not symmetric:
        return Delaunay(pts).simplices
    left = np.nonzero(pts[:, 0] <= cx + tol)[0]
    tri_left = left[Delaunay(pts[left]).simplices]
    on_axis = np.abs(pts[:, 0] - cx) < tol
    keep = ~np.all(on_axis[tri_left], axis=1)
    tri_left = tri_left[keep]
    tri_right = mirror[tri_left]
    return np.concatenate([tri_left, tri_right], axis=0)


def _block_band(b, x, y_rows, disks, n_c, bottom_row):
    """A full-width band of obstacle blocks, one disk per block.

    ``disks`` lists ((cx, cy, r), i0, i1) with i0/i1 the first/last lattice
    column of each block.  Shared columns between neighbouring blocks and
    the shared bottom row are stitched through the lattice ids.  Returns the
    top frontier row ids.
    """
    top = np.empty(len(x), dtype=np.int64)
    prev_right = None
    for disk, i0, i1 in disks:
        known = np.full((len(y_rows), i1 - i0 + 1), -1, dtype=np.int64)
        known[0] = bottom_row[i0 : i1 + 1]
        if prev_right is not None:
            known[:, 0] = prev_right
        lat = _disk_block(b, x[i0 : i1 + 1], y_rows, disk, n_c, known)
        prev_right = lat[:, -1]
        top[i0 : i1 + 1] = lat[-1]
    return top


# ----------------------------------------------------------------------------
# edge extraction and tagging
# ----------------------------------------------------------------------------


def _mesh_edges(verts, tris):
    """One edge pass over a triangulation.

    The local edges 01, 12, 20 of every triangle get the integer key
    a * n + b (a < b, n vertices), and one sort of the keys yields
    the unique edges (E, 2) in lexicographic order, their keys, the edge of
    each local edge (M, 3), the boundary edges (those of one triangle)
    oriented as in their triangle, and the interior edges on the line x2 = 0.
    """
    n = len(verts)
    e = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    keys, inv = np.unique(e.min(axis=1).astype(np.int64) * n + e.max(axis=1),
                          return_inverse=True)
    edges = np.stack([keys // n, keys % n], axis=1).astype(tris.dtype, copy=False)
    tri_edges = inv.reshape(3, -1).T
    return (edges, keys, tri_edges, *_edge_sets(verts, tris, edges, tri_edges))


def _edge_sets(verts, tris, edges, tri_edges):
    """The boundary edges (those of one triangle), oriented as in their
    triangle, and the interior edges on the line x2 = 0, from the unique
    edges and the edge of each local edge 01, 12, 20 (``tri_edges``)."""
    e = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    inv = tri_edges.T.ravel()
    counts = np.bincount(inv, minlength=len(edges))
    on = np.abs(verts[:, 1]) < 1e-12
    line = edges[(counts == 2) & on[edges[:, 0]] & on[edges[:, 1]]]
    return e[counts[inv] == 1], line


def _check_quality(verts, tris, min_angle_deg, context):
    p = verts[tris]
    area2 = cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    if np.any(area2 <= 0):
        raise MeshQualityFailure(f"{context}: non-positive triangle area")
    worst = _min_angle(verts, tris)
    if worst < min_angle_deg:
        raise MeshQualityFailure(
            f"{context}: min angle {worst:.2f} deg below threshold {min_angle_deg}"
        )


def _finish(b, spec, context, sides, interface_tag, holes, meta) -> Mesh:
    """The mesh of a filled builder: quality-checked, every edge tagged.

    ``sides`` lists the outer sides as (axis, value, tag above x2 = 0, tag
    below); a boundary edge takes the tags of the side its midpoint lies on.
    The boundary edges on no side must be exactly the builder's circle edges;
    they are tagged GAMMA_EPS.  Interior edges on x2 = 0 get ``interface_tag``.
    """
    verts, tris = b.finish()
    _check_quality(verts, tris, spec.min_angle_deg, context)
    edges, keys, tri_edges, bed, ife = _mesh_edges(verts, tris)
    mids = 0.5 * (verts[bed[:, 0]] + verts[bed[:, 1]])
    tags = np.full(len(bed), BoundaryTag.GAMMA_EPS, dtype=object)
    on_side = np.zeros(len(bed), dtype=bool)
    for axis, value, above, below in sides:
        on = np.abs(mids[:, axis] - value) < 1e-12
        tags[on] = np.where(mids[on, 1] > 0.0, above, below)
        on_side |= on
    circles = {frozenset(e) for block in b.circle_edges for e in block.tolist()}
    if {frozenset(e) for e in bed[~on_side].tolist()} != circles:
        raise MeshQualityFailure(
            f"{context}: boundary edges off the outer sides are not the obstacle circles")
    return Mesh(
        vertices=verts,
        triangles=tris.astype(np.int32),
        boundary_edges=bed.astype(np.int32),
        boundary_tags=tags,
        interface_edges=ife.astype(np.int32),
        interface_tags=np.full(len(ife), interface_tag, dtype=object),
        holes=holes,
        meta=meta,
        edge_table=(edges, keys, tri_edges[:, [1, 2, 0]]),
    )


# ----------------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------------


def build_macro_geometry(eps, case, obstacle=None) -> MacroGeometry:
    """Validated macroscopic geometry for the channel pair.

    ``eps`` must be the reciprocal of an integer m >= 1; the obstacle must sit
    strictly inside the open unit cell.  The collateral case exposes the
    bottom side as an outflow, the aneurysm case closes it as a wall.
    """
    return MacroGeometry(eps=float(eps), case=case, obstacle=obstacle or ObstacleSpec())


def _n_circle(radius, spacing, min_segments):
    n = max(int(min_segments), int(round(2.0 * np.pi * radius / spacing)))
    return n + (-n) % 4  # multiple of 4 keeps the sampling mirror-symmetric


def _check_size(h, name="h"):
    if not h > 0:
        raise ValueError(f"{name} must be positive, got {h!r}")


def _check_half_length(L, obstacle, name="L"):
    """The strip half-length rule: L >= 2, and with a disk, its top 2 below
    the far wall (cy + r < L - 2)."""
    if obstacle is None:
        if not L >= 2:
            raise ValueError(f"{name} must be >= 2, got {L!r}")
    elif not obstacle.center[1] + obstacle.radius < L - 2:
        raise ValueError(f"{name} must be > 2 + obstacle.cy + obstacle.r = "
                         f"{2 + obstacle.center[1] + obstacle.radius!r}, got {L!r}")


# The most lattice divisions per cell that a disk's geometry alone may need;
# the tests' nearest disk to a side (cx = 0.05, r = 0.04) needs 130, and one
# at 160 gives a 209k-triangle macro mesh at eps = 1/4 (notes/decisions.md).
MAX_DISK_DIVISIONS = 160


def _check_disk_divisions(obstacle, spec):
    """The disk cost rule: the lattice divisions per cell that the disk's
    geometry needs are at most MAX_DISK_DIVISIONS.  Those are the macro
    layer's (:func:`_disk_divisions`) and more than 2 per clearance to the
    strip's periodic sides with the disk at x1 = 1/2; the strip's 1.3 per
    clearance to its interface line and its ring floor never need more."""
    r = obstacle.radius
    need = max(_disk_divisions(obstacle, spec), 2.0 / (0.5 - r))
    if need > MAX_DISK_DIVISIONS:
        raise ValueError(f"obstacle.cx, obstacle.cy, obstacle.r = {obstacle.center[0]!r}, "
                         f"{obstacle.center[1]!r}, {r!r}: the disk needs {need:.0f} lattice "
                         f"divisions per cell at mesh.min_circle_segments = "
                         f"{spec.min_circle_segments}, more than {MAX_DISK_DIVISIONS}")


def _lower_bottom(case):
    """Tag of the lower channel's bottom side: the lower outflow in the
    collateral case, a wall in the aneurysm case; a ValueError for any
    other case."""
    if case not in ("collateral", "aneurysm"):
        raise ValueError(f"case must be collateral or aneurysm, got {case!r}")
    return BoundaryTag.GAMMA_OUT2 if case == "collateral" else BoundaryTag.GAMMA2


def _channel_pair_sides(case):
    """Outer sides of the channel pair, as :func:`_finish` takes them.

    The left and right sides split at x2 = 0 into inflow/outflow above and
    wall below, the top is a wall, and the bottom is :func:`_lower_bottom`.
    """
    T = BoundaryTag
    bottom = _lower_bottom(case)
    return [(0, 0.0, T.GAMMA_IN, T.GAMMA2), (0, 1.0, T.GAMMA_OUT1, T.GAMMA2),
            (1, 1.0, T.GAMMA1, T.GAMMA1), (1, -1.0, bottom, bottom)]


def triangulate(geometry: MacroGeometry, h_target,
                refine_spec: RefineSpec | None = None) -> Mesh:
    """Triangulate the macroscopic channel pair.

    The obstacle layer is meshed at lattice spacing eps/n_cell <= h_target *
    obstacle_factor, stays fine within one eps of the layer, and coarsens
    away from it; x2 = 0 and x2 = eps are mesh lines.
    """
    _check_size(h_target, "h_target")
    if not isinstance(geometry, MacroGeometry):
        raise TypeError(f"cannot triangulate {type(geometry).__name__}")
    geo, h, spec = geometry, h_target, refine_spec or RefineSpec()
    _check_disk_divisions(geo.obstacle, spec)
    eps, m = geo.eps, geo.m
    n_cell = _cell_divisions(geo.obstacle, eps, h, spec)
    n_c = _n_circle(geo.obstacle.radius, 1.0 / n_cell, spec.min_circle_segments)
    x = np.linspace(0.0, 1.0, m * n_cell + 1)

    b = _Builder()
    gamma0_row = b.add_row(x, 0.0)

    # obstacle layer [0, eps]
    y_rows = np.linspace(0.0, eps, n_cell + 1)
    centers = geo.hole_centers()
    r_hole = geo.hole_radius()
    disks = [((centers[i, 0], centers[i, 1], r_hole), i * n_cell, (i + 1) * n_cell)
             for i in range(m)]
    top_row = _block_band(b, x, y_rows, disks, n_c, gamma0_row)

    # each channel is graded away from the layer: spacing capped at
    # h*factor within one eps of it (the upper channel from x2 = eps, the
    # lower one downward from x2 = 0), at h beyond
    for row, y0, y_end in ((top_row, eps, 1.0), (gamma0_row, 0.0, -1.0)):
        _graded_fill(b, row, x, y0, y_end, eps, h * spec.obstacle_factor, h)

    return _finish(b, spec, f"macro mesh eps=1/{m}", _channel_pair_sides(geo.case),
                   BoundaryTag.GAMMA0, np.column_stack([centers, np.full(m, r_hole)]),
                   {"kind": "macro", "eps": eps, "case": geo.case,
                    "n_cell": n_cell, "h": h})


def rectangle_mesh(x0, x1, y0, y1, h, tags=None, grade_to_y=None,
                   refine_spec: RefineSpec | None = None) -> Mesh:
    """Tagged rectangle mesh, optionally graded toward one horizontal side.

    ``tags`` is (left, right, bottom, top); defaults to the upper-channel
    tags (inflow / outflow / interface / top wall).  Without grading the grid
    is structured at spacing <= h.
    """
    _check_size(h)
    if tags is None:
        tags = (BoundaryTag.GAMMA_IN, BoundaryTag.GAMMA_OUT1,
                BoundaryTag.GAMMA0, BoundaryTag.GAMMA1)
    spec = refine_spec or RefineSpec()
    b = _Builder()
    if grade_to_y is None:
        wx, wy = x1 - x0, y1 - y0
        nx = max(1, int(math.ceil(wx / h - GEOM_TOL)))
        ny = max(1, int(math.ceil(wy / h - GEOM_TOL)))
        x = np.linspace(x0, x1, nx + 1)
        row = b.add_row(x, y0)
        _uniform_fill(b, row, x, y0, y1, wy / ny, upward=True)
    else:
        if abs(grade_to_y - y0) < GEOM_TOL:
            start, end = y0, y1
        elif abs(grade_to_y - y1) < GEOM_TOL:
            start, end = y1, y0
        else:
            raise ValueError("grade_to_y must be one of the rectangle's y sides")
        _graded_channels(b, x0, x1, start, (end,), h, spec)
    sides = [(axis, value, tag, tag)
             for (axis, value), tag in zip(((0, x0), (0, x1), (1, y0), (1, y1)), tags)]
    return _finish(b, spec, "rectangle mesh", sides, BoundaryTag.GAMMA0,
                   np.empty((0, 3)), {"kind": "rectangle", "h": h})


def _cell_divisions(obstacle: ObstacleSpec, eps, h, spec: RefineSpec) -> int:
    """Lattice divisions per periodicity cell.

    Fine enough that (i) elements in the layer are below
    h * obstacle_factor, (ii) the gap between the disk and the cell
    boundary holds the Delaunay clearance, (iii) the circle polygon
    resolves min_circle_segments chords.
    """
    n = max(4.0, eps / (h * spec.obstacle_factor), _disk_divisions(obstacle, spec))
    n = int(math.ceil(n - GEOM_TOL))
    return n + n % 2


def _disk_divisions(obstacle: ObstacleSpec, spec: RefineSpec) -> float:
    """The lattice divisions per cell that the disk's geometry needs in the
    macro layer: 1.3 per clearance to the cell's sides, for the Delaunay
    clearance, and ``min_circle_segments`` chords around the circle."""
    return max(1.3 / obstacle.cell_margin(),
               spec.min_circle_segments / (2.0 * np.pi * obstacle.radius))


def no_stent_mesh(case="aneurysm", h=0.1,
                  refine_spec: RefineSpec | None = None) -> Mesh:
    """The channel pair without any obstacles (reference configuration).

    Same outer tagging as the macro mesh, x2 = 0 kept as an interface mesh
    line, grading toward the interface.
    """
    _check_size(h)
    sides = _channel_pair_sides(case)
    spec = refine_spec or RefineSpec()
    b = _Builder()
    _graded_channels(b, 0.0, 1.0, 0.0, (1.0, -1.0), h, spec)
    return _finish(b, spec, "no-stent mesh", sides,
                   BoundaryTag.GAMMA0, np.empty((0, 3)),
                   {"kind": "no_stent", "case": case, "h": h})


def build_strip_mesh(obstacle: ObstacleSpec | None, L=10.0, h=1.0 / 48.0,
                     refine_spec: RefineSpec | None = None) -> Mesh:
    """Mesh the truncated periodic strip ]0,1[ x ]-L,L[ minus the obstacle.

    The disk is meshed at x1 = 1/2 whatever its cx, which only translates
    the periodic problem, so the mesh mirrors onto itself (:func:`mirror_half`).
    The left/right boundary vertex sets are exact y-translates of each other
    (periodic identification); y2 = 0 is a mesh line carrying the SIGMA tag;
    the lattice spacing near the obstacle is 1/n, with n = 1/h (or what the
    disk's clearances or radius need, if more) rounded up to the next
    multiple of 4 whose halvings end at 4 or 6 columns (28 -> 32, 40 -> 48,
    52 -> 64), and coarsens away.
    ``obstacle=None`` meshes the unobstructed strip.
    """
    _check_half_length(L, obstacle)
    _check_size(h)
    spec = refine_spec or RefineSpec()
    L = float(L)
    n = max(8, int(round(1.0 / h)))
    if obstacle is not None:
        _check_disk_divisions(obstacle, spec)
        cx, (_, cy), r = 0.5, obstacle.center, obstacle.radius    # the disk at x1 = 1/2
        # more than 2 lattice spacings clear the disk of the periodic sides
        # and 1.3 of the interface line below it; a lattice cell spans at
        # most 1.5 chords of the disk's coarsest polygon (min_circle_segments
        # sides, rounded up to a multiple of 4), so that a small disk at a
        # coarse h still meshes into good triangles
        n_ring = _n_circle(r, math.inf, spec.min_circle_segments)
        n = max(n, int(2.0 / (0.5 - r)) + 1, int(math.ceil(1.3 / (cy - r))),
                int(math.ceil(n_ring / (3.0 * math.pi * r))))
    # the far field coarsens by halving the column count while it is even,
    # so round up to a multiple of 4 whose halvings end at 4 or 6 columns;
    # an odd count on the way, as 44 -> 22 -> 11, keeps the far field fine,
    # and 5 far-field columns have triangles crossing x1 = 1/2
    n += (-n) % 4
    while n // (n & -n) not in (1, 3):     # n // (n & -n) is the last, odd count
        n += 4
    s = 1.0 / n
    x = np.linspace(0.0, 1.0, n + 1)

    if obstacle is not None:
        lo_row = min(0, math.floor((cy - r) / s) - 2)
        hi_row = math.ceil((cy + r) / s) + 2
    else:
        lo_row, hi_row = 0, 0
    block_lo, block_hi = lo_row * s, hi_row * s

    b = _Builder()
    bottom_row = b.add_row(x, block_lo)
    if obstacle is not None:
        y_rows = np.arange(lo_row, hi_row + 1) * s
        n_c = _n_circle(r, s, spec.min_circle_segments)
        row = _block_band(b, x, y_rows, [((cx, cy, r), 0, n)], n_c, bottom_row)
    else:
        row = bottom_row

    # fine window of one unit above/below the block, then coarsen to the far field
    _graded_fill(b, row, x, block_hi, L, 1.0, s, 0.25)
    _graded_fill(b, bottom_row, x, block_lo, -L, 1.0, s, 0.25)

    T = BoundaryTag
    sides = [(0, 0.0, T.STRIP_LEFT, T.STRIP_LEFT), (0, 1.0, T.STRIP_RIGHT, T.STRIP_RIGHT),
             (1, -L, T.STRIP_BOTTOM, T.STRIP_BOTTOM), (1, L, T.STRIP_TOP, T.STRIP_TOP)]
    holes = (np.array([[cx, cy, r]]) if obstacle is not None else np.empty((0, 3)))
    mesh = _finish(b, spec, "strip mesh", sides, T.SIGMA, holes,
                   {"kind": "strip", "L": L, "h": h})
    yl, yr = (np.sort(mesh.vertices[np.abs(mesh.vertices[:, 0] - xs) < 1e-12, 1])
              for xs in (0.0, 1.0))
    if len(yl) != len(yr) or (len(yl) and np.max(np.abs(yl - yr)) > 1e-12):
        raise PeriodicMismatch("left/right strip traces differ")
    return mesh


@dataclass
class MirrorHalf:
    """The left half x1 <= 1/2 of a strip mesh that mirrors onto itself.

    ``mesh`` is made of the full mesh's triangles ``triangles`` (ids, in
    their order) and keeps its tags; the line x1 = 1/2 becomes its
    STRIP_RIGHT side.  Vertices and edges are numbered together, vertices
    first and edges after them in edge-table order.  ``source`` gives, for
    every vertex and edge of the full mesh, the one of the half that
    carries it: itself where it lies in x1 <= 1/2, its mirror image beyond,
    where ``mirrored`` is set.
    """

    mesh: Mesh
    triangles: np.ndarray
    source: np.ndarray
    mirrored: np.ndarray


def mirror_half(mesh: Mesh) -> MirrorHalf | None:
    """The left half of a strip mesh symmetric about x1 = 1/2, or None.

    The mesh is symmetric when x1 -> 1 - x1 maps its vertices onto its
    vertices and its triangles onto its triangles, and no triangle crosses
    x1 = 1/2.  The half's edge table is the full one restricted, with no
    second sort.
    """
    verts, n = mesh.vertices, mesh.n_vertices
    dist, mirror = cKDTree(verts).query(np.column_stack([1.0 - verts[:, 0], verts[:, 1]]),
                                        p=np.inf)
    if np.any(dist > GEOM_TOL) or np.any(mirror[mirror] != np.arange(n)):
        return None
    tris = mesh.triangles.astype(np.int64)
    x = verts[:, 0][tris]
    left = np.all(x <= 0.5 + GEOM_TOL, axis=1)
    if np.any(left == np.all(x >= 0.5 - GEOM_TOL, axis=1)):
        return None                       # a triangle crosses x1 = 1/2

    def sorted_rows(t):
        t = np.sort(t, axis=1)
        return t[np.lexsort(t.T[::-1])]

    if not np.array_equal(sorted_rows(tris), sorted_rows(mirror[tris])):
        return None

    edges, keys, tri_edges = mesh.edge_table

    def edge_index(e):
        """Edge-table index of the vertex pairs ``e``, either orientation."""
        e = e.astype(np.int64)
        return np.searchsorted(keys, e.min(axis=1) * n + e.max(axis=1))

    t_keep = np.flatnonzero(left)
    v_keep, e_keep = np.unique(tris[t_keep]), np.unique(tri_edges[t_keep])
    # the renumbering keeps the order, so the restricted keys stay sorted
    new = np.full(n + len(edges), -1, dtype=np.int64)
    new[v_keep] = np.arange(len(v_keep))
    new[n + e_keep] = len(v_keep) + np.arange(len(e_keep))
    h_verts, h_tris, h_edges = verts[v_keep], new[tris[t_keep]], new[edges[e_keep]]
    h_tri_edges = new[n + tri_edges[t_keep]] - len(v_keep)
    bed, line = _edge_sets(h_verts, h_tris, h_edges, h_tri_edges[:, [2, 0, 1]])
    # boundary edges keep the full mesh's tags; those on x1 = 1/2 are new
    tag_of = np.full(len(edges), BoundaryTag.STRIP_RIGHT, dtype=object)
    tag_of[edge_index(mesh.boundary_edges)] = mesh.boundary_tags
    half = Mesh(
        vertices=h_verts,
        triangles=h_tris.astype(np.int32),
        boundary_edges=bed.astype(np.int32),
        boundary_tags=tag_of[edge_index(v_keep[bed])],
        interface_edges=line.astype(np.int32),
        interface_tags=np.full(len(line), BoundaryTag.SIGMA, dtype=object),
        holes=mesh.holes,
        meta={**mesh.meta, "kind": "half strip"},
        edge_table=(h_edges, h_edges[:, 0] * len(v_keep) + h_edges[:, 1], h_tri_edges),
    )
    # the vertices and edges beyond x1 = 1/2 take their mirror images' ids
    image = np.concatenate([mirror, n + edge_index(mirror[edges])])
    mirrored = new < 0
    return MirrorHalf(mesh=half, triangles=t_keep,
                      source=np.where(mirrored, new[image], new), mirrored=mirrored)
