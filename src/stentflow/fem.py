"""Taylor-Hood finite elements: spaces, assembly, constraints, norms.

Velocity is continuous piecewise-quadratic (nodes at vertices and edge
midpoints, two components in component-major blocks), pressure continuous
piecewise-linear on the same triangulation.  The momentum weak form uses the
gradient (non-symmetric) tensor grad(u) - p I, so the natural condition on a
pressure-driven side is exactly p = h whenever the normal velocity has zero
normal derivative there.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .errors import (
    ConflictingConstraints,
    ConstraintMismatch,
    PointLocationFailure,
    UnassembledTag,
)
from .geometry import BoundaryTag, Mesh, cross2

# ----------------------------------------------------------------------------
# quadrature (order-4 six-point triangle rule, 3-point Gauss on edges)
# ----------------------------------------------------------------------------

_A1 = 0.445948490915965
_A2 = 0.091576213509771
TRI_QP = np.array(
    [
        [1 - 2 * _A1, _A1, _A1],
        [_A1, 1 - 2 * _A1, _A1],
        [_A1, _A1, 1 - 2 * _A1],
        [1 - 2 * _A2, _A2, _A2],
        [_A2, 1 - 2 * _A2, _A2],
        [_A2, _A2, 1 - 2 * _A2],
    ]
)
TRI_QW = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)

_G = np.sqrt(3.0 / 5.0)
EDGE_QP = np.array([0.5 * (1 - _G), 0.5, 0.5 * (1 + _G)])
EDGE_QW = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])

# local edge k connects vertices _EDGE_VERTS[k]
_EDGE_VERTS = ((1, 2), (2, 0), (0, 1))


def p2_basis(lam: np.ndarray) -> np.ndarray:
    """P2 shape functions at barycentric points lam (..., 3) -> (..., 6)."""
    lam = np.asarray(lam)
    v = lam * (2 * lam - 1)
    e = np.stack(
        [4 * lam[..., a] * lam[..., b] for a, b in _EDGE_VERTS], axis=-1
    )
    return np.concatenate([v, e], axis=-1)


def _p2_grad_coeff(lam: np.ndarray) -> np.ndarray:
    """Coefficients C with grad(phi_i) = sum_j C[i, j] grad(lam_j)."""
    C = np.zeros(lam.shape[:-1] + (6, 3))
    for i in range(3):
        C[..., i, i] = 4 * lam[..., i] - 1
    for k, (a, b) in enumerate(_EDGE_VERTS):
        C[..., 3 + k, a] = 4 * lam[..., b]
        C[..., 3 + k, b] = 4 * lam[..., a]
    return C


_TRI_C = _p2_grad_coeff(TRI_QP)        # (q, 6, 3)
_TRI_P2 = p2_basis(TRI_QP)             # (q, 6)
_TRI_P1 = TRI_QP                       # (q, 3)

# Element tensors on the reference triangle, from the same quadrature.  With
# G_ab = area grad(lam_a) . grad(lam_b), the P2 grad-grad element matrix is
# sum_ab G_ab R[a, b, i, j]; the rows of G sum to zero, so it is also the sum
# over the local edges (a, b) of G_ab _T[k, ij].  _T holds multiples of 1/6:
# rounding to them drops the quadrature tables' 15-digit error and makes the
# entries that vanish for every triangle (a vertex and the opposite midpoint)
# or at a right angle (G_ab = 0) exact zeros, which keeps them out of the
# factorized pattern.  The pressure test of d(phi_i)/dx_d is
# area sum_b d(lam_b)/dx_d _S[b, ai]; the P1 mass matrix is area * _MP.
_R = np.einsum("q,qia,qjb->abij", TRI_QW, _TRI_C, _TRI_C)
_T = np.round(6 * np.stack([_R[a, b] + _R[b, a] - _R[a, a] - _R[b, b]
                            for a, b in _EDGE_VERTS]).reshape(3, 36)) / 6
_S = np.einsum("q,qa,qib->bai", TRI_QW, _TRI_P1, _TRI_C).reshape(3, 18)
_MP = np.einsum("q,qa,qb->ab", TRI_QW, _TRI_P1, _TRI_P1).ravel()


def p2_edge_trace(t: np.ndarray) -> np.ndarray:
    """Trace shape functions on an edge (a, b, midpoint) at parameters t."""
    t = np.asarray(t)
    return np.stack([(1 - t) * (1 - 2 * t), t * (2 * t - 1), 4 * t * (1 - t)], axis=-1)


_EDGE_W = EDGE_QW @ p2_edge_trace(EDGE_QP)     # int of the trace basis, unit edge


# ----------------------------------------------------------------------------
# boundary conditions
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class BC:
    """One boundary condition; build via the class-method constructors."""

    kind: str
    value: object = None
    partner: BoundaryTag | None = None

    @classmethod
    def dirichlet(cls, value=(0.0, 0.0)):
        """Fix both velocity components: a pair, or a callable mapping node
        coordinates (n, 2) to values (n, 2)."""
        return cls("dirichlet", value)

    @classmethod
    def pressure(cls, h=0.0):
        """Zero tangential velocity; natural pressure datum h (a number)."""
        return cls("pressure", h)

    @classmethod
    def normal(cls, value=0.0):
        """Fix the boundary-normal velocity component to a number,
        tangential natural."""
        return cls("normal", value)

    @classmethod
    def odd_mirror(cls):
        """Mirror line of a field whose line-parallel velocity component and
        pressure are odd across it: both are fixed to zero, the pressure at
        the line's vertices; the normal component stays natural."""
        return cls("odd_mirror")

    @classmethod
    def periodic(cls, partner: BoundaryTag):
        return cls("periodic", None, partner)

    @classmethod
    def natural(cls):
        return cls("natural")


@dataclass
class FESpace:
    """Velocity/pressure DOF layout plus constraint bookkeeping.

    Velocity nodes are the mesh vertices followed by edge midpoints; DOF of
    component c at node n is ``c * n_vnode + n``.  Pressure DOFs are the
    vertices.
    """

    mesh: Mesh
    bc_spec: dict
    edges: np.ndarray = field(init=False)
    tri_edges: np.ndarray = field(init=False)   # local edge i opposite vertex i
    edge_keys: np.ndarray = field(init=False)   # sorted a * n_vertices + b, a < b
    fixed_dofs: np.ndarray = field(init=False)
    fixed_vals: np.ndarray = field(init=False)
    vel_pairs: np.ndarray = field(init=False)   # (k, 2) slave, master (velocity DOFs)
    p_pairs: np.ndarray = field(init=False)
    p_fixed: np.ndarray = field(init=False)     # pressure DOFs fixed to zero
    pressure_kernel: bool = field(init=False)

    @property
    def n_vnode(self):
        return self.mesh.n_vertices + len(self.edges)

    @property
    def n_vel(self):
        return 2 * self.n_vnode

    @property
    def n_p(self):
        return self.mesh.n_vertices

    @property
    def node_xy(self):
        """Coordinates (n_vnode, 2) of every velocity node, computed on
        access: the space keeps no coordinate table."""
        return _node_xy(self, np.arange(self.n_vnode))

    def mid_nodes(self, a, b):
        """Midpoint node ids of the mesh edges (a[k], b[k]), either orientation."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        keys = np.minimum(a, b) * self.mesh.n_vertices + np.maximum(a, b)
        idx = np.searchsorted(self.edge_keys, keys)
        if np.any(idx >= len(self.edge_keys)) or np.any(self.edge_keys[idx] != keys):
            raise ValueError("vertex pair is not an edge of the mesh")
        return idx + self.mesh.n_vertices

    def with_bc(self, bc_spec: dict) -> "FESpace":
        """The same mesh and node tables under other boundary conditions.

        The tables are shared, not copied; only the constraint sets are built
        anew.  See :func:`build_space` for the rules.
        """
        space = copy.copy(self)
        space.bc_spec = dict(bc_spec)
        _impose_constraints(space)
        return space


def build_space(mesh: Mesh, bc_spec: dict) -> FESpace:
    """Create the Taylor-Hood space and populate its constraint sets.

    ``bc_spec`` maps each boundary tag of the mesh to a :class:`BC`.  On
    axis-aligned sides ``pressure`` and ``odd_mirror`` fix the
    boundary-parallel component and ``normal`` the perpendicular one.  Full Dirichlet wins at corners where
    it meets a component constraint; two component constraints may coexist
    unless they disagree on the same component.  The edge tables are the
    mesh's own.
    """
    space = FESpace.__new__(FESpace)
    space.mesh = mesh
    space.edges, space.edge_keys, space.tri_edges = mesh.edge_table
    return space.with_bc(bc_spec)


def _node_xy(space: FESpace, nodes):
    """Coordinates (n, 2) of the velocity nodes ``nodes``: a vertex, or the
    midpoint of an edge."""
    v, nv = space.mesh.vertices, space.mesh.n_vertices
    nodes = np.asarray(nodes, dtype=np.int64)
    e = space.edges[np.maximum(nodes - nv, 0)]
    mid = 0.5 * (v[e[:, 0]] + v[e[:, 1]])
    return np.where((nodes < nv)[:, None], v[np.minimum(nodes, nv - 1)], mid)


def _impose_constraints(space: FESpace):
    """Fill the fixed DOFs, periodic pairs, fixed pressures and pressure
    kernel of ``space``.

    Each constrained node of each boundary edge gives one (dof, priority,
    value) row.  Full Dirichlet (2) wins over component constraints (1);
    interface Dirichlet (3) wins at the corner vertices where the interface
    data meets a wall, so each macroscopic solve keeps its own one-sided
    interface trace there.  A DOF keeps its first top-priority row in
    boundary-edge order; another top-priority row with another value is a
    conflict.
    """
    mesh, spec, n = space.mesh, space.bc_spec, space.n_vnode
    rows = [np.empty((0, 4))]                 # dof, priority, value, order
    p_fixed = [np.empty(0, dtype=np.int64)]
    for tag, bc in spec.items():
        if bc.kind in ("natural", "periodic"):
            continue
        edge = np.flatnonzero(mesh.boundary_tags == tag)
        nodes, nrm, _ = _edge_tables(space, mesh.boundary_edges[edge])
        order = 3 * edge[:, None] + np.arange(3)
        horizontal = np.abs(nrm[:, :1]) <= np.abs(nrm[:, 1:])
        if bc.kind == "dirichlet":
            xy = _node_xy(space, nodes.ravel())
            val = bc.value(xy) if callable(bc.value) else bc.value
            val = np.broadcast_to(np.asarray(val, dtype=float), xy.shape)
            row = (nodes[..., None] + n * np.arange(2), 3 if tag is BoundaryTag.GAMMA0 else 2,
                   val.reshape(nodes.shape + (2,)), order[..., None])
        elif bc.kind in ("pressure", "odd_mirror"):   # boundary-parallel component
            row = (nodes + n * ~horizontal, 1, 0.0, order)
            if bc.kind == "odd_mirror":
                p_fixed.append(nodes[:, :2].ravel())
        elif bc.kind == "normal":             # boundary-normal component
            row = (nodes + n * horizontal, 1, float(bc.value), order)
        else:
            raise ValueError(f"unknown bc kind {bc.kind!r}")
        rows.append(np.stack(np.broadcast_arrays(*row), axis=-1).reshape(-1, 4))
    dof, prio, val, order = np.concatenate(rows).T
    idx = np.lexsort((order, -prio, dof))
    dof, prio, val = dof[idx].astype(np.int64), prio[idx], val[idx]
    first = np.diff(dof, prepend=-1) != 0
    kept = np.flatnonzero(first)[np.cumsum(first) - 1]
    clash = np.flatnonzero((prio == prio[kept]) & (np.abs(val - val[kept]) > 1e-12))
    if len(clash):
        i = clash[0]
        raise ConflictingConstraints(f"velocity DOF {dof[i]}: {val[kept[i]]} vs {val[i]}")
    is_fixed = np.zeros(space.n_vel, dtype=bool)
    fixed_val = np.zeros(space.n_vel)
    is_fixed[dof[first]] = True
    fixed_val[dof[first]] = val[first]

    # periodic identification: match the nodes of the two tags by the
    # coordinate along the boundary; the slave is the larger tag value
    vel_pairs = p_pairs = np.empty((0, 2), dtype=np.int64)
    for tag, bc in spec.items():
        other = spec.get(bc.partner)
        if (bc.kind != "periodic" or tag not in mesh.boundary_tags
                or other is not None and other.kind == "periodic"
                and tag.value < bc.partner.value):
            continue
        sides = [np.unique(_edge_tables(space, mesh.boundary_edges[
            mesh.boundary_tags == t])[0]) for t in (tag, bc.partner)]
        if len(sides[0]) != len(sides[1]):
            raise ConflictingConstraints(
                f"periodic tags {tag}/{bc.partner}: node counts differ")
        xy = [_node_xy(space, s) for s in sides]
        axis = 1 if np.ptp(xy[0][:, 1]) > np.ptp(xy[0][:, 0]) else 0
        coord = [c[:, axis] for c in xy]
        if np.max(np.abs(np.sort(coord[0]) - np.sort(coord[1]))) > 1e-12:
            raise ConflictingConstraints(
                f"periodic tags {tag}/{bc.partner}: traces do not match")
        s, m = (nodes[np.argsort(c)] for nodes, c in zip(sides, coord))
        sd, md = ((nodes[:, None] + n * np.arange(2)).ravel() for nodes in (s, m))
        # a fixed side wins, and both sides carry its value
        fs, fm = is_fixed[sd], is_fixed[md]
        one = fs ^ fm
        v = np.where(fs, fixed_val[sd], fixed_val[md])[one]
        fixed_val[sd[one]] = fixed_val[md[one]] = v
        is_fixed[sd] = is_fixed[md] = fs | fm
        vel_pairs = np.concatenate([vel_pairs, np.stack([sd, md], axis=1)[~(fs | fm)]])
        p_pairs = np.concatenate([p_pairs, np.stack([s, m], axis=1)[s < mesh.n_vertices]])

    space.fixed_dofs = np.flatnonzero(is_fixed)
    space.fixed_vals = fixed_val[space.fixed_dofs]
    space.vel_pairs, space.p_pairs = vel_pairs, p_pairs
    space.p_fixed = np.unique(np.concatenate(p_fixed))
    space.pressure_kernel = not (len(space.p_fixed)
                                 or any(bc.kind == "pressure" for bc in spec.values()))


# ----------------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------------


@dataclass
class Sources:
    """Right-hand-side data for the Stokes assembly.

    ``volume``: body-force values at the volume quadrature points of every
    triangle, shape (M, q, 2) as :func:`eval_on_quadrature` lays them out, or
    None.  ``line``: (tag, coefficient) tangential line load c * e1 along the
    tagged mesh line.  Natural pressure data comes from the space's
    ``pressure`` BCs.
    """

    volume: np.ndarray | None = None
    line: tuple | None = None


@dataclass
class StokesSystem:
    """The assembled saddle point.  The velocity block is diag(K, K): each
    component carries the scalar P2 stiffness ``K``, stored once."""

    space: FESpace
    K: sp.csr_matrix
    B: sp.csr_matrix
    Mp: sp.csr_matrix
    f: np.ndarray
    g: np.ndarray

    def reduced(self):
        return apply_constraints(self)


def _geometry_tables(mesh, sel=slice(None)):
    """Vertices (n, 3, 2), areas (n,) and barycentric gradients (n, 3, 2) of
    the triangles ``sel`` (all of them by default)."""
    p = mesh.vertices[mesh.triangles[sel]]
    v0, v1, v2 = p[:, 0], p[:, 1], p[:, 2]
    area2 = cross2(v1 - v0, v2 - v0)
    # grad lam_i = perpendicular of the opposite edge / (2 area)
    g0 = np.stack([v1[:, 1] - v2[:, 1], v2[:, 0] - v1[:, 0]], axis=1)
    g1 = np.stack([v2[:, 1] - v0[:, 1], v0[:, 0] - v2[:, 0]], axis=1)
    g2 = np.stack([v0[:, 1] - v1[:, 1], v1[:, 0] - v0[:, 0]], axis=1)
    gradlam = np.stack([g0, g1, g2], axis=1) / area2[:, None, None]
    return p, 0.5 * area2, gradlam


def _p2_nodes(space: FESpace):
    """P2 node ids (M, 6) of every triangle: vertices, then midpoints."""
    tris = space.mesh.triangles.astype(np.int64)
    return np.concatenate([tris, space.tri_edges + space.mesh.n_vertices], axis=1)


def _scatter(el, rows, cols, shape):
    """Sum the element matrices el (M, r, c) into a CSR matrix at the global
    rows (M, r) and columns (M, c)."""
    r = np.repeat(rows, cols.shape[1], axis=1).ravel()
    c = np.tile(cols, (1, rows.shape[1])).ravel()
    return sp.coo_matrix((el.ravel(), (r, c)), shape=shape).tocsr()


def _stiffness(space: FESpace, area, gradlam) -> sp.csr_matrix:
    """Scalar P2 grad-grad matrix: one contraction of the edge terms G_ab
    with _T for all elements, symmetrized so that the matrix is exactly
    symmetric."""
    a, b = np.array(_EDGE_VERTS).T
    G = area[:, None] * np.einsum("mkd,mkd->mk", gradlam[:, a], gradlam[:, b])
    K = (G @ _T).reshape(-1, 6, 6)
    nodes = _p2_nodes(space)
    K = _scatter(0.5 * (K + K.transpose(0, 2, 1)), nodes, nodes,
                 (space.n_vnode, space.n_vnode))
    K.eliminate_zeros()
    return K


def assemble_stokes(space: FESpace, sources: Sources | None = None) -> StokesSystem:
    """Assemble the saddle-point system in the gradient (non-symmetric) form.

    K holds the scalar stiffness (the vector Laplacian is diag(K, K)), B the
    pressure test of -div u, f and g the loads of :func:`assemble_loads`.
    Every boundary tag of the mesh must be covered by the space's bc_spec.
    """
    f, g = assemble_loads(space, sources)
    mesh = space.mesh
    tris = mesh.triangles.astype(np.int64)
    n_vert, n_vnode = mesh.n_vertices, space.n_vnode
    _, area, gradlam = _geometry_tables(mesh)
    K = _stiffness(space, area, gradlam)

    # B[m, a, (d, i)] = -area sum_b d(lam_b)/dx_d _S[b, ai]
    Bd = -(area[:, None, None] * gradlam).transpose(0, 2, 1) @ _S   # (M, 2, 18)
    B_el = Bd.reshape(-1, 2, 3, 6).transpose(0, 2, 1, 3).reshape(-1, 3, 12)
    nodes = _p2_nodes(space)
    B = _scatter(B_el, tris, np.concatenate([nodes, nodes + n_vnode], axis=1),
                 (n_vert, 2 * n_vnode))
    # P1 pressure mass matrix (Schur preconditioner)
    Mp = _scatter(area[:, None] * _MP, tris, tris, (n_vert, n_vert))
    return StokesSystem(space=space, K=K, B=B, Mp=Mp, f=f, g=g)


def assemble_loads(space: FESpace, sources: Sources | None = None):
    """Right-hand sides (f, g) of the saddle-point system on ``space``.

    f holds the natural-pressure boundary terms plus the optional line and
    volume loads, g the (zero) divergence data.  Every boundary tag of the
    mesh must be covered by the space's bc_spec.
    """
    mesh = space.mesh
    for tag in set(mesh.boundary_tags):
        if tag not in space.bc_spec:
            raise UnassembledTag(f"no boundary condition for tag {tag}")
    sources = sources or Sources()
    n_vnode = space.n_vnode
    f = np.zeros(space.n_vel)
    g = np.zeros(mesh.n_vertices)

    # natural pressure data: f -= int_Gamma h (v . n)
    for tag, bc in space.bc_spec.items():
        if bc.kind != "pressure":
            continue
        nodes, nrm, weight = _edge_tables(space, mesh.boundary_edges[
            mesh.boundary_tags == tag])
        load = float(bc.value) * weight
        for comp in range(2):
            on = np.abs(nrm[:, comp]) >= 1e-14
            np.add.at(f, comp * n_vnode + nodes[on], -nrm[on, comp, None] * load[on])

    # line source c * e1 along a tagged mesh line
    if sources.line is not None:
        tag, coeff = sources.line
        nodes, _, weight = _edge_tables(space, mesh.edges_with_tag(tag))
        np.add.at(f, nodes, coeff * weight)                   # component 0

    # volumetric body force, given at the volume quadrature points
    if sources.volume is not None:
        fv = np.asarray(sources.volume)
        if fv.shape != (mesh.n_triangles, len(TRI_QW), 2):
            raise ValueError(f"volume source of shape {fv.shape}, not (M, q, 2)")
        _, area, _ = _geometry_tables(mesh)
        fe = area[:, None, None] * (fv.transpose(0, 2, 1) @ (TRI_QW[:, None] * _TRI_P2))
        nodes = _p2_nodes(space)
        for comp in range(2):
            np.add.at(f, comp * n_vnode + nodes, fe[:, comp, :])
    return f, g


def _edge_tables(space: FESpace, edges):
    """Nodes (a, b, midpoint), unit outward normals (boundary edges keep the
    domain on their left) and node weights length * int(trace basis) of
    mesh edges."""
    a = np.asarray(edges[:, 0], dtype=np.int64)
    b = np.asarray(edges[:, 1], dtype=np.int64)
    d = space.mesh.vertices[b] - space.mesh.vertices[a]
    nodes = np.stack([a, b, space.mid_nodes(a, b)], axis=1)
    length = np.hypot(d[:, 0], d[:, 1])
    nrm = np.stack([d[:, 1], -d[:, 0]], axis=1) / length[:, None]
    return nodes, nrm, length[:, None] * _EDGE_W


# ----------------------------------------------------------------------------
# constraint reduction
# ----------------------------------------------------------------------------


@dataclass
class ReducedSystem:
    """Constrained saddle-point system plus the column maps that recover
    full-length vectors.

    The reduced blocks depend only on the constrained pattern of ``space``
    (fixed velocity DOFs, periodic pairs, fixed pressures, pressure kernel),
    not on the imposed values; :meth:`with_loads` puts another problem with
    the same pattern on the same blocks.  ``factors`` holds the factorizations the
    solvers make of the blocks, shared by every system derived that way.

    ``u_col`` and ``p_col`` give the reduced column of each velocity and
    pressure DOF: -1 where the DOF is fixed, and a periodic slave takes its
    master's column.  They stand for the prolongations T_u and T_p (one unit
    entry per row with a column), which are never stored.
    """

    space: FESpace                # the problem whose loads and fixed values these are
    A: sp.csc_matrix              # canonical CSC, the form the sparse LU takes
    B: sp.csr_matrix
    Mp: sp.csr_matrix
    f: np.ndarray
    g: np.ndarray
    u_col: np.ndarray             # int32, length n_vel
    p_col: np.ndarray             # int32, length n_p
    A_fix: sp.csr_matrix          # diag(K, K) and B at the fixed DOFs' columns,
    B_fix: sp.csr_matrix          # kept for the Dirichlet correction of the loads
    factors: dict = field(default_factory=dict, repr=False)

    def expand(self, u_r, p_r):
        """Full-length velocity T_u u_r + u_fix, with the space's fixed
        values at its fixed DOFs, and pressure T_p p_r (fixed pressures 0)."""
        u = _gather(self.u_col, u_r)
        u[self.space.fixed_dofs] = self.space.fixed_vals
        # + 0.0 turns -0 into +0, as the sums in T_u u_r + u_fix do
        return u + 0.0, _gather(self.p_col, p_r) + 0.0

    def restrict(self, v):
        """T^T v for a full-length velocity (length n_vel) or pressure
        (length n_p) vector: each reduced column gets the sum, in DOF order,
        of the entries of the DOFs mapped to it; fixed DOFs drop out."""
        col, m = ((self.u_col, self.A.shape[0]) if len(v) == len(self.u_col)
                  else (self.p_col, self.B.shape[0]))
        on = col >= 0
        return np.bincount(col[on], weights=v[on], minlength=m)

    def with_loads(self, space: FESpace, f, g) -> "ReducedSystem":
        """The loads (f, g) and fixed values of ``space`` on these blocks.

        Raises :class:`ConstraintMismatch` unless ``space`` lives on this
        system's mesh with this system's constrained pattern.
        """
        differs = [k for k in ("fixed_dofs", "vel_pairs", "p_pairs", "p_fixed",
                               "pressure_kernel")
                   if not np.array_equal(getattr(space, k), getattr(self.space, k))]
        if space.mesh is not self.space.mesh:
            differs.insert(0, "mesh")
        if differs:
            raise ConstraintMismatch(
                f"constrained pattern differs from the operator's: {', '.join(differs)}")
        # replace() hands the blocks and the factors dict on by reference
        return dataclasses.replace(
            self, space=space,
            f=self.restrict(f - self.A_fix @ space.fixed_vals),
            g=self.restrict(g - self.B_fix @ space.fixed_vals),
        )


def _gather(col, v):
    """T v for the column map ``col``: v at each DOF's column, 0 where it
    has none."""
    out = np.zeros(len(col))
    on = col >= 0
    out[on] = v[col[on]]
    return out


def _column_map(n, fixed, pairs):
    """Reduced column of each of n DOFs: free DOFs are numbered in order,
    slaves take their final master's column (a master may itself be a
    slave, as at a doubly periodic corner), fixed DOFs get -1."""
    slave = pairs[:, 0]
    target = np.arange(n, dtype=np.int64)
    target[slave] = pairs[:, 1]
    for _ in range(64):                   # pointer doubling along the chains
        final = target[target[slave]]
        if np.array_equal(final, target[slave]):
            break
        target[slave] = final
    free = np.ones(n, dtype=bool)
    free[fixed] = False
    # a cycle, a slave of two masters or a fixed master leaves no free one
    master = target[pairs[:, 1]]
    if np.any(target[slave] != master) or not np.all(free[master]):
        raise ConflictingConstraints("periodic pairs without one free master")
    free[slave] = False
    col_of = -np.ones(n, dtype=np.int32)
    col_of[free] = np.arange(free.sum())
    return col_of[target]


def _selector(col):
    """The prolongation T of a column map as a CSR matrix."""
    rows = np.flatnonzero(col >= 0)
    return sp.csr_matrix((np.ones(len(rows)), (rows, col[rows].astype(np.int64))),
                         shape=(len(col), int(col.max(initial=-1)) + 1))


def apply_constraints(system: StokesSystem) -> ReducedSystem:
    """Eliminate Dirichlet DOFs and fold periodic slaves into masters.

    The reduced velocity operator stays symmetric; the right-hand side gets
    the usual Dirichlet correction; pressure periodicity is folded the same
    way, and fixed pressures are dropped.  ``expand`` recovers full-length
    vectors with constrained DOFs set to their imposed values (fixed
    pressures to zero).  No constraint couples the two velocity
    components, so T_u is diag(S1, S2) and the reduced velocity block is
    diag(S1^T K S1, S2^T K S2), reduced from the one scalar stiffness.  The
    prolongation matrices are built from the column maps for these
    products and are not kept.
    """
    space = system.space
    K, n, fixed = system.K, space.n_vnode, space.fixed_dofs
    u_col = _column_map(space.n_vel, fixed, space.vel_pairs)
    p_col = _column_map(space.n_p, space.p_fixed, space.p_pairs)
    Tu, Tp = _selector(u_col), _selector(p_col)
    m1 = int(u_col[:n].max(initial=-1)) + 1           # free columns of u1
    split = np.searchsorted(fixed, n)                 # fixed DOFs of u1
    reduced = ReducedSystem(
        space=space,
        A=sp.block_diag([S.T @ K @ S for S in (Tu[:n, :m1], Tu[n:, m1:])], format="csc"),
        B=(Tp.T @ system.B @ Tu).tocsr(),
        Mp=(Tp.T @ system.Mp @ Tp).tocsr(),
        f=None, g=None, u_col=u_col, p_col=p_col,
        A_fix=sp.block_diag([K[:, fixed[:split]], K[:, fixed[split:] - n]], format="csr"),
        B_fix=system.B[:, fixed],
    )
    return reduced.with_loads(space, system.f, system.g)


# ----------------------------------------------------------------------------
# field evaluation and norms
# ----------------------------------------------------------------------------


def _barycentric(v0, gradlam, pts):
    """Barycentric coordinates (n, k, 3) of the points ``pts`` (n, k, 2) in
    the triangles with first vertices ``v0`` (n, 2) and barycentric
    gradients ``gradlam`` (n, 3, 2)."""
    d = pts - v0[:, None]
    l1 = np.einsum("nkd,nd->nk", d, gradlam[:, 1])
    l2 = np.einsum("nkd,nd->nk", d, gradlam[:, 2])
    return np.stack([1.0 - l1 - l2, l1, l2], axis=-1)


class PointLocator:
    """Locates points in a triangulation via a centroid kd-tree.

    A point lies in a triangle when no barycentric coordinate is below
    -1e-10.  Each point is tried against its 4 nearest centroids, nearest
    first; the few left over (next to strongly graded triangles) against
    their 24 nearest, and any still left over against every triangle.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        p = mesh.vertices[mesh.triangles]
        self.tree = cKDTree(p.mean(axis=1))
        _, _, self.gradlam = _geometry_tables(mesh)
        self.v0 = p[:, 0]

    def locate(self, pts):
        """Return (triangle index, barycentric coords) for each point."""
        tol = 1e-10
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        tri = -np.ones(len(pts), dtype=np.int64)
        lam = np.zeros((len(pts), 3))
        remaining = np.arange(len(pts))
        for k in (4, 24):
            if not len(remaining):
                break
            _, cand = self.tree.query(pts[remaining], k=min(k, self.mesh.n_triangles))
            cand = np.asarray(cand).reshape(len(remaining), -1)
            left = np.arange(len(remaining))      # rows of cand not placed yet
            for j in range(cand.shape[1]):
                if not len(left):
                    break
                t = cand[left, j]
                lm = _barycentric(self.v0[t], self.gradlam[t],
                                  pts[remaining[left], None])[:, 0]
                ok = np.all(lm >= -tol, axis=1)
                hit = remaining[left[ok]]
                tri[hit] = t[ok]
                lam[hit] = lm[ok]
                left = left[~ok]
            remaining = remaining[left]
        for i in remaining:   # rare: exhaustive scan before giving up
            lm = _barycentric(self.v0, self.gradlam, pts[i][None, None])[:, 0]
            ok = np.nonzero(np.all(lm >= -tol, axis=1))[0]
            if len(ok):
                tri[i] = ok[0]
                lam[i] = lm[ok[0]]
            else:
                raise PointLocationFailure(f"point outside mesh: {pts[i]}")
        return tri, lam


def _evaluate(space: FESpace, coeffs, tri, lam, gradlam):
    """Values or P2 gradients of a field at barycentric points.

    ``coeffs`` is a pressure (length n_p, P1) or a velocity (length n_vel,
    P2); ``tri`` selects triangles (None for all of them).  ``lam`` is either
    shared, (k, 3), the same points in every triangle as a quadrature rule,
    or located, (n, k, 3), points placed triangle by triangle.  Returns the
    values (n, k, c), with one component for a pressure and two for a
    velocity, or, given the triangles' barycentric gradients ``gradlam``
    (n, 3, 2), the velocity gradients (n, k, 2, 2), [..., i, j] = du_i/dx_j.
    Shared points take the velocity through 2-D products with the k-point
    table, five times faster than an einsum on a 12k-triangle strip; an
    einsum serves located points and P1 values, where it is as fast.  Both
    forms end a gradient with one product per triangle and component.
    """
    tri = slice(None) if tri is None else tri
    if len(coeffs) == space.n_p:
        elem, basis = coeffs[space.mesh.triangles[tri]][None], lam         # (1, n, 3)
    elif len(coeffs) == space.n_vel:
        # for 74k located points, indexing the whole-mesh table is 5 times
        # faster than building their rows
        elem = np.take(coeffs.reshape(2, -1), _p2_nodes(space)[tri], axis=1)  # (2, n, 6)
        basis = p2_basis(lam) if gradlam is None else _p2_grad_coeff(lam)
    else:
        raise ValueError("coefficient vector length matches neither space")
    if gradlam is None:
        if lam.ndim == 2 and len(elem) == 2:
            return (elem @ basis.T).transpose(1, 2, 0)
        basis = np.broadcast_to(basis, elem.shape[1:2] + basis.shape[-2:])
        return np.einsum("nkb,cnb->nkc", basis, elem)
    # du_c/dx_d = sum_j (sum_i elem[c, n, i] C[k, i, j]) dlam_j/dx_d
    if lam.ndim == 2:
        cl = elem @ basis.transpose(1, 0, 2).reshape(6, -1)               # (2, n, 3k)
        cl = cl.reshape(2, -1, len(lam), 3)
    else:
        cl = np.einsum("cni,nkij->cnkj", elem, basis)                     # (2, n, k, 3)
    return (cl @ gradlam).transpose(1, 2, 0, 3)


class VelocityField:
    """Pointwise evaluator of a discrete P2 velocity field; ``u`` holds its
    coefficients (a pressure's, for :class:`PressureField`)."""

    def __init__(self, space: FESpace, u: np.ndarray, locator=None):
        self.space = space
        self.u = u
        self.locator = locator or PointLocator(space.mesh)

    def at(self, tri, lam):
        """Values (n, 2) at the located points (``tri``, ``lam``) that
        :meth:`PointLocator.locate` returns."""
        return _evaluate(self.space, self.u, tri, lam[:, None], None)[:, 0]

    def __call__(self, pts):
        return self.at(*self.locator.locate(pts))


class PressureField(VelocityField):
    """Pointwise evaluator of a discrete P1 pressure field: values (n,)."""

    def at(self, tri, lam):
        return super().at(tri, lam)[:, 0]


def l2_norm_diff(space: FESpace, u):
    """L2 norm of a discrete velocity (length n_vel) or pressure (length
    n_p) over the whole mesh."""
    vals = _evaluate(space, u, None, TRI_QP, None)
    return float(np.sqrt(np.sum(_quadrature_weights(space, None)[:, :, None] * vals**2)))


def integrate_field(space: FESpace, u, tri_sel=None, component=0):
    """Integral of a pressure, or of one velocity component, over a set of
    triangles (``tri_sel`` as in :func:`eval_on_quadrature`)."""
    vals = _evaluate(space, u, tri_sel, TRI_QP, None)[:, :, component]
    return float(np.sum(_quadrature_weights(space, tri_sel) * vals))


def _quadrature_weights(space: FESpace, tri_sel):
    """Volume quadrature weights (M, q) of the triangles ``tri_sel``."""
    _, area, _ = _geometry_tables(space.mesh, slice(None) if tri_sel is None else tri_sel)
    return TRI_QW[None, :] * area[:, None]


# ----------------------------------------------------------------------------
# line integrals: fluxes, section averages, band means
# ----------------------------------------------------------------------------


def edge_flux(space: FESpace, u, edges, normal=None):
    """Line integral of u . n over the given edges.

    With ``normal=None`` the edge-orientation outward normal is used
    (boundary edges keep the domain on their left); otherwise the fixed
    vector ``normal`` applies to every edge.
    """
    nodes, nrm, weight = _edge_tables(space, np.asarray(edges).reshape(-1, 2))
    if normal is not None:
        nrm = np.broadcast_to(np.asarray(normal, dtype=float), nrm.shape)
    un = nrm[:, :1] * u[nodes] + nrm[:, 1:] * u[space.n_vnode + nodes]   # (E, 3)
    per_edge = np.einsum("ei,ei->e", weight, un)
    # a running total in edge order, as the fluxes have always been summed
    return float(np.cumsum(per_edge)[-1]) if len(per_edge) else 0.0


def _by_height(mesh: Mesh, t):
    """Vertices (n, 3, 2) of the triangles ``t``, sorted by y: lo, mid, hi."""
    p = mesh.vertices[mesh.triangles[t]]
    return np.take_along_axis(p, np.argsort(p[:, :, 1], axis=1)[:, :, None], axis=1)


def _edge_point(a, b, c):
    """The point at height c of each segment a-b (a not above b), clamped to
    the segment; a horizontal segment gives b if c reaches it, else a."""
    dy = b[:, 1] - a[:, 1]
    s = np.divide(c - a[:, 1], dy, out=(c >= b[:, 1]).astype(float), where=dy > 0)
    return a + np.clip(s, 0.0, 1.0)[:, None] * (b - a)


def _cut(p, c):
    """Where the line y = c meets triangles p sorted by height (n, 3, 2):
    ``low`` on edge lo-mid, ``short`` on the broken edge lo-mid-hi and
    ``long`` on edge lo-hi, each clamped to the triangle.  The part of a
    triangle below the line is the fan (lo, low, short), (lo, short, long)."""
    lo, mid, hi = p[:, 0], p[:, 1], p[:, 2]
    low = _edge_point(lo, mid, c)
    short = np.where((c <= mid[:, 1])[:, None], low, _edge_point(mid, hi, c))
    return low, short, _edge_point(lo, hi, c)


def _rule(mesh: Mesh, key, build, *args):
    """The integration rule ``build(mesh, *args)``, built on first use and
    kept on the mesh under ``key``: it depends on the mesh alone, and every
    field on the mesh is contracted against it."""
    rules = mesh._integration_rules
    if key not in rules:
        rules[key] = build(mesh, *args)
    return rules[key]


def _band_rule(mesh: Mesh, y0, y1):
    """Triangles ``t`` (n,) meeting the band y0 <= y <= y1, barycentric
    points ``lam`` (n, 24, 3) and weights ``w`` (n, 24) of the 6-point rule
    on the four fan triangles clipped from each, and the band's area."""
    y = mesh.vertices[:, 1][mesh.triangles]
    t = np.flatnonzero((y.max(axis=1) > y0 + 1e-14) & (y.min(axis=1) < y1 - 1e-14))
    if not len(t):
        raise ValueError(f"the band [{y0}, {y1}] meets no triangle of the mesh")
    p = _by_height(mesh, t)
    # the band is the part of each triangle below y1 minus the part below y0
    subs = []
    for c in (y1, y0):
        low, short, long = _cut(p, c)
        subs += [np.stack([p[:, 0], low, short], axis=1),
                 np.stack([p[:, 0], short, long], axis=1)]
    X = np.stack(subs, axis=1)                                   # (n, 4, 3, 2)
    area = 0.5 * np.abs(cross2(X[:, :, 1] - X[:, :, 0], X[:, :, 2] - X[:, :, 0]))
    area *= [1.0, 1.0, -1.0, -1.0]
    v, _, gradlam = _geometry_tables(mesh, t)
    lam = _barycentric(v[:, 0], gradlam, (TRI_QP @ X).reshape(len(t), -1, 2))
    w = (area[:, :, None] * TRI_QW).reshape(len(t), -1)
    return t, lam, w, float(np.sum(area))


def band_integral(space: FESpace, u, y0, y1, component=0, average=False):
    """Integral (or mean) of a field component over the band y0 <= y <= y1.

    Triangles are clipped against the band, so the band boundaries need not
    be mesh lines.  Works for velocity (length n_vel) and pressure (length
    n_p) coefficient vectors.  The band's rule is built once per mesh; a
    band that meets no triangle raises ValueError.
    """
    key = ("band", np.array([y0, y1], dtype=float).tobytes())
    t, lam, w, area = _rule(space.mesh, key, _band_rule, y0, y1)
    total = float(np.sum(w * _evaluate(space, u, t, lam, None)[:, :, component]))
    if average:
        return total / area if area else 0.0
    return total


def _section_rule(mesh: Mesh, heights):
    """Triangles ``t`` (m,) crossed by the lines y = ``heights``, the line
    ``k`` (m,) each crossing is on, barycentric points ``lam`` (m, 3, 3) of
    the 3-point Gauss rule on each cut segment and the segment lengths."""
    tol = 1e-13
    y = mesh.vertices[:, 1][mesh.triangles]
    ymin, ymax = y.min(axis=1)[None], y.max(axis=1)[None]
    c = heights[:, None]
    # vertices within tol of the line count as on it; a triangle meets the
    # line when its lowest vertex is on or below it and its highest above,
    # so a whole edge on the line counts once, for the triangle above it
    meets = (ymin < c + tol) & (ymax >= c + tol)
    # a line that no triangle lies above is the mesh's top edge, read from
    # the triangles below it
    top = ~meets.any(axis=1)
    meets[top] = (ymax > c[top] - tol) & (ymin <= c[top] - tol)
    missing = heights[~meets.any(axis=1)]
    if len(missing):
        raise ValueError(f"the lines y = {missing.tolist()} meet no triangle of the mesh")
    k, t = np.nonzero(meets)
    c = heights[k]
    p = _by_height(mesh, t)
    p[:, :, 1] = np.where(np.abs(p[:, :, 1] - c[:, None]) < tol, c[:, None], p[:, :, 1])
    _, short, long = _cut(p, c)
    x0, x1 = long[:, 0], short[:, 0]
    pts = np.stack([x0[:, None] + EDGE_QP * (x1 - x0)[:, None],
                    np.repeat(c[:, None], len(EDGE_QP), axis=1)], axis=-1)
    v, _, gradlam = _geometry_tables(mesh, t)
    return t, k, _barycentric(v[:, 0], gradlam, pts), np.abs(x1 - x0)


def section_average(space: FESpace, u, y2, component=0):
    """Horizontal average: integral of the field over the line y = y2.

    Each triangle crossed by the line contributes a Gauss-integrated
    segment.  A triangle with a whole edge on the line contributes only if
    it lies above the line, so shared mesh-line edges count once; the top
    edge of the mesh, with no triangle above it, is read from the triangles
    below.  The domain width is 1, hence the line integral equals the
    average.  ``y2`` may be an array of heights, which gives an array of
    averages.  The rule of a set of heights is built once per mesh; a
    height that meets no triangle raises ValueError.
    """
    heights = np.atleast_1d(np.asarray(y2, dtype=float))
    key = ("section", heights.tobytes())
    t, k, lam, length = _rule(space.mesh, key, _section_rule, heights)
    vals = _evaluate(space, u, t, lam, None)
    per = length * (vals[:, :, component] @ EDGE_QW)
    totals = np.bincount(k, weights=per, minlength=len(heights))
    return float(totals[0]) if np.ndim(y2) == 0 else totals


def energy_norm_sq(system: StokesSystem, u):
    """Gradient energy u^T diag(K, K) u of a full-length velocity vector."""
    n = system.space.n_vnode
    return float(u[:n] @ (system.K @ u[:n]) + u[n:] @ (system.K @ u[n:]))


def scalar_p2_stiffness(space: FESpace) -> sp.csr_matrix:
    """Stiffness matrix of one scalar P2 component (grad-grad form)."""
    _, area, gradlam = _geometry_tables(space.mesh)
    return _stiffness(space, area, gradlam)


def gradient_energy(space: FESpace, u) -> float:
    """Squared L2 norm of the velocity gradient, by stiffness quadratic form."""
    K = scalar_p2_stiffness(space)
    ux, uy = u[: space.n_vnode], u[space.n_vnode :]
    return float(ux @ (K @ ux) + uy @ (K @ uy))


def eval_on_quadrature(space: FESpace, u=None, p=None, grad=False, tri_sel=None):
    """Discrete fields at the volume quadrature points, element by element.

    Returns a dict with physical points ``pts`` (M, q, 2), weights ``w``
    (M, q), and any of ``u`` (M, q, 2), ``gradu`` (M, q, 2, 2) laid out as
    gradu[..., i, j] = d u_i / d x_j, and ``p`` (M, q).
    """
    p_geom, area, gradlam = _geometry_tables(
        space.mesh, slice(None) if tri_sel is None else tri_sel)
    out = {
        "pts": np.einsum("qj,mjd->mqd", TRI_QP, p_geom),
        "w": TRI_QW[None, :] * area[:, None],
    }
    if u is not None:
        out["u"] = _evaluate(space, u, tri_sel, TRI_QP, None)
        if grad:
            out["gradu"] = _evaluate(space, u, tri_sel, TRI_QP, gradlam)
    if p is not None:
        out["p"] = _evaluate(space, p, tri_sel, TRI_QP, None)[:, :, 0]
    return out


def velocity_gradient_at(space: FESpace, u, tri, lam):
    """Velocity gradient (n, 2, 2), [i, j] = du_i/dx_j, at the located points
    (``tri``, ``lam``) that :meth:`PointLocator.locate` returns."""
    _, _, gradlam = _geometry_tables(space.mesh, tri)
    return _evaluate(space, u, tri, lam[:, None], gradlam)[:, 0]
