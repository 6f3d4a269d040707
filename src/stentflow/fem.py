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
from .geometry import BoundaryTag, Mesh, _mesh_edges, cross2

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
    tri_edges: np.ndarray = field(init=False)
    edge_keys: np.ndarray = field(init=False)   # sorted a * n_vertices + b, a < b
    node_xy: np.ndarray = field(init=False)
    fixed_dofs: np.ndarray = field(init=False)
    fixed_vals: np.ndarray = field(init=False)
    vel_pairs: np.ndarray = field(init=False)   # (k, 2) slave, master (node ids)
    p_pairs: np.ndarray = field(init=False)
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
    axis-aligned sides ``pressure`` fixes the boundary-parallel component and
    ``normal`` the perpendicular one.  Full Dirichlet wins at corners where
    it meets a component constraint; two component constraints may coexist
    unless they disagree on the same component.
    """
    space = FESpace.__new__(FESpace)
    space.mesh = mesh
    space.edges, space.edge_keys, tri_edges, _, _ = _mesh_edges(
        mesh.vertices, mesh.triangles.astype(np.int64))
    space.tri_edges = tri_edges[:, [1, 2, 0]]     # local edge i opposite vertex i
    mids = 0.5 * (mesh.vertices[space.edges[:, 0]] + mesh.vertices[space.edges[:, 1]])
    space.node_xy = np.concatenate([mesh.vertices, mids], axis=0)
    return space.with_bc(bc_spec)


def _impose_constraints(space: FESpace):
    """Fill the fixed DOFs, periodic pairs and pressure kernel of ``space``.

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
    for tag, bc in spec.items():
        if bc.kind in ("natural", "periodic"):
            continue
        edge = np.flatnonzero(mesh.boundary_tags == tag)
        nodes, d, _ = _edge_tables(space, mesh.boundary_edges[edge])
        order = 3 * edge[:, None] + np.arange(3)
        horizontal = np.abs(d[:, 1:]) <= np.abs(d[:, :1])
        if bc.kind == "dirichlet":
            xy = space.node_xy[nodes.ravel()]
            val = bc.value(xy) if callable(bc.value) else bc.value
            val = np.broadcast_to(np.asarray(val, dtype=float), xy.shape)
            row = (nodes[..., None] + n * np.arange(2), 3 if tag is BoundaryTag.GAMMA0 else 2,
                   val.reshape(nodes.shape + (2,)), order[..., None])
        elif bc.kind == "pressure":           # boundary-parallel component
            row = (nodes + n * ~horizontal, 1, 0.0, order)
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
        xy = space.node_xy[sides[0]]
        axis = 1 if np.ptp(xy[:, 1]) > np.ptp(xy[:, 0]) else 0
        coord = [space.node_xy[s, axis] for s in sides]
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
    space.pressure_kernel = not any(bc.kind == "pressure" for bc in spec.values())


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


def _p2_nodes(space: FESpace, sel=slice(None)):
    """P2 node ids (n, 6) of the triangles ``sel``: vertices, then midpoints."""
    tris = space.mesh.triangles[sel].astype(np.int64)
    return np.concatenate([tris, space.tri_edges[sel] + space.mesh.n_vertices], axis=1)


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
    tr = p2_edge_trace(EDGE_QP)                               # (q, 3)

    # natural pressure data: f -= int_Gamma h (v . n)
    for tag, bc in space.bc_spec.items():
        if bc.kind != "pressure":
            continue
        nodes, d, length = _edge_tables(space, mesh.boundary_edges[
            mesh.boundary_tags == tag])
        nrm = np.stack([d[:, 1], -d[:, 0]], axis=1) / length[:, None]  # outward
        h = np.full((len(nodes), len(EDGE_QP)), float(bc.value))
        load = length[:, None] * np.einsum("q,eq,qi->ei", EDGE_QW, h, tr)
        for comp in range(2):
            on = np.abs(nrm[:, comp]) >= 1e-14
            np.add.at(f, comp * n_vnode + nodes[on], -nrm[on, comp, None] * load[on])

    # line source c * e1 along a tagged mesh line
    if sources.line is not None:
        tag, coeff = sources.line
        nodes, _, length = _edge_tables(space, mesh.edges_with_tag(tag))
        load = (coeff * length)[:, None] * np.einsum("q,qi->i", EDGE_QW, tr)
        np.add.at(f, nodes, load)                             # component 0

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
    """Nodes (a, b, midpoint), vectors b - a and lengths of mesh edges."""
    a = np.asarray(edges[:, 0], dtype=np.int64)
    b = np.asarray(edges[:, 1], dtype=np.int64)
    d = space.mesh.vertices[b] - space.mesh.vertices[a]
    nodes = np.stack([a, b, space.mid_nodes(a, b)], axis=1)
    return nodes, d, np.hypot(d[:, 0], d[:, 1])


# ----------------------------------------------------------------------------
# constraint reduction
# ----------------------------------------------------------------------------


@dataclass
class ReducedSystem:
    """Constrained saddle-point system plus recovery operators.

    The reduced blocks depend only on the constrained pattern of ``space``
    (fixed velocity DOFs, periodic pairs, pressure kernel), not on the
    imposed values; :meth:`with_loads` puts another problem with the same
    pattern on the same blocks.  ``factors`` holds the factorizations the
    solvers make of the blocks, shared by every system derived that way.
    """

    space: FESpace                # the problem whose loads and fixed values these are
    A: sp.csc_matrix              # canonical CSC, the form the sparse LU takes
    B: sp.csr_matrix
    Mp: sp.csr_matrix
    f: np.ndarray
    g: np.ndarray
    Tu: sp.csr_matrix
    Tp: sp.csr_matrix
    u_fix: np.ndarray
    A_fix: sp.csr_matrix          # diag(K, K) and B at the fixed DOFs' columns,
    B_fix: sp.csr_matrix          # kept for the Dirichlet correction of the loads
    factors: dict = field(default_factory=dict, repr=False)

    def expand(self, u_r, p_r):
        return self.Tu @ u_r + self.u_fix, self.Tp @ p_r

    def with_loads(self, space: FESpace, f, g) -> "ReducedSystem":
        """The loads (f, g) and fixed values of ``space`` on these blocks.

        Raises :class:`ConstraintMismatch` unless ``space`` lives on this
        system's mesh with this system's constrained pattern.
        """
        differs = [k for k in ("fixed_dofs", "vel_pairs", "p_pairs", "pressure_kernel")
                   if not np.array_equal(getattr(space, k), getattr(self.space, k))]
        if space.mesh is not self.space.mesh:
            differs.insert(0, "mesh")
        if differs:
            raise ConstraintMismatch(
                f"constrained pattern differs from the operator's: {', '.join(differs)}")
        u_fix = np.zeros(space.n_vel)
        u_fix[space.fixed_dofs] = space.fixed_vals
        # replace() hands the blocks and the factors dict on by reference
        return dataclasses.replace(
            self, space=space, u_fix=u_fix,
            f=self.Tu.T @ (f - self.A_fix @ space.fixed_vals),
            g=self.Tp.T @ (g - self.B_fix @ space.fixed_vals),
        )


def _prolongation(n, fixed, pairs):
    """Maps reduced DOFs to full: identity on free DOFs, copy to slaves."""
    target = np.arange(n, dtype=np.int64)
    is_slave = np.zeros(n, dtype=bool)
    if len(pairs):
        target[pairs[:, 0]] = pairs[:, 1]
        is_slave[pairs[:, 0]] = True
    is_fixed = np.zeros(n, dtype=bool)
    is_fixed[fixed] = True
    free = ~(is_fixed | is_slave)
    col_of = -np.ones(n, dtype=np.int64)
    col_of[free] = np.arange(free.sum())
    # a DOF copies its target's column unless the target is fixed (or is
    # itself a slave, which has no column)
    rows = np.flatnonzero(~is_fixed[target] & (col_of[target] >= 0))
    cols = col_of[target[rows]]
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, free.sum()))


def apply_constraints(system: StokesSystem) -> ReducedSystem:
    """Eliminate Dirichlet DOFs and fold periodic slaves into masters.

    The reduced velocity operator stays symmetric; the right-hand side gets
    the usual Dirichlet correction; pressure periodicity is folded the same
    way.  ``expand`` recovers full-length vectors with constrained DOFs set
    to their imposed values.  No constraint couples the two velocity
    components, so ``Tu`` is diag(S1, S2) and the reduced velocity block is
    diag(S1^T K S1, S2^T K S2), reduced from the one scalar stiffness.
    """
    space = system.space
    K, n, fixed = system.K, space.n_vnode, space.fixed_dofs
    Tu = _prolongation(space.n_vel, fixed, space.vel_pairs)
    Tp = _prolongation(space.n_p, np.empty(0, dtype=np.int64), space.p_pairs)
    m1 = int(Tu[:n].indices.max(initial=-1)) + 1     # free columns of u1
    split = np.searchsorted(fixed, n)                 # fixed DOFs of u1
    reduced = ReducedSystem(
        space=space,
        A=sp.block_diag([S.T @ K @ S for S in (Tu[:n, :m1], Tu[n:, m1:])], format="csc"),
        B=(Tp.T @ system.B @ Tu).tocsr(),
        Mp=(Tp.T @ system.Mp @ Tp).tocsr(),
        f=None, g=None, Tu=Tu, Tp=Tp, u_fix=None,
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


class VelocityField:
    """Pointwise evaluator of a discrete P2 velocity field."""

    def __init__(self, space: FESpace, u: np.ndarray, locator=None):
        self.space = space
        self.u = u
        self.locator = locator or PointLocator(space.mesh)
        self.nodes = _p2_nodes(space)

    def at(self, tri, lam):
        """Values (n, 2) at the located points (``tri``, ``lam``) that
        :meth:`PointLocator.locate` returns."""
        phi = p2_basis(lam)                      # (n, 6)
        nd = self.nodes[tri]                     # (n, 6)
        ux = np.einsum("ni,ni->n", phi, self.u[nd])
        uy = np.einsum("ni,ni->n", phi, self.u[self.space.n_vnode + nd])
        return np.stack([ux, uy], axis=1)

    def __call__(self, pts):
        return self.at(*self.locator.locate(pts))


class PressureField:
    """Pointwise evaluator of a discrete P1 pressure field."""

    def __init__(self, space: FESpace, p: np.ndarray, locator=None):
        self.space = space
        self.p = p
        self.locator = locator or PointLocator(space.mesh)

    def at(self, tri, lam):
        """Values (n,) at the located points (``tri``, ``lam``)."""
        nd = self.space.mesh.triangles[tri]
        return np.einsum("ni,ni->n", lam, self.p[nd])

    def __call__(self, pts):
        return self.at(*self.locator.locate(pts))


def _coeffs_on_quadrature(space: FESpace, coeffs, tri_sel=None):
    """:func:`eval_on_quadrature` of a velocity (length n_vel) or pressure
    (length n_p) coefficient vector: (fields, values (M, q, 2) or (M, q))."""
    if len(coeffs) == space.n_vel:
        fields = eval_on_quadrature(space, u=coeffs, tri_sel=tri_sel)
        return fields, fields["u"]
    if len(coeffs) == space.n_p:
        fields = eval_on_quadrature(space, p=coeffs, tri_sel=tri_sel)
        return fields, fields["p"]
    raise ValueError("coefficient vector length matches neither space")


def l2_norm_diff(space: FESpace, u, field_b, tri_sel=None):
    """L2 norm of (discrete field - reference) over a set of triangles.

    ``u`` is a velocity (length n_vel) or pressure (length n_p) coefficient
    vector, ``field_b`` a callable(points) returning matching values, or None
    for a plain norm.  ``tri_sel`` selects triangles as in
    :func:`eval_on_quadrature`.
    """
    fields, diff = _coeffs_on_quadrature(space, u, tri_sel)
    if field_b is not None:
        ref = np.asarray(field_b(fields["pts"].reshape(-1, 2)))
        diff = diff - ref.reshape(diff.shape)
    w = fields["w"] if diff.ndim == 2 else fields["w"][:, :, None]
    return float(np.sqrt(np.sum(w * diff**2)))


def integrate_field(space: FESpace, u, tri_sel=None, component=0):
    """Integral of a pressure, or of one velocity component, over a set of
    triangles (``tri_sel`` as in :func:`eval_on_quadrature`)."""
    fields, vals = _coeffs_on_quadrature(space, u, tri_sel)
    if vals.ndim == 3:
        vals = vals[:, :, component]
    return float(np.sum(fields["w"] * vals))


# ----------------------------------------------------------------------------
# line integrals: fluxes, section averages, band means
# ----------------------------------------------------------------------------


def edge_flux(space: FESpace, u, edges, normal=None):
    """Line integral of u . n over the given edges.

    With ``normal=None`` the edge-orientation outward normal is used
    (boundary edges keep the domain on their left); otherwise the fixed
    vector ``normal`` applies to every edge.
    """
    nodes, d, length = _edge_tables(space, np.asarray(edges).reshape(-1, 2))
    if normal is None:
        nrm = np.stack([d[:, 1], -d[:, 0]], axis=1) / length[:, None]
    else:
        nrm = np.broadcast_to(np.asarray(normal, dtype=float), d.shape)
    un = nrm[:, :1] * u[nodes] + nrm[:, 1:] * u[space.n_vnode + nodes]   # (E, 3)
    per_edge = length * np.einsum("q,qi,ei->e", EDGE_QW, p2_edge_trace(EDGE_QP), un)
    # a running total in edge order, as the fluxes have always been summed
    return float(np.cumsum(per_edge)[-1]) if len(per_edge) else 0.0


def _field_at(space: FESpace, u, component, t, pts):
    """Values at the points ``pts`` (n, k, 2) of the triangles ``t`` (n,) of a
    pressure (length n_p) or one velocity component (length n_vel)."""
    p, _, gradlam = _geometry_tables(space.mesh, t)
    lam = _barycentric(p[:, 0], gradlam, pts)
    if len(u) == space.n_p:
        return np.einsum("nki,ni->nk", lam, u[space.mesh.triangles[t]])
    coeff = u[component * space.n_vnode + _p2_nodes(space, t)]
    return np.einsum("nki,ni->nk", p2_basis(lam), coeff)


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


def band_integral(space: FESpace, u, y0, y1, component=0, average=False):
    """Integral (or mean) of a field component over the band y0 <= y <= y1.

    Triangles are clipped against the band, so the band boundaries need not
    be mesh lines.  Works for velocity (length n_vel) and pressure (length
    n_p) coefficient vectors.
    """
    y = space.mesh.vertices[:, 1][space.mesh.triangles]
    t = np.flatnonzero((y.max(axis=1) > y0 + 1e-14) & (y.min(axis=1) < y1 - 1e-14))
    p = _by_height(space.mesh, t)
    # the band is the part of each triangle below y1 minus the part below y0
    subs = []
    for c in (y1, y0):
        low, short, long = _cut(p, c)
        subs += [np.stack([p[:, 0], low, short], axis=1),
                 np.stack([p[:, 0], short, long], axis=1)]
    X = np.stack(subs, axis=1)                                   # (n, 4, 3, 2)
    area = 0.5 * np.abs(cross2(X[:, :, 1] - X[:, :, 0], X[:, :, 2] - X[:, :, 0]))
    area *= [1.0, 1.0, -1.0, -1.0]
    vals = _field_at(space, u, component, t, (TRI_QP @ X).reshape(len(t), -1, 2))
    total = float(np.sum((area[:, :, None] * TRI_QW).reshape(len(t), -1) * vals))
    if average:
        area_tot = float(np.sum(area))
        return total / area_tot if area_tot else 0.0
    return total


def section_average(space: FESpace, u, y2, component=0):
    """Horizontal average: integral of the field over the line y = y2.

    Each triangle crossed by the line contributes a Gauss-integrated
    segment.  A triangle with a whole edge on the line contributes only if
    it lies above the line, so shared mesh-line edges count once.  The
    domain width is 1, hence the line integral equals the average.  ``y2``
    may be an array of heights, which gives an array of averages.
    """
    heights = np.atleast_1d(np.asarray(y2, dtype=float))
    tol = 1e-13
    y = space.mesh.vertices[:, 1][space.mesh.triangles]
    # vertices within tol of the line count as on it; a triangle meets the
    # line when its lowest vertex is on or below it and its highest above
    k, t = np.nonzero((y.min(axis=1) < heights[:, None] + tol)
                      & (y.max(axis=1) >= heights[:, None] + tol))
    c = heights[k]
    p = _by_height(space.mesh, t)
    p[:, :, 1] = np.where(np.abs(p[:, :, 1] - c[:, None]) < tol, c[:, None], p[:, :, 1])
    _, short, long = _cut(p, c)
    x0, x1 = long[:, 0], short[:, 0]
    pts = np.stack([x0[:, None] + EDGE_QP * (x1 - x0)[:, None],
                    np.repeat(c[:, None], len(EDGE_QP), axis=1)], axis=-1)
    per = np.abs(x1 - x0) * (_field_at(space, u, component, t, pts) @ EDGE_QW)
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
    sel = slice(None) if tri_sel is None else tri_sel
    p_geom, area, gradlam = _geometry_tables(space.mesh, sel)
    out = {
        "pts": np.einsum("qj,mjd->mqd", TRI_QP, p_geom),
        "w": TRI_QW[None, :] * area[:, None],
    }
    if u is not None:
        nodes6 = _p2_nodes(space, sel)
        coeffs = np.stack([u[nodes6], u[space.n_vnode + nodes6]], axis=1)  # (M, 2, 6)
        out["u"] = (coeffs @ _TRI_P2.T).transpose(0, 2, 1)
        if grad:
            # d u_c/dx_d = sum_j (sum_i coeffs[c, i] C[q, i, j]) d lam_j/dx_d
            M, q = len(coeffs), len(TRI_QW)
            cl = coeffs @ _TRI_C.transpose(1, 0, 2).reshape(6, -1)       # (M, 2, q*3)
            gu = cl.reshape(M, 2 * q, 3) @ gradlam                       # (M, 2q, 2)
            out["gradu"] = gu.reshape(M, 2, q, 2).transpose(0, 2, 1, 3)
    if p is not None:
        out["p"] = np.einsum("qi,mi->mq", _TRI_P1, p[space.mesh.triangles[sel]])
    return out


def velocity_gradient_at(space: FESpace, u, tri, lam):
    """Velocity gradient (n, 2, 2), [i, j] = du_i/dx_j, at the located points
    (``tri``, ``lam``) that :meth:`PointLocator.locate` returns."""
    _, _, gradlam = _geometry_tables(space.mesh, tri)
    dphi = np.einsum("nij,njd->nid", _p2_grad_coeff(lam), gradlam)
    nodes6 = _p2_nodes(space, tri)
    coeffs = np.stack([u[c * space.n_vnode + nodes6] for c in range(2)])
    return np.einsum("nid,cni->ncd", dphi, coeffs)
