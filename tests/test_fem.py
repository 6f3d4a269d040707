"""FEM core: quadrature, assembly, constraints, norms, line integrals."""

import numpy as np
import pytest

from stentflow.errors import ConflictingConstraints, UnassembledTag
from stentflow.fem import (
    BC,
    EDGE_QP,
    EDGE_QW,
    Sources,
    TRI_QP,
    TRI_QW,
    apply_constraints,
    assemble_stokes,
    band_integral,
    build_space,
    l2_norm_diff,
    section_average,
)
from stentflow.geometry import (
    BoundaryTag as T,
    ObstacleSpec,
    build_strip_mesh,
    rectangle_mesh,
)

WALL_TAGS = (T.GAMMA_IN, T.GAMMA_OUT1, T.GAMMA2, T.GAMMA1)


def flat_channel(h=0.25):
    return rectangle_mesh(0, 1, 0, 1, h, tags=WALL_TAGS)


def all_dirichlet_bc():
    return {t: BC.dirichlet((0.0, 0.0)) for t in WALL_TAGS}


class TestQuadrature:
    def test_triangle_rule_degree4(self):
        # exact for all monomials up to total degree 4 on the reference triangle
        for (a, b) in [(0, 0), (1, 0), (2, 0), (1, 1), (3, 0), (2, 1),
                       (4, 0), (3, 1), (2, 2)]:
            pts = TRI_QP[:, 1:]  # (lam1, lam2) = (x, y) on the reference
            val = float(np.sum(TRI_QW * pts[:, 0] ** a * pts[:, 1] ** b)) * 0.5
            # exact integral over the unit reference triangle
            import math

            exact = (math.factorial(a) * math.factorial(b)
                     / math.factorial(a + b + 2))
            assert val == pytest.approx(exact, abs=1e-14)

    def test_edge_rule_degree5(self):
        for k in range(6):
            val = float(np.sum(EDGE_QW * EDGE_QP ** k))
            assert val == pytest.approx(1.0 / (k + 1), abs=1e-14)


class TestSpace:
    def test_dof_counts(self):
        mesh = flat_channel()
        space = build_space(mesh, all_dirichlet_bc())
        n_edges = len(space.edges)
        assert space.n_vel == 2 * (mesh.n_vertices + n_edges)
        assert space.n_p == mesh.n_vertices

    def test_all_walls_dirichlet_fixes_all_boundary(self):
        mesh = flat_channel()
        space = build_space(mesh, all_dirichlet_bc())
        xy = space.node_xy
        on_bnd = ((np.abs(xy[:, 0]) < 1e-14) | (np.abs(xy[:, 0] - 1) < 1e-14)
                  | (np.abs(xy[:, 1]) < 1e-14) | (np.abs(xy[:, 1] - 1) < 1e-14))
        expected = 2 * on_bnd.sum()
        assert len(space.fixed_dofs) == expected
        assert np.all(space.fixed_vals == 0.0)

    def test_pressure_bc_fixes_parallel_component(self):
        mesh = flat_channel()
        bc = dict(all_dirichlet_bc())
        bc[T.GAMMA_IN] = BC.pressure(2.0)
        space = build_space(mesh, bc)
        xy = space.node_xy
        on_inflow = np.abs(xy[:, 0]) < 1e-14
        interior_inflow = on_inflow & (xy[:, 1] > 1e-14) & (xy[:, 1] < 1 - 1e-14)
        fixed = set(space.fixed_dofs)
        for nd in np.nonzero(interior_inflow)[0]:
            assert space.n_vnode + nd in fixed     # vertical component fixed
            assert nd not in fixed                 # horizontal free

    def test_periodic_pairs_on_strip(self):
        mesh = build_strip_mesh(None, L=2, h=0.25)
        bc = {
            T.STRIP_LEFT: BC.periodic(T.STRIP_RIGHT),
            T.STRIP_RIGHT: BC.periodic(T.STRIP_LEFT),
            T.STRIP_TOP: BC.normal(0.0),
            T.STRIP_BOTTOM: BC.normal(0.0),
        }
        space = build_space(mesh, bc)
        assert len(space.vel_pairs) > 0
        xy = space.node_xy
        for s, m in space.vel_pairs:
            sn, mn = s % space.n_vnode, m % space.n_vnode
            assert xy[sn, 0] == pytest.approx(1.0)     # slave on the right
            assert xy[mn, 0] == pytest.approx(0.0)
            assert xy[sn, 1] == pytest.approx(xy[mn, 1], abs=1e-14)

    def test_conflicting_constraints_raise(self):
        mesh = flat_channel()
        bc = dict(all_dirichlet_bc())
        bc[T.GAMMA_IN] = BC.dirichlet((1.0, 0.0))   # clashes with GAMMA1 corner
        with pytest.raises(ConflictingConstraints):
            build_space(mesh, bc)

    def test_no_dof_both_fixed_and_slave(self):
        mesh = build_strip_mesh(ObstacleSpec(), L=4, h=1 / 16)
        bc = {
            T.STRIP_LEFT: BC.periodic(T.STRIP_RIGHT),
            T.STRIP_RIGHT: BC.periodic(T.STRIP_LEFT),
            T.STRIP_TOP: BC.normal(0.0),
            T.STRIP_BOTTOM: BC.normal(0.0),
            T.GAMMA_EPS: BC.dirichlet((0.0, 0.0)),
        }
        space = build_space(mesh, bc)
        fixed = set(space.fixed_dofs.tolist())
        slaves = set(space.vel_pairs[:, 0].tolist())
        assert not fixed & slaves


class TestAssembly:
    def test_patch_test_constants_annihilated(self):
        mesh = flat_channel()
        space = build_space(mesh, all_dirichlet_bc())
        system = assemble_stokes(space)
        const = np.ones(space.n_vel)
        assert np.abs(system.A @ const).max() < 1e-12

    def test_unassembled_tag(self):
        mesh = flat_channel()
        space = build_space(mesh, {T.GAMMA_IN: BC.dirichlet((0, 0))})
        with pytest.raises(UnassembledTag):
            assemble_stokes(space)

    def test_zero_sources_pressure_terms_only(self):
        mesh = flat_channel()
        bc = dict(all_dirichlet_bc())
        bc[T.GAMMA_IN] = BC.pressure(2.0)
        bc[T.GAMMA_OUT1] = BC.pressure(0.0)
        space = build_space(mesh, bc)
        system = assemble_stokes(space)
        nz = np.nonzero(system.f)[0]
        xy = np.concatenate([space.node_xy, space.node_xy])[nz % space.n_vel]
        xs = space.node_xy[nz % space.n_vnode, 0]
        assert np.all((np.abs(xs) < 1e-14) | (np.abs(xs - 1) < 1e-14))
        # outward normal at the inflow is -e1: load is +h * trace weights
        assert system.f[nz].sum() == pytest.approx(2.0, abs=1e-12)

    def test_line_source_total_load(self):
        mesh = build_strip_mesh(ObstacleSpec(), L=6, h=1 / 16)
        bc = {
            T.STRIP_LEFT: BC.periodic(T.STRIP_RIGHT),
            T.STRIP_RIGHT: BC.periodic(T.STRIP_LEFT),
            T.STRIP_TOP: BC.normal(0.0),
            T.STRIP_BOTTOM: BC.normal(0.0),
            T.GAMMA_EPS: BC.dirichlet((0.0, 0.0)),
        }
        space = build_space(mesh, bc)
        system = assemble_stokes(space, Sources(line=(T.SIGMA, 1.0)))
        assert system.f.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(system.f[space.n_vnode:]).max() == 0.0  # e1 only


class TestConstraints:
    def test_no_constraints_identity(self):
        mesh = flat_channel()
        space = build_space(mesh, {t: BC.natural() for t in WALL_TAGS})
        system = assemble_stokes(space)
        red = apply_constraints(system)
        assert red.A.shape == system.A.shape
        assert abs((red.A - system.A)).max() < 1e-15
        assert np.array_equal(red.f, system.f)

    def test_all_velocity_fixed_degenerate(self):
        mesh = rectangle_mesh(0, 1, 0, 1, 1.0, tags=WALL_TAGS)  # 2 triangles
        space = build_space(mesh, all_dirichlet_bc())
        # fix every velocity DOF, including the interior diagonal midpoint
        space.fixed_dofs = np.arange(space.n_vel, dtype=np.int64)
        space.fixed_vals = np.zeros(space.n_vel)
        system = assemble_stokes(space)
        red = apply_constraints(system)
        assert red.A.shape[0] == 0          # no free velocity DOFs remain
        assert np.abs(red.g).max() < 1e-15  # divergence rhs stays consistent

    def test_periodic_fold_matches_dense_reference(self):
        # two-triangle strip: fold slave rows/cols into masters by hand
        mesh = build_strip_mesh(None, L=2, h=1.0)
        bc = {
            T.STRIP_LEFT: BC.periodic(T.STRIP_RIGHT),
            T.STRIP_RIGHT: BC.periodic(T.STRIP_LEFT),
            T.STRIP_TOP: BC.natural(),
            T.STRIP_BOTTOM: BC.natural(),
        }
        space = build_space(mesh, bc)
        system = assemble_stokes(space)
        red = apply_constraints(system)
        n = space.n_vel
        target = np.arange(n)
        for s, m in space.vel_pairs:
            target[s] = m
        keep = np.array([d for d in range(n) if target[d] == d])
        Td = np.zeros((n, len(keep)))
        col = {d: j for j, d in enumerate(keep)}
        for d in range(n):
            Td[d, col[target[d]]] = 1.0
        A_ref = Td.T @ system.A.toarray() @ Td
        assert np.abs(red.A.toarray() - A_ref).max() < 1e-13


class TestNorms:
    def test_l2_norm_same_field_zero(self):
        mesh = flat_channel(0.25)
        space = build_space(mesh, all_dirichlet_bc())
        u = np.random.default_rng(0).normal(size=space.n_vel)
        from stentflow.fem import VelocityField

        field = VelocityField(space, u)
        assert l2_norm_diff(space, u, field) < 1e-13

    def test_l2_norm_linear_field(self):
        # |x1 - 0| over the unit square = 1/sqrt(3)
        mesh = flat_channel(0.25)
        space = build_space(mesh, all_dirichlet_bc())
        p = mesh.vertices[:, 0].copy()
        assert l2_norm_diff(space, p, None) == pytest.approx(1 / np.sqrt(3),
                                                             abs=1e-14)

    def test_band_integral_constant(self):
        mesh = flat_channel(0.25)
        space = build_space(mesh, all_dirichlet_bc())
        p = np.full(space.n_p, 3.0)
        # band not aligned with mesh rows: clipping handles it
        val = band_integral(space, p, 0.1, 0.55)
        assert val == pytest.approx(3.0 * 0.45, abs=1e-12)
        assert band_integral(space, p, 0.1, 0.55, average=True) == pytest.approx(
            3.0, abs=1e-12)

    def test_section_average_constant_and_linear(self):
        mesh = flat_channel(0.25)
        space = build_space(mesh, all_dirichlet_bc())
        c = np.full(space.n_p, 2.5)
        assert section_average(space, c, 0.3) == pytest.approx(2.5, abs=1e-13)
        # on a mesh line, shared edges must be counted exactly once
        assert section_average(space, c, 0.5) == pytest.approx(2.5, abs=1e-13)
        lin = mesh.vertices[:, 0].copy()
        assert section_average(space, lin, 0.5) == pytest.approx(0.5, abs=1e-13)

    def test_quadratic_velocity_exact(self):
        mesh = flat_channel(0.5)
        space = build_space(mesh, all_dirichlet_bc())
        xy = space.node_xy
        u = np.concatenate([xy[:, 1] * (1 - xy[:, 1]), np.zeros(space.n_vnode)])
        exact = lambda pts: np.stack(
            [pts[:, 1] * (1 - pts[:, 1]), np.zeros(len(pts))], axis=1)
        assert l2_norm_diff(space, u, exact) < 1e-14

