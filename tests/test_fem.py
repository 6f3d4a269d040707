"""FEM core: quadrature, assembly, constraints, norms, line integrals."""

import dataclasses
import hashlib

import numpy as np
import pytest

import scipy.sparse as sp

from scipy.spatial import cKDTree

from stentflow.analysis import macro_bc_spec, solve_direct
from stentflow.cell import _strip_bc, identity_report, solve_all, solve_chi, solve_varkappa
from stentflow.errors import (
    ConflictingConstraints,
    PointLocationFailure,
    UnassembledTag,
)
from stentflow.fem import (
    BC,
    EDGE_QP,
    EDGE_QW,
    FESpace,
    PointLocator,
    PressureField,
    Sources,
    TRI_QP,
    TRI_QW,
    VelocityField,
    _TRI_C,
    _TRI_P1,
    _column_map,
    _geometry_tables,
    apply_constraints,
    assemble_stokes,
    band_integral,
    build_space,
    eval_on_quadrature,
    l2_norm_diff,
    p2_basis,
    scalar_p2_stiffness,
    section_average,
    velocity_gradient_at,
)
from stentflow.geometry import (
    BoundaryTag as T,
    ObstacleSpec,
    _mesh_edges,
    build_macro_geometry,
    build_strip_mesh,
    cross2,
    mirror_half,
    no_stent_mesh,
    rectangle_mesh,
    triangulate,
)
from stentflow.homogenized import (
    CellConstants,
    FlowData,
    first_order_meshes,
    interface_dirichlet,
    solve_first_order,
    zero_order,
)

WALL_TAGS = (T.GAMMA_IN, T.GAMMA_OUT1, T.GAMMA2, T.GAMMA1)


def flat_channel(h=0.25):
    return rectangle_mesh(0, 1, 0, 1, h, tags=WALL_TAGS)


def all_dirichlet_bc():
    return {t: BC.dirichlet((0.0, 0.0)) for t in WALL_TAGS}


TABLE = CellConstants(
    beta1_plus=-0.377928, beta1_minus=-0.122114,
    ups1_plus=-0.000371269, ups1_minus=0.121744,
    eta_jump=27.9435, chi_grad_energy=27.9435,
    beta_grad_energy=0.1454, ups_grad_energy=0.121744,
    obstacle_area=float(np.pi * (3 / 16) ** 2),
)

# sha256 of fixed_dofs, fixed_vals, vel_pairs, p_pairs and pressure_kernel
# (dtype, shape and bytes of each), as the per-DOF dictionary build of the
# constraint sets gave them; see _constraint_case for the (mesh, spec) pairs
CONSTRAINT_DIGESTS = {
    "macro-collateral-4": "426a7e194c4adcb0532fdc7068951242c424632be5e9c326fffd963ba509d57f",
    "macro-collateral-8": "3923a2b53558055cb1f115adfa2c78f1c48c8044b8e81d54e5e1de6ea590f992",
    "macro-collateral-16": "024303798103526479ac764d88bc9238af2529deb9004ca0bca28b70124a2f9b",
    "macro-collateral-64": "eefcf5d2803579a435f44af699c04ca5795062edd9432e59c7616e4b2bb3f64b",
    "nostent-collateral": "bd459738ec41f2586ab6c5d983e1070a568134801357c9ceafd3062c25f68270",
    "first-collateral-upper": "7e236abdaa26a38e6d78df1365920cf1a1386f688426c6164e297f8d1ca7e87d",
    "first-collateral-lower": "9439430f202377549882fd618ab963cb26a4370609f9af8dec9b3e3058be4506",
    "macro-aneurysm-4": "9d4473f8a261346508d4fb81d1c7ef0c00b9470fec4fd8f46f47fbc21dcc6d32",
    "macro-aneurysm-8": "3f996c2b15839ce4252e121b081b1504d43f7f82f359a0fd137dd22f93f0dee4",
    "macro-aneurysm-16": "53be5fe4103e6a4e44ffa658245b04dcb28ab6797bbfb767f98e625afda386df",
    "macro-aneurysm-64": "958e3f9ef1f22472e18b6de44f2b2a238b42d4fa7293c178b734d9e56283d588",
    "nostent-aneurysm": "311f965fc15031f4b7cdd00fff06d00a01a7e4b90cd52a9f344f26f030d1d100",
    "first-aneurysm-upper": "0b9990bca9dac8d927975834f5fdff3959025516b2e678f3ead5154975493cec",
    "first-aneurysm-lower": "5d28e8725ba98fac40818a9bb838d980db276ef5e76a0fb5f39d7f0e64028922",
    "strip-16-operator": "b59c614e783ff28fbebb02fae079d79d8646b4dcdc79027f2f85adba1694334a",
    "strip-16-beta": "7748f3b7e7c6ba4191841f0f9a42b2784e27aa0e118f735dad5dd726531f873f",
    "strip-16-chi": "f29bbb5763660d75cfe53c073462c3abdca80ec3657cfa1cc370413d76b1fab5",
    "strip-16-varkappa": "da0bed9d939af5308675cd3c5189a482ca2279493eb244fe9fcf42c2b7452bae",
    "strip-48-operator": "421cec247461770189061e55d9d9da358a8174df304a40c487bc0105ed531f1e",
    "strip-48-beta": "4981bc3d1e1ecf4df3829975ff01cbd9eda6664f31e8010f6da18a9b808b6979",
    "strip-48-chi": "0b8d3c956a3427a8a054955fbd9f569ec9ca985d2d700c0711e7bf8cd2aaa6f2",
    "strip-48-varkappa": "3da433116df444c531d0ca72e93a4ab3d9b191f0a618aeb3f51cffd0ec7db6af",
}

# sha256 of the reduced A, B and Mp (data, indices, indptr) and the reduced f
# and g of every CONSTRAINT_DIGESTS pair, as the reduction of the assembled
# diag(K, K) made them: the factorization's input, byte for byte
REDUCED_DIGESTS = {
    "macro-collateral-4": "366acce1b7815c3a080c3374b693323b0933132348d4c62f648acafec4f55d8b",
    "macro-collateral-8": "5932d79541df2cca5a603ecc41db75673ac7aaf763f791126cde1aa3611f0440",
    "macro-collateral-16": "f04b7ffde22fdded03e04d85bb2eb7d402251be3874f2868166fd9e735098649",
    "macro-collateral-64": "44357a6221f30c28b4fdb0bece703b7dd8b6f18831e68aea365e920e89b53104",
    "nostent-collateral": "42efbfbec5661614a0d75ff25bb7a491c04426f4a2438f2d24611b9272fcb600",
    "first-collateral-upper": "e17962f158b001e274d67eea3459c45adc067a1c223598fb658ba5725a83808b",
    "first-collateral-lower": "73028cd4ccc4c03d3c3b63ace09976f25b6745794f193a8d7fde8535f8bb74d4",
    "macro-aneurysm-4": "49a0b336ff42ece847835cb4ae44ca45d0ccd19cae61df56dcc2828ac75d6d02",
    "macro-aneurysm-8": "d9775e4a652831f3f1fe56770116d62461a456f0ef3b64e3006dcd5c9ea74718",
    "macro-aneurysm-16": "33d19b42a1a6fc677d6e60ae79ecefdf8de4562735a4981d78799259463bba7d",
    "macro-aneurysm-64": "610e76415c3b98b4a8f6cd5b4e9f85d1c638a9800513cfec2dad1e945d9842fd",
    "nostent-aneurysm": "314f320ff168be3f2e08955cdc878411c03b174ef4eec0a1c17be87b2e556234",
    "first-aneurysm-upper": "e4d1a6574d83868e459bf85d27115ec04ef728584326d14418cb18ffec0359bb",
    "first-aneurysm-lower": "2ac5150c815fec0df926643f0528057594b0ce0d53af7716c16926ac969cf840",
    "strip-16-operator": "10d78836e4f87284f3c49beb7e58cfde6ededb7738069d99d8f5d3dbd5b7cba1",
    "strip-16-beta": "cdba0c46db28fc9cc63875849bb7f5ecf7ced7baab58d8c3f0ac9e5a98bec66d",
    "strip-16-chi": "2afe4e0fb915e93ec12ab7f1f31e1e526553cf8f87c988bb4c2c3d84cfc7908a",
    "strip-16-varkappa": "cbb15fb8c3b18ed58db61610c582e6458ea7f020a2f06386b598922a8a04163f",
    "strip-48-operator": "3ccac439703ed1f80a880373c791f3d21245d797c80f274e416e48299c0e6f7c",
    "strip-48-beta": "107445b496cfcdc5b90be832a922b1fbc48200809ecb6ad95a4474f910d01aa3",
    "strip-48-chi": "6554fd9d4f9946991d169aabf0a3c5f54cb6ddcb5bf7a4598fbfa2bddd0ab28a",
    "strip-48-varkappa": "5e33dbe5abc28a381bd93d911439ed24b98564a1fdc789f466a9499961e8080f",
}


def _digest(arrays):
    """sha256 over the dtype, shape and bytes of each array."""
    digest = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        digest.update(f"{a.dtype.str}{a.shape}".encode())
        digest.update(a.tobytes())
    return digest.hexdigest()


def _constraint_case(name):
    """The (mesh, bc spec) pair of a CONSTRAINT_DIGESTS entry.

    ``macro-<case>-<1/eps>`` and ``nostent-<case>``: the direct problem's
    spec; ``first-<case>-upper|lower``: the first-order problem with its
    callable interface data; ``strip-<1/h>-<problem>``: a corrector on the
    obstacle strip.
    """
    kind, key, which = (name.split("-") + [None])[:3]
    if kind == "strip":
        mesh = build_strip_mesh(ObstacleSpec(), L=10.0, h=1 / int(key))
        obstacle = ((lambda xy: np.stack([-xy[:, 1], np.zeros(len(xy))], axis=1))
                    if which == "beta" else (0.0, 0.0))
        return mesh, _strip_bc({"chi": -1.0, "varkappa": 1.0}.get(which, 0.0), obstacle)
    flow = FlowData(case=key)
    if kind in ("macro", "nostent"):
        mesh = (no_stent_mesh(key, 0.1) if kind == "nostent" else
                triangulate(build_macro_geometry(1 / int(which), key, ObstacleSpec()), 0.1))
        return mesh, macro_bc_spec(mesh, flow)
    upper, lower = first_order_meshes(0.05, case=key)
    trace = interface_dirichlet(zero_order(flow), TABLE, "plus" if which == "upper" else "minus")
    spec = {T.GAMMA0: BC.dirichlet(lambda xy: trace(xy[:, 0]))}
    if which == "upper":
        spec.update({T.GAMMA_IN: BC.pressure(0.0), T.GAMMA_OUT1: BC.pressure(0.0),
                     T.GAMMA1: BC.dirichlet((0.0, 0.0))})
        return upper, spec
    spec[T.GAMMA2] = BC.dirichlet((0.0, 0.0))
    if key == "collateral":
        spec[T.GAMMA_OUT2] = BC.pressure(0.0)
    return lower, spec


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
    @pytest.mark.parametrize("which", ["macro-8", "strip", "half-strip", "graded"])
    def test_node_xy_is_vertices_then_midpoints(self, which, default_strip, graded_mesh):
        mesh = {
            "macro-8": lambda: triangulate(
                build_macro_geometry(1 / 8, "collateral", ObstacleSpec()), 0.1),
            "strip": lambda: default_strip,
            "half-strip": lambda: mirror_half(default_strip).mesh,
            "graded": lambda: graded_mesh,
        }[which]()
        space = build_space(mesh, {})
        v, e = mesh.vertices, space.edges
        ref = np.concatenate([v, 0.5 * (v[e[:, 0]] + v[e[:, 1]])])
        # computed on access, bit for bit the table the space used to store
        assert "node_xy" not in vars(space)
        assert space.node_xy.dtype == ref.dtype and space.node_xy.shape == ref.shape
        assert space.node_xy.tobytes() == ref.tobytes()

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

    def test_no_dof_both_fixed_and_slave(self, monkeypatch):
        # every space the cell and macro solves build, the half-strip
        # operators of the unobstructed strip included: fixed DOFs strictly
        # increasing, none of them a periodic slave or master
        spaces = []
        with_bc = FESpace.with_bc
        monkeypatch.setattr(FESpace, "with_bc",
                            lambda self, bc: spaces.append(with_bc(self, bc)) or spaces[-1])
        solve_all(build_strip_mesh(ObstacleSpec(), L=4, h=1 / 16))
        free = build_strip_mesh(None, L=4, h=0.25)
        solve_varkappa(free, solve_chi(free))
        for case in ("collateral", "aneurysm"):
            flow = FlowData(case=case)
            solve_direct(triangulate(build_macro_geometry(0.25, case, ObstacleSpec()), 0.12),
                         flow)
            solve_first_order(*first_order_meshes(0.1, case=case), zero_order(flow), TABLE)
        # per strip corrector a half-strip space and the periodic space its
        # solution is copied to, plus one space per half-strip operator
        assert len(spaces) == 22
        for space in spaces:
            assert np.all(np.diff(space.fixed_dofs) > 0)
            assert not np.isin(space.fixed_dofs, space.vel_pairs).any()
        assert sum(len(space.vel_pairs) > 0 for space in spaces) == 6

    @pytest.mark.parametrize("name", sorted(CONSTRAINT_DIGESTS))
    def test_constraint_sets_unchanged(self, name):
        # the constraint sets as the per-DOF dictionary build made them
        space = build_space(*_constraint_case(name))
        assert _digest((space.fixed_dofs, space.fixed_vals, space.vel_pairs, space.p_pairs,
                        np.array(space.pressure_kernel))) == CONSTRAINT_DIGESTS[name]

    @pytest.mark.parametrize("width, match", [
        (2, "node counts differ"),      # inflow side of length 1, top of 2
        (1, "traces do not match"),     # as many nodes, but not a translate
    ])
    def test_periodic_mismatch_raises(self, width, match):
        mesh = rectangle_mesh(0, width, 0, 1, 0.25, tags=WALL_TAGS)
        bc = dict(all_dirichlet_bc())
        bc[T.GAMMA_IN] = BC.periodic(T.GAMMA1)
        with pytest.raises(ConflictingConstraints, match=match):
            build_space(mesh, bc)


class TestAssembly:
    def test_patch_test_constants_annihilated(self):
        mesh = flat_channel()
        space = build_space(mesh, all_dirichlet_bc())
        system = assemble_stokes(space)
        const = np.ones(space.n_vnode)
        assert np.abs(system.K @ const).max() < 1e-12

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
        A = sp.block_diag([system.K, system.K])
        assert red.A.shape == A.shape
        assert abs((red.A - A)).max() < 1e-15
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
        A_ref = Td.T @ sp.block_diag([system.K, system.K]).toarray() @ Td
        assert np.abs(red.A.toarray() - A_ref).max() < 1e-13

    @pytest.mark.parametrize("name", sorted(REDUCED_DIGESTS))
    def test_column_maps_match_prolongations(self, name, prolongations):
        # expand and restrict give T u_r + u_fix and T^T v bit for bit,
        # periodic slaves included, for the matrices T they stand for
        space = build_space(*_constraint_case(name))
        red = apply_constraints(assemble_stokes(space))
        assert not {"Tu", "Tp", "u_fix"} & {f.name for f in dataclasses.fields(red)}
        assert len(space.vel_pairs) or not name.startswith("strip")
        Tu, Tp, u_fix = prolongations(space)
        rng = np.random.default_rng(5)
        u_r, p_r = rng.normal(size=Tu.shape[1]), rng.normal(size=Tp.shape[1])
        u_r[::5] = p_r[::5] = -0.0          # the products turn -0 into +0
        v, q = rng.normal(size=space.n_vel), rng.normal(size=space.n_p)
        u, p = red.expand(u_r, p_r)
        for got, ref in ((u, Tu @ u_r + u_fix), (p, Tp @ p_r),
                         (red.restrict(v), Tu.T @ v), (red.restrict(q), Tp.T @ q)):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    def test_doubly_periodic_corner_takes_final_master(self, prolongations):
        # with both side pairs periodic a corner's master is itself a slave;
        # every corner ends at one column, and no DOF is left without a
        # column unless it is fixed
        mesh = rectangle_mesh(0, 1, 0, 1, 0.25)
        bc = {T.GAMMA_IN: BC.periodic(T.GAMMA_OUT1), T.GAMMA_OUT1: BC.periodic(T.GAMMA_IN),
              T.GAMMA0: BC.periodic(T.GAMMA1), T.GAMMA1: BC.periodic(T.GAMMA0)}
        space = build_space(mesh, bc)
        red = apply_constraints(assemble_stokes(space))
        for col, fixed in ((red.u_col, space.fixed_dofs), (red.p_col, space.p_fixed)):
            assert np.all((col >= 0) != np.isin(np.arange(len(col)), fixed))
        corners = np.flatnonzero(np.all(np.isin(mesh.vertices, (0.0, 1.0)), axis=1))
        assert len(corners) == 4
        for dofs in (red.u_col[corners], red.u_col[space.n_vnode + corners], red.p_col[corners]):
            assert len(set(dofs)) == 1
        Tu, Tp, _ = prolongations(space)
        u_r, p_r = (np.arange(T.shape[1], dtype=float) for T in (Tu, Tp))
        u, p = red.expand(u_r, p_r)
        assert np.array_equal(u, Tu @ u_r) and np.array_equal(p, Tp @ p_r)

    @pytest.mark.parametrize("fixed, pairs", [([], [[0, 1], [1, 0]]),
                                              ([], [[0, 1], [1, 2], [2, 0]]),
                                              ([], [[0, 1], [0, 2]]), ([2], [[0, 1], [1, 2]])],
                             ids=["2-cycle", "3-cycle", "two masters", "fixed master"])
    def test_periodic_pairs_without_one_free_master_rejected(self, fixed, pairs):
        with pytest.raises(ConflictingConstraints, match="one free master"):
            _column_map(3, np.array(fixed, dtype=np.int64), np.array(pairs))

    @pytest.mark.parametrize("name", sorted(REDUCED_DIGESTS))
    def test_reduced_blocks_unchanged(self, name):
        # reducing K per component gives the bytes that reducing diag(K, K) gave
        red = apply_constraints(assemble_stokes(build_space(*_constraint_case(name))))
        blocks = [getattr(M, a) for M in (red.A, red.B, red.Mp)
                  for a in ("data", "indices", "indptr")]
        assert _digest(blocks + [red.f, red.g]) == REDUCED_DIGESTS[name]


class TestNorms:
    def test_l2_norm_same_field_zero(self, l2_distance):
        # the located evaluation agrees with the quadrature-point one
        mesh = flat_channel(0.25)
        space = build_space(mesh, all_dirichlet_bc())
        u = np.random.default_rng(0).normal(size=space.n_vel)
        from stentflow.fem import VelocityField

        field = VelocityField(space, u)
        assert l2_distance(space, u, field) < 1e-13

    def test_l2_norm_linear_field(self):
        # |x1 - 0| over the unit square = 1/sqrt(3)
        mesh = flat_channel(0.25)
        space = build_space(mesh, all_dirichlet_bc())
        p = mesh.vertices[:, 0].copy()
        assert l2_norm_diff(space, p) == pytest.approx(1 / np.sqrt(3), abs=1e-14)

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

    def test_quadratic_velocity_exact(self, l2_distance):
        mesh = flat_channel(0.5)
        space = build_space(mesh, all_dirichlet_bc())
        xy = space.node_xy
        u = np.concatenate([xy[:, 1] * (1 - xy[:, 1]), np.zeros(space.n_vnode)])
        exact = lambda pts: np.stack(
            [pts[:, 1] * (1 - pts[:, 1]), np.zeros(len(pts))], axis=1)
        assert l2_distance(space, u, exact) < 1e-14



# ----------------------------------------------------------------------------
# per-triangle references for the vectorized kernels
# ----------------------------------------------------------------------------


def _clip_below(poly, axis, value):
    """Keep the part of a polygon with coordinate <= value (S-H clipping)."""
    out = []
    n = len(poly)
    for i in range(n):
        cur, nxt = poly[i], poly[(i + 1) % n]
        c_in, n_in = cur[axis] <= value, nxt[axis] <= value
        if c_in:
            out.append(cur)
        if c_in != n_in:
            t = (value - cur[axis]) / (nxt[axis] - cur[axis])
            out.append(cur + t * (nxt - cur))
    return out


def _local_coeffs(space, u, t, component):
    mesh = space.mesh
    tris = mesh.triangles.astype(np.int64)
    if len(u) == space.n_p:
        return tris[t], u[tris[t]]
    nds = np.concatenate([tris[t], space.tri_edges[t] + mesh.n_vertices])
    return nds, u[component * space.n_vnode + nds]


def _values(space, u, t, component, pts, gradlam):
    d = pts - space.mesh.vertices[space.mesh.triangles[t, 0]]
    l1 = d @ gradlam[t, 1]
    l2 = d @ gradlam[t, 2]
    lam = np.stack([1 - l1 - l2, l1, l2], axis=1)
    _, coeff = _local_coeffs(space, u, t, component)
    return (lam @ coeff) if len(u) == space.n_p else (p2_basis(lam) @ coeff)


def reference_band_integral(space, u, y0, y1, component=0, average=False):
    """Triangle by triangle: Sutherland-Hodgman clip, fan, 6-point rule."""
    mesh = space.mesh
    p = mesh.vertices[mesh.triangles]
    ymin, ymax = p[:, :, 1].min(axis=1), p[:, :, 1].max(axis=1)
    sel = np.nonzero((ymax > y0 + 1e-14) & (ymin < y1 - 1e-14))[0]
    _, _, gradlam = _geometry_tables(mesh)
    total = area_tot = 0.0
    for t in sel:
        poly = _clip_below([p[t, k] for k in range(3)], 1, y1)
        if len(poly) < 3:
            continue
        poly = [-q for q in _clip_below([-np.asarray(q) for q in poly], 1, -y0)]
        if len(poly) < 3:
            continue
        for k in range(1, len(poly) - 1):
            sub = np.stack([poly[0], poly[k], poly[k + 1]])
            a2 = cross2(sub[1] - sub[0], sub[2] - sub[0])
            if abs(a2) < 1e-16:
                continue
            vals = _values(space, u, t, component, TRI_QP @ sub, gradlam)
            total += 0.5 * abs(a2) * float(TRI_QW @ vals)
            area_tot += 0.5 * abs(a2)
    if average:
        return float(total / area_tot) if area_tot else 0.0
    return float(total)


def reference_section_average(space, u, y2, component=0):
    """Triangle by triangle: the cut segment, a whole edge on the line
    counting only for the triangle above it, 3-point Gauss rule."""
    mesh = space.mesh
    p = mesh.vertices[mesh.triangles]
    ymin, ymax = p[:, :, 1].min(axis=1), p[:, :, 1].max(axis=1)
    tol = 1e-13
    sel = np.nonzero((ymin <= y2 + tol) & (ymax >= y2 - tol))[0]
    _, _, gradlam = _geometry_tables(mesh)
    total = 0.0
    for t in sel:
        yv = p[t, :, 1]
        on = np.abs(yv - y2) < tol
        if on.sum() >= 2:
            if yv.sum() - 3 * y2 < tol:   # triangle below the line: skip
                continue
            xs = p[t, on, 0]
        else:
            xs = list(p[t, on, 0])
            for k in range(3):
                a, b = p[t, k], p[t, (k + 1) % 3]
                if (a[1] - y2) * (b[1] - y2) < 0:
                    xs.append(a[0] + (y2 - a[1]) / (b[1] - a[1]) * (b[0] - a[0]))
            if len(xs) < 2:
                continue
        x0, x1 = min(xs), max(xs)
        if x1 - x0 < 1e-14:
            continue
        qpts = np.stack([x0 + EDGE_QP * (x1 - x0), np.full(3, y2)], axis=1)
        total += (x1 - x0) * float(EDGE_QW @ _values(space, u, t, component, qpts,
                                                      gradlam))
    return total


def reference_element_matrices(space):
    """K, B, Mp summed quadrature point by quadrature point."""
    mesh = space.mesh
    tris = mesh.triangles.astype(np.int64)
    nodes = np.concatenate([tris, space.tri_edges + mesh.n_vertices], axis=1)
    _, area, gradlam = _geometry_tables(mesh)
    M = len(tris)
    K, Bx, By, Mp = (np.zeros((M, 6, 6)), np.zeros((M, 3, 6)), np.zeros((M, 3, 6)),
                     np.zeros((M, 3, 3)))
    for q in range(len(TRI_QW)):
        dphi = np.einsum("ij,mjd->mid", _TRI_C[q], gradlam)
        w = (TRI_QW[q] * area)[:, None, None]
        lam = _TRI_P1[q]
        K += w * np.einsum("mid,mjd->mij", dphi, dphi)
        Bx -= w * lam[None, :, None] * dphi[:, None, :, 0]
        By -= w * lam[None, :, None] * dphi[:, None, :, 1]
        Mp += w * np.outer(lam, lam)[None]

    def coo(el, r, c, shape):
        rows = np.repeat(r, c.shape[1], axis=1).ravel()
        cols = np.tile(c, (1, r.shape[1])).ravel()
        return sp.coo_matrix((el.ravel(), (rows, cols)), shape=shape).tocsr()

    n, nv = space.n_vnode, mesh.n_vertices
    Ksp = coo(K, nodes, nodes, (n, n))
    B = sp.hstack([coo(Bx, tris, nodes, (nv, n)), coo(By, tris, nodes, (nv, n))])
    return Ksp, B.tocsr(), coo(Mp, tris, tris, (nv, nv))


@pytest.fixture(scope="module")
def strip_fields():
    mesh = build_strip_mesh(ObstacleSpec(), L=10, h=1 / 24)
    space = build_space(mesh, {t: BC.natural() for t in set(mesh.boundary_tags)})
    rng = np.random.default_rng(7)
    return space, rng.normal(size=space.n_vel), rng.normal(size=space.n_p)


def _field_cases(u, p):
    return [(p, 0), (u, 0), (u, 1)]


class TestClippedBandKernel:
    def test_random_bands_match_reference(self, strip_fields):
        space, u, p = strip_fields
        rng = np.random.default_rng(11)
        y0s = rng.uniform(-10, 8, size=4)
        for y0, y1 in zip(y0s, y0s + rng.uniform(0.2, 2.0, size=4)):
            for field, comp in _field_cases(u, p):
                for avg in (False, True):
                    ref = reference_band_integral(space, field, y0, y1, comp, avg)
                    val = band_integral(space, field, y0, y1, comp, avg)
                    assert abs(val - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_band_edges_through_vertices_and_on_mesh_lines(self, strip_fields):
        space, u, p = strip_fields
        y = space.mesh.vertices[:, 1]
        y0s = np.random.default_rng(5).choice(y, size=3)
        # bands from one vertex to the vertex nearest one unit above it
        through = [(y0, y[np.argmin(np.abs(y - y0 - 1.0))]) for y0 in y0s]
        # y = 0 and y = -1 are mesh lines; y = 1 one within a rounding error
        lines = [(-1.0, 0.0), (0.0, 1.0), (8.0, 9.0)]
        for y0, y1 in through + lines:
            for field, comp in _field_cases(u, p):
                ref = reference_band_integral(space, field, y0, y1, comp, True)
                val = band_integral(space, field, y0, y1, comp, average=True)
                assert abs(val - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_sections_match_reference(self, strip_fields):
        space, u, p = strip_fields
        y = space.mesh.vertices[:, 1]
        heights = np.concatenate([[-1.0, 0.0, 1.0, -5.0, 2.5, 8.25],
                                  np.random.default_rng(3).choice(y, size=4)])
        assert np.sum(np.abs(y - 1.0) < 1e-13) > 2     # a mesh line, rounded
        for field, comp in _field_cases(u, p):
            vals = section_average(space, field, heights, comp)
            for h, val in zip(heights, vals):
                ref = reference_section_average(space, field, h, comp)
                assert abs(val - ref) <= 1e-13 * max(1.0, abs(ref))
                assert section_average(space, field, h, comp) == val

    def test_shared_mesh_line_edge_counts_once(self, strip_fields):
        space, _, _ = strip_fields
        one = np.ones(space.n_p)
        vals = section_average(space, one, np.array([-1.0, 0.0, 1.0]))
        assert np.abs(vals - 1.0).max() <= 1e-13


@pytest.fixture(scope="module")
def short_strip():
    mesh = build_strip_mesh(ObstacleSpec(), L=3, h=1 / 16)
    return build_space(mesh, {t: BC.natural() for t in set(mesh.boundary_tags)})


class TestIntegrationRules:
    """Band and section rules: read at the mesh's edges, refused where they
    meet no triangle, built once per mesh and never shared between meshes."""

    def test_both_edges_read_from_inside(self, short_strip):
        # the bottom edge y = -3 is read from the triangles above it, the top
        # edge y = 3, which has none above, from those below
        space = short_strip
        one, y = np.ones(space.n_p), space.mesh.vertices[:, 1].copy()
        assert y.min() == -3.0 and y.max() == 3.0
        heights = np.array([-3.0, -2.999, 2.999, 3.0])
        assert np.abs(section_average(space, one, heights) - 1.0).max() <= 1e-13
        assert np.abs(section_average(space, y, heights) - heights).max() <= 1e-12
        vy = np.concatenate([np.zeros(space.n_vnode), space.node_xy[:, 1]])
        assert section_average(space, vy, 3.0, component=1) == pytest.approx(3.0, abs=1e-12)
        for y0, y1 in ((-3.0, -2.0), (2.0, 3.0)):
            assert band_integral(space, one, y0, y1) == pytest.approx(1.0, abs=1e-13)

    def test_lines_outside_the_mesh_raise(self, short_strip):
        one = np.ones(short_strip.n_p)
        with pytest.raises(ValueError, match=r"y = \[-5\.0, 5\.0\]"):
            section_average(short_strip, one, np.array([-5.0, 0.0, 5.0]))
        with pytest.raises(ValueError, match=r"y = \[3\.001\]"):
            section_average(short_strip, one, 3.001)

    def test_bands_outside_the_mesh_raise(self, short_strip):
        one = np.ones(short_strip.n_p)
        # a band beyond the mesh, and one that only touches its top edge
        for y0, y1 in ((4.0, 5.0), (3.0, 4.0), (-4.0, -3.0)):
            with pytest.raises(ValueError, match=rf"band \[{y0}, {y1}\]"):
                band_integral(short_strip, one, y0, y1)

    def test_rules_kept_per_mesh(self, short_strip):
        # an identical mesh, and the strip's half, build their own rules
        mesh = short_strip.mesh
        twin = build_strip_mesh(ObstacleSpec(), L=3, h=1 / 16)
        half = mirror_half(mesh).mesh
        spaces = [short_strip, build_space(twin, {}), build_space(half, {})]
        widths = []
        for space in spaces:
            one = np.ones(space.n_p)
            widths.append(band_integral(space, one, 1.0, 2.0))
            widths.append(section_average(space, one, 1.5))
        assert widths[:4] == widths[:2] * 2
        assert widths[4:] == [pytest.approx(0.5, abs=1e-13)] * 2
        rules = [m._integration_rules for m in (mesh, twin, half)]
        assert len(rules[1]) == len(rules[2]) == 2
        for key in rules[1]:
            ids = {id(a) for r in rules for a in r[key]
                   if isinstance(a, np.ndarray)}
            assert len(ids) == 3 * sum(isinstance(a, np.ndarray) for a in rules[0][key])
        # the rules are no field of the mesh
        assert "_integration_rules" not in {f.name for f in dataclasses.fields(mesh)}
        assert "_integration_rules" not in repr(mesh)

    def test_cell_builds_each_rule_once(self, monkeypatch):
        # solve_all and identity_report make 18 band integrals on two bands
        # and 6 section averages on two sets of heights
        import stentflow.cell as cell
        import stentflow.fem as fem

        builds, uses = [], []
        for module, name, log in ((fem, "_band_rule", builds), (fem, "_section_rule", builds),
                                  (cell, "band_integral", uses),
                                  (cell, "_section_average", uses)):
            def counting(*args, _f=getattr(module, name), _name=name, _log=log, **kwargs):
                _log.append(_name)
                return _f(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)
        mesh = build_strip_mesh(ObstacleSpec(), L=10, h=1 / 48)
        sols, constants = solve_all(mesh, with_varkappa=True)
        identity_report(*sols.values(), constants)
        assert sorted(builds) == ["_band_rule"] * 2 + ["_section_rule"] * 2
        assert sorted(uses) == ["_section_average"] * 6 + ["band_integral"] * 18
        # every corrector field reads the same bits from the kept rules as
        # from rules built afresh, and the triangle-by-triangle references
        # to rounding (they sum in another order)
        keys = list(mesh._integration_rules)
        bands = [tuple(np.frombuffer(k[1])) for k in keys if k[0] == "band"]
        sections = [np.frombuffer(k[1]) for k in keys if k[0] == "section"]
        cases = [(s.solution.space, f, comp) for s in sols.values()
                 for f, comp in _field_cases(s.solution.u, s.solution.p)]

        def read():
            return ([band_integral(space, f, *b, comp, avg) for space, f, comp in cases
                     for b in bands for avg in (False, True)],
                    [section_average(space, f, h, comp) for space, f, comp in cases
                     for h in sections])

        kept_bands, kept_sections = read()
        del mesh._integration_rules
        fresh_bands, fresh_sections = read()
        assert kept_bands == fresh_bands
        assert all(np.array_equal(a, b) for a, b in zip(kept_sections, fresh_sections))
        refs = [reference_band_integral(space, f, *b, comp, avg) for space, f, comp in cases
                for b in bands for avg in (False, True)]
        for val, ref in zip(kept_bands, refs):
            assert abs(val - ref) <= 1e-13 * max(1.0, abs(ref))
        refs = [[reference_section_average(space, f, y, comp) for y in h]
                for space, f, comp in cases for h in sections]
        for val, ref in zip(kept_sections, refs):
            assert np.abs(val - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


def _quadratic(xy):
    """A quadratic velocity field (n, 2) and its gradient (n, 2, 2)."""
    x, y = xy[..., 0], xy[..., 1]
    u = np.stack([0.3 * x * x - 0.7 * x * y + 0.2 * y * y + x - 0.5 * y + 0.1,
                  -0.4 * x * x + 0.6 * x * y - 0.3 * y * y - 0.2 * x + y], axis=-1)
    grad = np.stack([np.stack([0.6 * x - 0.7 * y + 1, -0.7 * x + 0.4 * y - 0.5], -1),
                     np.stack([-0.8 * x + 0.6 * y - 0.2, 0.6 * x - 0.6 * y + 1], -1)],
                    axis=-2)
    return u, grad


class TestEvaluationKernel:
    """The shared (quadrature) and located branches of field evaluation."""

    def test_quadratic_gradients_exact(self, strip_fields):
        # P2 interpolates a quadratic velocity and P1 a linear pressure
        # exactly, at quadrature points and at located points alike
        space = strip_fields[0]
        u = _quadratic(space.node_xy)[0].T.ravel()
        p = 2.0 - 0.3 * space.mesh.vertices[:, 0] + 0.7 * space.mesh.vertices[:, 1]
        fields = eval_on_quadrature(space, u=u, p=p, grad=True)
        rng = np.random.default_rng(2)
        tri = rng.integers(space.mesh.n_triangles, size=2000)
        lam = rng.dirichlet(np.ones(3), size=len(tri))
        pts = np.einsum("nk,nkd->nd", lam, space.mesh.vertices[space.mesh.triangles[tri]])
        shared = (fields["u"], fields["gradu"], fields["p"])
        located = (VelocityField(space, u).at(tri, lam),
                   velocity_gradient_at(space, u, tri, lam),
                   PressureField(space, p).at(tri, lam))
        for xy, values in ((fields["pts"], shared), (pts, located)):
            exact = _quadratic(xy) + (2.0 - 0.3 * xy[..., 0] + 0.7 * xy[..., 1],)
            for val, ref in zip(values, exact):
                assert np.abs(val - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_located_matches_shared_at_quadrature_points(self, strip_fields):
        space, u, p = strip_fields
        fields = eval_on_quadrature(space, u=u, p=p, grad=True)
        n, q = fields["w"].shape
        tri, lam = np.repeat(np.arange(n), q), np.tile(TRI_QP, (n, 1))
        vel = VelocityField(space, u).at(tri, lam).reshape(n, q, 2)
        prs = PressureField(space, p).at(tri, lam).reshape(n, q)
        grad = velocity_gradient_at(space, u, tri, lam).reshape(n, q, 2, 2)
        for located, shared in ((vel, fields["u"]), (prs, fields["p"]),
                                (grad, fields["gradu"])):
            assert located.shape == shared.shape
            assert np.abs(located - shared).max() <= 1e-13 * np.abs(shared).max()
        # the same values through point location, on a sample of the points
        pts = fields["pts"][::97].reshape(-1, 2)
        assert np.abs(PressureField(space, p)(pts) - fields["p"][::97].ravel()).max() \
            <= 1e-13 * np.abs(fields["p"]).max()
        assert np.abs(VelocityField(space, u)(pts) - fields["u"][::97].reshape(-1, 2)
                      ).max() <= 1e-13 * np.abs(fields["u"]).max()


class TestElementKernel:
    @pytest.mark.parametrize("which", ["strip", "macro"])
    def test_matches_quadrature_point_reference(self, which):
        if which == "strip":
            mesh = build_strip_mesh(ObstacleSpec(), L=4, h=1 / 16)
        else:
            mesh = triangulate(build_macro_geometry(0.25, "collateral",
                                                   ObstacleSpec()), 0.12)
        space = build_space(mesh, {t: BC.natural() for t in set(mesh.boundary_tags)})
        system = assemble_stokes(space)
        for new, ref in zip((system.K, system.B, system.Mp),
                            reference_element_matrices(space)):
            assert abs(new - ref).max() <= 1e-14 * abs(ref).max()
        assert abs(system.K - system.K.T).max() == 0.0
        K = scalar_p2_stiffness(space)
        assert abs(K - system.K).max() == 0.0
        assert np.all(system.K.data != 0)          # exact zeros stay out of K
        # a vertex and the midpoint of the opposite edge share one triangle,
        # and their grad-grad entry vanishes exactly
        tris = mesh.triangles
        for i in range(3):
            assert np.all(K[tris[:, i], space.tri_edges[:, i] + mesh.n_vertices] == 0)


def _rowwise_edges(tris):
    e = np.concatenate([tris[:, [1, 2]], tris[:, [2, 0]], tris[:, [0, 1]]])
    uniq, inv = np.unique(np.sort(e, axis=1), axis=0, return_inverse=True)
    return uniq, inv.reshape(3, -1).T


def _rowwise_boundary_edges(tris):
    e = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    _, inv, counts = np.unique(np.sort(e, axis=1), axis=0, return_inverse=True,
                               return_counts=True)
    return e[counts[inv] == 1]


def _rowwise_interior_line_edges(verts, tris, axis, value):
    e = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    uniq, counts = np.unique(np.sort(e, axis=1), axis=0, return_counts=True)
    interior = uniq[counts == 2]
    on = np.abs(verts[:, axis] - value) < 1e-12
    return interior[on[interior[:, 0]] & on[interior[:, 1]]]


@pytest.mark.parametrize("which", ["default strip", "eps = 1/8 macro"])
def test_integer_edge_keys_match_rowwise_unique(which):
    if which == "default strip":
        mesh = build_strip_mesh(ObstacleSpec(), L=10, h=1 / 48)
    else:
        mesh = triangulate(build_macro_geometry(0.125, "collateral",
                                               ObstacleSpec()), 0.1)
    tris = mesh.triangles.astype(np.int64)
    ref_edges, ref_tri_edges = _rowwise_edges(tris)
    for t in (tris, mesh.triangles):
        edges, keys, tri_edges, bed, line = _mesh_edges(mesh.vertices, t)
        assert np.array_equal(edges, ref_edges)
        # local edges come as 01, 12, 20; the FE space numbers them by the
        # opposite vertex
        assert np.array_equal(tri_edges[:, [1, 2, 0]], ref_tri_edges)
        assert np.array_equal(keys, ref_edges[:, 0] * mesh.n_vertices + ref_edges[:, 1])
        ref = _rowwise_boundary_edges(t)
        assert bed.dtype == ref.dtype and np.array_equal(bed, ref)
        ref = _rowwise_interior_line_edges(mesh.vertices, t, 1, 0.0)
        assert line.dtype == ref.dtype and np.array_equal(line, ref)
        assert len(ref)


# ----------------------------------------------------------------------------
# point location: the staged kd-tree search against a scan of all triangles
# ----------------------------------------------------------------------------


def _bary(mesh, pts, tris):
    """Barycentrics (n, k, 3) of each point pts[i] in the triangles tris[i]
    (n, k), or in tris[0] for every point when tris is (1, k); Cramer's rule."""
    v = mesh.vertices[mesh.triangles[tris]]                  # (., k, 3, 2)
    e1, e2 = v[..., 1, :] - v[..., 0, :], v[..., 2, :] - v[..., 0, :]
    det = e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0]
    d = pts[:, None, :] - v[..., 0, :]
    l1 = (d[..., 0] * e2[..., 1] - d[..., 1] * e2[..., 0]) / det
    l2 = (e1[..., 0] * d[..., 1] - e1[..., 1] * d[..., 0]) / det
    return np.stack([1 - l1 - l2, l1, l2], axis=-1)


def _check_against_scan(mesh, pts):
    """Locate ``pts`` and compare with a scan of every triangle."""
    tri, lam = PointLocator(mesh).locate(pts)
    every = np.arange(mesh.n_triangles)[None, :]
    for chunk in np.array_split(np.arange(len(pts)), -(-len(pts) // 500)):
        ref = _bary(mesh, pts[chunk], every)
        inside = np.all(ref >= -1e-10, axis=-1)
        rows = np.arange(len(chunk))
        assert inside.any(axis=1).all()
        # the returned triangle contains its point, with matching barycentrics
        assert inside[rows, tri[chunk]].all()
        assert np.abs(lam[chunk] - ref[rows, tri[chunk]]).max() < 1e-12
        # a point inside exactly one triangle gets that triangle
        single = inside.sum(axis=1) == 1
        assert np.array_equal(tri[chunk][single], inside[single].argmax(axis=1))
    return tri


@pytest.fixture(scope="module")
def graded_mesh():
    # the upper corrector mesh of the study: 2:1 transition bands coarsen the
    # grid away from the interface
    return rectangle_mesh(0, 1, 0, 1, 0.05, grade_to_y=0.0)


class TestPointLocator:
    def test_random_points_match_scan(self, graded_mesh):
        pts = np.random.default_rng(3).random((3000, 2))
        _check_against_scan(graded_mesh, pts)

    def test_vertices_and_shared_edges(self, graded_mesh):
        v = graded_mesh.vertices
        e = _rowwise_edges(graded_mesh.triangles.astype(np.int64))[0]
        pts = np.concatenate([v, 0.5 * (v[e[:, 0]] + v[e[:, 1]]),
                              (2 * v[e[:, 0]] + v[e[:, 1]]) / 3])
        _check_against_scan(graded_mesh, pts)

    def test_points_beyond_the_four_nearest_centroids(self, graded_mesh):
        # quadrature points of the eps = 1/16 macro mesh in the upper channel,
        # as the study places them on this mesh: a few lie in none of the
        # triangles of their 4 nearest centroids
        macro = triangulate(build_macro_geometry(0.0625, "collateral",
                                                 ObstacleSpec()), 0.1)
        pts = np.einsum("qj,mjd->mqd", TRI_QP,
                        macro.vertices[macro.triangles]).reshape(-1, 2)
        pts = pts[pts[:, 1] >= 0.0]
        p = graded_mesh.vertices[graded_mesh.triangles]
        _, near = cKDTree(p.mean(axis=1)).query(pts, k=4)
        far = ~np.any(np.all(_bary(graded_mesh, pts, near) >= -1e-10, axis=-1),
                      axis=1)
        assert far.sum() > 0
        _check_against_scan(graded_mesh, pts[far])

    def test_point_outside_mesh_raises(self):
        macro = triangulate(build_macro_geometry(0.25, "collateral",
                                                 ObstacleSpec()), 0.12)
        locator = PointLocator(macro)
        hole = macro.holes[0, :2]
        for bad in ([1.5, 0.5], hole):
            with pytest.raises(PointLocationFailure):
                locator.locate(np.array([[0.5, 0.5], bad]))
