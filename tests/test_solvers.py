"""Stokes and Poisson solvers: exactness, invariants, cross-validation."""

import dataclasses
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import stentflow.analysis as analysis
import stentflow.cell as cell
import stentflow.homogenized as homogenized
import stentflow.solvers as solvers
from stentflow.analysis import macro_bc_spec, solve_direct
from stentflow.cell import CellConstants, solve_all, solve_chi
from stentflow.cli import main
from stentflow.errors import NonConvergence
from stentflow.fem import (
    BC,
    ReducedSystem,
    Sources,
    apply_constraints,
    assemble_stokes,
    build_space,
    edge_flux,
    energy_norm_sq,
    eval_on_quadrature,
    integrate_field,
)
from stentflow.geometry import (
    BoundaryTag as T,
    ObstacleSpec,
    build_macro_geometry,
    build_strip_mesh,
    no_stent_mesh,
    rectangle_mesh,
    triangulate,
)
from stentflow.homogenized import FlowData, first_order_meshes, solve_first_order, zero_order
from stentflow.solvers import SolverConfig, factorize, solve_poisson, solve_stokes

WALL_TAGS = (T.GAMMA_IN, T.GAMMA_OUT1, T.GAMMA2, T.GAMMA1)


def quadrature_source(mesh, f):
    """f(points) at the volume quadrature points of ``mesh``, shaped (M, q)."""
    space = build_space(mesh, {t: BC.natural() for t in set(mesh.boundary_tags)})
    pts = eval_on_quadrature(space)["pts"]
    return f(pts.reshape(-1, 2)).reshape(pts.shape[:2])


def sine_source(pts):
    # -lap(sin(pi x) sin(pi y))
    return 2 * np.pi**2 * np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])


def poiseuille_system(h=0.25, p_in=2.0, p_out=0.0):
    mesh = rectangle_mesh(0, 1, 0, 1, h, tags=WALL_TAGS)
    bc = {
        T.GAMMA_IN: BC.pressure(p_in),
        T.GAMMA_OUT1: BC.pressure(p_out),
        T.GAMMA1: BC.dirichlet((0.0, 0.0)),
        T.GAMMA2: BC.dirichlet((0.0, 0.0)),
    }
    space = build_space(mesh, bc)
    return space, assemble_stokes(space)


class TestStokes:
    @pytest.mark.parametrize("method", ["uzawa_cg", "direct"])
    def test_poiseuille_exact(self, method, node_xy):
        space, system = poiseuille_system()
        sol = solve_stokes(system, SolverConfig(method=method))
        xy = node_xy(space)
        u1_exact = xy[:, 1] * (1 - xy[:, 1])
        assert np.abs(sol.u[: space.n_vnode] - u1_exact).max() <= 1e-8
        assert np.abs(sol.u[space.n_vnode :]).max() <= 1e-8
        p_exact = 2 * (1 - space.mesh.vertices[:, 0])
        assert np.abs(sol.p - p_exact).max() <= 1e-8

    def test_zero_pressure_drop(self):
        space, system = poiseuille_system(p_in=0.0, p_out=0.0)
        sol = solve_stokes(system)
        assert np.abs(sol.u).max() < 1e-12
        assert np.abs(sol.p).max() < 1e-10

    def test_enclosed_zero_data(self):
        # all-Dirichlet zero: kernel-flagged, u = 0 and p = 0 after projection
        mesh = rectangle_mesh(0, 1, 0, 1, 0.25, tags=WALL_TAGS)
        space = build_space(mesh, {t: BC.dirichlet((0.0, 0.0))
                                   for t in WALL_TAGS})
        system = assemble_stokes(space)
        assert system.space.pressure_kernel
        sol = solve_stokes(system)
        assert np.abs(sol.u).max() < 1e-12
        assert np.abs(sol.p - sol.p.mean()).max() < 1e-10

    def test_energy_identity(self):
        space, system = poiseuille_system(h=0.2)
        sol = solve_stokes(system)
        energy = energy_norm_sq(system, sol.u)
        work = float(system.f @ sol.u)
        assert abs(energy - work) <= 10 * 1e-10 * max(abs(work), 1.0)

    def test_mass_conservation_rough_case(self):
        geo = build_macro_geometry(0.25, "collateral", ObstacleSpec())
        mesh = triangulate(geo, 0.12)
        bc = {
            T.GAMMA_IN: BC.pressure(2.0),
            T.GAMMA_OUT1: BC.pressure(0.0),
            T.GAMMA_OUT2: BC.pressure(-1.0),
            T.GAMMA1: BC.dirichlet((0.0, 0.0)),
            T.GAMMA2: BC.dirichlet((0.0, 0.0)),
            T.GAMMA_EPS: BC.dirichlet((0.0, 0.0)),
        }
        space = build_space(mesh, bc)
        sol = solve_stokes(assemble_stokes(space))
        total = 0.0
        for tag in (T.GAMMA_IN, T.GAMMA_OUT1, T.GAMMA_OUT2):
            total += edge_flux(space, sol.u, mesh.edges_with_tag(tag))
        assert abs(total) <= 1e-9
        assert sol.diagnostics["divergence_residual"] <= 1e-9
        # discrete divergence vanishes row-wise, not just in norm
        system = assemble_stokes(space)
        assert np.abs(system.B @ sol.u).max() <= 1e-9

    def test_uzawa_matches_direct(self):
        space, system = poiseuille_system(h=0.2)
        s1 = solve_stokes(system, SolverConfig(method="uzawa_cg"))
        s2 = solve_stokes(system, SolverConfig(method="direct"))
        assert np.abs(s1.u - s2.u).max() <= 1e-9
        assert np.abs(s1.p - s2.p).max() <= 1e-8

    def test_bad_config(self):
        with pytest.raises(ValueError):
            SolverConfig(outer_tol=2.0)
        with pytest.raises(ValueError):
            SolverConfig(max_outer=0)

    def test_nonconvergence_raises_with_diagnostics(self):
        geo = build_macro_geometry(0.25, "collateral", ObstacleSpec())
        mesh = triangulate(geo, 0.15)
        bc = {
            T.GAMMA_IN: BC.pressure(2.0),
            T.GAMMA_OUT1: BC.pressure(0.0),
            T.GAMMA_OUT2: BC.pressure(-1.0),
            T.GAMMA1: BC.dirichlet((0.0, 0.0)),
            T.GAMMA2: BC.dirichlet((0.0, 0.0)),
            T.GAMMA_EPS: BC.dirichlet((0.0, 0.0)),
        }
        space = build_space(mesh, bc)
        with pytest.raises(NonConvergence) as exc:
            solve_stokes(assemble_stokes(space), SolverConfig(max_outer=2))
        assert exc.value.diagnostics["converged"] is False
        assert exc.value.diagnostics["iterations"] == 2


@pytest.fixture(scope="module")
def coarse_strip():
    return build_strip_mesh(ObstacleSpec(), L=10, h=1 / 12)


@pytest.fixture(scope="module")
def default_strip_A(default_strip, periodic_strip):
    # the default strip's periodic reduced A
    return periodic_strip(default_strip).operator.A


class TestFactorize:
    def test_symmetric_ordering_halves_fill(self, default_strip_A):
        A = default_strip_A
        lu = factorize(A)
        plain = spla.splu(A.tocsc())
        assert lu.L.nnz + lu.U.nnz <= 0.6 * (plain.L.nnz + plain.U.nnz)

    def test_panel_keeps_ordering_and_fill(self, default_strip_A):
        # the panel width changes how SuperLU works through the columns, not
        # the column ordering or the pattern of L and U
        A = default_strip_A
        lu = factorize(A)
        ref = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                        options={"SymmetricMode": True})
        assert np.array_equal(lu.perm_c, ref.perm_c)
        assert lu.L.nnz + lu.U.nnz == ref.L.nnz + ref.U.nnz
        b = np.sin(np.arange(A.shape[0]))
        assert np.linalg.norm(A @ lu.solve(b) - b) <= 1e-14 * np.linalg.norm(b)

    def test_panel_size_within_superlu_default(self):
        # a panel wider than SuperLU's default of 20 corrupts the heap
        assert 1 <= solvers.PANEL_SIZE <= 20

    def test_factorize_heap_clean_under_malloc_check(self):
        # glibc checks every allocation and aborts on a corrupted heap
        code = ("from stentflow.cell import _strip_bc\n"
                "from stentflow.fem import apply_constraints, assemble_stokes, build_space\n"
                "from stentflow.geometry import ObstacleSpec, build_strip_mesh\n"
                "from stentflow.solvers import factorize\n"
                "strip = build_strip_mesh(ObstacleSpec(), L=10, h=1 / 12)\n"
                "space = build_space(strip, _strip_bc(0.0, (0.0, 0.0)))\n"
                "A = apply_constraints(assemble_stokes(space)).A   # the periodic strip's A\n"
                "for _ in range(10):\n"
                "    factorize(A)\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, MALLOC_CHECK_="3",
                   PYTHONPATH=os.pathsep.join([src] + ([os.environ["PYTHONPATH"]]
                                                      if os.environ.get("PYTHONPATH") else [])))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

    def test_heap_trimmed_before_each_factorization(self, monkeypatch):
        events = []
        splu = spla.splu
        monkeypatch.setattr(solvers, "_malloc_trim", lambda: lambda pad: events.append("trim"))
        monkeypatch.setattr(spla, "splu", lambda *a, **k: events.append("splu") or splu(*a, **k))
        factorize(sp.identity(3, format="csc"))
        assert events == ["trim", "splu"]

    def test_heap_trim_is_a_no_op_without_the_symbol(self, monkeypatch):
        import ctypes

        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        solvers._malloc_trim.cache_clear()
        try:
            assert solvers._malloc_trim()(0) == 0
        finally:
            solvers._malloc_trim.cache_clear()

    def test_solution_matches_spsolve(self, coarse_strip, periodic_strip):
        A = periodic_strip(coarse_strip).operator.A
        b = np.sin(np.arange(A.shape[0]))
        x, ref = factorize(A).solve(b), spla.spsolve(A.tocsc(), b)
        # a failure says whether the factorization is at fault (a backward
        # error far above rounding) or only rounding noise between two
        # backward-stable solvers
        backward = [np.linalg.norm(A @ y - b) / np.linalg.norm(b) for y in (x, ref)]
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref), (
            "backward error |A x - b|/|b|: factorize {:.1e}, spsolve {:.1e}".format(*backward))

    def test_direct_cell_constants_match_uzawa(self, coarse_strip):
        # the pinned saddle point with a pressure kernel
        _, uzawa = solve_all(coarse_strip)
        _, direct = solve_all(coarse_strip, SolverConfig(method="direct"))
        for key, val in uzawa.as_dict().items():
            assert abs(getattr(direct, key) - val) <= 1e-7 * abs(val), key

    def test_one_factorization_per_matrix(self, monkeypatch, tmp_path):
        # the benchmark counts factorizations and their fill on spla.splu
        calls = []
        splu = spla.splu

        def counting_splu(*args, **kwargs):
            calls.append(args)
            return splu(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", counting_splu)
        solve_all(build_strip_mesh(ObstacleSpec(), L=10, h=1 / 16),
                  with_varkappa=False)
        # the velocity blocks of the half strip's odd and even operators; Mp
        # is not factored
        assert len(calls) == 2
        mesh = rectangle_mesh(0, 1, 0, 1, 0.2, tags=WALL_TAGS)
        solve_poisson(mesh, quadrature_source(mesh, sine_source),
                      np.unique(mesh.boundary_edges))
        assert len(calls) == 3
        # the commands: the two half-strip operators; one macro operator; the
        # two half-strip operators, the two first-order operators and, per
        # eps, one macro operator and one Poisson matrix
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"eps = 0.25\nmesh.h = 0.12\nstrip.h = {1 / 16}\nstrip.L = 4\n"
                       f"first_order.h = 0.1\noutput.dir = {tmp_path / 'out'}\n")
        for command, count in (("cell", 2), ("solve", 1), ("converge", 10)):
            calls.clear()
            assert main([command, "--config", str(cfg)]) == 0
            assert len(calls) == count, command


class TestPoisson:
    def test_zero_rhs(self):
        mesh = rectangle_mesh(0, 1, 0, 1, 0.2, tags=WALL_TAGS)
        q, norm = solve_poisson(mesh, None, np.unique(mesh.boundary_edges))
        assert np.abs(q).max() == 0.0
        assert norm == 0.0

    def test_manufactured_sine(self):
        # -lap(q) = 2 pi^2 sin(pi x) sin(pi y) -> q = sin sin, |grad q| = pi/sqrt(2)
        mesh = rectangle_mesh(0, 1, 0, 1, 0.05, tags=WALL_TAGS)
        q, norm = solve_poisson(mesh, quadrature_source(mesh, sine_source),
                                np.unique(mesh.boundary_edges))
        exact_nodal = (np.sin(np.pi * mesh.vertices[:, 0])
                       * np.sin(np.pi * mesh.vertices[:, 1]))
        assert np.abs(q - exact_nodal).max() < 0.02
        assert norm == pytest.approx(np.pi / np.sqrt(2), rel=0.02)

    def test_green_self_consistency(self):
        # rhs = 1: |grad q|^2 equals the integral of q (two quadratures agree)
        mesh = rectangle_mesh(0, 1, 0, 1, 0.1, tags=WALL_TAGS)
        ones = quadrature_source(mesh, lambda pts: np.ones(len(pts)))
        q, norm = solve_poisson(mesh, ones, np.unique(mesh.boundary_edges))
        space = build_space(mesh, {t: BC.natural() for t in WALL_TAGS})
        int_q = integrate_field(space, q)
        assert abs(norm**2 - int_q) < 1e-10

    def test_convergence_order(self, l2_distance):
        # L2 error of the P1 solution drops at order >= 1.9 under h-halving
        errs = []
        for h in (0.1, 0.05, 0.025):
            mesh = rectangle_mesh(0, 1, 0, 1, h, tags=WALL_TAGS)
            q, _ = solve_poisson(mesh, quadrature_source(mesh, sine_source),
                                 np.unique(mesh.boundary_edges))
            space = build_space(mesh, {t: BC.natural() for t in WALL_TAGS})
            exact = lambda pts: (np.sin(np.pi * pts[:, 0])
                                 * np.sin(np.pi * pts[:, 1]))
            errs.append(l2_distance(space, q, exact))
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert order1 >= 1.9 and order2 >= 1.9

    def test_stacked_sources_match_single_solves(self, monkeypatch):
        # a (k, M, q) stack shares one factorization and gives the k solves
        mesh = rectangle_mesh(0, 1, 0, 1, 0.05, tags=WALL_TAGS)
        nodes = np.unique(mesh.boundary_edges)
        sources = np.stack([quadrature_source(mesh, sine_source),
                            quadrature_source(mesh, lambda p: p[:, 0] ** 2 - p[:, 1])])
        singles = [solve_poisson(mesh, src, nodes) for src in sources]
        calls = []
        splu = spla.splu

        def counting_splu(*args, **kwargs):
            calls.append(args)
            return splu(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", counting_splu)
        q, norms = solve_poisson(mesh, sources, nodes)
        assert len(calls) == 1
        assert q.shape == (2, mesh.n_vertices) and norms.shape == (2,)
        for (q1, n1), qk, nk in zip(singles, q, norms):
            assert np.abs(qk - q1).max() <= 1e-14 * np.abs(q1).max()
            assert abs(nk - n1) <= 1e-14 * n1

    def test_source_must_be_quadrature_data(self):
        mesh = rectangle_mesh(0, 1, 0, 1, 0.2, tags=WALL_TAGS)
        with pytest.raises(ValueError, match="not \\(M, q\\)"):
            solve_poisson(mesh, sine_source, np.unique(mesh.boundary_edges))
        rhs = quadrature_source(mesh, sine_source)
        for bad in (rhs[:-1], rhs[:, :3], rhs.ravel(), rhs[:, :, None]):
            with pytest.raises(ValueError, match="not \\(M, q\\)"):
                solve_poisson(mesh, bad, np.unique(mesh.boundary_edges))


class TestStokesManufactured:
    """Taylor-Hood P2/P1 against a smooth divergence-free solution.

    Stream function psi = sin^2(pi x) sin^2(pi y), u = (psi_y, -psi_x), and
    p = cos(pi x) cos(pi y), which has zero mean; u vanishes on the whole
    boundary of the unit square.  The body force f = -lap(u) + grad(p) is
    written out by hand.  Expected rates (Brezzi & Fortin 1991): velocity L2
    3, velocity H1 2, pressure L2 at least 2.
    """

    @staticmethod
    def velocity(pts):
        x, y = np.pi * pts[:, 0], np.pi * pts[:, 1]
        return np.stack([np.pi * np.sin(x) ** 2 * np.sin(2 * y),
                         -np.pi * np.sin(2 * x) * np.sin(y) ** 2], axis=1)

    @staticmethod
    def velocity_gradient(pts):
        x2, y2 = 2 * np.pi * pts[..., 0], 2 * np.pi * pts[..., 1]
        pi2 = np.pi**2
        return np.stack([
            np.stack([pi2 * np.sin(x2) * np.sin(y2),
                      pi2 * (1 - np.cos(x2)) * np.cos(y2)], axis=-1),
            np.stack([-pi2 * np.cos(x2) * (1 - np.cos(y2)),
                      -pi2 * np.sin(x2) * np.sin(y2)], axis=-1),
        ], axis=-2)

    @staticmethod
    def pressure(pts):
        return np.cos(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])

    @staticmethod
    def body_force(pts):
        x, y = np.pi * pts[..., 0], np.pi * pts[..., 1]
        pi3 = np.pi**3
        return np.stack([
            -2 * pi3 * np.sin(2 * y) * (2 * np.cos(2 * x) - 1)
            - np.pi * np.sin(x) * np.cos(y),
            2 * pi3 * np.sin(2 * x) * (2 * np.cos(2 * y) - 1)
            - np.pi * np.cos(x) * np.sin(y),
        ], axis=-1)

    def errors(self, h, l2_distance):
        mesh = rectangle_mesh(0, 1, 0, 1, h, tags=WALL_TAGS)
        space = build_space(mesh, {t: BC.dirichlet((0.0, 0.0)) for t in WALL_TAGS})
        pts = eval_on_quadrature(space)["pts"]
        system = assemble_stokes(space, Sources(volume=self.body_force(pts)))
        sol = solve_stokes(system, SolverConfig(outer_tol=1e-12))
        fields = eval_on_quadrature(space, u=sol.u, grad=True)
        dgrad = fields["gradu"] - self.velocity_gradient(fields["pts"])
        p_mean_free = sol.p - integrate_field(space, sol.p)    # unit area
        return (l2_distance(space, sol.u, self.velocity),
                float(np.sqrt(np.sum(fields["w"][:, :, None, None] * dgrad**2))),
                l2_distance(space, p_mean_free, self.pressure))

    def test_convergence_rates(self, l2_distance):
        errs = np.array([self.errors(h, l2_distance) for h in (1 / 8, 1 / 16, 1 / 32)])
        rates = np.log2(errs[:-1] / errs[1:])          # rows: h pairs
        vel_l2, vel_h1, p_l2 = rates.T
        assert np.all((vel_l2 >= 2.8) & (vel_l2 <= 3.2)), rates
        assert np.all((vel_h1 >= 1.85) & (vel_h1 <= 2.15)), rates
        assert np.all(p_l2 >= 1.8), rates


def _first_order_solve():
    constants = CellConstants(
        beta1_plus=-0.377928, beta1_minus=-0.122114,
        ups1_plus=-0.000371269, ups1_minus=0.121744,
        eta_jump=27.9435, chi_grad_energy=27.9435,
        beta_grad_energy=0.1454, ups_grad_energy=0.121744,
        obstacle_area=float(np.pi * (3 / 16) ** 2))
    solve_first_order(*first_order_meshes(0.1), zero_order(FlowData()), constants)


class TestReducedBlocks:
    """Only the reduced blocks live through the factorization, and the
    factorization sees the same matrix as when the full blocks were kept."""

    @pytest.mark.parametrize("module, run", [
        (analysis, lambda: solve_direct(
            triangulate(build_macro_geometry(0.25, "collateral", ObstacleSpec()), 0.12),
            FlowData())),
        (cell, lambda: solve_chi(build_strip_mesh(ObstacleSpec(), L=4.0, h=1 / 12))),
        (homogenized, _first_order_solve),
    ], ids=["solve_direct", "strip_operator", "solve_first_order"])
    def test_assembled_system_freed_before_factorization(self, monkeypatch, module, run):
        assembled, seen = [], []

        def assemble(space, *args):
            system = assemble_stokes(space, *args)
            assembled.append((weakref.ref(system), weakref.ref(system.K)))
            return system

        def checked_factorize(M):
            seen.append([ref() is None for refs in assembled for ref in refs])
            return factorize(M)

        monkeypatch.setattr(module, "assemble_stokes", assemble)
        monkeypatch.setattr(solvers, "factorize", checked_factorize)
        run()
        assert assembled and seen
        # every factorization (one per solve) runs after the full blocks of
        # every system assembled so far are gone
        assert all(all(dead) for dead in seen), seen
        assert "system" not in {f.name for f in dataclasses.fields(ReducedSystem)}

    @staticmethod
    def _check_reduced_A(red, prolongations):
        # the reduced A is the canonical CSC matrix the factorization takes,
        # equal to the CSR-then-CSC reduction of a separately assembled
        # diag(K, K)
        assert red.A.tocsc() is red.A
        assert red.A.format == "csc" and red.A.has_canonical_format
        full = assemble_stokes(red.space)
        A = sp.block_diag([full.K, full.K], format="csr")
        Tu, _, _ = prolongations(red.space)
        ref = (Tu.T @ A @ Tu).tocsr().tocsc()
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(red.A, name), getattr(ref, name)), name
        return full

    @staticmethod
    def _check_loads(red, space, f, g, full, prolongations):
        Tu, Tp, u_fix = prolongations(space)
        n = space.n_vnode
        Au_fix = np.concatenate([full.K @ u_fix[:n], full.K @ u_fix[n:]])
        assert np.array_equal(red.f, Tu.T @ (f - Au_fix))
        assert np.array_equal(red.g, Tp.T @ (g - full.B @ u_fix))

    @staticmethod
    def _record_loads(monkeypatch):
        loads = []
        with_loads = ReducedSystem.with_loads

        def recording(self, space, f, g):
            red = with_loads(self, space, f, g)
            loads.append((red, space, f, g))
            return red

        monkeypatch.setattr(ReducedSystem, "with_loads", recording)
        return loads

    def test_strip_factor_input_and_corrector_loads(self, monkeypatch, periodic_strip,
                                                    default_strip, prolongations):
        loads = self._record_loads(monkeypatch)
        periodic_strip(default_strip).solve_all()
        # the operator's own (unloaded) reduction, then beta, upsilon, chi
        # and varkappa on its blocks
        assert len(loads) == 5
        full = self._check_reduced_A(loads[0][0], prolongations)
        for red, space, f, g in loads:
            assert red.A is loads[0][0].A
            self._check_loads(red, space, f, g, full, prolongations)

    def test_half_strip_factor_input_and_corrector_loads(self, monkeypatch, default_strip,
                                                         prolongations):
        loads = self._record_loads(monkeypatch)
        solve_all(default_strip, with_varkappa=True)
        # the odd and the even operator's own reductions, then chi on the
        # even blocks, and beta, upsilon and the odd part of varkappa on the
        # odd ones
        assert len(loads) == 6
        odd, even = loads[0][0], loads[1][0]
        full = {id(op.A): self._check_reduced_A(op, prolongations) for op in (odd, even)}
        for i, (red, space, f, g) in enumerate(loads):
            assert red.A is (even if i in (1, 2) else odd).A
            self._check_loads(red, space, f, g, full[id(red.A)], prolongations)

    def test_macro_factor_input_and_loads(self, prolongations):
        mesh = triangulate(build_macro_geometry(0.125, "collateral", ObstacleSpec()), 0.1)
        space = build_space(mesh, macro_bc_spec(mesh, FlowData()))
        system = assemble_stokes(space)
        red = apply_constraints(system)
        self._check_loads(red, space, system.f, system.g,
                          self._check_reduced_A(red, prolongations), prolongations)


@pytest.fixture(scope="module")
def suite_mass_matrices():
    """The reduced pressure mass matrix of each kind of solve the suite runs:
    the half strip, the macro problems at eps = 1/4, the first-order
    pair and the no-stent channel."""
    seen = {}
    mass_inverse = solvers._mass_inverse

    def recording(M):
        seen.setdefault(label, []).append(M)
        return mass_inverse(M)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_mass_inverse", recording)
        label = "strip"
        solve_chi(build_strip_mesh(ObstacleSpec(), L=4.0, h=1 / 16))
        for case in ("collateral", "aneurysm"):
            label = f"macro-{case}"
            solve_direct(triangulate(build_macro_geometry(0.25, case, ObstacleSpec()), 0.12),
                         FlowData(case=case))
            label = f"nostent-{case}"
            solve_direct(no_stent_mesh(case, 0.1), FlowData(case=case))
        label = "first-order"
        _first_order_solve()
    return [(f"{key}-{i}", M) for key, Ms in seen.items() for i, M in enumerate(Ms)]


class TestMassPreconditioner:
    """Chebyshev steps on diag(Mp)^-1 Mp stand in for Mp^-1 in Uzawa CG."""

    def test_scaled_spectrum_within_wathen_bounds(self, suite_mass_matrices):
        assert len(suite_mass_matrices) == 7
        for name, M in suite_mass_matrices:
            d = M.diagonal()
            if M.shape[0] <= 1000:
                lam = la.eigh(M.toarray(), np.diag(d), eigvals_only=True)
            else:
                s = sp.diags(1.0 / np.sqrt(d))
                lam = spla.eigsh(s @ M @ s, k=2, which="BE", tol=1e-12,
                                 return_eigenvectors=False)
            assert 0.5 - 1e-10 <= lam.min() and lam.max() <= 2.0 + 1e-10, name

    def test_error_in_mass_norm_within_chebyshev_bound(self, suite_mass_matrices):
        rng = np.random.default_rng(3)
        bound = 2.0 * 3.0 ** -solvers.CHEBYSHEV_STEPS
        for name, M in suite_mass_matrices:
            precond = solvers._mass_inverse(M)
            r, q = rng.normal(size=(2, M.shape[0]))
            x = spla.spsolve(M.tocsc(), r)
            e = precond(r) - x
            assert np.sqrt(e @ (M @ e)) <= bound * np.sqrt(x @ (M @ x)), name
            # a fixed polynomial in M: symmetric, as conjugate gradients needs
            assert abs(q @ precond(r) - r @ precond(q)) <= 1e-12 * abs(q @ x), name

    def test_default_strip_iterations_as_with_exact_inverse(self, periodic_strip, default_strip,
                                                            default_strip_cells):
        # on the periodic strip (the test reference) and on the half strip
        # (whose last solve is the odd part of varkappa), both as with the
        # exact Mp inverse; with 6 steps the periodic counts read
        # [9, 10, 11, 15], and the half strip's change from 5 steps down
        periodic_cells, _ = periodic_strip(default_strip).solve_all()
        for cells, expected in ((periodic_cells, [9, 9, 11, 15]),
                                (default_strip_cells[0], [9, 9, 11, 11])):
            iters = [cells[k].solution.diagnostics["iterations"]
                     for k in ("beta", "upsilon", "chi", "varkappa")]
            assert iters == expected
