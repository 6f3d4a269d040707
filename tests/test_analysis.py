"""Error norms, flow-rate measurement, slope fitting."""

import numpy as np
import pytest

import stentflow.analysis as analysis
from stentflow.analysis import (
    SLOPE_BANDS,
    _hm1_dirichlet_nodes,
    boundary_fluxes,
    check_slope_bands,
    convergence_study,
    fit_slope,
    flowrate_direct,
    hm1_pressure_error,
    l2_velocity_error,
    macro_bc_spec,
    solve_direct,
    velocity_profiles,
)
from stentflow.cell import CellConstants
from stentflow.config import parse_config
from stentflow.errors import NonConvergence
from stentflow.fem import PressureField, VelocityField
from stentflow.geometry import (
    BoundaryTag as T,
    ObstacleSpec,
    build_macro_geometry,
    triangulate,
)
from stentflow.homogenized import FlowData, zero_order


@pytest.fixture(scope="module")
def quarter_case():
    geo = build_macro_geometry(0.25, "collateral", ObstacleSpec())
    mesh = triangulate(geo, 0.12)
    direct = solve_direct(mesh, FlowData())
    return mesh, direct


class TestSlopeFit:
    def test_exact_powerlaw(self):
        eps = np.array([0.5, 0.25, 0.125, 0.0625])
        for s, c in [(0.9, 2.0), (1.5, 0.3), (1.15, 1.0)]:
            fit = fit_slope(eps, c * eps**s)
            assert fit.slope == pytest.approx(s, abs=1e-12)
            assert np.exp(fit.intercept) == pytest.approx(c, rel=1e-12)

    def test_excludes_eps_one(self):
        eps = np.array([1.0, 0.5, 0.25, 0.125])
        err = 0.7 * eps**1.3
        err[0] = 5.0                      # pre-asymptotic outlier at eps = 1
        fit = fit_slope(eps, err)
        assert fit.slope == pytest.approx(1.3, abs=1e-12)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_slope([0.5, 0.25], [1.0, 0.5])

    def test_bands_table(self):
        assert SLOPE_BANDS["l2_vel_zero"] == (0.7, 1.1)
        assert SLOPE_BANDS["l2_vel_first"][0] == 1.2


class TestErrorNorms:
    def test_self_interpolant_error_zero(self, quarter_case, l2_distance):
        mesh, direct = quarter_case
        field = VelocityField(direct.space, direct.u)
        err = l2_distance(direct.space, direct.u, field)
        assert err < 1e-13

    def test_flat_channel_vs_closed_form(self):
        # quadratic profile is represented exactly; only solver error remains
        from stentflow.geometry import rectangle_mesh
        from stentflow.fem import BC, assemble_stokes, build_space
        from stentflow.solvers import solve_stokes

        tags = (T.GAMMA_IN, T.GAMMA_OUT1, T.GAMMA2, T.GAMMA1)
        mesh = rectangle_mesh(0, 1, 0, 1, 0.2, tags=tags)
        bc = {
            T.GAMMA_IN: BC.pressure(2.0),
            T.GAMMA_OUT1: BC.pressure(0.0),
            T.GAMMA1: BC.dirichlet((0.0, 0.0)),
            T.GAMMA2: BC.dirichlet((0.0, 0.0)),
        }
        space = build_space(mesh, bc)
        sol = solve_stokes(assemble_stokes(space))

        def exact(pts):
            return np.stack([pts[:, 1] * (1 - pts[:, 1]),
                             np.zeros(len(pts))], axis=1)

        assert l2_velocity_error(sol, exact) <= 1e-8

    def test_hole_contribution_added(self, quarter_case, l2_distance):
        mesh, direct = quarter_case
        const = lambda pts: np.tile([[1.0, 0.0]], (len(pts), 1))
        e_holes = l2_velocity_error(direct, const)
        e_plain = l2_distance(direct.space, direct.u, const)
        hole_area = float(np.pi * np.sum(mesh.holes[:, 2] ** 2))
        assert e_holes**2 - e_plain**2 == pytest.approx(hole_area, rel=1e-3)

    def test_hm1_zero_difference(self, quarter_case):
        mesh, direct = quarter_case
        p_field = PressureField(direct.space, direct.p)
        assert hm1_pressure_error(direct, p_field) < 1e-12

    def test_hm1_evaluates_direct_pressure_without_point_location(
            self, quarter_case, monkeypatch):
        # the direct pressure is read element by element on its own mesh
        import stentflow.fem as fem

        builds = []
        init = fem.PointLocator.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(fem.PointLocator, "__init__", counting_init)
        mesh, direct = quarter_case
        zero = zero_order(FlowData())
        assert hm1_pressure_error(direct, zero.pressure) > 0
        assert builds == []

    @pytest.mark.parametrize("case", ["collateral", "aneurysm"])
    def test_hm1_dirichlet_nodes_match_edge_loop(self, case):
        # reference: the per-edge selection, written out edge by edge
        eps = 0.125
        mesh = triangulate(build_macro_geometry(eps, case, ObstacleSpec()), 0.1)
        y = mesh.vertices[:, 1]
        ref = set()
        for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
            for v in (int(a), int(b)):
                if (tag not in (T.GAMMA_IN, T.GAMMA_OUT1, T.GAMMA2)
                        or y[v] <= 1e-12 or y[v] >= eps - 1e-12):
                    ref.add(v)
        ref.update(int(v) for v in np.nonzero(
            (np.abs(y) < 1e-12) | (np.abs(y - eps) < 1e-12))[0])
        nodes = _hm1_dirichlet_nodes(mesh, eps)
        assert nodes.dtype == np.int64
        np.testing.assert_array_equal(nodes, np.array(sorted(ref)))

    def test_flowrate_zero_solution(self, quarter_case):
        mesh, direct = quarter_case
        import copy

        silent = copy.copy(direct)
        silent.u = np.zeros_like(direct.u)
        assert flowrate_direct(silent) == 0.0

    def test_flowrate_equals_lower_outflow(self, quarter_case):
        # the global balance (constant pressure test function) is exact up to
        # the solver tolerance; fluxes through individual sharp mesh lines
        # agree with each other at discretization accuracy
        mesh, direct = quarter_case
        fluxes = boundary_fluxes(direct)
        q = flowrate_direct(direct)
        assert q == pytest.approx(fluxes["GAMMA_OUT2"], rel=2e-3)
        total = (fluxes["GAMMA_IN"] + fluxes["GAMMA_OUT1"]
                 + fluxes["GAMMA_OUT2"])
        assert abs(total) < 1e-9

    def test_aneurysm_bc_spec_has_no_lower_outlet(self):
        geo = build_macro_geometry(0.25, "aneurysm", ObstacleSpec())
        mesh = triangulate(geo, 0.12)
        spec = macro_bc_spec(mesh, FlowData(case="aneurysm"))
        assert T.GAMMA_OUT2 not in spec
        assert spec[T.GAMMA2].kind == "dirichlet"


def test_pipeline_with_nonreference_obstacle():
    """End-to-end study for a different disk: the model-improvement
    orderings are geometry-independent even where the fitted slopes move
    with the obstacle shape (the acceptance bands target the reference
    disk)."""
    cfg = parse_config("obstacle.cx = 0.45\nobstacle.cy = 0.35\nobstacle.r = 0.12\n"
                       f"strip.h = {1 / 24}\nmesh.h = 0.12\nfirst_order.h = 0.08\n"
                       "eps_list = 0.25,0.125,0.0625")
    reports, fits, _, constants = convergence_study(cfg)
    assert constants.eta_jump > 0
    q_prev = np.inf
    for r in reports:
        assert r.error is None
        assert 0 < r.l2_vel_first < r.l2_vel_zero
        assert 0 < r.hm1_p_first < r.hm1_p_zero
        assert 0 < r.q_direct < q_prev
        q_prev = r.q_direct
    assert 0.7 <= fits["l2_vel_zero"].slope <= 1.2
    assert fits["l2_vel_first"].slope >= 1.2


class TestProfiles:
    def test_profile_rows(self, quarter_case):
        mesh, direct = quarter_case
        from stentflow.homogenized import zero_order

        z = zero_order(FlowData())

        class ZeroAvg:
            velocity = staticmethod(z.velocity)
            pressure = staticmethod(z.pressure)

        rows = velocity_profiles(direct, ZeroAvg(), 0.25)
        assert len(rows) == 201
        assert set(rows[0]) == {"x1", "u1_direct_at_eps", "u1_avg_at_eps",
                                "u2_direct_at_0", "u2_avg_at_0"}
        # direct horizontal velocity above the layer is positive mid-channel
        mid = rows[100]
        assert mid["x1"] == 0.5
        assert mid["u1_direct_at_eps"] > 0


def test_study_reads_its_inputs_from_the_config(monkeypatch):
    # eps_list, mesh.h, strip.L, strip.h and first_order.h of a parsed
    # config reach the study's meshers
    import stentflow.config as config

    seen = []

    def spy(fn, h_of):
        def wrapper(*args, **kwargs):
            seen.append((fn.__name__, h_of(*args, **kwargs)))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(config, "build_strip_mesh", spy(
        config.build_strip_mesh, lambda obstacle, L, h, refine_spec: (L, h)))
    monkeypatch.setattr(analysis, "triangulate", spy(
        analysis.triangulate, lambda geo, h, spec: (geo.eps, h)))
    monkeypatch.setattr(analysis, "first_order_meshes", spy(
        analysis.first_order_meshes, lambda h, spec, case: h))
    cfg = parse_config("eps_list = 0.5,0.25,0.125\nmesh.h = 0.25\nstrip.L = 4\n"
                       "strip.h = 0.0625\nfirst_order.h = 0.2\n")
    reports, _, _, _ = convergence_study(cfg)
    assert [r.eps for r in reports] == [0.5, 0.25, 0.125]
    assert all(r.error is None for r in reports)
    assert seen == [("build_strip_mesh", (4.0, 0.0625)), ("first_order_meshes", 0.2),
                    ("triangulate", (0.5, 0.25)), ("triangulate", (0.25, 0.25)),
                    ("triangulate", (0.125, 0.25))]


TABLE = CellConstants(
    beta1_plus=-0.377928, beta1_minus=-0.122114,
    ups1_plus=-0.000371269, ups1_minus=0.121744,
    eta_jump=27.9435, chi_grad_energy=27.9435,
    beta_grad_energy=0.1454, ups_grad_energy=0.121744,
    obstacle_area=float(np.pi * (3 / 16) ** 2),
)
COARSE_EPS = [0.5, 0.25, 0.125]


def coarse_study():
    """A cheap three-eps study with the paper's constants."""
    cfg = parse_config("mesh.h = 0.25\nfirst_order.h = 0.25\n"
                       f"eps_list = {','.join(map(str, COARSE_EPS))}")
    return convergence_study(cfg, constants=TABLE)


class TestStudyFailures:
    """Only a numerical failure turns one eps into an error row."""

    EPS = COARSE_EPS

    def run(self):
        return coarse_study()

    def test_nonconvergence_becomes_error_row(self, monkeypatch):
        real = analysis.solve_direct

        def flaky(mesh, flow, config=None):
            if mesh.meta["eps"] == 0.25:
                raise NonConvergence("uzawa_cg did not converge", {})
            return real(mesh, flow, config)

        monkeypatch.setattr(analysis, "solve_direct", flaky)
        reports, fits, _, _ = self.run()
        assert [r.eps for r in reports] == self.EPS
        assert [r.error is None for r in reports] == [True, False, True]
        assert reports[1].error.startswith("NonConvergence: ")
        assert reports[2].l2_vel_zero > 0
        assert fits == {}
        # the failed eps is a band violation, so `converge` exits 1
        assert "eps=0.25: NonConvergence: uzawa_cg did not converge" in (
            check_slope_bands(reports, fits))

    def test_programming_error_propagates(self, monkeypatch):
        def broken(mesh, flow, config=None):
            raise RuntimeError("not a numerical failure")

        monkeypatch.setattr(analysis, "solve_direct", broken)
        with pytest.raises(RuntimeError, match="not a numerical failure"):
            self.run()


class TestStudyWork:
    """Each eps locates its error points once and factors one Poisson matrix."""

    def test_one_location_and_one_factorization_per_eps(self, monkeypatch):
        import scipy.sparse.linalg as spla

        import stentflow.fem as fem

        located = []
        locate = fem.PointLocator.locate

        def counting_locate(self, pts):
            located.append(len(pts))
            return locate(self, pts)

        inside_poisson = []
        poisson_factors = []
        solve_poisson = analysis.solve_poisson
        splu = spla.splu

        def tracked_poisson(*args):
            inside_poisson.append(True)
            try:
                return solve_poisson(*args)
            finally:
                inside_poisson.pop()

        def counting_splu(*args, **kwargs):
            if inside_poisson:
                poisson_factors.append(args)
            return splu(*args, **kwargs)

        monkeypatch.setattr(fem.PointLocator, "locate", counting_locate)
        monkeypatch.setattr(analysis, "solve_poisson", tracked_poisson)
        monkeypatch.setattr(spla, "splu", counting_splu)
        reports, fits, _, _ = coarse_study()
        assert all(r.error is None for r in reports) and len(fits) == 4
        assert len(poisson_factors) == len(COARSE_EPS)
        # the 6 volume quadrature points of every direct triangle and the
        # 64 points of every obstacle disk, once; 4 x 201 profile points
        expected = sum(6 * r.meta["n_triangles"] + 64 * round(1 / r.eps) + 804
                       for r in reports)
        assert sum(located) == expected

    def test_corrector_meshes_located_on_by_one_locator_each(self, monkeypatch):
        # the study builds one locator per first-order corrector mesh and one
        # per direct mesh (its velocity profiles): 2 + 3 for three eps
        import stentflow.fem as fem

        built = []
        init = fem.PointLocator.__init__

        def counting_init(self, mesh):
            built.append(mesh)
            init(self, mesh)

        monkeypatch.setattr(fem.PointLocator, "__init__", counting_init)
        _, _, first, _ = coarse_study()
        assert len(built) == 5
        assert len({id(mesh) for mesh in built}) == 5
        assert [id(m) for m in built if m.meta["kind"] == "rectangle"] == [
            id(first.mesh_upper), id(first.mesh_lower)]
