"""Zero-order model, interface data, first-order solves, flow-rate law.

Interface-data tests use the published constants directly; solves that need
a full constants set run on a synthetic instance, so this module does not
depend on the cell solver.
"""

import numpy as np
import pytest

from stentflow.cell import CellConstants
from stentflow.errors import CompatibilityFailure
from stentflow.fem import EDGE_QP, EDGE_QW
from stentflow.homogenized import (
    FlowData,
    _trace_flux,
    averaged_approximation,
    first_order_meshes,
    flowrate_first_order,
    flowrate_formula,
    implicit_interface_report,
    interface_dirichlet,
    solve_first_order,
    zero_order,
)

TABLE = CellConstants(
    beta1_plus=-0.377928, beta1_minus=-0.122114,
    ups1_plus=-0.000371269, ups1_minus=0.121744,
    eta_jump=27.9435, chi_grad_energy=27.9435,
    beta_grad_energy=0.1454, ups_grad_energy=0.121744,
    obstacle_area=float(np.pi * (3 / 16) ** 2),
)


class TestZeroOrder:
    def test_poiseuille_midpoint_and_shear(self):
        z = zero_order(FlowData(p_in=2.0, p_out1=0.0, p_out2=-1.0))
        u = z.velocity(np.array([[0.3, 0.5]]))
        assert u[0, 0] == pytest.approx(0.25)
        assert u[0, 1] == 0.0
        assert z.shear == pytest.approx(1.0)

    def test_aneurysm_lower_pressure_is_interface_mean(self):
        z = zero_order(FlowData(p_in=2.0, p_out1=0.0, case="aneurysm"))
        assert z.p_lower == pytest.approx(1.0)

    def test_constant_data_gives_rest(self):
        z = zero_order(FlowData(p_in=3.0, p_out1=3.0, p_out2=3.0))
        pts = np.array([[0.2, 0.7], [0.8, -0.5]])
        assert np.abs(z.velocity(pts)).max() == 0.0
        assert np.allclose(z.pressure(pts), 3.0)

    def test_pressure_fields(self):
        z = zero_order(FlowData(p_in=2.0, p_out1=0.0, p_out2=-1.0))
        pts = np.array([[0.0, 0.5], [1.0, 0.5], [0.5, -0.5]])
        assert np.allclose(z.pressure(pts), [2.0, 0.0, -1.0])

    def test_interior_stokes_residual(self):
        # closed form satisfies -lap(u) + grad(p) = 0: finite differences on
        # the quadratic profile are exact up to roundoff
        z = zero_order(FlowData(p_in=2.0, p_out1=0.0, p_out2=-1.0))
        rng = np.random.default_rng(7)
        pts = np.column_stack([rng.uniform(0.2, 0.8, 8),
                               rng.uniform(0.2, 0.8, 8)])
        d = 0.05
        for x, y in pts:
            lap = (z.velocity([[x, y + d]])[0, 0]
                   + z.velocity([[x, y - d]])[0, 0]
                   + z.velocity([[x + d, y]])[0, 0]
                   + z.velocity([[x - d, y]])[0, 0]
                   - 4 * z.velocity([[x, y]])[0, 0]) / d**2
            dpdx = (z.pressure([[x + d, y]])[0]
                    - z.pressure([[x - d, y]])[0]) / (2 * d)
            assert abs(-lap + dpdx) <= 1e-12


class TestInterfaceData:
    def test_vertical_component_reference_values(self):
        z = zero_order(FlowData(p_in=2.0, p_out1=0.0, p_out2=-1.0))
        tr = interface_dirichlet(z, TABLE, "plus")
        val = tr(np.array([0.0]))[0]
        # [p0](0) = 2 - (-1) = 3; vertical trace = -3/27.9435
        assert val[1] == pytest.approx(-3.0 / 27.9435, rel=1e-12)
        tr_minus = interface_dirichlet(z, TABLE, "minus")
        assert tr_minus(np.array([0.0]))[0][1] == pytest.approx(
            -3.0 / 27.9435, rel=1e-12)

    def test_horizontal_component_reference_values(self):
        z = zero_order(FlowData(p_in=2.0, p_out1=0.0, p_out2=-1.0))
        tr = interface_dirichlet(z, TABLE, "plus")
        val = tr(np.array([0.37]))[0]
        assert val[0] == pytest.approx(-0.378299269, rel=1e-9)

    def test_zero_drop_zero_trace(self):
        z = zero_order(FlowData(p_in=1.0, p_out1=1.0, p_out2=1.0))
        tr = interface_dirichlet(z, TABLE, "plus")
        assert np.abs(tr(np.linspace(0, 1, 5))).max() == 0.0

    def test_sign_pattern_vortex_inversion(self):
        # aneurysm: [p0] affine, zero exactly at the interface midpoint
        z = zero_order(FlowData(p_in=2.0, p_out1=0.0, case="aneurysm"))
        tr = interface_dirichlet(z, TABLE, "minus")
        u2 = tr(np.array([0.25, 0.5, 0.75]))[:, 1]
        un = -u2                       # normal points into the lower channel
        assert un[0] > 0 and un[2] < 0
        assert abs(un[1]) < 1e-15


@pytest.fixture(scope="module")
def collateral_first_order():
    flow = FlowData(p_in=2.0, p_out1=0.0, p_out2=-1.0)
    z = zero_order(flow)
    mu_, ml_ = first_order_meshes(0.08)
    return z, solve_first_order(mu_, ml_, z, TABLE)


class TestFirstOrder:
    def test_interface_trace_nodewise_exact(self, collateral_first_order, node_xy):
        z, fo = collateral_first_order
        space = fo.lower.space
        from stentflow.geometry import BoundaryTag as T

        edges = fo.mesh_lower.edges_with_tag(T.GAMMA0)
        nds = np.unique(edges.ravel())
        xy = node_xy(space)[nds]
        expect = fo.trace_minus(xy[:, 0])
        assert np.abs(fo.lower.u[nds] - expect[:, 0]).max() < 1e-13
        assert np.abs(fo.lower.u[space.n_vnode + nds] - expect[:, 1]).max() < 1e-13

    def test_zero_interface_data_gives_rest(self):
        flow = FlowData(p_in=1.0, p_out1=1.0, p_out2=1.0)
        z = zero_order(flow)
        mu_, ml_ = first_order_meshes(0.1)
        fo = solve_first_order(mu_, ml_, z, TABLE)
        assert np.abs(fo.upper.u).max() < 1e-12
        assert np.abs(fo.lower.u).max() < 1e-12

    def test_aneurysm_compatibility_holds(self):
        flow = FlowData(p_in=2.0, p_out1=0.0, case="aneurysm")
        z = zero_order(flow)
        mu_, ml_ = first_order_meshes(0.1, case="aneurysm")
        fo = solve_first_order(mu_, ml_, z, TABLE)
        # zero mean pressure normalization in the closed sac
        from stentflow.fem import integrate_field

        assert abs(integrate_field(fo.lower.space, fo.lower.p)) < 1e-10

    def test_aneurysm_compatibility_failure_detected(self):
        flow = FlowData(p_in=2.0, p_out1=0.0, case="aneurysm")
        z = zero_order(flow)
        z.p_lower = 0.7          # not the interface mean: net flux remains
        mu_, ml_ = first_order_meshes(0.1, case="aneurysm")
        with pytest.raises(CompatibilityFailure):
            solve_first_order(mu_, ml_, z, TABLE)

    def test_trace_flux_matches_segment_loop(self):
        # the vectorized 3-point rule against one Gauss sum per segment
        def trace(x):
            return np.stack([np.zeros_like(x), np.sin(3 * x) + x * x], axis=-1)

        xs = np.linspace(0.0, 1.0, 65)
        ref = sum((b - a) * float(EDGE_QW @ trace(a + EDGE_QP * (b - a))[:, 1])
                  for a, b in zip(xs[:-1], xs[1:]))
        assert abs(_trace_flux(trace) - ref) <= 1e-15 * abs(ref)
        assert _trace_flux(trace) == pytest.approx((1 - np.cos(3)) / 3 + 1 / 3,
                                                   rel=1e-10)

    def test_corner_pressure_grows_under_refinement(self):
        # the multi-valued corner data forces a pressure singularity
        flow = FlowData(p_in=2.0, p_out1=0.0, p_out2=-1.0)
        z = zero_order(flow)
        maxima = []
        for h in (0.1, 0.05):
            mu_, ml_ = first_order_meshes(h)
            fo = solve_first_order(mu_, ml_, z, TABLE)
            near = np.abs(fo.upper.p[
                (fo.mesh_upper.vertices[:, 0] < 0.2)
                & (fo.mesh_upper.vertices[:, 1] < 0.2)]).max()
            maxima.append(near)
        assert maxima[1] > maxima[0]


class TestAveraged:
    def test_eps_zero_reduces_to_zero_order(self, collateral_first_order):
        z, fo = collateral_first_order
        avg = averaged_approximation(z, fo, 0.0)
        pts = np.array([[0.3, 0.4], [0.7, -0.6]])
        assert np.array_equal(avg.velocity(pts), z.velocity(pts))
        assert np.array_equal(avg.pressure(pts), z.pressure(pts))

    def test_linear_in_eps(self, collateral_first_order):
        z, fo = collateral_first_order
        pts = np.array([[0.3, 0.4], [0.7, -0.6], [0.5, 0.01]])
        a1 = averaged_approximation(z, fo, 0.1)
        a2 = averaged_approximation(z, fo, 0.2)
        d1 = a1.velocity(pts) - z.velocity(pts)
        d2 = a2.velocity(pts) - z.velocity(pts)
        assert np.allclose(d2, 2 * d1, atol=1e-14)

    def test_interface_trace_consistency(self, collateral_first_order):
        z, fo = collateral_first_order
        eps = 0.125
        avg = averaged_approximation(z, fo, eps)
        x = np.linspace(0.1, 0.9, 7)
        got = avg.velocity(np.stack([x, np.zeros(7)], axis=1))[:, 1]
        expect = eps * fo.trace_plus(x)[:, 1]
        assert np.abs(got - expect).max() < 1e-12


class TestFlowRate:
    def test_reference_value(self):
        z = zero_order(FlowData(p_in=2.0, p_out1=0.0, p_out2=-1.0))
        q = flowrate_formula(z, TABLE, 0.125)
        assert q == pytest.approx(0.125 * 2.0 / 27.9435, rel=1e-12)
        assert q == pytest.approx(0.0089460, abs=1e-6)

    def test_zero_jump_zero_rate(self):
        z = zero_order(FlowData(p_in=2.0, p_out1=0.0, p_out2=1.0))
        assert flowrate_formula(z, TABLE, 0.125) == pytest.approx(0.0, abs=1e-15)

    def test_linear_in_eps(self):
        z = zero_order(FlowData(p_in=2.0, p_out1=0.0, p_out2=-1.0))
        assert flowrate_formula(z, TABLE, 0.25) == pytest.approx(
            2 * flowrate_formula(z, TABLE, 0.125), rel=1e-15)

    def test_matches_first_order_trace_integral(self, collateral_first_order):
        z, fo = collateral_first_order
        eps = 0.125
        q_formula = flowrate_formula(z, TABLE, eps)
        q_trace = flowrate_first_order(fo, eps)
        assert q_trace == pytest.approx(q_formula, rel=1e-12)

    def test_aneurysm_rejected(self):
        z = zero_order(FlowData(case="aneurysm"))
        with pytest.raises(ValueError):
            flowrate_formula(z, TABLE, 0.125)


class TestImplicitReport:
    def test_slip_residual_zero_by_construction(self, collateral_first_order):
        z, fo = collateral_first_order
        rows = implicit_interface_report(z, fo, TABLE, 0.125)
        assert max(abs(r["slip_residual"]) for r in rows) < 1e-9

    def test_eps_zero_all_residuals_vanish(self, collateral_first_order):
        z, fo = collateral_first_order
        rows = implicit_interface_report(z, fo, TABLE, 0.0)
        assert max(abs(r["slip_residual"]) for r in rows) < 1e-15
        assert max(abs(r["u_n"]) for r in rows) < 1e-15

    def test_normal_residual_first_order_small(self, collateral_first_order):
        z, fo = collateral_first_order
        eps = 0.125
        rows = implicit_interface_report(z, fo, TABLE, eps)
        mid = [r for r in rows if 0.2 < r["x1"] < 0.8]
        # the normal condition holds up to O(eps) relative to the data scale
        scale = max(abs(r["u_n"]) for r in rows)
        assert max(abs(r["normal_residual"]) for r in mid) < 5 * eps * scale

    def test_normal_residual_scales_as_eps_squared(self, collateral_first_order):
        # by the report's algebra the residual is (eps^2/[eta]) ([du2/dx2] - [p1])
        # with eps-independent first-order fields: halving eps divides it by 4
        # at every sample
        z, fo = collateral_first_order
        coarse, fine = (np.array([r["normal_residual"]
                                  for r in implicit_interface_report(z, fo, TABLE, eps)])
                        for eps in (1 / 8, 1 / 16))
        assert np.abs(fine).min() > 0
        assert np.abs(coarse / fine - 4).max() <= 1e-9
