"""Zero-order closed form, first-order interface corrector, averaged model.

The zero-order solution is a Poiseuille profile in the upper channel and a
constant-pressure rest state below.  The first-order corrector solves two
independent Stokes problems on the unit square above and the unit-depth
channel below, with explicit Dirichlet data on the interface built from the
homogenized constants.  Their combination u0 + eps*u1 is the averaged
first-order approximation, which carries the explicit transmural flow-rate
law.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .cell import CellConstants
from .errors import CompatibilityFailure
from .fem import (
    BC,
    EDGE_QP,
    EDGE_QW,
    PointLocator,
    PressureField,
    VelocityField,
    assemble_stokes,
    build_space,
    edge_flux,
    integrate_field,
    velocity_gradient_at,
)
from .geometry import BoundaryTag as T, Mesh, RefineSpec, rectangle_mesh
from .solvers import SolverConfig, StokesSolution, solve_stokes


@dataclass(frozen=True)
class FlowData:
    """Prescribed boundary pressures; p_out2 is ignored in the aneurysm case."""

    p_in: float = 2.0
    p_out1: float = 0.0
    p_out2: float = -1.0
    case: str = "collateral"

    def __post_init__(self):
        for v in (self.p_in, self.p_out1, self.p_out2):
            if not math.isfinite(v):
                raise ValueError("flow data must be finite")
        if self.case not in ("collateral", "aneurysm"):
            raise ValueError(f"case must be collateral or aneurysm, got {self.case!r}")


@dataclass
class ZeroOrder:
    """Closed-form leading-order solution.

    Velocity is a Poiseuille profile in the upper channel and zero below;
    pressure is linear in x1 above and the constant ``p_lower`` below.  The
    wall shear at the interface, (p_in - p_out1)/2, drives the first-order
    interface data.
    """

    flow: FlowData
    shear: float = field(init=False)
    p_lower: float = field(init=False)

    def __post_init__(self):
        f = self.flow
        self.shear = 0.5 * (f.p_in - f.p_out1)
        if f.case == "collateral":
            self.p_lower = f.p_out2
        else:
            # mean of the upper pressure trace: the only constant compatible
            # with mass conservation in the closed sac
            self.p_lower = f.p_out1 + 0.5 * (f.p_in - f.p_out1)

    def velocity(self, pts):
        pts = np.atleast_2d(pts)
        x2 = pts[:, 1]
        u1 = np.where((x2 >= 0.0) & (x2 <= 1.0),
                      self.shear * (1.0 - x2) * x2, 0.0)
        return np.stack([u1, np.zeros_like(u1)], axis=1)

    def pressure(self, pts):
        pts = np.atleast_2d(pts)
        f = self.flow
        upper = f.p_in * (1.0 - pts[:, 0]) + f.p_out1 * pts[:, 0]
        return np.where(pts[:, 1] >= 0.0, upper, self.p_lower)

    def pressure_jump(self, x1):
        """[p0](x1): upper trace minus the lower constant, on the interface."""
        f = self.flow
        return f.p_in * (1.0 - np.asarray(x1)) + f.p_out1 * np.asarray(x1) - self.p_lower


def zero_order(flow: FlowData) -> ZeroOrder:
    """Closed-form zero order; it does not depend on the homogenized constants."""
    return ZeroOrder(flow=flow)


def interface_dirichlet(zero: ZeroOrder, constants: CellConstants, side: str):
    """First-order Dirichlet trace on the interface, as a callable of x1.

    The horizontal part is the interface shear times the slip constants of
    the requested side; the vertical part is -[p0](x1)/[eta-bar] on both
    sides (the through-flow corrector's far field is the downward unit).
    """
    if side == "plus":
        slip = constants.beta1_plus + constants.ups1_plus
    elif side == "minus":
        slip = constants.beta1_minus + constants.ups1_minus
    else:
        raise ValueError("side must be 'plus' or 'minus'")
    shear = zero.shear

    def trace(x1):
        x1 = np.asarray(x1, dtype=float)
        u1 = np.full_like(x1, shear * slip)
        u2 = -zero.pressure_jump(x1) / constants.eta_jump
        return np.stack([u1, u2], axis=-1)

    return trace


@dataclass
class FirstOrderSolution:
    """The two interface-corrector solves and their shared Dirichlet data."""

    upper: StokesSolution
    lower: StokesSolution
    mesh_upper: Mesh
    mesh_lower: Mesh
    trace_plus: object
    trace_minus: object

    @functools.cached_property
    def locators(self):
        """Point locators of the upper and lower corrector meshes, built on
        first use and shared by every evaluation of these solves."""
        return PointLocator(self.mesh_upper), PointLocator(self.mesh_lower)


def first_order_meshes(h=0.05, refine_spec: RefineSpec | None = None,
                       case="collateral"):
    """Default macroscopic corrector meshes, graded toward the interface."""
    upper = rectangle_mesh(
        0.0, 1.0, 0.0, 1.0, h,
        tags=(T.GAMMA_IN, T.GAMMA_OUT1, T.GAMMA0, T.GAMMA1),
        grade_to_y=0.0, refine_spec=refine_spec,
    )
    bottom = T.GAMMA_OUT2 if case == "collateral" else T.GAMMA2
    lower = rectangle_mesh(
        0.0, 1.0, -1.0, 0.0, h,
        tags=(T.GAMMA2, T.GAMMA2, bottom, T.GAMMA0),
        grade_to_y=0.0, refine_spec=refine_spec,
    )
    return upper, lower


def solve_first_order(mesh_upper: Mesh, mesh_lower: Mesh, zero: ZeroOrder,
                      constants: CellConstants,
                      config: SolverConfig | None = None) -> FirstOrderSolution:
    """Solve the two macroscopic corrector problems.

    Walls carry homogeneous Dirichlet data, pressure-driven sides carry zero
    tangential velocity with zero natural pressure, and the interface side of
    each mesh carries the explicit homogenized trace.  In the aneurysm case
    the lower problem is fully Dirichlet: the data must satisfy the
    divergence-free compatibility (zero net interface flux), the pressure is
    determined up to a constant, and its mean over the sac is set to zero.
    The case is the zero-order flow's.
    """
    case = zero.flow.case
    tr_plus = interface_dirichlet(zero, constants, "plus")
    tr_minus = interface_dirichlet(zero, constants, "minus")

    bc_upper = {
        T.GAMMA_IN: BC.pressure(0.0),
        T.GAMMA_OUT1: BC.pressure(0.0),
        T.GAMMA1: BC.dirichlet((0.0, 0.0)),
        T.GAMMA0: BC.dirichlet(lambda xy: tr_plus(xy[:, 0])),
    }
    if case == "collateral":
        bc_lower = {
            T.GAMMA2: BC.dirichlet((0.0, 0.0)),
            T.GAMMA_OUT2: BC.pressure(0.0),
            T.GAMMA0: BC.dirichlet(lambda xy: tr_minus(xy[:, 0])),
        }
    else:
        # closed sac: check compatibility of the Dirichlet data first
        flux = _trace_flux(tr_minus)
        if abs(flux) > 1e-10:
            raise CompatibilityFailure(
                f"net interface flux {flux:.3e}: lower pressure constant was "
                "not chosen as the interface mean"
            )
        bc_lower = {
            T.GAMMA2: BC.dirichlet((0.0, 0.0)),
            T.GAMMA0: BC.dirichlet(lambda xy: tr_minus(xy[:, 0])),
        }

    space_u = build_space(mesh_upper, bc_upper)
    sol_u = solve_stokes(assemble_stokes(space_u), config)
    space_l = build_space(mesh_lower, bc_lower)
    sol_l = solve_stokes(assemble_stokes(space_l), config)
    if case == "aneurysm":
        area = float(np.sum(mesh_lower.signed_areas()))
        mean_p = integrate_field(space_l, sol_l.p) / area
        sol_l.p = sol_l.p - mean_p
    return FirstOrderSolution(
        upper=sol_u, lower=sol_l, mesh_upper=mesh_upper, mesh_lower=mesh_lower,
        trace_plus=tr_plus, trace_minus=tr_minus,
    )


def _trace_flux(trace, n=64):
    """Integral of the vertical trace component over the interface (exact
    Gauss on an affine integrand, but evaluated generically): the 3-point
    rule on n equal segments."""
    xs = np.linspace(0.0, 1.0, n + 1)
    h = np.diff(xs)
    xq = xs[:-1, None] + EDGE_QP * h[:, None]                    # (n, 3)
    vals = trace(xq.ravel())[:, 1].reshape(n, -1)
    return float(h @ (vals @ EDGE_QW))


@dataclass
class AveragedApproximation:
    """Pointwise evaluators of u0 + eps*u1 and p0 + eps*p1 on both channels.

    :meth:`locate` places points on the corrector meshes once, and the
    ``*_at`` methods evaluate from that placement, so the velocity and the
    pressure at the same points share one point location.
    """

    zero: ZeroOrder
    first: FirstOrderSolution
    eps: float

    def __post_init__(self):
        self._loc_u, self._loc_l = self.first.locators
        su, sl = self.first.upper.space, self.first.lower.space
        self._vel_u = VelocityField(su, self.first.upper.u, self._loc_u)
        self._vel_l = VelocityField(sl, self.first.lower.u, self._loc_l)
        self._pr_u = PressureField(su, self.first.upper.p, self._loc_u)
        self._pr_l = PressureField(sl, self.first.lower.p, self._loc_l)

    def locate(self, pts):
        """(points, upper-channel mask, (tri, lam) on the upper corrector
        mesh, (tri, lam) on the lower one); x2 >= 0 counts as upper."""
        pts = np.atleast_2d(pts)
        upper = pts[:, 1] >= 0.0
        return (pts, upper, self._loc_u.locate(pts[upper]),
                self._loc_l.locate(pts[~upper]))

    def velocity_at(self, located):
        pts, upper, on_u, on_l = located
        out = self.zero.velocity(pts)
        out[upper] += self.eps * self._vel_u.at(*on_u)
        out[~upper] += self.eps * self._vel_l.at(*on_l)
        return out

    def pressure_at(self, located):
        pts, upper, on_u, on_l = located
        out = self.zero.pressure(pts)
        out[upper] += self.eps * self._pr_u.at(*on_u)
        out[~upper] += self.eps * self._pr_l.at(*on_l)
        return out

    def velocity(self, pts):
        return self.velocity_at(self.locate(pts))

    def pressure(self, pts):
        return self.pressure_at(self.locate(pts))


def averaged_approximation(zero: ZeroOrder, first: FirstOrderSolution,
                           eps) -> AveragedApproximation:
    """The averaged first-order model u0 + eps*u1, p0 + eps*p1."""
    return AveragedApproximation(zero=zero, first=first, eps=float(eps))


def flowrate_formula(zero: ZeroOrder, constants: CellConstants, eps) -> float:
    """Explicit transmural flow rate through the interface.

    Q = (eps/[eta-bar]) * integral of [p0] over the interface; positive means
    flow from the upper into the lower channel.
    """
    if zero.flow.case != "collateral":
        raise ValueError("the flow-rate law applies to the collateral case")
    f = zero.flow
    mean_jump = f.p_out1 + 0.5 * (f.p_in - f.p_out1) - f.p_out2
    return eps / constants.eta_jump * mean_jump


def flowrate_first_order(first: FirstOrderSolution, eps) -> float:
    """Interface flux of the averaged approximation (n pointing downward)."""
    space = first.lower.space
    edges = first.mesh_lower.edges_with_tag(T.GAMMA0)
    return eps * edge_flux(space, first.lower.u, edges, normal=(0.0, -1.0))


def implicit_interface_report(zero: ZeroOrder, first: FirstOrderSolution,
                              constants: CellConstants, eps):
    """Residuals of the derived implicit interface conditions at 19 evenly
    spaced x1 from 0.05 to 0.95.

    Per sample: the slip-ratio mismatch between the one-sided tangential
    traces (zero by construction of the interface data) and the
    normal-velocity residual u.n + (eps/[eta-bar]) ([sigma].n, n), with the
    one-sided stresses taken from each side's own mesh at the interface.
    Diagnostic only: the implicit problem is never solved here.
    """
    x = np.linspace(0.05, 0.95, 19)
    su, sl = first.upper.space, first.lower.space
    pts0 = np.stack([x, np.zeros_like(x)], axis=1)

    loc_up, loc_lo = first.locators
    at_up, at_lo = loc_up.locate(pts0), loc_lo.locate(pts0)
    tr_up = VelocityField(su, first.upper.u, loc_up).at(*at_up)
    tr_lo = VelocityField(sl, first.lower.u, loc_lo).at(*at_lo)
    ut_plus = eps * tr_up[:, 0]          # averaged tangential trace (u0 = 0 here)
    ut_minus = eps * tr_lo[:, 0]
    un = -eps * tr_up[:, 1]              # normal points into the lower channel

    slip_plus = constants.beta1_plus + constants.ups1_plus
    slip_minus = constants.beta1_minus + constants.ups1_minus
    slip_residual = ut_plus / slip_plus - ut_minus / slip_minus

    # one-sided sigma.n.n = du2/dx2 - p of the averaged fields at y = 0+-
    g_up = velocity_gradient_at(su, first.upper.u, *at_up)[:, 1, 1]
    g_lo = velocity_gradient_at(sl, first.lower.u, *at_lo)[:, 1, 1]
    p1_up = PressureField(su, first.upper.p, loc_up).at(*at_up)
    p1_lo = PressureField(sl, first.lower.p, loc_lo).at(*at_lo)
    p_up = zero.pressure(pts0) + eps * p1_up
    p_lo = zero.p_lower + eps * p1_lo
    jump_signn = (eps * g_up - p_up) - (eps * g_lo - p_lo)
    # u.n = -u2; the condition reads -u2 = -(eps/[eta]) [sigma]nn
    normal_residual = un - (-(eps / constants.eta_jump) * jump_signn)

    rows = []
    for i, xi in enumerate(x):
        rows.append({
            "x1": float(xi),
            "u_t_plus": float(ut_plus[i]),
            "u_t_minus": float(ut_minus[i]),
            "u_n": float(un[i]),
            "p_jump": float(zero.pressure_jump(xi)),
            "slip_residual": float(slip_residual[i]),
            "normal_residual": float(normal_residual[i]),
        })
    return rows
