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
from .geometry import BoundaryTag as T, Mesh, RefineSpec, _lower_bottom, rectangle_mesh
from .solvers import SolverConfig, StokesSolution, solve_stokes


@dataclass(frozen=True)
class FlowData:
    """Prescribed boundary pressures; p_out2 is ignored in the aneurysm case."""

    p_in: float = 2.0
    p_out1: float = 0.0
    p_out2: float = -1.0
    case: str = "collateral"

    def __post_init__(self):
        if not all(map(math.isfinite, (self.p_in, self.p_out1, self.p_out2))):
            raise ValueError("flow data must be finite")
        _lower_bottom(self.case)            # checks the case


_WALLS = (T.GAMMA1, T.GAMMA2, T.GAMMA_EPS)
_OPEN = {T.GAMMA_IN: "p_in", T.GAMMA_OUT1: "p_out1", T.GAMMA_OUT2: "p_out2"}


def macro_bc_spec(mesh: Mesh, flow: FlowData, trace=None):
    """Boundary conditions of a channel-pair problem, read off the tags of
    ``mesh``: no-slip on the walls and obstacles, ``flow``'s pressures on
    the open sides, and the Dirichlet ``trace`` (a callable of x1) where the
    interface is a side of the mesh, as it is for the two correctors.  The
    tags hold the case: an aneurysm mesh has no lower outflow.  A tag
    without a condition raises KeyError."""
    spec = {}
    for tag in set(mesh.boundary_tags):
        if tag in _WALLS:
            spec[tag] = BC.dirichlet((0.0, 0.0))
        elif tag in _OPEN:
            spec[tag] = BC.pressure(getattr(flow, _OPEN[tag]))
        elif tag is T.GAMMA0 and trace is not None:
            spec[tag] = BC.dirichlet(lambda xy: trace(xy[:, 0]))
        else:
            raise KeyError(tag)
    return spec


@dataclass
class ZeroOrder:
    """Closed-form leading-order solution.

    Velocity is a Poiseuille profile in the upper channel and zero below;
    pressure is linear in x1 above and the constant ``p_lower`` below.  The
    wall shear at the interface, (p_in - p_out1)/2, drives the first-order
    interface data.  ``p_stent`` is the mean of the upper pressure trace
    along the stent; the closed sac of the aneurysm case takes it as
    ``p_lower``, the only constant compatible with mass conservation there.
    """

    flow: FlowData
    shear: float = field(init=False)
    p_stent: float = field(init=False)
    p_lower: float = field(init=False)

    def __post_init__(self):
        f = self.flow
        self.shear = 0.5 * (f.p_in - f.p_out1)
        self.p_stent = f.p_out1 + 0.5 * (f.p_in - f.p_out1)
        self.p_lower = f.p_out2 if f.case == "collateral" else self.p_stent

    def upper_pressure(self, x1):
        """The upper channel's pressure at abscissae ``x1``, the upper
        trace on the interface."""
        f = self.flow
        return f.p_in * (1.0 - x1) + f.p_out1 * x1

    def velocity(self, pts):
        pts = np.atleast_2d(pts)
        x2 = pts[:, 1]
        u1 = np.where((x2 >= 0.0) & (x2 <= 1.0),
                      self.shear * (1.0 - x2) * x2, 0.0)
        return np.stack([u1, np.zeros_like(u1)], axis=1)

    def pressure(self, pts):
        pts = np.atleast_2d(pts)
        return np.where(pts[:, 1] >= 0.0, self.upper_pressure(pts[:, 0]), self.p_lower)

    def pressure_jump(self, x1):
        """[p0](x1): upper trace minus the lower constant, on the interface."""
        return self.upper_pressure(np.asarray(x1)) - self.p_lower


def zero_order(flow: FlowData) -> ZeroOrder:
    """Closed-form zero order; it does not depend on the homogenized constants."""
    return ZeroOrder(flow=flow)


def interface_dirichlet(zero: ZeroOrder, constants: CellConstants, side: str):
    """First-order Dirichlet trace on the interface, as a callable of x1.

    The horizontal part is the interface shear times the slip constants of
    the requested side; the vertical part is -[p0](x1)/[eta-bar] on both
    sides (the through-flow corrector's far field is the downward unit).
    """
    tangential = zero.shear * constants.slip(side)

    def trace(x1):
        x1 = np.asarray(x1, dtype=float)
        u1 = np.full_like(x1, tangential)
        u2 = -zero.pressure_jump(x1) / constants.eta_jump
        return np.stack([u1, u2], axis=-1)

    return trace


@dataclass
class FirstOrderSolution:
    """The two interface-corrector solves, each on its own channel's mesh."""

    upper: StokesSolution
    lower: StokesSolution

    @functools.cached_property
    def locators(self):
        """Point locators of the upper and lower corrector meshes, built on
        first use and shared by every evaluation of these solves."""
        return PointLocator(self.upper.space.mesh), PointLocator(self.lower.space.mesh)

    @functools.cached_property
    def fields(self):
        """(velocity, pressure) evaluators of the upper and of the lower
        solve on their meshes' locators, built on first use."""
        return [(VelocityField(sol.space, sol.u, loc), PressureField(sol.space, sol.p, loc))
                for sol, loc in zip((self.upper, self.lower), self.locators)]


def first_order_meshes(h=0.05, refine_spec: RefineSpec | None = None,
                       case="collateral"):
    """Default macroscopic corrector meshes, graded toward the interface."""
    bottom = _lower_bottom(case)
    upper = rectangle_mesh(
        0.0, 1.0, 0.0, 1.0, h,
        tags=(T.GAMMA_IN, T.GAMMA_OUT1, T.GAMMA0, T.GAMMA1),
        grade_to_y=0.0, refine_spec=refine_spec,
    )
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
    f = zero.flow
    tr_plus = interface_dirichlet(zero, constants, "plus")
    tr_minus = interface_dirichlet(zero, constants, "minus")
    if f.case == "aneurysm":
        # closed sac: the Dirichlet data must carry no net flux; rounding
        # grows with the pressures, so the flux is weighed against the
        # trace's terms, |[p0]| <= max(|p_in|, |p_out1|) + |p_lower|
        flux = _trace_flux(tr_minus)
        size = (max(abs(f.p_in), abs(f.p_out1)) + abs(zero.p_lower)) / abs(constants.eta_jump)
        if abs(flux) > 1e-10 * size:
            raise CompatibilityFailure(
                f"net interface flux {flux:.3e} against a trace of size {size:.3e}: "
                "lower pressure constant was not chosen as the interface mean"
            )
    still = FlowData(p_in=0.0, p_out1=0.0, p_out2=0.0, case=f.case)
    space_u = build_space(mesh_upper, macro_bc_spec(mesh_upper, still, tr_plus))
    sol_u = solve_stokes(assemble_stokes(space_u), config)
    space_l = build_space(mesh_lower, macro_bc_spec(mesh_lower, still, tr_minus))
    sol_l = solve_stokes(assemble_stokes(space_l), config)
    if f.case == "aneurysm":
        area = float(np.sum(mesh_lower.signed_areas()))
        mean_p = integrate_field(space_l, sol_l.p) / area
        sol_l.p = sol_l.p - mean_p
    return FirstOrderSolution(upper=sol_u, lower=sol_l)


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
        (self._vel_u, self._pr_u), (self._vel_l, self._pr_l) = self.first.fields

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
    return eps / constants.eta_jump * (zero.p_stent - zero.p_lower)


def interface_flux(sol: StokesSolution) -> float:
    """Flux of ``sol``'s velocity through the interface GAMMA0 of its mesh,
    the normal pointing into the lower channel."""
    edges = sol.space.mesh.edges_with_tag(T.GAMMA0)
    return edge_flux(sol.space, sol.u, edges, normal=(0.0, -1.0))


def flowrate_first_order(first: FirstOrderSolution, eps) -> float:
    """Interface flux of the averaged approximation (n pointing downward)."""
    return eps * interface_flux(first.lower)


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
    (vel_up, pr_up), (vel_lo, pr_lo) = first.fields
    at_up, at_lo = loc_up.locate(pts0), loc_lo.locate(pts0)
    tr_up = vel_up.at(*at_up)
    tr_lo = vel_lo.at(*at_lo)
    ut_plus = eps * tr_up[:, 0]          # averaged tangential trace (u0 = 0 here)
    ut_minus = eps * tr_lo[:, 0]
    un = -eps * tr_up[:, 1]              # normal points into the lower channel

    slip_residual = ut_plus / constants.slip("plus") - ut_minus / constants.slip("minus")

    # one-sided sigma.n.n = du2/dx2 - p of the averaged fields at y = 0+-
    g_up = velocity_gradient_at(su, first.upper.u, *at_up)[:, 1, 1]
    g_lo = velocity_gradient_at(sl, first.lower.u, *at_lo)[:, 1, 1]
    p1_up = pr_up.at(*at_up)
    p1_lo = pr_lo.at(*at_lo)
    p_up = zero.pressure(pts0) + eps * p1_up
    p_lo = zero.p_lower + eps * p1_lo
    jump_signn = (eps * g_up - p_up) - (eps * g_lo - p_lo)
    # u.n = -u2; the condition reads -u2 = -(eps/[eta]) [sigma]nn
    normal_residual = un - (-(eps / constants.eta_jump) * jump_signn)

    return [{
        "x1": float(xi),
        "u_t_plus": float(ut_plus[i]),
        "u_t_minus": float(ut_minus[i]),
        "u_n": float(un[i]),
        "p_jump": float(zero.pressure_jump(xi)),
        "slip_residual": float(slip_residual[i]),
        "normal_residual": float(normal_residual[i]),
    } for i, xi in enumerate(x)]
