"""Error norms, flow-rate measurements, and the convergence study.

The direct rough solve is compared against the zero-order and first-order
averaged approximations: velocity in L2 over both channels (direct field
extended by zero inside the obstacles), pressure in the weak norm obtained
by a Poisson solve of the pressure mismatch with homogeneous Dirichlet data
on the channel boundaries, the obstacle circles and the two interface lines.
Least-squares slopes on log-log data condense the study.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .cell import CellConstants, solve_all
from .config import RunConfig
from .errors import StentflowError
from .fem import (
    VelocityField,
    assemble_stokes,
    build_space,
    edge_flux,
    eval_on_quadrature,
    integrate_field,
)
from .geometry import (
    BoundaryTag as T,
    Mesh,
    build_macro_geometry,
    triangulate,
)
from .homogenized import (
    FlowData,
    averaged_approximation,
    first_order_meshes,
    flowrate_first_order,
    flowrate_formula,
    interface_flux,
    macro_bc_spec,
    solve_first_order,
    zero_order,
)
from .solvers import SolverConfig, StokesSolution, solve_poisson, solve_stokes

def solve_direct(mesh: Mesh, flow: FlowData,
                 config: SolverConfig | None = None) -> StokesSolution:
    """Direct Stokes solve of the rough problem on a macro (or no-stent) mesh."""
    space = build_space(mesh, macro_bc_spec(mesh, flow))
    return solve_stokes(assemble_stokes(space), config)


# ----------------------------------------------------------------------------
# error norms
# ----------------------------------------------------------------------------


def _disk_quadrature(holes):
    """Tensor Gauss(r) x trapezoid(theta) rule, 4 x 16 points, on each disk
    (cx, cy, r) of ``holes``: points (64 H, 2) and weights (64 H,)."""
    xg, wg = np.polynomial.legendre.leggauss(4)
    cx, cy, r = np.asarray(holes, dtype=float).reshape(-1, 3).T[:, :, None, None]
    th = 2.0 * np.pi * np.arange(16) / 16
    rr = 0.5 * r * (xg + 1.0)[:, None]                  # (H, 4, 1)
    wr = 0.5 * r * wg[:, None] * rr
    pts = np.stack([cx + rr * np.cos(th), cy + rr * np.sin(th)], axis=-1)
    w = wr * np.full(16, 2.0 * np.pi / 16)
    return pts.reshape(-1, 2), w.ravel()


def _error_points(direct: StokesSolution) -> dict:
    """Where the error norms read the direct solution.

    ``pts``, ``w`` and ``u`` are the volume quadrature points of the direct
    mesh with their weights and the direct velocity there, followed by
    quadrature points on the obstacle disks, where the direct velocity is
    extended by zero; ``p`` (M, q) is the direct pressure at the volume
    quadrature points, which come first in ``pts``.
    """
    fields = eval_on_quadrature(direct.space, u=direct.u, p=direct.p)
    disk_pts, disk_w = _disk_quadrature(direct.space.mesh.holes)
    return {
        "pts": np.concatenate([fields["pts"].reshape(-1, 2), disk_pts]),
        "w": np.concatenate([fields["w"].ravel(), disk_w]),
        "u": np.concatenate([fields["u"].reshape(-1, 2), np.zeros_like(disk_pts)]),
        "p": fields["p"],
    }


def _l2_errors(points: dict, approx):
    """L2 distances between the direct velocity and approximations given at
    ``points["pts"]``, shape (n, 2) or a stack (k, n, 2)."""
    sq = points["w"][:, None] * (points["u"] - approx) ** 2
    return np.sqrt(np.sum(sq, axis=(-2, -1)))


def _hm1_errors(direct: StokesSolution, points: dict, approx):
    """Weak-norm distances between the direct pressure and approximations
    given at the volume quadrature points, shape (M q,) or a stack (k, M q),
    from one Poisson factorization (:func:`hm1_pressure_error`)."""
    mesh = direct.space.mesh
    p = points["p"]
    rhs = p - np.reshape(approx, np.shape(approx)[:-1] + p.shape)
    nodes = _hm1_dirichlet_nodes(mesh, mesh.meta["eps"])
    return solve_poisson(mesh, rhs, nodes)[1]


def l2_velocity_error(direct: StokesSolution, approx_velocity) -> float:
    """L2 distance between the direct velocity and an approximation.

    Integrates over the perforated mesh plus the obstacle disks, where the
    direct field is extended by zero (so the approximation's own values are
    charged there).
    """
    points = _error_points(direct)
    return float(_l2_errors(points, np.asarray(approx_velocity(points["pts"]))))


def _hm1_dirichlet_nodes(mesh: Mesh, eps: float):
    """Vertices clamped in the pressure-mismatch Poisson solve.

    The outer boundary, the obstacle circles, and the interior lines x2 = 0
    and x2 = eps (boundaries of the three stacked subdomains); the thin
    lateral edges of the layer keep natural conditions.
    """
    edges = mesh.boundary_edges.astype(np.int64)
    tags = mesh.boundary_tags
    lateral = (tags == T.GAMMA_IN) | (tags == T.GAMMA_OUT1) | (tags == T.GAMMA2)
    y = mesh.vertices[:, 1]
    lat = edges[lateral].ravel()
    outside_layer = (y[lat] <= 1e-12) | (y[lat] >= eps - 1e-12)
    on_line = np.nonzero((np.abs(y) < 1e-12) | (np.abs(y - eps) < 1e-12))[0]
    return np.unique(np.concatenate([edges[~lateral].ravel(), lat[outside_layer],
                                     on_line]))


def hm1_pressure_error(direct: StokesSolution, approx_pressure) -> float:
    """Weak-norm pressure error: gradient norm of -Lap(q) = p_direct - p_approx.

    The Poisson solve runs on the direct mesh with homogeneous Dirichlet
    data as in :func:`_hm1_dirichlet_nodes`, at the layer height recorded on
    the mesh; its source is taken at the quadrature points of that mesh,
    where the direct pressure is evaluated element by element.
    """
    points = _error_points(direct)
    approx = np.asarray(approx_pressure(points["pts"][: points["p"].size]))
    return float(_hm1_errors(direct, points, approx))


def flowrate_direct(direct: StokesSolution) -> float:
    """Line integral of the direct velocity's normal trace over the interface
    (normal pointing into the lower channel)."""
    return interface_flux(direct)


def boundary_fluxes(direct: StokesSolution) -> dict:
    """Outward fluxes through every tagged outer boundary, in the order of
    :class:`~stentflow.geometry.BoundaryTag`."""
    mesh = direct.space.mesh
    tags = set(mesh.boundary_tags)
    return {tag.value: edge_flux(direct.space, direct.u, mesh.edges_with_tag(tag))
            for tag in T if tag in tags}


def mean_pressure_lower(direct: StokesSolution) -> float:
    """Mean direct pressure over the lower channel."""
    mesh = direct.space.mesh
    lower = mesh.vertices[mesh.triangles].mean(axis=1)[:, 1] < 0.0
    return integrate_field(direct.space, direct.p, tri_sel=lower)  # unit area


def interface_normal_samples(direct: StokesSolution, xs=(0.25, 0.75)) -> list:
    """u . n at sample points of the interface (n pointing downward)."""
    vel = VelocityField(direct.space, direct.u)
    pts = np.stack([np.asarray(xs), np.zeros(len(xs))], axis=1)
    return list(-vel(pts)[:, 1])


# ----------------------------------------------------------------------------
# profiles
# ----------------------------------------------------------------------------


def velocity_profiles(direct: StokesSolution, avg, eps):
    """Horizontal-velocity profile just above the layer and the normal
    velocity on the interface, for the direct and averaged fields, at 201
    evenly spaced x1."""
    n = 201
    x = np.linspace(0.0, 1.0, n)
    top_mid = np.concatenate([np.stack([x, np.full(n, eps)], axis=1),
                              np.stack([x, np.zeros(n)], axis=1)])
    u_top, u_mid = np.split(VelocityField(direct.space, direct.u)(top_mid), 2)
    a_top, a_mid = np.split(avg.velocity(top_mid), 2)
    return [{
        "x1": float(x[i]),
        "u1_direct_at_eps": float(u_top[i, 0]),
        "u1_avg_at_eps": float(a_top[i, 0]),
        "u2_direct_at_0": float(u_mid[i, 1]),
        "u2_avg_at_0": float(a_mid[i, 1]),
    } for i in range(n)]


# ----------------------------------------------------------------------------
# convergence study
# ----------------------------------------------------------------------------


@dataclass
class ErrorReport:
    """Per-eps record of the study."""

    eps: float
    l2_vel_zero: float = np.nan
    l2_vel_first: float = np.nan
    hm1_p_zero: float = np.nan
    hm1_p_first: float = np.nan
    q_direct: float = np.nan
    q_formula: float = np.nan
    q_first_order: float = np.nan
    meta: dict = field(default_factory=dict)
    error: str | None = None


@dataclass
class SlopeFit:
    """Least-squares exponent of error ~ C * eps^slope."""

    slope: float
    intercept: float


def fit_slope(eps_vals, errors) -> SlopeFit:
    """Log-log least squares; requires >= 3 points; eps = 1 is excluded."""
    eps_vals = np.asarray(eps_vals, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = eps_vals < 1.0
    eps_vals, errors = eps_vals[keep], errors[keep]
    if len(eps_vals) < 3:
        raise ValueError("slope fit needs at least 3 data points")
    lx, ly = np.log(eps_vals), np.log(errors)
    coef = np.polyfit(lx, ly, 1)
    return SlopeFit(slope=float(coef[0]), intercept=float(coef[1]))


def first_order_model(cfg: RunConfig, zero, constants: CellConstants | None = None):
    """The first-order corrector of ``cfg`` around the zero-order model
    ``zero``, on the two ``first_order.h`` meshes.  The strip constants it
    needs are solved on ``cfg.strip_mesh()`` unless given; the strip and its
    solutions are freed before the corrector solves.  Returns (first-order
    solution, constants)."""
    if constants is None:
        constants = solve_all(cfg.strip_mesh(), cfg.solver(), with_varkappa=False)[1]
    mesh_up, mesh_lo = first_order_meshes(cfg["first_order.h"], cfg.refine_spec(),
                                          case=cfg.case)
    return solve_first_order(mesh_up, mesh_lo, zero, constants,
                             config=cfg.solver()), constants


def _measure(rep: ErrorReport, cfg: RunConfig, zero, first_order,
             constants: CellConstants):
    """Fill the report of one eps: mesh, direct solve, the four errors from
    one point location of the direct mesh's error points on the corrector
    meshes and one Poisson factorization, flow rates and profiles."""
    eps = rep.eps
    t0 = time.time()
    geo = build_macro_geometry(eps, cfg.case, cfg.obstacle())
    mesh = triangulate(geo, cfg["mesh.h"], cfg.refine_spec())
    direct = solve_direct(mesh, cfg.flow(), cfg.solver())
    avg = averaged_approximation(zero, first_order, eps)
    points = _error_points(direct)
    pts, n = points["pts"], points["p"].size
    located = avg.locate(pts)
    vel = np.stack([zero.velocity(pts), avg.velocity_at(located)])
    rep.l2_vel_zero, rep.l2_vel_first = map(float, _l2_errors(points, vel))
    prs = np.stack([zero.pressure(pts[:n]), avg.pressure_at(located)[:n]])
    rep.hm1_p_zero, rep.hm1_p_first = map(float, _hm1_errors(direct, points, prs))
    rep.q_direct = flowrate_direct(direct)
    if cfg.case == "collateral":
        rep.q_formula = flowrate_formula(zero, constants, eps)
        rep.q_first_order = flowrate_first_order(first_order, eps)
    rep.meta = {
        "n_triangles": mesh.n_triangles,
        "n_vel_dofs": direct.space.n_vel,
        "solver": dict(direct.diagnostics),
        "runtime_s": round(time.time() - t0, 2),
    }
    rep.meta["profiles"] = velocity_profiles(direct, avg, eps)


def convergence_study(cfg: RunConfig | None = None,
                      constants: CellConstants | None = None, progress=None):
    """Run the full study of ``cfg`` over its descending ``eps_list``.

    Cell constants are computed once (or passed in); the first-order
    corrector is eps-independent and solved once (:func:`first_order_model`).
    Per eps: mesh, direct solve, both error norms against the zero- and
    first-order models, the three flow rates and the velocity profiles.  A numerical failure
    (:class:`~stentflow.errors.StentflowError`) records its message and the
    study continues; any other exception propagates.  Returns (reports,
    slope fits, first-order solution, constants).
    """
    cfg = cfg or RunConfig()
    eps_list = cfg.eps_list             # checked before any solve
    zero = zero_order(cfg.flow())
    first_order, constants = first_order_model(cfg, zero, constants)

    reports = []
    for eps in eps_list:
        rep = ErrorReport(eps=eps)
        reports.append(rep)
        try:
            _measure(rep, cfg, zero, first_order, constants)
        except StentflowError as exc:          # keep going with the other eps
            rep.error = f"{type(exc).__name__}: {exc}"
        if progress:
            progress(rep)

    good = [r for r in reports if r.error is None]
    fits = {}
    if sum(r.eps < 1.0 for r in good) >= 3:        # the points fit_slope keeps
        evals = [r.eps for r in good]
        fits = {key: fit_slope(evals, [getattr(r, key) for r in good])
                for key in SLOPE_BANDS}
    return reports, fits, first_order, constants


SLOPE_BANDS = {
    "l2_vel_zero": (0.7, 1.1),
    "l2_vel_first": (1.2, None),
    "hm1_p_zero": (0.9, None),
    "hm1_p_first": (1.2, None),
}


def check_slope_bands(reports, fits) -> list[str]:
    """Violations of the acceptance bands; empty list means all pass."""
    problems = []
    for key, (lo, hi) in SLOPE_BANDS.items():
        if key not in fits:
            problems.append(f"{key}: no fit available")
            continue
        s = fits[key].slope
        if lo is not None and s < lo:
            problems.append(f"{key}: slope {s:.3f} below {lo}")
        if hi is not None and s > hi:
            problems.append(f"{key}: slope {s:.3f} above {hi}")
    for r in reports:
        if r.error:
            problems.append(f"eps={r.eps}: {r.error}")
            continue
        if not (r.l2_vel_first < r.l2_vel_zero):
            problems.append(f"eps={r.eps}: first-order velocity error not smaller")
        if not (r.hm1_p_first < r.hm1_p_zero):
            problems.append(f"eps={r.eps}: first-order pressure error not smaller")
    return problems
