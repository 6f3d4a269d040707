"""Boundary-layer problems on the truncated periodic strip.

Four Stokes solves on ]0,1[ x ]-L,L[ minus the obstacle, periodic in the
horizontal direction, each correcting one defect of the macroscopic
approximation at the interface:

* ``beta``: lifts the no-slip error on the obstacles (velocity -y2*e1 on P),
* ``upsilon``: unit tangential line load on the interface line (shear jump),
* ``chi``: unit transversal through-flow (chi_2 -> -1 far away), whose
  far-field pressure jump is the interface resistivity,
* ``varkappa``: second-order corrector driven by the chi fields.

Far-field constants are band means near the truncation ends; pressures are
normalized to zero mean over the upper band.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MeshMismatch
from .fem import (
    BC,
    ReducedSystem,
    Sources,
    apply_constraints,
    assemble_loads,
    assemble_stokes,
    band_integral,
    build_space,
    eval_on_quadrature,
    section_average as _section_average,
)
from .geometry import BoundaryTag as T, Mesh
from .solvers import SolverConfig, StokesSolution, solve_stokes


@dataclass
class CellSolution:
    """One boundary-layer solve plus its pressure normalization record.

    ``grad_energy`` is the squared L2 norm of the velocity gradient,
    u . (diag(K, K) u) with the strip's scalar stiffness K.  ``quadrature``
    holds a chi solution's fields at the quadrature points once
    :func:`_chi_on_quadrature` has evaluated them.
    """

    which: str
    solution: StokesSolution
    mesh: Mesh
    normalization: dict
    grad_energy: float
    quadrature: dict | None = field(default=None, init=False, repr=False)


@dataclass
class CellConstants:
    """Homogenized scalars extracted from the cell solves.

    ``beta1_plus/minus`` and ``ups1_plus/minus`` are far-field horizontal
    velocity constants, ``eta_jump`` the far-field pressure jump of the
    through-flow corrector (top minus bottom).  Gradient energies are the
    stiffness quadratic forms entering the averaged identities;
    ``obstacle_area`` is the analytic disk area.
    """

    beta1_plus: float
    beta1_minus: float
    ups1_plus: float
    ups1_minus: float
    eta_jump: float
    chi_grad_energy: float
    beta_grad_energy: float
    ups_grad_energy: float
    obstacle_area: float
    varkappa1_jump: float | None = None
    mu_jump: float | None = None

    def as_dict(self):
        d = {
            "beta1_plus": self.beta1_plus,
            "beta1_minus": self.beta1_minus,
            "ups1_plus": self.ups1_plus,
            "ups1_minus": self.ups1_minus,
            "eta_jump": self.eta_jump,
            "chi_grad_energy": self.chi_grad_energy,
            "beta_grad_energy": self.beta_grad_energy,
            "ups_grad_energy": self.ups_grad_energy,
            "obstacle_area": self.obstacle_area,
        }
        if self.varkappa1_jump is not None:
            d["varkappa1_jump"] = self.varkappa1_jump
            d["mu_jump"] = self.mu_jump
        return d


def _strip_bc(top_bottom_value, obstacle_value):
    """Common strip boundary conditions.

    Vertical component fixed at y2 = +-L, periodic sides, Dirichlet on the
    obstacle circle.  The horizontal component is natural at y2 = +-L, except
    without an obstacle: there a constant horizontal velocity is a kernel
    mode, and fixing it to zero at y2 = +-L selects the symmetric
    representative.
    """
    ends = (BC.dirichlet((0.0, top_bottom_value)) if obstacle_value is None
            else BC.normal(top_bottom_value))
    bc = {
        T.STRIP_TOP: ends,
        T.STRIP_BOTTOM: ends,
        T.STRIP_LEFT: BC.periodic(T.STRIP_RIGHT),
        T.STRIP_RIGHT: BC.periodic(T.STRIP_LEFT),
    }
    if obstacle_value is not None:
        bc[T.GAMMA_EPS] = BC.dirichlet(obstacle_value)
    return bc


def _strip_L(mesh: Mesh) -> float:
    return float(mesh.meta.get("L", mesh.vertices[:, 1].max()))


def _top_band(mesh):
    L = _strip_L(mesh)
    return L - 2.0, L - 1.0


def _bottom_band(mesh):
    L = _strip_L(mesh)
    return -L + 1.0, -L + 2.0


def _require_obstacle(mesh, which):
    if len(mesh.holes) == 0:
        raise ValueError(
            f"the {which} problem is under-determined without an obstacle"
        )


def _normalize_pressure(space, sol: StokesSolution, mesh) -> dict:
    y0, y1 = _top_band(mesh)
    shift = band_integral(space, sol.p, y0, y1, average=True)
    sol.p = sol.p - shift
    return {"band": (y0, y1), "shift": float(shift)}


def strip_operator(strip_mesh: Mesh) -> ReducedSystem:
    """The constrained Stokes operator that every strip corrector shares.

    The correctors differ only in their loads and in the values they fix:
    all of them fix the vertical velocity at y2 = +-L and the velocity on
    the obstacle, with periodic sides.  The result (a reduced system with no
    loads) keeps the factorizations the solver makes, so it should live no
    longer than the solves using it.
    """
    obstacle = (0.0, 0.0) if len(strip_mesh.holes) else None
    space = build_space(strip_mesh, _strip_bc(0.0, obstacle))
    return apply_constraints(assemble_stokes(space))


def _solve(which, mesh, bc, sources, config, operator) -> CellSolution:
    if operator is None:
        operator = strip_operator(mesh)
    elif operator.space.mesh is not mesh:
        raise MeshMismatch(f"the {which} operator belongs to another strip mesh")
    space = operator.space.with_bc(bc)
    red = operator.with_loads(space, *assemble_loads(space, sources))
    sol = solve_stokes(red, config)
    norm = _normalize_pressure(space, sol, mesh)
    # u.(A u) = u_r.(A_r u_r) + (2 u - u_fix).(A_fix vals) for u = Tu u_r + u_fix;
    # numpy's pairwise sums, unlike a BLAS dot, do not depend on the thread count
    Tu = red.Tu.tocsc()
    u_r = sol.u[Tu.indices[Tu.indptr[:-1]]]     # every DOF of a column holds u_r
    energy = float(np.sum(u_r * (red.A @ u_r))
                   + np.sum((2.0 * sol.u - red.u_fix) * (red.A_fix @ space.fixed_vals)))
    return CellSolution(which=which, solution=sol, mesh=mesh, normalization=norm,
                        grad_energy=energy)


def solve_beta(strip_mesh: Mesh, config: SolverConfig | None = None,
               operator: ReducedSystem | None = None) -> CellSolution:
    """No-slip corrector: velocity equals -y2*e1 on the obstacle boundary.

    ``operator`` is the strip's :func:`strip_operator`, built here if omitted;
    the same holds for the other correctors.
    """
    _require_obstacle(strip_mesh, "beta")
    bc = _strip_bc(0.0, lambda xy: np.stack([-xy[:, 1], np.zeros(len(xy))], axis=1))
    return _solve("beta", strip_mesh, bc, None, config, operator)


def solve_upsilon(strip_mesh: Mesh, config: SolverConfig | None = None,
                  operator: ReducedSystem | None = None) -> CellSolution:
    """Shear-jump corrector: unit horizontal line load on the interface line."""
    _require_obstacle(strip_mesh, "upsilon")
    bc = _strip_bc(0.0, (0.0, 0.0))
    return _solve("upsilon", strip_mesh, bc, Sources(line=(T.SIGMA, 1.0)), config,
                  operator)


def solve_chi(strip_mesh: Mesh, config: SolverConfig | None = None,
              operator: ReducedSystem | None = None) -> CellSolution:
    """Through-flow corrector: vertical velocity -1 at the truncation ends."""
    bc = _strip_bc(-1.0, (0.0, 0.0) if len(strip_mesh.holes) else None)
    return _solve("chi", strip_mesh, bc, None, config, operator)


def solve_varkappa(strip_mesh: Mesh, chi: CellSolution,
                   config: SolverConfig | None = None,
                   operator: ReducedSystem | None = None) -> CellSolution:
    """Second-order corrector sourced by the through-flow fields.

    The body force is -2 * (d(chi)/dy1 - (eta - far-field eta) e1), evaluated
    from the discrete chi solution at the quadrature points of its own mesh.
    """
    if chi.mesh is not strip_mesh:
        raise MeshMismatch("varkappa must be solved on the chi mesh")
    fields = _chi_on_quadrature(chi)
    body_force = -2.0 * fields["gradu"][:, :, :, 0]
    body_force[:, :, 0] += 2.0 * fields["eta_dev"]

    bc = _strip_bc(1.0, (0.0, 0.0) if len(strip_mesh.holes) else None)
    return _solve("varkappa", strip_mesh, bc, Sources(volume=body_force), config,
                  operator)


def section_average(cell: CellSolution, component, y2):
    """Horizontal average of one field of a cell solution at height y2.

    ``component`` is 0/1 for the velocity components or ``"p"`` for the
    pressure.  An array of heights gives an array of averages.
    """
    space = cell.solution.space
    if component == "p":
        return _section_average(space, cell.solution.p, y2)
    return _section_average(space, cell.solution.u, y2, component=component)


def _band_mean_u(cell: CellSolution, band, component=0):
    return band_integral(cell.solution.space, cell.solution.u, band[0], band[1],
                         component=component, average=True)


def _band_mean_p(cell: CellSolution, band):
    return band_integral(cell.solution.space, cell.solution.p, band[0], band[1],
                         average=True)


def extract_constants(beta: CellSolution, upsilon: CellSolution,
                      chi: CellSolution,
                      varkappa: CellSolution | None = None) -> CellConstants:
    """Far-field constants and gradient energies from the cell solves.

    Far-field values are means over the bands [L-2, L-1] and [-L+1, -L+2];
    gradient energies are those the solves recorded; the obstacle area is
    analytic (pi r^2).
    """
    mesh = beta.mesh
    if upsilon.mesh is not mesh or chi.mesh is not mesh:
        raise MeshMismatch("cell solutions live on different strip meshes")
    _require_obstacle(mesh, "constants extraction")
    top, bot = _top_band(mesh), _bottom_band(mesh)
    r = mesh.holes[0, 2]
    consts = dict(
        beta1_plus=_band_mean_u(beta, top),
        beta1_minus=_band_mean_u(beta, bot),
        ups1_plus=_band_mean_u(upsilon, top),
        ups1_minus=_band_mean_u(upsilon, bot),
        eta_jump=_band_mean_p(chi, top) - _band_mean_p(chi, bot),
        chi_grad_energy=chi.grad_energy,
        beta_grad_energy=beta.grad_energy,
        ups_grad_energy=upsilon.grad_energy,
        obstacle_area=float(np.pi * r * r),
    )
    if varkappa is not None:
        consts["varkappa1_jump"] = (_band_mean_u(varkappa, top)
                                    - _band_mean_u(varkappa, bot))
        consts["mu_jump"] = (_band_mean_p(varkappa, top)
                             - _band_mean_p(varkappa, bot))
    return CellConstants(**consts)


def _chi_on_quadrature(chi: CellSolution):
    """chi's fields at the volume quadrature points (see eval_on_quadrature),
    gradients included, plus ``eta_dev``, the pressure minus its far-field
    value on that side.  Evaluated on the first call and kept on ``chi``."""
    if chi.quadrature is None:
        space, mesh = chi.solution.space, chi.mesh
        eta_plus = band_integral(space, chi.solution.p, *_top_band(mesh), average=True)
        eta_minus = band_integral(space, chi.solution.p, *_bottom_band(mesh),
                                  average=True)
        fields = eval_on_quadrature(space, u=chi.solution.u, p=chi.solution.p,
                                    grad=True)
        fields["eta_dev"] = fields["p"] - np.where(fields["pts"][:, :, 1] > 0.0,
                                                   eta_plus, eta_minus)
        chi.quadrature = fields
    return chi.quadrature


def chi_cross_integral(chi: CellSolution) -> float:
    """The volume integral of chi_1 * (eta - far-field eta) over the strip."""
    fields = _chi_on_quadrature(chi)
    return float(np.sum(fields["w"] * (fields["u"][:, :, 0] * fields["eta_dev"])))


def varkappa1_cross_integral(chi: CellSolution, beta: CellSolution) -> float:
    """-2 int (sigma_{chi, eta - etabar} . e1, beta + y2 e1) over the strip."""
    fields = _chi_on_quadrature(chi)
    bf = eval_on_quadrature(beta.solution.space, u=beta.solution.u)
    sig1 = fields["gradu"][:, :, :, 0].copy()          # d(chi)/dy1
    sig1[:, :, 0] -= fields["eta_dev"]
    test = bf["u"].copy()
    test[:, :, 0] += fields["pts"][:, :, 1]            # beta + y2 e1
    integrand = np.einsum("mqc,mqc->mq", sig1, test)
    return -2.0 * float(np.sum(fields["w"] * integrand))


def identity_report(beta, upsilon, chi, varkappa=None,
                    constants: CellConstants | None = None) -> dict:
    """Residuals of the averaged identities the cell solutions must satisfy.

    Keys map to scalar residuals (absolute or relative as noted); the caller
    decides pass/fail thresholds.  Section averages are read at y2 = +-1,
    +-2.5 and +-5.
    """
    from .fem import l2_norm_diff

    c = constants or extract_constants(beta, upsilon, chi, varkappa)
    rep = {}
    sections = np.array([-5.0, -2.5, -1.0, 1.0, 2.5, 5.0])

    def section_max(cell, component):
        return float(np.max(np.abs(section_average(cell, component, sections))))

    rep["beta2_section_max"] = section_max(beta, 1)
    rep["ups2_section_max"] = section_max(upsilon, 1)
    pi_norm = l2_norm_diff(beta.solution.space, beta.solution.p, None)
    varpi_norm = l2_norm_diff(upsilon.solution.space, upsilon.solution.p, None)
    rep["pi_section_max_rel"] = section_max(beta, "p") / max(pi_norm, 1e-30)
    rep["varpi_section_max_rel"] = section_max(upsilon, "p") / max(varpi_norm, 1e-30)

    jump = c.beta1_plus - c.beta1_minus
    target = -(c.obstacle_area + c.beta_grad_energy)
    rep["beta1_jump_identity_rel"] = abs(jump - target) / abs(target)

    rep["ups1_bottom_energy_rel"] = (
        abs(c.ups1_minus - c.ups_grad_energy) / abs(c.ups_grad_energy)
    )
    rep["ups_jump_vs_beta_bottom_rel"] = (
        abs((c.ups1_plus - c.ups1_minus) - c.beta1_minus) / abs(c.beta1_minus)
    )
    rep["chi_energy_vs_eta_jump_rel"] = (
        abs(c.chi_grad_energy - c.eta_jump) / abs(c.eta_jump)
    )

    # far-field flatness of the through-flow corrector (should be -e2)
    top = _top_band(chi.mesh)
    chi2 = section_average(chi, 1, np.linspace(top[0], top[1], 5))
    rep["chi2_farfield_dev"] = float(np.max(np.abs(chi2 + 1.0)))

    if varkappa is not None:
        # verified orientation: the far-field pressure jump of the
        # second-order corrector is minus the through-flow jump, shifted by
        # the cross integral
        mu_target = -c.eta_jump - 2.0 * chi_cross_integral(chi)
        rep["mu_jump_identity_rel"] = abs(c.mu_jump - mu_target) / abs(mu_target)
        k_target = varkappa1_cross_integral(chi, beta)
        denom = max(abs(k_target), 1e-12)
        rep["varkappa1_jump_identity_rel"] = (
            abs(c.varkappa1_jump - k_target) / denom
        )
        vtop = _top_band(varkappa.mesh)
        k1 = section_average(varkappa, 0, np.linspace(vtop[0], vtop[1], 5))
        rep["varkappa_farfield_variance"] = float(np.var(k1))
    return rep


def solve_all(strip_mesh: Mesh, config: SolverConfig | None = None,
              with_varkappa=True):
    """Run the cell solves (optionally the second-order one) and extract.

    All correctors share one :func:`strip_operator`, so the strip operator is
    assembled, reduced and factored once per call.  Returns (solutions dict,
    constants).
    """
    op = strip_operator(strip_mesh)
    sols = {
        "beta": solve_beta(strip_mesh, config, op),
        "upsilon": solve_upsilon(strip_mesh, config, op),
        "chi": solve_chi(strip_mesh, config, op),
    }
    if with_varkappa:
        sols["varkappa"] = solve_varkappa(strip_mesh, sols["chi"], config, op)
    constants = extract_constants(sols["beta"], sols["upsilon"], sols["chi"],
                                  sols.get("varkappa"))
    return sols, constants


def write_constants(constants: CellConstants, path, header_lines=()):
    """Flat key=value dump of the homogenized constants."""
    lines = [f"# {h}" for h in header_lines]
    lines += [f"{k}={float(v)!r}" for k, v in constants.as_dict().items()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_constants(path) -> CellConstants:
    vals = {}
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            k, v = ln.split("=", 1)
            vals[k] = float(v)
    return CellConstants(**vals)
