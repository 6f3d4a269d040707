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

The strip mesher puts the disk at x1 = 1/2, so the mesh mirrors onto itself
under x1 -> 1 - x1, each corrector is odd or even under the mirror, and the
left half determines it: beta, upsilon and the body-force part of varkappa
are odd (u1 even, u2 and p odd), chi is even (u1 odd, u2 and p even).  The
correctors are solved on the half strip and copied back to the full one
with these signs.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import MeshMismatch, PeriodicMismatch
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
    l2_norm_diff,
    section_average as _section_average,
)
from .geometry import BoundaryTag as T, Mesh, mirror_half
from .solvers import SolverConfig, StokesSolution, solve_stokes


@dataclass
class CellSolution:
    """One boundary-layer solve, its pressure normalized to zero mean over
    the upper band.

    ``grad_energy`` is the squared L2 norm of the velocity gradient,
    u . (diag(K, K) u) with the strip's scalar stiffness K.  ``quadrature``
    holds a chi solution's fields at the quadrature points once
    :func:`_chi_on_quadrature` has evaluated them.
    """

    solution: StokesSolution
    grad_energy: float
    quadrature: dict | None = field(default=None, init=False, repr=False)

    @property
    def mesh(self) -> Mesh:
        return self.solution.space.mesh


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
        """The constants that are set, in field order."""
        return {k: v for k, v in asdict(self).items() if v is not None}

    def slip(self, side):
        """beta1 + ups1 of the ``side`` "plus" (above the layer) or "minus"."""
        if side == "plus":
            return self.beta1_plus + self.ups1_plus
        if side == "minus":
            return self.beta1_minus + self.ups1_minus
        raise ValueError("side must be 'plus' or 'minus'")


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


# the sign a corrector of each parity takes on (u1, u2, p) at a mirror image
_SIGNS = {"odd": (1.0, -1.0, -1.0), "even": (-1.0, 1.0, 1.0)}


def _half_bc(bc, parity):
    """``bc`` with the mirror lines x1 = 0 and x1 = 1/2 of the half strip in
    place of the periodic sides: the odd line fixes u2 and pins p, the even
    line fixes u1."""
    line = BC.odd_mirror() if parity == "odd" else BC.normal(0.0)
    return {**bc, T.STRIP_LEFT: line, T.STRIP_RIGHT: line}


def _strip_L(mesh: Mesh) -> float:
    return float(mesh.meta["L"] if "L" in mesh.meta else mesh.vertices[:, 1].max())


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


def _solve_reduced(operator: ReducedSystem, bc, sources, config):
    """The solution on ``operator`` with the data of ``bc`` and ``sources``,
    and its gradient energy."""
    space = build_space(operator.space.mesh, bc)
    red = operator.with_loads(space, *assemble_loads(space, sources))
    sol = solve_stokes(red, config)
    # u.(A u) = u_r.(A_r u_r) + (2 u - u_fix).(A_fix vals) for u = T u_r + u_fix;
    # numpy's pairwise sums, unlike a BLAS dot, do not depend on the thread count.
    # T^T sums the DOFs of a column, which all hold u_r, so with the periodic
    # slaves' copies zeroed it gives u_r
    u = sol.u.copy()
    u[space.vel_pairs[:, 0]] = 0.0
    u_r = red.restrict(u)
    u = 2.0 * sol.u
    u[space.fixed_dofs] -= space.fixed_vals                   # 2 u - u_fix
    energy = float(np.sum(u_r * (red.A @ u_r)) + np.sum(u * (red.A_fix @ space.fixed_vals)))
    return sol, energy


class _StripOperators:
    """The Stokes operators the strip correctors of ``parities`` ("odd",
    "even") on ``mesh`` are solved on.

    The correctors differ only in their loads and in the values they fix,
    so they share operators: one per parity on the mesh's left half
    (:func:`mirror_half`), each reduced from one assembly of the half strip
    (the blocks do not depend on the boundary conditions, and no operator
    carries a load).  A half solution is copied back to the full strip with
    its parity's signs, and the full gradient energy is twice the half one;
    a mesh without a half raises PeriodicMismatch.  An operator keeps the
    factorizations the solver makes, so this should live no longer than the
    solves using it; :func:`solve_all` drops the even operator once chi is
    solved, so that no two factorizations are alive at once.  ``obstacle``
    is the no-slip datum on the obstacle circle (None on a strip without
    one), which every corrector but beta takes.
    """

    def __init__(self, mesh: Mesh, parities):
        self.mesh, self.half = mesh, mirror_half(mesh)
        if self.half is None:
            raise PeriodicMismatch("the strip mesh does not mirror onto itself about x1 = 1/2")
        self.obstacle = (0.0, 0.0) if len(mesh.holes) else None
        bc = _strip_bc(0.0, self.obstacle)
        spaces = [build_space(self.half.mesh, _half_bc(bc, parity)) for parity in parities]
        system = assemble_stokes(spaces[0])
        self.operators = {parity: apply_constraints(dataclasses.replace(system, space=space))
                          for parity, space in zip(parities, spaces)}

    def solve(self, bc, sources, config, parity):
        """The full-strip solution of the corrector of ``parity`` with the
        periodic data ``bc`` and ``sources``, and its gradient energy.  A
        volume source is given on the triangles solved on, those of the half
        strip (``half.triangles``)."""
        sol, energy = _solve_reduced(self.operators[parity], _half_bc(bc, parity),
                                     sources, config)
        src, flip = self.half.source, self.half.mirrored
        n, nv = sol.space.n_vnode, self.mesh.n_vertices

        def copy(values, sign, k=None):
            """Half node values on the first k full nodes, times ``sign``
            beyond x1 = 1/2 (0 + -0 is +0, as a periodic copy gives)."""
            v = values[src[:k]]
            return np.where(flip[:k], 0.0 + sign * v, v)

        s1, s2, sp = _SIGNS[parity]
        u = np.concatenate([copy(sol.u[:n], s1), copy(sol.u[n:], s2)])
        return (StokesSolution(space=build_space(self.mesh, bc), u=u, p=copy(sol.p, sp, nv),
                               diagnostics=sol.diagnostics), 2.0 * energy)


def _cell(sol: StokesSolution, energy) -> CellSolution:
    """The cell solution of ``sol``, its pressure shifted to zero mean over
    the upper band."""
    sol.p = sol.p - band_integral(sol.space, sol.p, *_top_band(sol.space.mesh), average=True)
    return CellSolution(solution=sol, grad_energy=energy)


def _beta(strip: _StripOperators, config) -> CellSolution:
    _require_obstacle(strip.mesh, "beta")
    bc = _strip_bc(0.0, lambda xy: np.stack([-xy[:, 1], np.zeros(len(xy))], axis=1))
    return _cell(*strip.solve(bc, None, config, "odd"))


def _upsilon(strip: _StripOperators, config) -> CellSolution:
    _require_obstacle(strip.mesh, "upsilon")
    sources = Sources(line=(T.SIGMA, 1.0))
    return _cell(*strip.solve(_strip_bc(0.0, strip.obstacle), sources, config, "odd"))


def _chi(strip: _StripOperators, config) -> CellSolution:
    return _cell(*strip.solve(_strip_bc(-1.0, strip.obstacle), None, config, "even"))


def _varkappa_source(strip: _StripOperators, chi: CellSolution) -> Sources:
    """w's body force on the half strip's triangles, from chi's fields."""
    if chi.mesh is not strip.mesh:
        raise MeshMismatch("varkappa must be solved on the chi mesh")
    fields = _chi_on_quadrature(chi, strip.half.triangles)
    body_force = -2.0 * fields["gradu"][:, :, :, 0]
    body_force[:, :, 0] += 2.0 * fields["eta_dev"]
    return Sources(volume=body_force)


def _varkappa(strip: _StripOperators, chi: CellSolution, source: Sources,
              config) -> CellSolution:
    # varkappa = w - chi; w and chi are orthogonal in energy, being of
    # opposite parities
    w, energy = strip.solve(_strip_bc(0.0, strip.obstacle), source, config, "odd")
    sol = dataclasses.replace(w, u=w.u - chi.solution.u, p=w.p - chi.solution.p)
    return _cell(sol, energy + chi.grad_energy)


def solve_beta(strip_mesh: Mesh, config: SolverConfig | None = None) -> CellSolution:
    """No-slip corrector: velocity equals -y2*e1 on the obstacle boundary.

    Solved on the mesh's half strip (:func:`mirror_half`), as are the other
    correctors; a mesh that has none raises :class:`PeriodicMismatch`.
    """
    return _beta(_StripOperators(strip_mesh, ("odd",)), config)


def solve_upsilon(strip_mesh: Mesh, config: SolverConfig | None = None) -> CellSolution:
    """Shear-jump corrector: unit horizontal line load on the interface line."""
    return _upsilon(_StripOperators(strip_mesh, ("odd",)), config)


def solve_chi(strip_mesh: Mesh, config: SolverConfig | None = None) -> CellSolution:
    """Through-flow corrector: vertical velocity -1 at the truncation ends."""
    return _chi(_StripOperators(strip_mesh, ("even",)), config)


def solve_varkappa(strip_mesh: Mesh, chi: CellSolution,
                   config: SolverConfig | None = None) -> CellSolution:
    """Second-order corrector sourced by the through-flow fields.

    The body force is -2 * (d(chi)/dy1 - (eta - far-field eta) e1), evaluated
    from the discrete chi solution at the quadrature points of its own mesh.
    It is solved as varkappa = w - chi: its end datum +1 is -chi's -1, and
    w, which takes the body force with zero end data, is odd.  The
    solution's space is w's, whose ends are fixed to 0.
    """
    strip = _StripOperators(strip_mesh, ("odd",))
    return _varkappa(strip, chi, _varkappa_source(strip, chi), config)


def section_average(cell: CellSolution, component, y2):
    """Horizontal average of one field of a cell solution at height y2.

    ``component`` is 0/1 for the velocity components or ``"p"`` for the
    pressure.  An array of heights gives an array of averages.
    """
    space = cell.solution.space
    if component == "p":
        return _section_average(space, cell.solution.p, y2)
    return _section_average(space, cell.solution.u, y2, component=component)


def _band_mean(cell: CellSolution, name, band):
    """Mean over ``band`` of the pressure (``name`` "p") or the horizontal
    velocity ("u") of a cell solution."""
    return band_integral(cell.solution.space, getattr(cell.solution, name), *band,
                         average=True)


def _far_field_jump(cell: CellSolution, name):
    """Top minus bottom far-field band mean of the field ``name`` ("u", "p")."""
    return (_band_mean(cell, name, _top_band(cell.mesh))
            - _band_mean(cell, name, _bottom_band(cell.mesh)))


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
        beta1_plus=_band_mean(beta, "u", top),
        beta1_minus=_band_mean(beta, "u", bot),
        ups1_plus=_band_mean(upsilon, "u", top),
        ups1_minus=_band_mean(upsilon, "u", bot),
        eta_jump=_far_field_jump(chi, "p"),
        chi_grad_energy=chi.grad_energy,
        beta_grad_energy=beta.grad_energy,
        ups_grad_energy=upsilon.grad_energy,
        obstacle_area=float(np.pi * r * r),
    )
    if varkappa is not None:
        consts["varkappa1_jump"] = _far_field_jump(varkappa, "u")
        consts["mu_jump"] = _far_field_jump(varkappa, "p")
    return CellConstants(**consts)


def _chi_on_quadrature(chi: CellSolution, triangles=None):
    """chi's fields at the volume quadrature points (see eval_on_quadrature)
    of ``triangles`` (ids on its mesh), gradients included, plus ``eta_dev``,
    the pressure minus its far-field value on that side.  The fields on all
    triangles (``triangles`` None) are evaluated on the first call and kept
    on ``chi``."""
    if triangles is None and chi.quadrature is not None:
        return chi.quadrature
    eta_plus = _band_mean(chi, "p", _top_band(chi.mesh))
    eta_minus = _band_mean(chi, "p", _bottom_band(chi.mesh))
    fields = eval_on_quadrature(chi.solution.space, u=chi.solution.u,
                                p=chi.solution.p, grad=True, tri_sel=triangles)
    fields["eta_dev"] = fields["p"] - np.where(fields["pts"][:, :, 1] > 0.0,
                                               eta_plus, eta_minus)
    if triangles is None:
        chi.quadrature = fields
    return fields


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


def identity_report(beta, upsilon, chi, varkappa, c: CellConstants) -> dict:
    """Residuals of the averaged identities the cell solutions must satisfy.

    ``varkappa`` may be None; ``c`` are the constants :func:`extract_constants`
    gives for these solutions.  Keys map to scalar residuals (absolute or
    relative as noted); the caller decides pass/fail thresholds.  Section
    averages are read at those of y2 = +-1, +-2.5 and +-5 that lie strictly
    inside the strip.
    """
    rep = {}
    sections = np.array([-5.0, -2.5, -1.0, 1.0, 2.5, 5.0])
    sections = sections[np.abs(sections) < _strip_L(beta.mesh)]

    def section_max(cell, component):
        return float(np.max(np.abs(section_average(cell, component, sections))))

    rep["beta2_section_max"] = section_max(beta, 1)
    rep["ups2_section_max"] = section_max(upsilon, 1)
    pi_norm = l2_norm_diff(beta.solution.space, beta.solution.p)
    varpi_norm = l2_norm_diff(upsilon.solution.space, upsilon.solution.p)
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

    All correctors share one :class:`_StripOperators`, each operator
    assembled, reduced and factored once per call.  chi, the one even
    corrector, is solved first, and the even operator is dropped with its
    factor before the odd one is factored; varkappa's source is evaluated
    in between, while no factor is alive.  Returns (solutions dict,
    constants).
    """
    strip = _StripOperators(strip_mesh, ("odd", "even"))
    chi = _chi(strip, config)
    del strip.operators["even"]
    source = _varkappa_source(strip, chi) if with_varkappa else None
    sols = {"beta": _beta(strip, config), "upsilon": _upsilon(strip, config), "chi": chi}
    if with_varkappa:
        sols["varkappa"] = _varkappa(strip, chi, source, config)
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
    """The constants of a :func:`write_constants` file.  A ValueError names
    a non-finite constant, an ``eta_jump`` that is not positive or a side of
    zero slip: the interface data, the flow-rate law and the implicit report
    divide by them, and ``eta_jump`` is chi's gradient energy."""
    vals = {}
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            k, v = ln.split("=", 1)
            vals[k] = float(v)
            if not math.isfinite(vals[k]):
                raise ValueError(f"{k} = {vals[k]} is not finite")
    constants = CellConstants(**vals)
    if constants.eta_jump <= 0.0:
        raise ValueError(f"eta_jump = {constants.eta_jump} is not positive")
    for side in ("plus", "minus"):
        if constants.slip(side) == 0.0:
            raise ValueError(f"beta1_{side} + ups1_{side} = 0")
    return constants
