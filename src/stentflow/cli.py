"""Command-line interface: files in, files out.

Subcommands: ``mesh`` | ``cell`` | ``solve`` | ``homog`` | ``converge``.
Every output file starts with a provenance line (version + config hash).
Exit codes: 0 success, 1 numerical failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .config import RunConfig, load_config
from .errors import (
    ConfigError,
    NonIntegerReciprocal,
    ObstacleTouchesCell,
    StentflowError,
)
from .fem import _vertex_velocity
from .geometry import build_macro_geometry, triangulate
from .meshio import save_mesh, write_vtk

TOL_TABLE = {
    "beta2_section_max": 1e-6,
    "ups2_section_max": 1e-6,
    "pi_section_max_rel": 1e-6,
    "varpi_section_max_rel": 1e-6,
    "beta1_jump_identity_rel": 0.01,
    "ups1_bottom_energy_rel": 0.01,
    "ups_jump_vs_beta_bottom_rel": 0.01,
    "chi_energy_vs_eta_jump_rel": 0.01,
    "chi2_farfield_dev": 1e-6,
    "mu_jump_identity_rel": 0.02,
    "varkappa1_jump_identity_rel": 0.02,
    "varkappa_farfield_variance": 1e-6,
}


def _ensure_outdir(cfg: RunConfig) -> str:
    out = cfg["output.dir"]
    os.makedirs(out, exist_ok=True)
    return out


def _fmt_cell(v):
    return v if isinstance(v, str) else repr(float(v))


def _write_csv(path, header_cols, rows, provenance):
    lines = [f"# {provenance}", ",".join(header_cols)]
    for row in rows:
        lines.append(",".join(_fmt_cell(row[c]) for c in header_cols))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_values(path, values, provenance):
    _write_csv(path, ["name", "value"],
               [{"name": k, "value": v} for k, v in values.items()], provenance)


def cmd_mesh(cfg: RunConfig, args) -> int:
    geo = build_macro_geometry(cfg.eps, cfg.case, cfg.obstacle())   # checks eps
    out = _ensure_outdir(cfg)
    prov = cfg.provenance()
    macro = triangulate(geo, cfg["mesh.h"], cfg.refine_spec())
    save_mesh(macro, os.path.join(out, f"macro_eps{cfg.eps:g}.mesh"),
              header_lines=[prov])
    strip = cfg.strip_mesh()
    save_mesh(strip, os.path.join(out, "strip.mesh"), header_lines=[prov])
    if args.vtk:
        write_vtk(macro, os.path.join(out, f"macro_eps{cfg.eps:g}.vtk"),
                  title=prov)
        write_vtk(strip, os.path.join(out, "strip.vtk"), title=prov)
    print(f"wrote macro ({macro.n_triangles} tris) and strip "
          f"({strip.n_triangles} tris) meshes to {out}")
    return 0


def cmd_cell(cfg: RunConfig, args) -> int:
    from .cell import (_far_field_jump, identity_report, solve_all, solve_chi,
                       write_constants)

    out = _ensure_outdir(cfg)
    prov = cfg.provenance()
    strip = cfg.strip_mesh(with_obstacle=not args.no_obstacle)
    if args.no_obstacle:
        # unobstructed strip: only the through-flow problem is well posed
        sols = {"chi": solve_chi(strip, cfg.solver())}
    else:
        sols, constants = solve_all(strip, cfg.solver(),
                                    with_varkappa=not args.skip_varkappa)
    if args.vtk:
        data = {}
        for name, cell in sols.items():
            data[f"{name}_velocity"] = _vertex_velocity(cell.solution.space, cell.solution.u)
            data[f"{name}_pressure"] = cell.solution.p
        write_vtk(strip, os.path.join(out, "cell_fields.vtk"),
                  point_data=data, title=prov)
    if args.no_obstacle:
        jump = _far_field_jump(sols["chi"], "p")
        with open(os.path.join(out, "constants.txt"), "w") as fh:
            fh.write(f"# {prov}\neta_jump={float(jump)!r}\n")
        print(f"no obstacle: eta_jump={jump:.3e} (expected 0)")
        return 0 if abs(jump) < 1e-8 else 1
    write_constants(constants, os.path.join(out, "constants.txt"),
                    header_lines=[prov])
    _write_values(os.path.join(out, "constants.csv"), constants.as_dict(), prov)
    report = identity_report(sols["beta"], sols["upsilon"], sols["chi"],
                             sols.get("varkappa"), constants)
    failures = []
    with open(os.path.join(out, "identity_report.txt"), "w") as fh:
        fh.write(f"# {prov}\n")
        for key, val in report.items():
            tol = TOL_TABLE.get(key)
            ok = tol is not None and val <= tol
            if not ok:
                failures.append(key)
            fh.write(f"{key}={val!r} tol={tol!r} {'ok' if ok else 'FAIL'}\n")
    for k, v in constants.as_dict().items():
        print(f"{k} = {v:.8g}")
    if failures:
        print(f"identity checks FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"all identity checks passed; outputs in {out}")
    return 0


def cmd_solve(cfg: RunConfig, args) -> int:
    from .analysis import boundary_fluxes, flowrate_direct, solve_direct

    geo = build_macro_geometry(cfg.eps, cfg.case, cfg.obstacle())   # checks eps
    out = _ensure_outdir(cfg)
    prov = cfg.provenance()
    mesh = triangulate(geo, cfg["mesh.h"], cfg.refine_spec())
    sol = solve_direct(mesh, cfg.flow(), cfg.solver())
    fluxes = boundary_fluxes(sol)
    q0 = flowrate_direct(sol)
    _write_values(os.path.join(out, f"fluxes_eps{cfg.eps:g}.csv"),
                  {**fluxes, "Q_GAMMA0": q0}, prov)
    write_vtk(mesh, os.path.join(out, f"solution_eps{cfg.eps:g}.vtk"),
              point_data={"velocity": _vertex_velocity(sol.space, sol.u),
                          "pressure": sol.p}, title=prov)
    imbalance = sum(fluxes.values())
    print(f"flow rate through the interface: {q0:.6g}; "
          f"flux imbalance {imbalance:.2e}")
    return 0


def cmd_homog(cfg: RunConfig, args) -> int:
    from .analysis import first_order_model
    from .cell import read_constants
    from .homogenized import (
        flowrate_first_order,
        flowrate_formula,
        implicit_interface_report,
        zero_order,
    )

    constants = None
    if args.constants:
        try:
            constants = read_constants(args.constants)
        except (OSError, ValueError, TypeError) as exc:
            raise ConfigError(f"constants file {args.constants}: {exc}") from None
    out = _ensure_outdir(cfg)
    prov = cfg.provenance()
    zero = zero_order(cfg.flow())
    if cfg.case == "aneurysm":
        print(f"lower-channel zero-order pressure: {zero.p_lower:g}")
    if cfg.eps == 0.0:
        print("eps = 0: zero-order model only; nothing further to solve")
        return 0
    first, constants = first_order_model(cfg, zero, constants)
    rows = implicit_interface_report(zero, first, constants, cfg.eps)
    _write_csv(os.path.join(out, f"interface_eps{cfg.eps:g}.csv"),
               ["x1", "u_t_plus", "u_t_minus", "u_n", "p_jump",
                "slip_residual", "normal_residual"], rows, prov)
    if cfg.case == "collateral":
        qf = flowrate_formula(zero, constants, cfg.eps)
        q1 = flowrate_first_order(first, cfg.eps)
        _write_values(os.path.join(out, f"flowrate_eps{cfg.eps:g}.csv"),
                      {"Q_formula": qf, "Q_first_order_trace": q1}, prov)
        print(f"flow-rate law: Q = {qf:.6g} (trace integral {q1:.6g})")
    return 0


def cmd_converge(cfg: RunConfig, args) -> int:
    from .analysis import check_slope_bands, convergence_study

    if args.dry_run:
        print(f"plan: eps={cfg.eps_list}, macro h={cfg['mesh.h']}, "
              f"strip h={cfg['strip.h']} L={cfg['strip.L']}, "
              f"first-order h={cfg['first_order.h']}")
        return 0
    out = _ensure_outdir(cfg)
    prov = cfg.provenance()

    def progress(rep):
        if rep.error:
            print(f"eps={rep.eps}: {rep.error}", file=sys.stderr)
        else:
            print(f"eps={rep.eps}: vel errors {rep.l2_vel_zero:.4e} / "
                  f"{rep.l2_vel_first:.4e}, pressure {rep.hm1_p_zero:.4e} / "
                  f"{rep.hm1_p_first:.4e}")

    reports, fits, _, _ = convergence_study(cfg, progress=progress)
    cols = ["eps", "l2_vel_zero", "l2_vel_first", "hm1_p_zero", "hm1_p_first",
            "q_direct", "q_formula", "q_first_order"]
    rows = [{c: getattr(r, c) for c in cols} for r in reports if r.error is None]
    _write_csv(os.path.join(out, "errors.csv"), cols, rows, prov)
    with open(os.path.join(out, "slopes.txt"), "w") as fh:
        fh.write(f"# {prov}\n")
        for key, fit in fits.items():
            fh.write(f"{key}.slope={fit.slope!r}\n")
            fh.write(f"{key}.intercept={fit.intercept!r}\n")
    for key, fit in fits.items():
        print(f"{key}: slope {fit.slope:.3f}")
    for rep in reports:
        profile_rows = rep.meta.get("profiles")
        if profile_rows:
            _write_csv(os.path.join(out, f"profiles_eps{rep.eps:g}.csv"),
                       ["x1", "u1_direct_at_eps", "u1_avg_at_eps",
                        "u2_direct_at_0", "u2_avg_at_0"], profile_rows, prov)

    problems = check_slope_bands(reports, fits)
    if problems:
        for p in problems:
            print(f"ACCEPTANCE BAND VIOLATION: {p}", file=sys.stderr)
        return 1
    print(f"all slope bands satisfied; outputs in {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stentflow",
        description="Multi-scale Stokes solver for sieve-obstructed channels",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="key=value config file")

    p = sub.add_parser("mesh", help="write macro and strip meshes")
    common(p)
    p.add_argument("--vtk", action="store_true", help="also write VTK files")
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("cell", help="solve the boundary-layer problems")
    common(p)
    p.add_argument("--skip-varkappa", action="store_true",
                   help="skip the second-order corrector")
    p.add_argument("--no-obstacle", action="store_true",
                   help="unobstructed strip: through-flow problem only")
    p.add_argument("--vtk", action="store_true",
                   help="export the cell fields to VTK")
    p.set_defaults(func=cmd_cell)

    p = sub.add_parser("solve", help="direct solve of the rough problem")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("homog", help="zero/first-order homogenized model")
    common(p)
    p.add_argument("--constants", default=None,
                   help="constants file from a previous cell run")
    p.set_defaults(func=cmd_homog)

    p = sub.add_parser("converge", help="convergence study over eps_list")
    common(p)
    p.add_argument("--dry-run", action="store_true", help="print the plan only")
    p.set_defaults(func=cmd_converge)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.func(cfg, args)
    except (ConfigError, NonIntegerReciprocal, ObstacleTouchesCell) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except StentflowError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
