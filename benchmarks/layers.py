"""Outside-in layer trace for one stentflow command.

``Tracer.install`` replaces the public functions of each package module with
wrappers that record a span per call: name, start, end, parent span and run
id.  Functions are patched in every ``stentflow`` module that holds them, so
callers that imported them by name (``from .fem import build_space``) see the
wrapper too.  Methods are patched on their class, and ``splu`` on
``scipy.sparse.linalg``, where the solvers look it up.  Nothing in ``src/``
changes.

Spans stay in memory; the child harness writes them out when the command
ends, and :func:`layer_metrics` turns them into per-layer self times and
counts.  A span's self time is its duration minus the time its child spans
cover and minus the wrappers' own bookkeeping inside it, which is reported
as ``trace.overhead_s``.  The trace assumes one thread, which is how every
benchmark workload runs.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import sys
from time import perf_counter

import numpy as np


def _n_points(args, kwargs, result):
    pts = kwargs["pts"] if "pts" in kwargs else args[1]     # args[0] is self
    return {"points": int(len(np.atleast_2d(np.asarray(pts))))}


def _splu_counts(args, kwargs, lu):
    a = (args[0] if args else kwargs["A"]).tocsc()
    key = hashlib.blake2b(digest_size=16)
    key.update(np.asarray(a.shape, dtype=np.int64).tobytes())
    for arr in (a.indptr, a.indices, a.data):
        key.update(np.ascontiguousarray(arr).tobytes())
    return {"nnz": int(lu.L.nnz + lu.U.nnz), "key": key.hexdigest()}


def _stokes_counts(args, kwargs, sol):
    diag = sol.diagnostics
    return {"iters": int(diag.get("iterations", 0)),
            "converged": bool(diag.get("converged", False))}


def _mesh_counts(args, kwargs, mesh):
    return {"triangles": int(mesh.n_triangles)}


def _reduced_counts(args, kwargs, red):
    return {"vel_dofs": int(red.A.shape[0])}


def _bytes_written(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    return {"bytes": int(os.path.getsize(path))}


# (module, attribute or Class.method, metric, counter).  The metric collects
# the self time of every span of that name; the counter turns the call's
# arguments and result into the span's counts.
WRAPPED = [
    ("stentflow.cli", "main", "cli.self_s", None),
    ("stentflow.cli", "cmd_mesh", "cli.self_s", None),
    ("stentflow.cli", "cmd_cell", "cli.self_s", None),
    ("stentflow.cli", "cmd_solve", "cli.self_s", None),
    ("stentflow.cli", "cmd_homog", "cli.self_s", None),
    ("stentflow.cli", "cmd_converge", "cli.self_s", None),
    ("stentflow.config", "load_config", "config.parse_s", None),
    ("stentflow.config", "parse_config", "config.parse_s", None),
    ("stentflow.geometry", "build_macro_geometry", "geometry.mesh_s", None),
    ("stentflow.geometry", "triangulate", "geometry.mesh_s", _mesh_counts),
    ("stentflow.geometry", "rectangle_mesh", "geometry.mesh_s", _mesh_counts),
    ("stentflow.geometry", "no_stent_mesh", "geometry.mesh_s", _mesh_counts),
    ("stentflow.geometry", "build_strip_mesh", "geometry.mesh_s", _mesh_counts),
    ("stentflow.fem", "build_space", "fem.space_s", None),
    ("stentflow.fem", "assemble_stokes", "fem.assemble_s", None),
    ("stentflow.fem", "apply_constraints", "fem.reduce_s", _reduced_counts),
    ("stentflow.fem", "PointLocator.__init__", "fem.locate_s", None),
    ("stentflow.fem", "PointLocator.locate", "fem.locate_s", _n_points),
    ("stentflow.fem", "edge_flux", "fem.integrals_s", None),
    ("stentflow.fem", "band_integral", "fem.integrals_s", None),
    ("stentflow.fem", "section_average", "fem.integrals_s", None),
    ("stentflow.fem", "integrate_field", "fem.integrals_s", None),
    ("stentflow.fem", "l2_norm_diff", "fem.integrals_s", None),
    ("stentflow.fem", "energy_norm_sq", "fem.integrals_s", None),
    ("stentflow.fem", "gradient_energy", "fem.integrals_s", None),
    ("stentflow.fem", "scalar_p2_stiffness", "fem.integrals_s", None),
    ("stentflow.fem", "eval_on_quadrature", "fem.eval_s", None),
    ("stentflow.fem", "velocity_gradient_at", "fem.eval_s", None),
    ("stentflow.fem", "VelocityField.__init__", "fem.eval_s", None),
    ("stentflow.fem", "VelocityField.__call__", "fem.eval_s", None),
    ("stentflow.fem", "PressureField.__init__", "fem.eval_s", None),
    ("stentflow.fem", "PressureField.__call__", "fem.eval_s", None),
    ("scipy.sparse.linalg", "splu", "solvers.factor_s", _splu_counts),
    ("stentflow.solvers", "solve_stokes", "solvers.uzawa_s", _stokes_counts),
    ("stentflow.solvers", "solve_poisson", "solvers.poisson_s", None),
    ("stentflow.cell", "solve_all", "cell.self_s", None),
    ("stentflow.cell", "solve_beta", "cell.self_s", None),
    ("stentflow.cell", "solve_upsilon", "cell.self_s", None),
    ("stentflow.cell", "solve_chi", "cell.self_s", None),
    ("stentflow.cell", "solve_varkappa", "cell.self_s", None),
    ("stentflow.cell", "section_average", "cell.self_s", None),
    ("stentflow.cell", "extract_constants", "cell.self_s", None),
    ("stentflow.cell", "chi_cross_integral", "cell.self_s", None),
    ("stentflow.cell", "varkappa1_cross_integral", "cell.self_s", None),
    ("stentflow.cell", "identity_report", "cell.self_s", None),
    ("stentflow.cell", "write_constants", "cell.self_s", None),
    ("stentflow.cell", "read_constants", "cell.self_s", None),
    ("stentflow.homogenized", "solve_first_order", "homogenized.first_order_s", None),
    ("stentflow.homogenized", "first_order_meshes", "homogenized.first_order_s", None),
    ("stentflow.homogenized", "interface_dirichlet", "homogenized.first_order_s", None),
    ("stentflow.homogenized", "averaged_approximation", "homogenized.avg_eval_s", None),
    ("stentflow.homogenized", "AveragedApproximation.__post_init__",
     "homogenized.avg_eval_s", None),
    ("stentflow.homogenized", "AveragedApproximation.velocity",
     "homogenized.avg_eval_s", _n_points),
    ("stentflow.homogenized", "AveragedApproximation.pressure",
     "homogenized.avg_eval_s", _n_points),
    ("stentflow.homogenized", "zero_order", "homogenized.other_s", None),
    ("stentflow.homogenized", "ZeroOrder.velocity", "homogenized.other_s", None),
    ("stentflow.homogenized", "ZeroOrder.pressure", "homogenized.other_s", None),
    ("stentflow.homogenized", "flowrate_formula", "homogenized.other_s", None),
    ("stentflow.homogenized", "flowrate_first_order", "homogenized.other_s", None),
    ("stentflow.homogenized", "implicit_interface_report", "homogenized.other_s", None),
    ("stentflow.analysis", "hm1_pressure_error", "analysis.hm1_s", None),
    ("stentflow.analysis", "l2_velocity_error", "analysis.l2_s", None),
    ("stentflow.analysis", "solve_direct", "analysis.self_s", None),
    ("stentflow.analysis", "macro_bc_spec", "analysis.self_s", None),
    ("stentflow.analysis", "boundary_fluxes", "analysis.self_s", None),
    ("stentflow.analysis", "flowrate_direct", "analysis.self_s", None),
    ("stentflow.analysis", "mean_pressure_lower", "analysis.self_s", None),
    ("stentflow.analysis", "interface_normal_samples", "analysis.self_s", None),
    ("stentflow.analysis", "velocity_profiles", "analysis.self_s", None),
    ("stentflow.analysis", "fit_slope", "analysis.self_s", None),
    ("stentflow.analysis", "convergence_study", "analysis.self_s", None),
    ("stentflow.analysis", "check_slope_bands", "analysis.self_s", None),
    ("stentflow.meshio", "save_mesh", "meshio.write_s", _bytes_written),
    ("stentflow.meshio", "write_vtk", "meshio.write_s", _bytes_written),
    ("stentflow.meshio", "load_mesh", "meshio.write_s", None),
]

SPAN_METRIC = {f"{mod}.{attr}": metric for mod, attr, metric, _ in WRAPPED}
TIME_METRICS = sorted(set(SPAN_METRIC.values()))
MESH_SPANS = {f"stentflow.geometry.{name}" for name in
              ("triangulate", "rectangle_mesh", "no_stent_mesh", "build_strip_mesh")}


class Tracer:
    """Span recorder for one command run; spans are plain dicts."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.root_overhead = 0.0

    def call(self, name, fn, counter, args, kwargs):
        t_enter = perf_counter()
        parent = self._stack[-1] if self._stack else None
        span = {"id": len(self.spans), "name": name, "run": self.run_id,
                "parent": None if parent is None else parent["id"],
                "overhead": 0.0}
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = perf_counter()
            self._stack.pop()
        if counter is not None:
            span.update(counter(args, kwargs, result))
        spent = (span["start"] - t_enter) + (perf_counter() - span["end"])
        if parent is None:
            self.root_overhead += spent
        else:
            parent["overhead"] += spent
        return result

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, counter, args, kwargs)
        return wrapper

    def install(self):
        """Patch every entry of :data:`WRAPPED` where callers look it up."""
        for mod_name in dict.fromkeys(mod for mod, _, _, _ in WRAPPED):
            importlib.import_module(mod_name)
        holders = [m for key, m in sys.modules.items()
                   if key.split(".")[0] == "stentflow" and m is not None]
        for mod_name, attr, _, counter in WRAPPED:
            mod = sys.modules[mod_name]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth), counter))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig, counter)
            for holder in [mod] + holders:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        setattr(holder, key, wrapper)

    def record(self, wall_s: float) -> dict:
        return {"run": self.run_id, "wall_s": wall_s,
                "root_overhead_s": self.root_overhead, "spans": self.spans}


def layer_metrics(record: dict) -> dict:
    """Per-layer self times and counts of one traced command run."""
    spans = record["spans"]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = {m: 0.0 for m in TIME_METRICS}
    overhead = record["root_overhead_s"]
    roots = 0.0
    for s in spans:
        dur = s["end"] - s["start"]
        out[SPAN_METRIC[s["name"]]] += dur - child_time[s["id"]] - s["overhead"]
        overhead += s["overhead"]
        if s["parent"] is None:
            roots += dur

    def named(suffix):
        return [s for s in spans if s["name"].endswith(suffix)]

    factors = named(".splu")
    stokes = named(".solve_stokes")
    out["solvers.factor_calls"] = len(factors)
    out["solvers.factor_nnz"] = sum(s["nnz"] for s in factors)
    out["solvers.factor_distinct_frac"] = (
        len({s["key"] for s in factors}) / len(factors) if factors else 1.0)
    out["solvers.uzawa_iters"] = sum(s["iters"] for s in stokes)
    out["solvers.converged_frac"] = (
        sum(s["converged"] for s in stokes) / len(stokes) if stokes else 1.0)
    out["solvers.poisson_calls"] = len(named(".solve_poisson"))
    out["fem.locator_builds"] = len(named("PointLocator.__init__"))
    out["fem.points_located"] = sum(s["points"] for s in named("PointLocator.locate"))
    out["fem.vel_dofs"] = sum(s["vel_dofs"] for s in named(".apply_constraints"))
    out["homogenized.avg_eval_points"] = sum(
        s.get("points", 0) for s in spans
        if s["name"].startswith("stentflow.homogenized.AveragedApproximation."))
    # count each mesh once: a mesher called from inside another is not a new mesh
    out["geometry.triangles"] = sum(
        s.get("triangles", 0) for s in spans if s["name"] in MESH_SPANS
        and (s["parent"] is None or spans[s["parent"]]["name"] not in MESH_SPANS))
    out["meshio.bytes"] = sum(s.get("bytes", 0) for s in spans)
    out["trace.wall_s"] = record["wall_s"]
    out["trace.overhead_s"] = overhead
    out["trace.unattributed_s"] = record["wall_s"] - roots - record["root_overhead_s"]
    return out
