"""Flat key=value run configuration.

One ``key = value`` pair per line, ``#`` starts a comment; unknown keys are
rejected.  All values have documented defaults, so an empty file is a valid
configuration.
"""

from __future__ import annotations

import hashlib
import inspect
import math
from dataclasses import dataclass, field

from .errors import ConfigError, NonIntegerReciprocal
from .geometry import (Mesh, ObstacleSpec, RefineSpec, _check_half_length, _check_size,
                       _period_count, build_strip_mesh)
from .homogenized import FlowData, first_order_meshes
from .solvers import SolverConfig

# a key that a typed spec or a library signature also holds takes its default from there
_FLOW, _OBSTACLE, _REFINE, _SOLVER = FlowData(), ObstacleSpec(), RefineSpec(), SolverConfig()
_STRIP, _FIRST = (inspect.signature(f).parameters for f in (build_strip_mesh, first_order_meshes))

# each value's type is its key's type: str, int or float
DEFAULTS = {
    "case": _FLOW.case,
    "eps": 0.125,
    "eps_list": "0.25,0.125,0.0625",
    "p_in": _FLOW.p_in,
    "p_out1": _FLOW.p_out1,
    "p_out2": _FLOW.p_out2,
    "obstacle.cx": _OBSTACLE.center[0],
    "obstacle.cy": _OBSTACLE.center[1],
    "obstacle.r": _OBSTACLE.radius,
    "strip.L": _STRIP["L"].default,
    "strip.h": _STRIP["h"].default,
    "mesh.h": 0.1,
    "mesh.obstacle_factor": _REFINE.obstacle_factor,
    "mesh.min_circle_segments": _REFINE.min_circle_segments,
    "mesh.min_angle": _REFINE.min_angle_deg,
    "first_order.h": _FIRST["h"].default,
    "solver.method": _SOLVER.method,
    "solver.outer_tol": _SOLVER.outer_tol,
    "solver.max_outer": _SOLVER.max_outer,
    "output.dir": "out",
}


@dataclass
class RunConfig:
    """Parsed configuration with typed accessors for the module inputs."""

    values: dict = field(default_factory=lambda: dict(DEFAULTS))

    def __getitem__(self, key):
        return self.values[key]

    @property
    def case(self):
        return self.values["case"]

    @property
    def eps(self):
        return float(self.values["eps"])

    @property
    def eps_list(self):
        """The study's eps values: each is 1/m, and at least 3 lie below 1, as
        the slope fit (which leaves out eps = 1) needs; else a ValueError."""
        try:
            eps_list = [float(tok) for tok in str(self.values["eps_list"]).split(",")
                        if tok.strip()]
            n_fit = sum(_period_count(eps) > 1 for eps in eps_list)
            if n_fit < 3:
                raise ValueError(f"needs at least 3 values below 1, got {n_fit}")
        except (ValueError, NonIntegerReciprocal) as exc:
            raise ValueError(f"eps_list: {exc}") from None
        return eps_list

    def flow(self) -> FlowData:
        return FlowData(p_in=self.values["p_in"], p_out1=self.values["p_out1"],
                        p_out2=self.values["p_out2"], case=self.case)

    def obstacle(self) -> ObstacleSpec:
        return ObstacleSpec(center=(self.values["obstacle.cx"],
                                    self.values["obstacle.cy"]),
                            radius=self.values["obstacle.r"])

    def refine_spec(self) -> RefineSpec:
        return RefineSpec(
            obstacle_factor=self.values["mesh.obstacle_factor"],
            min_circle_segments=self.values["mesh.min_circle_segments"],
            min_angle_deg=self.values["mesh.min_angle"],
        )

    def solver(self) -> SolverConfig:
        return SolverConfig(
            method=self.values["solver.method"],
            outer_tol=self.values["solver.outer_tol"],
            max_outer=self.values["solver.max_outer"],
        )

    def strip_mesh(self, with_obstacle=True) -> Mesh:
        """The strip of ``strip.L`` and ``strip.h``; unobstructed unless
        ``with_obstacle``."""
        return build_strip_mesh(self.obstacle() if with_obstacle else None,
                                L=self.values["strip.L"], h=self.values["strip.h"],
                                refine_spec=self.refine_spec())

    def digest(self) -> str:
        """Deterministic hash of the effective configuration."""
        text = "\n".join(f"{k}={self.values[k]!r}" for k in sorted(self.values))
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    def provenance(self) -> str:
        from . import __version__

        return f"stentflow {__version__} config={self.digest()}"


def parse_config(text: str) -> RunConfig:
    """Parse flat key=value text; unknown keys and bad values are rejected."""
    values = dict(DEFAULTS)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (tok.strip() for tok in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        kind = type(DEFAULTS[key])
        try:
            values[key] = kind(val)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ConfigError(f"line {lineno}: {key} expects {noun}") from None
        if kind is float and not math.isfinite(values[key]):
            raise ConfigError(f"line {lineno}: {key} must be finite, got {val!r}")
    cfg = RunConfig(values=values)
    try:
        for key, check in (("mesh.h", _check_size), ("first_order.h", _check_size),
                           ("strip.h", _check_size), ("strip.L", _check_half_length)):
            check(cfg[key], key)
        for spec in (cfg.obstacle, cfg.flow, cfg.refine_spec, cfg.solver):
            spec()
        cfg.eps_list            # its values and their count
        if cfg.eps != 0.0:      # eps = 0 is homog's zero-order-only model
            _period_count(cfg.eps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    except NonIntegerReciprocal as exc:
        raise ConfigError(f"eps: {exc}") from None
    return cfg


def load_config(path) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
