"""Flat key=value run configuration.

One ``key = value`` pair per line, ``#`` starts a comment; unknown keys are
rejected.  All values have documented defaults, so an empty file is a valid
configuration.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from .errors import ConfigError, NonIntegerReciprocal
from .geometry import ObstacleSpec, RefineSpec, _period_count
from .homogenized import FlowData
from .solvers import SolverConfig

DEFAULTS = {
    "case": "collateral",
    "eps": 0.125,
    "eps_list": "0.25,0.125,0.0625",
    "p_in": 2.0,
    "p_out1": 0.0,
    "p_out2": -1.0,
    "obstacle.cx": 0.5,
    "obstacle.cy": 0.25,
    "obstacle.r": 3.0 / 16.0,
    "strip.L": 10.0,
    "strip.h": 1.0 / 48.0,
    "mesh.h": 0.1,
    "mesh.obstacle_factor": 0.5,
    "mesh.min_circle_segments": 16,
    "mesh.min_angle": 20.0,
    "first_order.h": 0.05,
    "solver.method": "uzawa_cg",
    "solver.outer_tol": 1e-10,
    "solver.max_outer": 500,
    "output.dir": "out",
}

_STRING_KEYS = {"case", "eps_list", "solver.method", "output.dir"}
_INT_KEYS = {"mesh.min_circle_segments", "solver.max_outer"}


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
        return [float(tok) for tok in str(self.values["eps_list"]).split(",")
                if tok.strip()]

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
        if key in _STRING_KEYS:
            values[key] = val
        elif key in _INT_KEYS:
            try:
                values[key] = int(val)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} expects an integer") from None
        else:
            try:
                values[key] = float(val)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} expects a number") from None
            if not math.isfinite(values[key]):
                raise ConfigError(f"line {lineno}: {key} must be finite, got {val!r}")
    cfg = RunConfig(values=values)
    if cfg.case not in ("collateral", "aneurysm"):
        raise ConfigError(f"case must be collateral or aneurysm, got {cfg.case!r}")
    if cfg["obstacle.r"] <= 0:
        raise ConfigError(f"obstacle.r must be positive, got {cfg['obstacle.r']!r}; "
                          "use 'cell --no-obstacle' for the unobstructed strip")
    for key in ("mesh.h", "first_order.h", "strip.h"):
        if cfg[key] <= 0:
            raise ConfigError(f"{key} must be positive, got {cfg[key]!r}")
    if cfg["strip.L"] < 2:
        raise ConfigError(f"strip.L must be >= 2, got {cfg['strip.L']!r}")
    if cfg["mesh.obstacle_factor"] <= 0:
        raise ConfigError("mesh.obstacle_factor must be positive, "
                          f"got {cfg['mesh.obstacle_factor']!r}")
    if cfg["mesh.min_circle_segments"] < 3:
        raise ConfigError("mesh.min_circle_segments must be >= 3, "
                          f"got {cfg['mesh.min_circle_segments']!r}")
    if not 0 <= cfg["mesh.min_angle"] < 60:
        raise ConfigError(f"mesh.min_angle must lie in [0, 60), got {cfg['mesh.min_angle']!r}")
    try:
        cfg.solver()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        # each value is checked; the slope fit leaves out eps = 1 (m = 1)
        n_fit = sum(_period_count(eps) > 1 for eps in cfg.eps_list)
        if n_fit < 3:
            raise ValueError(f"needs at least 3 values below 1, got {n_fit}")
    except (ValueError, NonIntegerReciprocal) as exc:
        raise ConfigError(f"eps_list: {exc}") from None
    return cfg


def load_config(path) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
