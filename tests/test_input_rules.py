"""Each input rule has one owner: a bad value is a ``ConfigError`` naming its
key when the config is parsed, and a ``ValueError`` from the library entry
that consumes it, before any meshing or solving."""

import numpy as np
import pytest

import stentflow.analysis as analysis
from stentflow.analysis import check_slope_bands, convergence_study
from stentflow.config import DEFAULTS, RunConfig, parse_config
from stentflow.errors import ConfigError, MeshQualityFailure
from stentflow.fem import _vertex_velocity, build_space
from stentflow.geometry import (
    MAX_DISK_DIVISIONS,
    ObstacleSpec,
    build_macro_geometry,
    build_strip_mesh,
    no_stent_mesh,
    rectangle_mesh,
    triangulate,
)
from stentflow.homogenized import FlowData, first_order_meshes


def _config_error(line):
    with pytest.raises(ConfigError) as exc:
        parse_config(line)
    return str(exc.value)


@pytest.mark.parametrize("build", [
    lambda: no_stent_mesh(case="colateral"),
    lambda: first_order_meshes(case="colateral"),
    lambda: build_macro_geometry(0.25, "colateral"),
    lambda: FlowData(case="colateral"),
])
def test_case_rule(build):
    # a misspelled case never meshes as the aneurysm's closed bottom
    assert "case" in _config_error("case = colateral")
    with pytest.raises(ValueError, match="case must be collateral or aneurysm"):
        build()


@pytest.mark.parametrize("key, value, build", [
    ("mesh.h", "0", lambda: rectangle_mesh(0, 1, 0, 1, 0.0)),
    ("first_order.h", "0", lambda: first_order_meshes(h=0.0)),
    ("mesh.h", "-0.1", lambda: no_stent_mesh(h=-0.1)),
    ("strip.h", "0", lambda: build_strip_mesh(None, L=4, h=0.0)),
    ("strip.L", "1.5", lambda: build_strip_mesh(None, L=1.5, h=0.25)),
])
def test_size_rules(key, value, build):
    # a typed error, not a ZeroDivisionError from inside the mesher
    message = _config_error(f"{key} = {value}")
    assert message.startswith(key) and f"got {float(value)!r}" in message
    with pytest.raises(ValueError, match=f"must be .*, got {float(value)!r}"):
        build()


@pytest.mark.parametrize("value", [0.0, -0.1])
def test_obstacle_radius_rule(value):
    message = _config_error(f"obstacle.r = {value}")
    assert "obstacle.r" in message and "cell --no-obstacle" in message
    with pytest.raises(ValueError, match="obstacle.r must be positive"):
        ObstacleSpec(radius=value)


@pytest.mark.parametrize("obstacle", [
    ObstacleSpec(center=(0.747, 0.693), radius=0.2507),   # 0.0023 from the side x1 = 1
    ObstacleSpec(center=(0.5, 0.5), radius=0.49),         # 0.01 from the strip's periodic sides
    ObstacleSpec(radius=0.01),                            # 16 chords of a tiny circle
], ids=["cell-side", "strip-side", "circle"])
def test_disk_divisions_rule(obstacle):
    # a disk inside the unit cell whose clearance or radius alone asks for
    # more lattice divisions than MAX_DISK_DIVISIONS is refused before any
    # meshing: the first disk gave a 2.8 M-triangle macro mesh at eps = 1/4
    (cx, cy), r = obstacle.center, obstacle.radius
    message = _config_error(f"obstacle.cx = {cx}\nobstacle.cy = {cy}\nobstacle.r = {r}")
    assert message.startswith("obstacle.cx, obstacle.cy, obstacle.r = ")
    assert f"more than {MAX_DISK_DIVISIONS}" in message
    for build in (lambda: triangulate(build_macro_geometry(0.25, "collateral", obstacle), 0.1),
                  lambda: build_strip_mesh(obstacle)):
        with pytest.raises(ValueError, match="lattice divisions per cell"):
            build()


@pytest.mark.parametrize("eps_list", ["1,0.5,0.25", "0.25,0.125", "0.25,0.3,0.0625",
                                      "0.25,0.25,0.125"])
def test_eps_list_rule(monkeypatch, eps_list):
    # the study refuses a list the slope fit cannot use before any solve
    assert _config_error(f"eps_list = {eps_list}").startswith("eps_list: ")
    solves = []

    def solve_direct(*args, **kwargs):
        solves.append(args)
        raise MeshQualityFailure("stand-in solve")

    monkeypatch.setattr(analysis, "solve_direct", solve_direct)
    monkeypatch.setattr(analysis, "first_order_model",
                        lambda *args, **kwargs: solves.append(args) or (None, None))
    cfg = RunConfig(values={**DEFAULTS, "eps_list": eps_list})
    with pytest.raises(ValueError, match="eps_list: "):
        convergence_study(cfg)
    assert solves == []


def test_fit_leaves_out_eps_one_after_a_failed_eps(monkeypatch):
    # 1, 1/2 and 1/4 survive a failure at 1/8: three reports, but only two
    # points the slope fit keeps, so no slope is fitted
    def measure(rep, cfg, zero, first_order, constants):
        if rep.eps == 0.125:
            raise MeshQualityFailure("stand-in failure")
        rep.l2_vel_zero = rep.l2_vel_first = rep.hm1_p_zero = rep.hm1_p_first = rep.eps

    monkeypatch.setattr(analysis, "first_order_model", lambda cfg, zero, constants: (None, None))
    monkeypatch.setattr(analysis, "_measure", measure)
    reports, fits, _, _ = convergence_study(parse_config("eps_list = 1,0.5,0.25,0.125"))
    assert [r.error is None for r in reports] == [True, True, True, False]
    assert fits == {}
    assert "l2_vel_zero: no fit available" in check_slope_bands(reports, fits)


def test_vertex_velocity_is_the_p1_part():
    mesh = rectangle_mesh(0, 1, 0, 1, 0.25)
    space = build_space(mesh, {})
    u = np.arange(space.n_vel, dtype=float)
    n, nv = mesh.n_vertices, space.n_vnode
    vel = _vertex_velocity(space, u)
    assert vel.shape == (n, 2)
    assert np.array_equal(vel, np.stack([u[:n], u[nv:nv + n]], axis=1))


def _draw_config(rng):
    """One seeded draw of every key that reaches a mesher, over its accepted
    range and past it: a fifth of the disks touch or leave the unit cell, and
    strip.L runs below the disk's minimum.  Sizes are capped so the draw
    meshes in well under a second: each disk that fits keeps 0.03 clear of
    the cell (the macro lattice takes 1.3 columns per clearance), r >= 0.05
    and at most 24 circle segments."""
    cx, cy = (float(v) for v in rng.uniform(0.15, 0.85, 2))
    d = min(cx, cy, 1 - cx, 1 - cy)
    r = float(d + rng.uniform(0.0, 0.05) if rng.random() < 0.2
              else rng.uniform(0.05, d - 0.03))

    def log_uniform(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    return {
        "case": str(rng.choice(["collateral", "aneurysm"])),
        "eps": float(rng.choice([1.0, 0.5, 0.25])),
        "mesh.h": log_uniform(0.1, 2.0),
        "first_order.h": log_uniform(0.04, 2.0),
        "strip.h": log_uniform(1 / 32, 1.0),
        "strip.L": float(rng.uniform(2.0, 6.0)),
        "obstacle.cx": cx, "obstacle.cy": cy, "obstacle.r": r,
        "mesh.obstacle_factor": log_uniform(0.25, 4.0),
        "mesh.min_circle_segments": int(rng.integers(3, 25)),
    }


def test_every_accepted_input_meshes():
    # each draw is either refused when the config is parsed, naming a drawn
    # key, or every mesher a command calls on it returns a mesh that passes
    # the default quality gate; before the strip sizing rule had one owner,
    # the strip refused or failed disks that parse_config accepted
    rng = np.random.default_rng(0)
    meshed = refused = 0
    for _ in range(100):
        values = _draw_config(rng)
        text = "".join(f"{key} = {value}\n" for key, value in values.items())
        try:
            cfg = parse_config(text)
        except ConfigError as exc:
            assert str(exc).split()[0].rstrip(",") in values, (text, exc)
            refused += 1
            continue
        spec = cfg.refine_spec()
        triangulate(build_macro_geometry(cfg.eps, cfg.case, cfg.obstacle()), cfg["mesh.h"], spec)
        cfg.strip_mesh()
        cfg.strip_mesh(with_obstacle=False)
        first_order_meshes(cfg["first_order.h"], spec, cfg.case)
        no_stent_mesh(cfg.case, cfg["mesh.h"], spec)
        meshed += 1
    assert meshed >= 40 and refused >= 20
