"""Session fixtures shared across test modules.

The default strip (ObstacleSpec(), L = 10, h = 1/48) and its cell solves
are built once per session.  Tests must not change what these fixtures
return; a test that needs to alter a solution builds its own.  The
``periodic_path`` and ``periodic_operator`` fixtures give the periodic
full-strip path, the reference for the half strip.
"""

import contextlib

import pytest

import stentflow.cell as cell
from stentflow.cell import solve_all
from stentflow.geometry import ObstacleSpec, build_strip_mesh


@pytest.fixture(scope="session")
def default_strip():
    return build_strip_mesh(ObstacleSpec(), L=10.0, h=1.0 / 48.0)


@pytest.fixture(scope="session")
def default_strip_cells(default_strip):
    """(solutions, constants) of ``solve_all`` on the default strip, with
    varkappa."""
    return solve_all(default_strip, with_varkappa=True)


@pytest.fixture(scope="session")
def periodic_path():
    """``with periodic_path():`` solves strip correctors on the full periodic
    strip whatever the mesh's symmetry, as if ``mirror_half`` found no half.
    The periodic path is the reference the half strip is checked against."""
    @contextlib.contextmanager
    def periodic():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cell, "mirror_half", lambda mesh: None)
            yield
    return periodic


@pytest.fixture(scope="session")
def periodic_operator(periodic_path):
    """``periodic_operator(mesh)`` is the reduced periodic Stokes operator
    that every corrector on the strip ``mesh`` shares on the periodic path."""
    def operator(mesh):
        with periodic_path():
            return cell._StripOperators(mesh, ("odd",)).operators["odd"]
    return operator
