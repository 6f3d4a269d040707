"""Session fixtures shared across test modules.

The default strip (ObstacleSpec(), L = 10, h = 1/48) and its cell solves
are built once per session.  Tests must not change what these fixtures
return; a test that needs to alter a solution builds its own.
"""

import pytest

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
