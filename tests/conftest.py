"""Session fixtures shared across test modules.

The default strip (ObstacleSpec(), L = 10, h = 1/48) and its cell solves
are built once per session.  Tests must not change what these fixtures
return; a test that needs to alter a solution builds its own.  The
``periodic_path`` and ``periodic_operator`` fixtures give the periodic
full-strip path, the reference for the half strip; ``prolongations`` gives
the constraint reduction's prolongation matrices, built here as the
reference for its column maps.
"""

import contextlib

import numpy as np
import pytest
import scipy.sparse as sp

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


@pytest.fixture(scope="session")
def prolongations():
    """``prolongations(space)`` is (T_u, T_p, u_fix) of the constraint sets
    of ``space``: full = T reduced + fixed values.  A row of T holds one unit
    entry at the column of its DOF: free DOFs are numbered in order, a
    periodic slave shares its master's column, and fixed DOFs (or slaves of
    a DOF without a column) have none."""
    def prolongation(n, fixed, pairs):
        target = np.arange(n)
        target[pairs[:, 0]] = pairs[:, 1]
        free = np.ones(n, dtype=bool)
        free[fixed] = free[pairs[:, 0]] = False
        rows = np.flatnonzero(free[target])
        cols = (np.cumsum(free) - 1)[target[rows]]
        return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, free.sum()))

    def build(space):
        u_fix = np.zeros(space.n_vel)
        u_fix[space.fixed_dofs] = space.fixed_vals
        return (prolongation(space.n_vel, space.fixed_dofs, space.vel_pairs),
                prolongation(space.n_p, space.p_fixed, space.p_pairs), u_fix)
    return build
