"""Session fixtures shared across test modules.

The default strip (ObstacleSpec(), L = 10, h = 1/48) and its cell solves
are built once per session.  Tests must not change what these fixtures
return; a test that needs to alter a solution builds its own.  The
``periodic_strip`` fixture gives the correctors solved on the full periodic
strip, the reference for the half strip; ``prolongations`` gives the
constraint reduction's prolongation matrices, the reference for its column
maps.  Both are built here from ``fem`` primitives.  ``l2_distance``
compares a discrete field with a closed-form one, and ``node_xy`` gives the
coordinates of a space's velocity nodes.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import stentflow.cell as cell
from stentflow.cell import solve_all
from stentflow.fem import (
    Sources,
    _node_xy,
    apply_constraints,
    assemble_stokes,
    build_space,
    eval_on_quadrature,
)
from stentflow.geometry import ObstacleSpec, build_strip_mesh


@pytest.fixture(scope="session")
def default_strip():
    return build_strip_mesh(ObstacleSpec(), L=10.0, h=1.0 / 48.0)


@pytest.fixture(scope="session")
def default_strip_cells(default_strip):
    """(solutions, constants) of ``solve_all`` on the default strip, with
    varkappa."""
    return solve_all(default_strip, with_varkappa=True)


class PeriodicStrip:
    """The strip correctors on the full periodic strip of ``mesh``.

    ``operator`` is one reduced periodic Stokes operator that every
    corrector shares.  ``solve`` stands in for the half strip's: it solves
    a corrector of either parity on ``operator``, so that ``cell._beta``,
    ``cell._upsilon`` and ``cell._chi`` run on this object unchanged.
    ``varkappa`` is solved directly, with end datum +1 and the body force on
    the whole strip.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.obstacle = (0.0, 0.0) if len(mesh.holes) else None
        bc = cell._strip_bc(0.0, self.obstacle)
        self.operator = apply_constraints(assemble_stokes(build_space(mesh, bc)))

    def solve(self, bc, sources, config, parity):
        return cell._solve_reduced(self.operator, bc, sources, config)

    def varkappa(self, chi, config=None):
        fields = cell._chi_on_quadrature(chi)
        body_force = -2.0 * fields["gradu"][:, :, :, 0]
        body_force[:, :, 0] += 2.0 * fields["eta_dev"]
        return cell._cell("varkappa", *self.solve(cell._strip_bc(1.0, self.obstacle),
                                                  Sources(volume=body_force), config, "odd"))

    def solve_all(self, config=None):
        """(solutions, constants) as ``solve_all`` with varkappa gives them."""
        sols = {"beta": cell._beta(self, config), "upsilon": cell._upsilon(self, config),
                "chi": cell._chi(self, config)}
        sols["varkappa"] = self.varkappa(sols["chi"], config)
        return sols, cell.extract_constants(*sols.values())


@pytest.fixture(scope="session")
def l2_distance():
    """``l2_distance(space, coeffs, exact)`` is the L2 distance between a
    discrete velocity (length n_vel) or pressure (length n_p) and the
    callable ``exact(points)``, both read at the volume quadrature points of
    ``space``."""
    def distance(space, coeffs, exact):
        kind = "u" if len(coeffs) == space.n_vel else "p"
        fields = eval_on_quadrature(space, **{kind: coeffs})
        diff = fields[kind] - np.reshape(exact(fields["pts"].reshape(-1, 2)),
                                         fields[kind].shape)
        w = fields["w"] if kind == "p" else fields["w"][:, :, None]
        return float(np.sqrt(np.sum(w * diff**2)))
    return distance


@pytest.fixture(scope="session")
def node_xy():
    """``node_xy(space)`` is the coordinates (n_vnode, 2) of every velocity
    node of ``space``: the mesh vertices, then the edge midpoints."""
    return lambda space: _node_xy(space, np.arange(space.n_vnode))


@pytest.fixture(scope="session")
def periodic_strip():
    """``periodic_strip(mesh)`` is the :class:`PeriodicStrip` of ``mesh``."""
    return PeriodicStrip


@pytest.fixture(scope="session")
def prolongations():
    """``prolongations(space)`` is (T_u, T_p, u_fix) of the constraint sets
    of ``space``: full = T reduced + fixed values.  A row of T holds one unit
    entry at the column of its DOF: free DOFs are numbered in order, a
    periodic slave shares the column of its final master (a slave's master
    may itself be a slave), and fixed DOFs have none."""
    def prolongation(n, fixed, pairs):
        target = np.arange(n)
        target[pairs[:, 0]] = pairs[:, 1]
        while np.any(target[target] != target):
            target = target[target]
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
