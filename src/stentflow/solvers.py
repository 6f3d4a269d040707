"""Saddle-point solvers and the scalar Poisson solver.

Every Stokes solve is SciPy's conjugate gradients on the pressure Schur
complement (Uzawa), with the velocity block solved by a sparse factorization
and the pressure mass matrix, the preconditioner, inverted by a fixed number
of Chebyshev steps: one LU per Stokes operator.  A solve is accepted only
when its true residual meets the tolerance, so one on a Schur complement
that is not positive definite either meets it or ends as
``NonConvergence``.  The velocity factorization is kept with the reduced
blocks, so every system put on the same blocks (``ReducedSystem.with_loads``)
shares it.  Every matrix this module factors is symmetric, and
:func:`factorize` is the one sparse LU.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .errors import NonConvergence
from .fem import (
    FESpace,
    ReducedSystem,
    StokesSystem,
    _geometry_tables,
    _scatter,
    apply_constraints,
    TRI_QP,
    TRI_QW,
)
from .geometry import Mesh


@dataclass(frozen=True)
class SolverConfig:
    """Uzawa parameters.

    Uzawa iterations invert the velocity block by an exact sparse LU, made
    once per reduced operator, and are preconditioned by the pressure mass
    matrix, inverted by Chebyshev steps.
    """

    outer_tol: float = 1e-10
    max_outer: int = 500

    def __post_init__(self):
        if not 0 < self.outer_tol < 1:
            raise ValueError(f"solver.outer_tol must lie in (0, 1), "
                             f"got {self.outer_tol!r}")
        if self.max_outer < 1:
            raise ValueError(f"solver.max_outer must be >= 1, got {self.max_outer!r}")


@dataclass
class StokesSolution:
    """Full-length velocity/pressure coefficients plus solver diagnostics."""

    space: FESpace
    u: np.ndarray
    p: np.ndarray
    diagnostics: dict = field(default_factory=dict)


# SuperLU factors PANEL_SIZE consecutive columns at a time, with dense work
# arrays of PANEL_SIZE x n; the ordering and the fill do not depend on it.  On
# every matrix the benchmark workloads factor (604 to 254,709 rows) one column
# is the fastest, and at eps = 1/64 it takes the solve's peak from 369 MB (the
# default of 20) down to 299 MB (notes/decisions.md).  Keep it <= 20: SuperLU
# appears to size its per-panel statistics by the default width, and a wider
# panel corrupts the heap (under MALLOC_CHECK_=3, 40 aborts and 64 segfaults).
PANEL_SIZE = 1


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim``, or a no-op where the C library has none."""
    import ctypes

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return lambda pad: 0
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def factorize(M):
    """Sparse LU of the symmetric matrix ``M``.

    A symmetric ordering (minimum degree on M + M^T) with diagonal pivots
    keeps the fill of a symmetric positive definite matrix at about half of
    SuperLU's default column ordering with partial pivoting; SuperLU still
    takes an off-diagonal pivot where a diagonal entry is exactly zero, as in
    a saddle-point matrix.  ``splu`` is looked up on ``scipy.sparse.linalg`` at
    call time, so a wrapper installed there sees every factorization.  The
    heap that assembly and reduction freed goes back to the system first, so
    it does not stay resident under the factor.
    """
    _malloc_trim()(0)
    return spla.splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     panel_size=PANEL_SIZE, options={"SymmetricMode": True})


def _velocity_lu(red: ReducedSystem):
    """Sparse LU of the velocity block of ``red``, made once per set of blocks."""
    if "A" not in red.factors:
        red.factors["A"] = factorize(red.A)
    return red.factors["A"]


# Mp^-1 is applied by CHEBYSHEV_STEPS steps of Chebyshev semi-iteration on
# diag(Mp)^-1 Mp, whose eigenvalues lie in [1/2, 2] on P1 triangles (Wathen,
# IMA J. Numer. Anal. 7, 1987).  From a zero start a fixed step count is a
# fixed polynomial in Mp, so the preconditioner is linear and SPD, as conjugate
# gradients needs (Wathen & Rees, ETNA 34, 2009); its error in the Mp-norm is
# at most 2 * 3^-k.  k = 8 is the fewest steps that leave the Uzawa iteration
# count of upsilon on the full periodic strip, now only the tests' reference,
# as with the exact inverse; the half-strip and macro solves hold theirs from
# 6 steps on (notes/decisions.md), and k stays 8 until a re-sweep measures it.
CHEBYSHEV_STEPS = 8


def _mass_inverse(M):
    """Chebyshev approximation of M^-1 for a P1 mass matrix ``M``."""
    dinv = 1.0 / M.diagonal()
    theta, delta = 1.25, 0.75               # centre and half-width of [1/2, 2]

    def apply(r):
        rho = delta / theta
        d = dinv * r / theta
        x = d.copy()
        for _ in range(CHEBYSHEV_STEPS - 1):
            r = r - M @ d
            rho, rho_old = 1.0 / (2.0 * theta / delta - rho), rho
            d = (rho * rho_old) * d + (2.0 * rho / delta) * (dinv * r)
            x += d
        return x

    return apply


def _uzawa_cg(red: ReducedSystem, config: SolverConfig):
    B, f, g = red.B, red.f, red.g
    n_p = B.shape[0]
    Ainv = _velocity_lu(red).solve
    # the pressure mass matrix is spectrally equivalent to the Schur complement
    precond = _mass_inverse(red.Mp)
    kernel = red.space.pressure_kernel

    def project(q):
        if kernel:
            q = q - q.mean()
        return q

    schur = spla.LinearOperator((n_p, n_p), lambda d: project(B @ Ainv(B.T @ d)), dtype=float)
    mass = spla.LinearOperator((n_p, n_p), lambda r: project(precond(r)), dtype=float)
    # the scales of the divergence and momentum residuals
    gnorm = max(float(np.linalg.norm(g)), 1.0)
    fnorm = max(float(np.linalg.norm(f)), 1e-300)
    steps = []                  # the callback runs once per CG step
    p, info = spla.cg(schur, project(B @ Ainv(f) - g), rtol=0.0, atol=config.outer_tol * gnorm,
                      maxiter=config.max_outer, M=mass, callback=steps.append)
    # tighten the momentum equation with one final velocity solve
    u = Ainv(f - B.T @ p)
    div = float(np.linalg.norm(B @ u - g)) / gnorm
    # cg tests its residual before each step, so the last allowed step is
    # read from the true one: ||B u - g|| is the Schur residual of p
    converged = div <= 10 * config.outer_tol and (info == 0 or div <= config.outer_tol)
    return u, p, {"method": "uzawa_cg", "iterations": len(steps),
                  "momentum_residual": float(np.linalg.norm(red.A @ u + B.T @ p - f)) / fnorm,
                  "divergence_residual": div,
                  "converged": converged}


def solve_stokes(system, config: SolverConfig | None = None) -> StokesSolution:
    """Solve a (possibly unreduced) Stokes system.

    Accepts a :class:`StokesSystem` or an already-reduced system.  With the
    pressure-kernel flag set, the returned pressure has zero mean in the
    reduced coefficient sense; callers re-normalize over their region of
    interest.  A solve that does not converge raises
    :class:`~stentflow.errors.NonConvergence`, which carries the diagnostics.
    """
    config = config or SolverConfig()
    red = apply_constraints(system) if isinstance(system, StokesSystem) else system
    del system                  # the assembled blocks are freed once reduced
    u_r, p_r, diag = _uzawa_cg(red, config)
    u, p = red.expand(u_r, p_r)
    print(
        "stentflow solve: method={method} iters={iterations} "
        "mom={momentum_residual:.2e} div={divergence_residual:.2e} "
        "converged={converged}".format(**diag),
        file=sys.stderr,
    )
    if not diag["converged"]:
        raise NonConvergence(
            f"{diag['method']} did not converge in {diag['iterations']} iterations "
            f"(divergence residual {diag['divergence_residual']:.2e})", diag)
    return StokesSolution(space=red.space, u=u, p=p, diagnostics=diag)


# ----------------------------------------------------------------------------
# scalar Poisson solve (used for manufactured tests and the H^-1 norm)
# ----------------------------------------------------------------------------


def solve_poisson(mesh: Mesh, rhs, dirichlet_nodes):
    """Galerkin P1 solve of -Laplace(q) = rhs with homogeneous Dirichlet data.

    ``rhs`` is None or the source at the volume quadrature points of every
    triangle, shape (M, q) as :func:`~stentflow.fem.eval_on_quadrature` lays
    them out, or a stack of k such sources, shape (k, M, q), solved with one
    factorization.  ``dirichlet_nodes`` holds the ids of the clamped
    vertices.  Returns (nodal coefficients, gradient L2 norm), each with a
    leading axis of length k for a stack.
    """
    tris = mesh.triangles.astype(np.int64)
    _, area, gradlam = _geometry_tables(mesh)
    K_el = area[:, None, None] * np.einsum("mid,mjd->mij", gradlam, gradlam)
    n = mesh.n_vertices
    K = _scatter(K_el, tris, tris, (n, n))
    shape = (mesh.n_triangles, len(TRI_QW))
    fv = np.zeros(shape) if rhs is None else np.asarray(rhs)
    if fv.ndim not in (2, 3) or fv.shape[-2:] != shape:
        raise ValueError(f"Poisson source of shape {fv.shape}, not (M, q) or (k, M, q)")
    # element loads sum_q w_q f(x_q) lam_i(x_q), scattered per source
    loads = (fv.reshape(-1, *shape) * (TRI_QW * area[:, None])) @ TRI_QP   # (k, M, 3)
    k = len(loads)
    ids = tris.ravel() + n * np.arange(k)[:, None]
    b = np.bincount(ids.ravel(), weights=loads.ravel(), minlength=k * n).reshape(k, n)

    fixed = np.unique(np.asarray(dirichlet_nodes, dtype=np.int64))
    free = np.setdiff1d(np.arange(n), fixed)
    q = np.zeros((k, n))
    if len(free):
        lu = factorize(K[free][:, free])
        q[:, free] = lu.solve(np.ascontiguousarray(b[:, free].T)).T
    grad_norm = np.sqrt(np.maximum(np.einsum("kn,nk->k", q, K @ q.T), 0.0))
    if fv.ndim == 2:
        return q[0], float(grad_norm[0])
    return q, grad_norm
