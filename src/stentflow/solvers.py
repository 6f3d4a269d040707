"""Saddle-point solvers and the scalar Poisson solver.

The default Stokes path is conjugate gradients on the pressure Schur
complement (Uzawa), with the velocity block solved by a sparse factorization
and the pressure mass matrix, the preconditioner, inverted by a fixed number
of Chebyshev steps: one LU per Stokes operator.  A direct sparse
factorization of the whole saddle point is the cross-validation fallback.
The velocity factorization is kept with the reduced blocks, so every system
put on the same blocks (``ReducedSystem.with_loads``) shares it.  Every matrix
this module factors is symmetric, and :func:`factorize` is the one sparse LU.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NonConvergence, SingularSystem
from .fem import (
    FESpace,
    ReducedSystem,
    StokesSystem,
    _geometry_tables,
    TRI_QP,
    TRI_QW,
)
from .geometry import Mesh


METHODS = ("uzawa_cg", "direct")


@dataclass(frozen=True)
class SolverConfig:
    """Iterative-solver parameters.

    ``method`` is ``uzawa_cg`` or ``direct``.  Uzawa iterations invert the
    velocity block by an exact sparse LU, made once per reduced operator, and
    are preconditioned by the pressure mass matrix, inverted by Chebyshev
    steps.
    """

    method: str = "uzawa_cg"
    outer_tol: float = 1e-10
    max_outer: int = 500

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"solver.method must be one of {', '.join(METHODS)}, "
                             f"got {self.method!r}")
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
    the saddle point.  ``splu`` is looked up on ``scipy.sparse.linalg`` at
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
# count of every benchmark solve as with the exact inverse (notes/decisions.md).
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
    A, B = red.A, red.B
    f, g = red.f, red.g
    n_p = B.shape[0]
    Ainv = _velocity_lu(red).solve
    # the pressure mass matrix is spectrally equivalent to the Schur complement
    precond = _mass_inverse(red.Mp)
    kernel = red.space.pressure_kernel

    def project(q):
        if kernel:
            q = q - q.mean()
        return q

    p = np.zeros(n_p)
    u = Ainv(f)
    r = project(B @ u - g)
    z = project(precond(r))
    d = z.copy()
    rz = float(r @ z)
    fnorm = max(float(np.linalg.norm(f)), 1e-300)
    gnorm = max(float(np.linalg.norm(g)), 1.0)
    iters = 0
    converged = False
    for iters in range(1, config.max_outer + 1):
        w = Ainv(B.T @ d)
        Sd = project(B @ w)
        dSd = float(d @ Sd)
        if dSd <= 0.0:
            if abs(dSd) < 1e-300:
                converged = np.linalg.norm(r) <= config.outer_tol * gnorm
                break
            raise SingularSystem("indefinite Schur complement in Uzawa CG")
        alpha = rz / dSd
        p += alpha * d
        u -= alpha * w
        r = r - alpha * Sd
        if np.linalg.norm(r) <= config.outer_tol * gnorm:
            converged = True
            break
        z = project(precond(r))
        rz_new = float(r @ z)
        d = z + (rz_new / rz) * d
        rz = rz_new
    # tighten the momentum equation with one final velocity solve
    u = Ainv(f - B.T @ p)
    mom = float(np.linalg.norm(A @ u + B.T @ p - f)) / fnorm
    div = float(np.linalg.norm(B @ u - g)) / gnorm
    return u, p, {
        "method": "uzawa_cg",
        "iterations": iters,
        "momentum_residual": mom,
        "divergence_residual": div,
        "converged": bool(converged and div <= 10 * config.outer_tol),
    }


def _direct(red: ReducedSystem, config: SolverConfig):
    A, B = red.A, red.B
    n_u, n_p = A.shape[0], B.shape[0]
    K = sp.bmat([[A, B.T], [B, None]], format="coo")
    rhs = np.concatenate([red.f, red.g])
    if red.space.pressure_kernel and n_p:
        # pin one pressure DOF to remove the constant kernel: clear its row
        # and column and put a unit diagonal there, which keeps K symmetric
        pin = n_u
        keep = (K.row != pin) & (K.col != pin)
        K = sp.coo_matrix(
            (np.append(K.data[keep], 1.0),
             (np.append(K.row[keep], pin), np.append(K.col[keep], pin))),
            shape=K.shape)
        rhs[pin] = 0.0
    x = factorize(K).solve(rhs)
    u, p = x[:n_u], x[n_u:]
    fnorm = max(float(np.linalg.norm(red.f)), 1e-300)
    gnorm = max(float(np.linalg.norm(red.g)), 1.0)
    mom = float(np.linalg.norm(A @ u + B.T @ p - red.f)) / fnorm
    div = float(np.linalg.norm(B @ u - red.g)) / gnorm
    return u, p, {
        "method": "direct",
        "iterations": 1,
        "momentum_residual": mom,
        "divergence_residual": div,
        "converged": True,
    }


def solve_stokes(system, config: SolverConfig | None = None) -> StokesSolution:
    """Solve a (possibly unreduced) Stokes system.

    Accepts a :class:`StokesSystem` or an already-reduced system.  With the
    pressure-kernel flag set, the returned pressure has zero mean in the
    reduced coefficient sense; callers re-normalize over their region of
    interest.  A solve that does not converge raises
    :class:`~stentflow.errors.NonConvergence`, which carries the diagnostics.
    """
    config = config or SolverConfig()
    red = system.reduced() if isinstance(system, StokesSystem) else system
    del system                  # the assembled blocks are freed once reduced
    solve = _direct if config.method == "direct" else _uzawa_cg
    u_r, p_r, diag = solve(red, config)
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
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    n = mesh.n_vertices
    K = sp.coo_matrix((K_el.ravel(), (rows, cols)), shape=(n, n)).tocsr()
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
