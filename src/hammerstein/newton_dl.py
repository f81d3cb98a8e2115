"""Discretize-then-linearize solver (classical baseline).

The nonlinear equation is discretized once by the product trapezoidal rule
into the finite system X - A F(X) = Y on the grid nodes, which is then
solved by finite-dimensional Newton. The iteration converges to the
solution of the *discrete* system, so its accuracy plateaus at the
discretization error of the grid no matter how many Newton steps run.

A, the product rule of the grid at its own nodes, is never formed: it is
applied by newton_ld._ProductRule (FFT Toeplitz weights times a low-rank L),
which also gives the natural extension at the output samples. Each Newton
step solves (I - A D) delta = -res, D = diag F'(X), by the stationary
iteration delta <- delta + M (-res - (I - A D) delta), with M the
Atkinson-Brakhage two-grid inverse on a uniform coarse grid (`_TwoGrid`;
Atkinson, The Numerical Solution of Integral Equations of the Second Kind,
CUP 1997; Kelley, Iterative Methods for Linear and Nonlinear Equations,
SIAM 1995). M only sets the rate; each residual is the grid's true one, so
a step is taken only once checked. After a miss, this step and the later
ones are LU solves of the Newton matrix on the grid itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import SingularSystemError, factor_dense
from .linalg import solve_dense  # noqa: F401 (perfbench/tracing.py hooks this name)
from .newton_ld import (
    _dense_rows,
    _NewtonSettings,
    _newton,
    _product,
    _ProductRule,
    _sample_initial,
)
from .problem import Grid, HammersteinProblem, SampledFunction, make_grid
from .quadrature import weight_matrix  # noqa: F401 (perfbench/tracing.py hooks this name)
from .reports import SolveReport

# Panels of the coarse grid. On log-sine (L = one, F = sin_pi, x0 =
# 0.85) at n = 1437 and 1563, a Newton step took 13-20 two-grid updates with
# 16 panels (the last step missed and fell back to the LU), 8-18 with 32,
# 6-11 with 64 and 5-8 with 128. A whole solve took 0.20-0.21 s with 16
# panels, 0.036-0.042 s with 32 or 64 and 0.042-0.044 s with 128 on a 2-vCPU
# host; 64 keeps the count furthest below _STEP_MAXITER at that cost. The
# coarse rows hold 65 * (n + 1) numbers, 0.8 MB at n = 1600. A grid of at
# most this many panels is its own coarse grid: its steps are LU steps.
_COARSE_N = 64
# Bound on the max-norm of an accepted step's true linear residual, relative
# to the Newton residual. At 1e-13, twenty dl_large_n solves (n = 1416-1568)
# kept the Newton iteration counts of exact LU steps, with terminal errors
# of at most 1.0e-15.
_STEP_RTOL = 1e-13
# Two-grid updates before the step falls back to the grid's own LU; an
# update that does not shrink the residual ends the iteration sooner. Where
# the coarse grid resolves the problem a step takes 6-11. On alg beta = 0.7
# at n = 256 (L = one, F = square) the first update already fails to shrink
# it on the coarse grid of 64 panels.
_STEP_MAXITER = 20


@dataclass(frozen=True)
class DLSettings(_NewtonSettings):
    """Settings of dl_solve: the shared stopping rule and output grid."""


class _TwoGrid:
    """Two-grid inverse of I - A D on a coarse grid of n_c panels.

    With K = A D, the coarse nodes tau, the coarse product rule G at tau and
    its rows R at the grid nodes, and D_c = D interpolated to tau,

        M r = r + K r + R D_c (I - G D_c)^-1 (K r)(tau),

    where (K r)(tau) is K r interpolated to tau. When n_c = n the coarse grid
    is the grid itself, G is the dense A, and M is the LU solve of I - A D.
    """

    def __init__(self, problem: HammersteinProblem, grid: Grid, n_c: int):
        kernel, L = problem.kernel, problem.L
        self.exact = n_c == grid.n
        self.nodes = grid.nodes
        if self.exact:
            self.tau = grid.nodes
            self.G = _dense_rows(grid, kernel, L, grid.nodes)
        else:
            coarse = make_grid(problem.a, problem.b, n_c)
            self.tau = coarse.nodes
            self.G = _dense_rows(coarse, kernel, L, coarse.nodes)
            self.R = _dense_rows(coarse, kernel, L, grid.nodes)

    def inverse(self, df, K):
        """M for D = diag(df) at the nodes and K(v) = A D v; one coarse LU."""
        d_c = np.interp(self.tau, self.nodes, df)
        solve = factor_dense(np.eye(self.tau.size) - self.G * d_c[None, :])
        if self.exact:
            # the LU of the Newton matrix itself; the two-grid form would
            # add and cancel terms of size |A D| |r|, and a runaway iterate
            # makes |A D| large
            return solve

        def apply(r):
            Kr = K(r)
            return r + Kr + _product(self.R, d_c * solve(np.interp(self.tau, self.nodes, Kr)))

        return apply


def _two_grid_solve(op, precond, b, tol: float, maxiter: int):
    """x with max|b - op(x)| <= tol by x <- x + precond(b - op(x)) from x = 0.

    Every residual measured is the true one, so a returned x is checked. None
    once the residual fails to shrink (a NaN one never shrinks) or after
    maxiter updates.
    """
    x, r = np.zeros_like(b), b
    size = np.max(np.abs(r))
    for _ in range(maxiter):
        if size <= tol:
            return x
        x = x + precond(r)
        r = b - op(x)
        last, size = size, np.max(np.abs(r))
        if not size < last:
            return None
    return x if size <= tol else None


class _Workspace:
    """DL discretization: the system X - A F(X) = Y and its natural extension.

    The extension psi(s) = y(s) + sum_j w_j(s) L(s, t_j) F(t_j, X_j) gives
    off-grid values defined by the discrete equation itself. An iterate is
    the pair (X, operator values at the output samples and the nodes), so one
    operator apply serves the residual, the measurement and the result.
    """

    def __init__(self, problem: HammersteinProblem, grid: Grid, settings: DLSettings):
        self.problem = problem
        self.grid = grid
        self.nodes = nodes = grid.nodes
        self.Y = np.broadcast_to(np.asarray(problem.y(nodes), dtype=float), nodes.shape).copy()
        sample_points = np.linspace(problem.a, problem.b, settings.sample_count)
        self.out_points = np.unique(np.concatenate([sample_points, nodes]))
        self.node_idx = np.searchsorted(self.out_points, nodes)
        self.rule = _ProductRule(problem, [(grid, 1.0)], self.out_points, self.node_idx)
        self.y_out = np.broadcast_to(
            np.asarray(problem.y(self.out_points), dtype=float), self.out_points.shape
        )
        self.sample_sel = np.searchsorted(self.out_points, sample_points)
        self.exact_samples = None
        if problem.exact is not None:
            self.exact_samples = np.asarray(problem.exact(sample_points), dtype=float)
        self.two_grid = _TwoGrid(problem, grid, min(grid.n, _COARSE_N))

    def _iterate(self, X):
        fx = np.asarray(self.problem.nonlin.F(self.nodes, X), dtype=float)
        return X, self.rule(fx)

    def _residual(self, iterate) -> np.ndarray:
        X, K_out = iterate
        return X - K_out[self.node_idx] - self.Y

    def start(self, x0):
        return self._iterate(_sample_initial(self.problem, x0, self.nodes))

    def step(self, iterate):
        """One Newton step on X - A F(X) = Y and its step norm."""
        X = iterate[0]
        res = self._residual(iterate)
        df = np.broadcast_to(
            np.asarray(self.problem.nonlin.dF(self.nodes, X), dtype=float), X.shape
        )
        X_new = X + self._newton_step(df, -res)
        return self._iterate(X_new), float(np.max(np.abs(X_new - X)))

    def _newton_step(self, df, rhs) -> np.ndarray:
        """delta with (I - A D) delta = rhs: a checked two-grid step, else an LU step."""

        def K(v):
            return self.rule.at_nodes(df * v)

        if not self.two_grid.exact:
            try:
                precond = self.two_grid.inverse(df, K)
            except SingularSystemError:
                pass  # a singular coarse system says nothing about the grid's own
            else:
                tol = _STEP_RTOL * np.max(np.abs(rhs))
                delta = _two_grid_solve(lambda v: v - K(v), precond, rhs, tol, _STEP_MAXITER)
                if delta is not None:
                    return delta
            self.two_grid = _TwoGrid(self.problem, self.grid, self.grid.n)
        return self.two_grid.inverse(df, K)(rhs)

    def measure(self, iterate) -> tuple[float, Optional[float]]:
        """Residual norm of the discrete system and true error of the extension."""
        residual_norm = float(np.max(np.abs(self._residual(iterate))))
        if self.exact_samples is None:
            return residual_norm, None
        ext = self.y_out + iterate[1]
        return residual_norm, float(np.max(np.abs(ext[self.sample_sel] - self.exact_samples)))

    def result(self, iterate) -> SampledFunction:
        return SampledFunction(self.out_points, self.y_out + iterate[1])


def dl_solve(
    problem: HammersteinProblem,
    grid: Grid,
    settings: DLSettings = DLSettings(),
    x0=None,
) -> tuple[SampledFunction, SolveReport]:
    """Newton on the discretized system, reported like the LD solver.

    x0 (default: y at the nodes) is a number, a callable or a
    SampledFunction. The true-error column measures the natural extension of
    the current nodal vector against the exact solution on the output sample
    grid; the returned function is that extension.
    """
    report = SolveReport(method="dl", n=grid.n, n_fine=None, mode=None)
    return _newton(_Workspace(problem, grid, settings), settings, report, x0)
