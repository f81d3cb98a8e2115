"""Discretize-then-linearize solver (classical baseline).

The nonlinear equation is discretized once by the product trapezoidal rule
into the finite system X - A F(X) = Y on the grid nodes, which is then
solved by finite-dimensional Newton. The iteration converges to the
solution of the *discrete* system, so its accuracy plateaus at the
discretization error of the grid no matter how many Newton steps run.

A, the product rule of the grid at its own nodes, is never formed: it is
applied by newton_ld._ProductRule (FFT Toeplitz weights times a low-rank L),
which also gives the natural extension at the output samples. Each Newton
step solves (I - A D) delta = -res, D = diag F'(X), by the linear step the
LD solver takes too (newton_ld._TwoGrid).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import solve_dense  # noqa: F401 (perfbench/tracing.py hooks this name)
from .newton_ld import _NewtonSettings, _newton, _ProductRule, _sample_initial, _TwoGrid
from .problem import Grid, HammersteinProblem, SampledFunction
from .quadrature import weight_matrix  # noqa: F401 (perfbench/tracing.py hooks this name)
from .reports import SolveReport


@dataclass(frozen=True)
class DLSettings(_NewtonSettings):
    """Settings of dl_solve: the shared stopping rule and output grid."""


class _Workspace:
    """DL discretization: the system X - A F(X) = Y and its natural extension.

    The extension psi(s) = y(s) + sum_j w_j(s) L(s, t_j) F(t_j, X_j) gives
    off-grid values defined by the discrete equation itself. An iterate is
    the pair (X, operator values at the output samples and the nodes), so one
    operator apply serves the residual, the measurement and the result.
    """

    def __init__(self, problem: HammersteinProblem, grid: Grid, settings: DLSettings):
        self.problem = problem
        self.nodes = nodes = grid.nodes
        self.Y = np.broadcast_to(np.asarray(problem.y(nodes), dtype=float), nodes.shape).copy()
        sample_points = np.linspace(problem.a, problem.b, settings.sample_count)
        self.out_points = np.unique(np.concatenate([sample_points, nodes]))
        self.node_idx = np.searchsorted(self.out_points, nodes)
        self.rule = _ProductRule(problem, grid, self.out_points, self.node_idx)
        self.y_out = np.broadcast_to(
            np.asarray(problem.y(self.out_points), dtype=float), self.out_points.shape
        )
        self.sample_sel = np.searchsorted(self.out_points, sample_points)
        self.exact_samples = None
        if problem.exact is not None:
            self.exact_samples = np.asarray(problem.exact(sample_points), dtype=float)
        self.two_grid = _TwoGrid(problem, grid, self.rule)

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
        X_new = X + self.two_grid.solve(df, -res, X)
        return self._iterate(X_new), float(np.max(np.abs(X_new - X)))

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
