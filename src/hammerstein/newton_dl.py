"""Discretize-then-linearize solver (classical baseline).

The nonlinear equation is discretized once by the product trapezoidal rule
into the finite system X - A F(X) = Y on the grid nodes, which is then
solved by finite-dimensional Newton. The iteration converges to the
solution of the *discrete* system, so its accuracy plateaus at the
discretization error of the grid no matter how many Newton steps run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import solve_dense
from .newton_ld import _dense_rows, _NewtonSettings, _newton, _sample_initial
from .problem import Grid, HammersteinProblem, SampledFunction
from .quadrature import weight_matrix  # noqa: F401 (perfbench/tracing.py hooks this name)
from .reports import SolveReport


@dataclass(frozen=True)
class DLSettings(_NewtonSettings):
    """Settings of dl_solve: the shared stopping rule and output grid."""


class _Workspace:
    """DL discretization: the system X - A F(X) = Y and its natural extension.

    The extension psi(s) = y(s) + sum_j w_j(s) L(s, t_j) F(t_j, X_j) gives
    off-grid values defined by the discrete equation itself. It is evaluated
    on the output samples and the grid nodes, and its rows at the nodes,
    A[i, j] = w_j(t_i) L(t_i, t_j), are the discrete operator.
    """

    def __init__(self, problem: HammersteinProblem, grid: Grid, settings: DLSettings):
        self.problem = problem
        self.nodes = nodes = grid.nodes
        self.Y = np.broadcast_to(np.asarray(problem.y(nodes), dtype=float), nodes.shape).copy()
        sample_points = np.linspace(problem.a, problem.b, settings.sample_count)
        self.out_points = np.unique(np.concatenate([sample_points, nodes]))
        self.WL_out = _dense_rows(grid, problem.kernel, problem.L, self.out_points)
        self.A = self.WL_out[np.searchsorted(self.out_points, nodes)]
        self.y_out = np.broadcast_to(
            np.asarray(problem.y(self.out_points), dtype=float), self.out_points.shape
        )
        self.sample_sel = np.searchsorted(self.out_points, sample_points)
        self.exact_samples = None
        if problem.exact is not None:
            self.exact_samples = np.asarray(problem.exact(sample_points), dtype=float)

    def _residual(self, X) -> np.ndarray:
        fx = np.asarray(self.problem.nonlin.F(self.nodes, X), dtype=float)
        return X - self.A @ fx - self.Y

    def _extension(self, X) -> np.ndarray:
        fx = np.asarray(self.problem.nonlin.F(self.nodes, X), dtype=float)
        return self.y_out + self.WL_out @ fx

    def start(self, x0) -> np.ndarray:
        return _sample_initial(self.problem, x0, self.nodes)

    def step(self, X):
        """One Newton step on X - A F(X) = Y and its step norm."""
        res = self._residual(X)
        df = np.asarray(self.problem.nonlin.dF(self.nodes, X), dtype=float)
        J = np.eye(self.nodes.size) - self.A * df[None, :]
        X_new = X + solve_dense(J, -res)
        return X_new, float(np.max(np.abs(X_new - X)))

    def measure(self, X) -> tuple[float, Optional[float]]:
        """Residual norm of the discrete system and true error of the extension."""
        residual_norm = float(np.max(np.abs(self._residual(X))))
        if self.exact_samples is None:
            return residual_norm, None
        ext = self._extension(X)
        return residual_norm, float(np.max(np.abs(ext[self.sample_sel] - self.exact_samples)))

    def result(self, X) -> SampledFunction:
        return SampledFunction(self.out_points, self._extension(X))


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
