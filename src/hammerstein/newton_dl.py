"""Discretize-then-linearize solver (classical baseline).

The nonlinear equation is discretized once by the product trapezoidal rule
into the finite system X - A F(X) = Y on the grid nodes, which is then
solved by finite-dimensional Newton. The iteration converges to the
solution of the *discrete* system, so its accuracy plateaus at the
discretization error of the grid no matter how many Newton steps run.

A is the nodal part of the grid's trapezoid rule (newton_ld._nodal_part):
dense rows on at most 64 panels, else never formed (FFT Toeplitz weights
times a low-rank L). The natural extension at the output samples off the
grid is read after the loop by its readers, in blocks: precorrected
interpolation from the values at the nodes on 512 panels or more
(newton_ld._Precorrected), else dense rows. Each Newton step solves
(I - A D) delta = -res, D = diag F'(X), by LD's step too (newton_ld._TwoGrid):
the LU of I - A D on at most 64 panels, else two-grid steps whose coarse
correction reaches the grid through the nodal part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import solve_dense  # noqa: F401 (perfbench/tracing.py hooks this name)
from .newton_ld import (
    _NewtonSettings,
    _broadcast,
    _newton,
    _nodal_part,
    _sample_initial,
    _Samples,
    _TwoGrid,
)
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
    the pair (X, operator values at the nodes), so one operator apply serves
    the residual and the step. Each iterate appends (F(X), its operator
    values at the nodes) to ``iterates``, from which its extension at the
    output samples off the grid is read after the loop.
    """

    def __init__(self, problem: HammersteinProblem, grid: Grid, settings: DLSettings):
        self.problem = problem
        self.nodes = nodes = grid.nodes
        self.samples = _Samples(problem, settings, nodes)
        self.nodal = _nodal_part(problem, grid)
        self.Y = self.samples.y_iteration
        self.two_grid = _TwoGrid(problem, self.nodal)
        self.iterates: list[tuple[np.ndarray, np.ndarray]] = []

    def _iterate(self, X):
        fx = _broadcast(self.problem.nonlin.F(self.nodes, X), X)
        K = self.nodal(fx)
        self.iterates.append((fx, K))
        self.samples.keep(self.Y + K)
        return X, K

    def residual(self, iterate) -> np.ndarray:
        X, K = iterate
        return X - K - self.Y

    def start(self, x0):
        return self._iterate(_sample_initial(self.problem, x0, self.nodes))

    def step(self, iterate):
        """One Newton step on X - A F(X) = Y and its step norm."""
        X = iterate[0]
        res = self.residual(iterate)
        df = _broadcast(self.problem.nonlin.dF(self.nodes, X), X)
        X_new = X + self.two_grid.solve(df, -res, X)
        return self._iterate(X_new), float(np.max(np.abs(X_new - X)))

    def sample_values(self, ks: range) -> np.ndarray:
        """The extensions of iterates ks at the output samples."""
        fx, nodal = zip(*self.iterates[ks[0] : ks[-1] + 1])
        off = self.nodal.read(self.samples.off_points, fx, nodal)
        return self.samples.values(ks, self.samples.y_off + off)

    def result(self, iterate, sample_values) -> SampledFunction:
        return self.samples.result(self.Y + iterate[1], sample_values)


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
