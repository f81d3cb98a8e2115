"""Linearize-then-discretize solver.

Newton is applied to the operator equation itself; each linear operator
equation is then discretized by the product trapezoidal rule. Every step
solves an (n+1) x (n+1) system for the nodal values and recovers the next
iterate on a frozen evaluation point set (grid nodes, operator-quadrature
nodes and output sample points), so the whole iteration works with function
values that are never re-interpolated from coarser data.

The limit of the iteration is set by the accuracy of the operator
evaluation (the quadrature config), not by the Newton grid size n.

The Newton loop itself (`_newton`: records, stopping and failure statuses)
and the settings it reads are shared with the DL solver in newton_dl.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import SingularSystemError, solve_dense
from .problem import Grid, HammersteinProblem, SampledFunction, make_grid
from .quadrature import QuadratureConfig, SubtractionPlan, weight_matrix
from .reports import IterationRecord, SolveReport


class SingularOperatorError(RuntimeError):
    """The Newton iteration cannot go on: its linear system became numerically
    singular, or an iterate stopped being finite. ``report`` holds the records
    so far and the status "singular" or "diverged"."""

    def __init__(self, message: str, report: Optional[SolveReport] = None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class _NewtonSettings:
    """Stopping rule and output grid shared by both solvers."""

    tol: float = 1e-12
    max_iter: int = 30
    sample_count: int = 201

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.sample_count < 2:
            raise ValueError(f"sample_count must be at least 2, got {self.sample_count}")


@dataclass(frozen=True)
class LDSettings(_NewtonSettings):
    quad: QuadratureConfig = QuadratureConfig()


def _evaluation_points(problem, grid, settings) -> np.ndarray:
    pieces = [grid.nodes, np.linspace(problem.a, problem.b, settings.sample_count)]
    if settings.quad.mode == "fine":
        pieces.append(np.linspace(problem.a, problem.b, settings.quad.n_fine + 1))
    return np.unique(np.concatenate(pieces))


def _sample_initial(problem, phi0, points) -> np.ndarray:
    if phi0 is None:
        phi0 = problem.y
    if isinstance(phi0, SampledFunction):
        return phi0(points)
    if callable(phi0):
        return np.broadcast_to(np.asarray(phi0(points), dtype=float), points.shape).copy()
    return np.full(points.shape, float(phi0))


class _Workspace:
    """LD discretization: geometry-dependent factors shared by every step.

    An iterate is the pair (values on the evaluation points, integral-operator
    values there), so each operator application serves both the residual of
    one iterate and the step that leaves it.
    """

    def __init__(self, problem: HammersteinProblem, grid: Grid, settings: LDSettings):
        self.problem = problem
        self.grid = grid
        self.settings = settings
        self.points = _evaluation_points(problem, grid, settings)
        self.node_idx = self._locate(grid.nodes)
        self.sample_points = np.linspace(problem.a, problem.b, settings.sample_count)
        self.sample_idx = self._locate(self.sample_points)

        kernel, L = problem.kernel, problem.L
        nodes = grid.nodes
        # recovery weights at every evaluation point; the rows at the nodes
        # are the Newton matrix, so nodal values stay consistent with them
        self.WL_coarse = weight_matrix(grid, kernel, self.points) * np.asarray(
            L(self.points[:, None], nodes[None, :]), dtype=float
        )
        self.G = self.WL_coarse[self.node_idx]

        if settings.quad.mode == "fine":
            fine = make_grid(problem.a, problem.b, settings.quad.n_fine)
            self.fine_nodes = fine.nodes
            self.fine_idx = self._locate(fine.nodes)
            wl = np.empty((self.points.size, fine.n + 1))
            chunk = max(1, int(2_000_000 // (fine.n + 1)))
            for start in range(0, self.points.size, chunk):
                sl = slice(start, min(start + chunk, self.points.size))
                wl[sl] = weight_matrix(fine, kernel, self.points[sl]) * np.asarray(
                    L(self.points[sl, None], fine.nodes[None, :]), dtype=float
                )
            self.WL_fine = wl
            self.plan = None
        else:
            self.plan = SubtractionPlan(problem, self.points, settings.quad.gl_points)

        self.y_points = np.broadcast_to(
            np.asarray(problem.y(self.points), dtype=float), self.points.shape
        ).copy()
        self.exact_samples = None
        if problem.exact is not None:
            self.exact_samples = np.asarray(problem.exact(self.sample_points), dtype=float)

    def _locate(self, targets) -> np.ndarray:
        idx = np.searchsorted(self.points, targets)
        if not np.array_equal(self.points[idx], targets):
            raise ValueError("evaluation point set does not contain the requested points")
        return idx

    def operator_values(self, values: np.ndarray) -> np.ndarray:
        """Integral-operator values at every evaluation point."""
        nl = self.problem.nonlin
        if self.plan is None:
            ft = np.asarray(nl.F(self.fine_nodes, values[self.fine_idx]), dtype=float)
            return self.WL_fine @ ft
        return self.plan.apply(lambda t: np.interp(t, self.points, values))

    def start(self, phi0):
        values = _sample_initial(self.problem, phi0, self.points)
        return values, self.operator_values(values)

    def step(self, iterate):
        """One Newton step: the next iterate and the nodal step norm."""
        values, K_points = iterate
        nl = self.problem.nonlin
        nodes = self.grid.nodes
        nodal_old = values[self.node_idx]
        df = np.asarray(nl.dF(nodes, nodal_old), dtype=float)
        A = self.G * df[None, :]
        rhs = K_points[self.node_idx] + self.y_points[self.node_idx] - A @ nodal_old
        M = np.eye(self.grid.n + 1) - A
        nodal_new = solve_dense(M, rhs)
        correction = self.WL_coarse @ (df * (nodal_new - nodal_old))
        values_new = correction + K_points + self.y_points
        step_norm = float(np.max(np.abs(nodal_new - nodal_old)))
        return (values_new, self.operator_values(values_new)), step_norm

    def measure(self, iterate) -> tuple[float, Optional[float]]:
        """Nodal residual norm and sampled true error (None without exact)."""
        values, K_points = iterate
        r = values[self.node_idx] - K_points[self.node_idx] - self.y_points[self.node_idx]
        residual_norm = float(np.max(np.abs(r)))
        if self.exact_samples is None:
            return residual_norm, None
        return residual_norm, float(np.max(np.abs(values[self.sample_idx] - self.exact_samples)))

    def result(self, iterate) -> SampledFunction:
        return SampledFunction(self.points, iterate[0])


def _newton(disc, settings: _NewtonSettings, report: SolveReport, phi0):
    """The Newton loop of both solvers over one discretization ``disc``.

    ``disc`` provides start(phi0) -> iterate, step(iterate) -> (iterate,
    step_norm), measure(iterate) -> (residual_norm, true_error) and
    result(iterate) -> SampledFunction. The loop stops when the step norm
    drops to settings.tol ("converged") or after settings.max_iter steps
    ("max_iter", not fatal). A numerically singular linear system
    ("singular") or a non-finite residual or step norm ("diverged") raises
    SingularOperatorError carrying the partial report.
    """
    tic = time.perf_counter()
    iterate = disc.start(phi0)
    _record(disc, report, 0, None, iterate, tic)
    for k in range(1, settings.max_iter + 1):
        tic = time.perf_counter()
        try:
            iterate, step_norm = disc.step(iterate)
        except SingularSystemError as exc:
            report.status = "singular"
            raise SingularOperatorError(
                f"{report.method}: linearized system singular at iteration {k}: {exc}", report
            ) from exc
        _record(disc, report, k, step_norm, iterate, tic)
        if step_norm <= settings.tol:
            report.status = "converged"
            break
    else:
        report.status = "max_iter"
    return disc.result(iterate), report


def _record(disc, report: SolveReport, k: int, step_norm, iterate, tic: float) -> None:
    residual_norm, true_error = disc.measure(iterate)
    report.records.append(
        IterationRecord(
            k=k,
            step_norm=step_norm,
            residual_norm=residual_norm,
            true_error=true_error,
            wall_ms=(time.perf_counter() - tic) * 1e3,
        )
    )
    step_finite = step_norm is None or math.isfinite(step_norm)
    if not (math.isfinite(residual_norm) and step_finite):
        report.status = "diverged"
        raise SingularOperatorError(
            f"{report.method}: non-finite residual or step norm at iteration {k} "
            f"(residual norm {residual_norm}, step norm {step_norm})",
            report,
        )


def ld_solve(
    problem: HammersteinProblem,
    grid: Grid,
    settings: LDSettings = LDSettings(),
    phi0=None,
) -> tuple[SampledFunction, SolveReport]:
    """Newton iteration on the operator equation, product-rule discretized.

    phi0 (default: the right-hand side y) is a number, a callable or a
    SampledFunction. Stopping and failure follow the shared Newton loop:
    "converged" or "max_iter" return; "singular" or "diverged" raise
    SingularOperatorError carrying the partial report.
    """
    report = SolveReport(
        method="ld",
        n=grid.n,
        n_fine=settings.quad.n_fine if settings.quad.mode == "fine" else None,
        mode=settings.quad.mode,
    )
    return _newton(_Workspace(problem, grid, settings), settings, report, phi0)
