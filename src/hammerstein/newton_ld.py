"""Linearize-then-discretize solver.

Newton is applied to the operator equation itself; each linear operator
equation is then discretized by the product trapezoidal rule. Every step
solves an (n+1) x (n+1) system for the nodal values and recovers the next
iterate on a frozen evaluation point set (grid nodes, operator-quadrature
nodes and output sample points), so the whole iteration works with function
values that are never re-interpolated from coarser data.

The limit of the iteration is set by the accuracy of the operator
evaluation (LDSettings.mode and n_fine), not by the Newton grid size n.

In fine mode the operator is the Richardson extrapolation of the product
rule, K_R = (4 K_N - K_N/2) / 3, with K_N the rule on N = n_fine panels and
K_N/2 the rule on the nested grid of the even fine nodes (Atkinson, The
Numerical Solution of Integral Equations of the Second Kind, CUP 1997,
ch. 4; Sidi, Practical Extrapolation Methods, CUP 2003). Both rules read F
at the fine nodes only, so the operator stays closed under the iteration.
Its error is O(h^3) for the log kernel and O(h^(3 - beta)) for the
algebraic one, against the O(h^2) of K_N alone. It is applied without a
dense matrix (`_ProductRule`): at the fine nodes the weights of each rule
are a Toeplitz matrix plus two boundary columns, applied by FFT, and L
enters through a Chebyshev interpolant in s of adaptively chosen size r. An
apply costs O(r n_fine log n_fine) and the operator holds O(r n_fine)
numbers, plus dense rows for the evaluation points off the fine grid.

The Newton loop itself (`_newton`: records, stopping and failure statuses),
the settings it reads, the chunked builder of product-rule rows
(`_dense_rows`) and `_ProductRule` are shared with the DL solver in
newton_dl, whose discrete operator is the product rule of its own grid.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .linalg import SingularSystemError, solve_dense
from .problem import KERNEL_SMOOTH, Grid, HammersteinProblem, SampledFunction, make_grid
from .quadrature import SubtractionPlan, weight_matrix
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
    """Settings of ld_solve: the shared ones, and how the operator is evaluated.

    mode "fine": the Richardson-extrapolated product rule on a uniform grid
    of n_fine panels and its nested grid of n_fine / 2; n_fine must be even.
    mode "subtract": singularity subtraction (SubtractionPlan); n_fine unused.
    """

    n_fine: int = 1024
    mode: str = "fine"

    def __post_init__(self):
        super().__post_init__()
        if self.n_fine < 2:
            raise ValueError(f"n_fine must be at least 2, got {self.n_fine}")
        if self.n_fine % 2:
            raise ValueError(f"n_fine must be even, got {self.n_fine}")
        if self.mode not in ("fine", "subtract"):
            raise ValueError(f"mode must be 'fine' or 'subtract', got {self.mode!r}")


def _evaluation_points(problem, grid, settings) -> np.ndarray:
    pieces = [grid.nodes, np.linspace(problem.a, problem.b, settings.sample_count)]
    if settings.mode == "fine":
        pieces.append(np.linspace(problem.a, problem.b, settings.n_fine + 1))
    return np.unique(np.concatenate(pieces))


def _sample_initial(problem, phi0, points) -> np.ndarray:
    if phi0 is None:
        phi0 = problem.y
    if callable(phi0):
        return np.broadcast_to(np.asarray(phi0(points), dtype=float), points.shape).copy()
    return np.full(points.shape, float(phi0))


# Rank search for L(s, t) in s: Chebyshev points of the second kind, nested
# as 2, 3, 5, 9, ... points. A level is accepted once its interpolant
# reproduces L to _RANK_TOL * max|L| at the next level's new points and at
# _CHECK_COUNT fine nodes s = t_i, each against every t_j. The nested points
# alone can be aliased: cos(pi s) on [0, 1] is 0 at the one new point of
# level 3, and so is its linear interpolant. The fine nodes are where the
# operator uses the interpolant; the checked ones follow the golden-ratio
# sequence rather than a symmetric pattern.
# An L that needs more than _MAX_RANK points keeps dense operator rows.
# LD's extrapolated rule at the default n_fine = 1024, measured on a 2-vCPU
# host with L = cos(32 s t) (r = 65) on 1217 evaluation points: an apply
# takes 3.8-6.5 ms at r = 65 and 8.5-16 ms at r = 129 (two rffts and one
# irfft), against dense rows that take 0.10-0.13 s to build and 0.6-0.9 ms
# to apply. The dense rows win after about 21 applies at r = 65 and 9-13 at
# r = 129, so a rank-129 L costs a 31-apply solve (max_iter 30) at most
# 0.2 s; few L reach r = 129 at all (cos(35 s t) misses _RANK_TOL there).
# The cap stays at 129 for DL, which applies the rule of its own grid about
# 14 times per Newton step (two per two-grid update). There, at n = 1500,
# an apply at r = 129 takes 8 ms, and 30 steps of log-kernel DL with
# L = cos(30 s t) (r = 65, F = sin_pi, y = 1) took 2.0 s with 414 applies,
# against 3.6 s with dense rows and LU steps.
_RANK_TOL = 1e-14
_MAX_RANK = 129
_CHECK_COUNT = 32


# Largest product, in multiply-adds, that one BLAS call in _product gets.
# OpenBLAS runs a product this small on the calling thread. A larger one
# wakes its worker threads, and each worker then spins on its core for
# about 0.1 s after the call returns. On a 2-vCPU host the whole-matrix
# products of the rank search and the dense-row apply kept a worker
# spinning for 0.21 s of each 0.78 s compare_fine op, and made the op 14%
# slower whenever another process wanted that core; split, they wake no
# worker (measured: a 16 x 17 x 963 product and a 256 x 1024 matvec stayed
# on one thread, 16 x 17 x 4097 and 500 x 1024 did not).
_BLAS_BLOCK = 2**18


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b in BLAS calls of at most _BLAS_BLOCK multiply-adds: by rows of
    a when b is a vector, else by columns of b."""
    if b.ndim == 1:
        out = np.empty(a.shape[0])
        step = max(1, _BLAS_BLOCK // b.size)
        for i in range(0, a.shape[0], step):
            out[i : i + step] = a[i : i + step] @ b
    else:
        out = np.empty((a.shape[0], b.shape[1]))
        step = max(1, _BLAS_BLOCK // a.size)
        for j in range(0, b.shape[1], step):
            out[:, j : j + step] = a @ b[:, j : j + step]
    return out


def _L_values(L, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """L on the lattice s x t, shape (s.size, t.size)."""
    vals = np.asarray(L(s[:, None], t[None, :]), dtype=float)
    return np.broadcast_to(vals, (s.size, t.size))


def _barycentric_basis(x: np.ndarray, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Lagrange basis ell_k(x_i), shape (nodes.size, x.size), by the second
    barycentric formula; a point that coincides with a node gets its unit
    column exactly."""
    d = x[None, :] - nodes[:, None]
    hit = d == 0.0
    on_node = hit.any(axis=0)
    d[:, on_node] = 1.0
    q = weights[:, None] / d
    denom = q.sum(axis=0)
    denom[on_node] = 1.0
    basis = q / denom
    basis[:, on_node] = hit[:, on_node]
    return basis


def _chebyshev_factor(L, a: float, b: float, t: np.ndarray):
    """Low-rank form of L(s, t_j) in s, or None when none meets _RANK_TOL.

    Returns (ell, samples): the Lagrange basis of the r interpolation points
    sigma_k on [a, b] at the nodes t, shape (r, t.size), and L(sigma_k, t_j),
    shape (r, t.size).
    """
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    check = np.unique((np.arange(1, _CHECK_COUNT + 1) * golden % 1.0 * t.size).astype(int))
    L_check = _L_values(L, t[check], t)
    sigma = np.array([b, a])
    samples = _L_values(L, sigma, t)
    scale = max(np.max(np.abs(samples)), np.max(np.abs(L_check)))
    while True:
        r = sigma.size
        weights = (-1.0) ** np.arange(r)
        weights[[0, -1]] *= 0.5
        m = 2 * (r - 1)
        new_sigma = 0.5 * (a + b) + 0.5 * (b - a) * np.cos(np.pi * np.arange(1, m, 2) / m)
        new = _L_values(L, new_sigma, t)
        scale = max(scale, np.max(np.abs(new)))
        tol = _RANK_TOL * scale
        basis = _barycentric_basis(new_sigma, sigma, weights)
        if np.max(np.abs(_product(basis.T, samples) - new)) <= tol:
            basis = _barycentric_basis(t[check], sigma, weights)
            if np.max(np.abs(_product(basis.T, samples) - L_check)) <= tol:
                return _barycentric_basis(t, sigma, weights), samples
        if r >= _MAX_RANK:
            return None
        # the next level interleaves the current points with the new ones
        merged = np.empty(m + 1)
        merged[0::2], merged[1::2] = sigma, new_sigma
        merged_samples = np.empty((m + 1, t.size))
        merged_samples[0::2], merged_samples[1::2] = samples, new
        sigma, samples = merged, merged_samples


def _dense_rows(grid: Grid, kernel, L, s: np.ndarray) -> np.ndarray:
    """Product-rule rows weight_matrix * L of ``grid`` at the points s.

    Every such matrix of both solvers comes from here: LD's recovery rows on
    the Newton grid and its dense fine-operator rows, and DL's extension rows.
    """
    wl = np.empty((s.size, grid.n + 1))
    # chunks of 32k entries keep each temporary of weight_matrix and L near
    # 256 kB; once one is freed, malloc raises its mmap threshold past that
    # size and serves the next ones from reused heap memory instead of
    # page-faulting a fresh mmap per chunk. On a 2-vCPU host the 192
    # off-grid rows of a compare_fine op (n_fine = 4096) took 0.03 s and 220
    # page faults, against 0.10 s and 15.6k faults with 250k-entry chunks. A
    # full dense build of 4288 rows in a fresh process took 1.5-1.8 s and
    # peaked at 143 MB, against 2.4-2.8 s and 161 MB (250k) and 1.8-2.1 s
    # and 301 MB (2M); after a solve it took 0.7 s. DL's rows at n near 1500
    # (a dl_large_n op) peaked at 75 MB, against 205 MB in one piece.
    chunk = max(1, int(32_768 // (grid.n + 1)))
    for start in range(0, s.size, chunk):
        sl = slice(start, min(start + chunk, s.size))
        wl[sl] = weight_matrix(grid, kernel, s[sl]) * np.asarray(
            L(s[sl, None], grid.nodes[None, :]), dtype=float
        )
    return wl


def _fft_size(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, the circulant length of a product rule.

    numpy's FFT is fast at such lengths only. On a 2-vCPU host an apply at
    r = 17 on a grid of 1563 panels took 5.8 ms at length 2 * 1563 = 3126
    (2 * 3 * 521), and one on 1536 panels (length 3072) took 0.9 ms. This is
    scipy.fft.next_fast_len(n, real=True), whose import (scipy.fft) takes
    53 ms in a fresh process that has imported hammerstein.
    """
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least p35 * 2^k >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


class _ProductRule:
    """A combination of product rules at every evaluation point.

    ``rules`` lists (grid, coefficient) pairs; the operator is the sum of
    coefficient * (product rule of grid). The first grid is the finest, of N
    panels, and every other one is nested in it: a grid of N / p panels has
    its nodes at every p-th node of the first. LD combines its fine grid and
    the nested half grid into the Richardson extrapolation (4 K_N - K_N/2) / 3;
    DL passes its own grid alone.

    The N + 1 nodes of the first grid, the "fine nodes" below, are the points
    at fine_idx. At a fine node t_i the log and alg weights of a grid's node
    at fine index l depend only on l - i, except in the boundary columns
    l = 0 and l = N. The interior columns of each grid are a Toeplitz matrix
    T_g on the fine index (zero in the columns that are not its nodes),
    applied by FFT on one circulant embedding, and L enters through its
    Chebyshev interpolant in s at r points sigma_k:

        K(t_i) = sum_k ell_k(t_i) [sum_g coef_g T_g (L(sigma_k, .) F)]_i
                 + col_first(t_i) F_0 + col_last(t_i) F_N,

    with the boundary columns of every grid summed into col_first and
    col_last. That costs one rfft per grid and one irfft, O(r N log N), per
    apply and O(r N) memory. Dense rows sum_g coef_g weight_matrix_g * L
    remain for the points off the fine grid, and for every point when H is
    smooth (not a function of t - s) or L needs more than _MAX_RANK
    interpolation points.
    """

    def __init__(self, problem: HammersteinProblem, rules, points, fine_idx):
        kernel, L = problem.kernel, problem.L
        fine = rules[0][0]
        N, t = fine.n, fine.nodes
        self.size = points.size
        self.fine_idx = fine_idx
        self.ell = None
        factor = None
        if kernel.kind != KERNEL_SMOOTH:
            factor = _chebyshev_factor(L, problem.a, problem.b, t)
        if factor is None:
            self.dense_idx = np.arange(points.size)
        else:
            self.ell, samples = factor
            off_grid = np.ones(points.size, dtype=bool)
            off_grid[fine_idx] = False
            self.dense_idx = np.flatnonzero(off_grid)
            self.m = _fft_size(2 * N)
            # per grid: its symbol, and L(sigma_k, .) on its interior nodes,
            # zero elsewhere; the boundary columns are added exactly, outside
            # the convolution
            self.terms = []
            for grid, coef in rules:
                p = N // grid.n
                L_sigma = np.zeros_like(samples)
                L_sigma[:, p:N:p] = samples[:, p:N:p]
                self.terms.append((coef * _symbol(fine, grid, kernel, self.m), L_sigma))

            ends = [[coef * w for w in _end_columns(grid, kernel, t)] for grid, coef in rules]
            L_ends = _L_values(L, t, t[[0, N]])
            self.col_first = reduce(np.add, [first for first, _ in ends]) * L_ends[:, 0]
            self.col_last = reduce(np.add, [last for _, last in ends]) * L_ends[:, 1]
        self.WL_dense = _dense_rows(fine, kernel, L, points[self.dense_idx])
        self.WL_dense *= rules[0][1]
        for grid, coef in rules[1:]:
            rows = _dense_rows(grid, kernel, L, points[self.dense_idx])
            rows *= coef
            self.WL_dense[:, :: N // grid.n] += rows

    def __call__(self, ft: np.ndarray) -> np.ndarray:
        """Operator values at every evaluation point from F at the fine nodes."""
        out = np.empty(self.size)
        out[self.dense_idx] = _product(self.WL_dense, ft)
        if self.ell is not None:
            out[self.fine_idx] = self._structured(ft)
        return out

    def at_nodes(self, ft: np.ndarray) -> np.ndarray:
        """Operator values at the fine nodes alone."""
        if self.ell is None:
            return self(ft)[self.fine_idx]
        return self._structured(ft)

    def _structured(self, ft: np.ndarray) -> np.ndarray:
        spectrum = reduce(
            np.add,
            (np.fft.rfft(L_sigma * ft, self.m) * symbol for symbol, L_sigma in self.terms),
        )
        conv = np.fft.irfft(spectrum, self.m)
        return (
            np.einsum("ki,ki->i", self.ell, conv[:, : ft.size])
            + self.col_first * ft[0]
            + self.col_last * ft[-1]
        )


def _end_columns(grid: Grid, kernel, t: np.ndarray):
    """The columns of ``grid`` at t_0 and t_N, weights at the fine nodes t.

    Each comes from a one-panel grid over the grid's end panel; weight_matrix
    divides by that grid's h, so it is rescaled to the grid's own.
    """
    p = (t.size - 1) // grid.n
    first = make_grid(t[0], t[p], 1)
    last = make_grid(t[-1 - p], t[-1], 1)
    return (
        weight_matrix(first, kernel, t)[:, 0] * (first.h / grid.h),
        weight_matrix(last, kernel, t)[:, 1] * (last.h / grid.h),
    )


def _symbol(fine: Grid, grid: Grid, kernel, m: int) -> np.ndarray:
    """rfft of the length-m circulant that applies the interior columns of
    ``grid``, nested in ``fine`` at every p-th node, at the fine nodes.

    Its entry c_k = w_J(t_i) with k = pJ - i, k = -(N-1)..N-1, comes from the
    rows of ``grid`` at the first p + 1 and the last p fine nodes: the row at
    t_i holds c_k for k = pJ - i, J = 1..n-1. Where two rows hold the same
    c_k, the one nearer t_0 is kept. For p = 1 these are the rows at t_0,
    t_1 (for c_0) and t_N. The k that no row holds pair no interior node
    with any fine node and stay 0.
    """
    N, t = fine.n, fine.nodes
    p = N // grid.n
    at = [*range(p, -1, -1), *range(N - p + 1, N + 1)]
    rows = weight_matrix(grid, kernel, t[at])
    c = np.zeros(2 * N - 1)  # c_k at k + N - 1
    J = np.arange(1, grid.n)
    for i, row in zip(at, rows):
        c[p * J - i + N - 1] = row[1:-1]
    v = np.zeros(m)
    v[:N] = c[N - 1 :: -1]  # c_0, c_-1, ..., c_-(N-1)
    v[m - N + 1 :] = c[: N - 1 : -1]  # c_(N-1), ..., c_1
    return np.fft.rfft(v)


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

        # recovery weights at every evaluation point; the rows at the nodes
        # are the Newton matrix, so nodal values stay consistent with them
        self.WL_coarse = _dense_rows(grid, problem.kernel, problem.L, self.points)
        self.G = self.WL_coarse[self.node_idx]

        if settings.mode == "fine":
            fine = make_grid(problem.a, problem.b, settings.n_fine)
            self.fine_nodes = fine.nodes
            self.fine_idx = self._locate(fine.nodes)
            half = make_grid(problem.a, problem.b, settings.n_fine // 2)
            rules = [(fine, 4.0 / 3.0), (half, -1.0 / 3.0)]
            self.fine_rule = _ProductRule(problem, rules, self.points, self.fine_idx)
            self.plan = None
        else:
            self.plan = SubtractionPlan(problem, self.points)

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
            return self.fine_rule(ft)
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
    SingularOperatorError carrying the partial report. A linear system that
    fails after the residual norm grew at each of the last two recorded
    iterations is reported as "diverged": the iterate ran away, and the
    singular matrix is a symptom of that.
    """
    tic = time.perf_counter()
    iterate = disc.start(phi0)
    _record(disc, report, 0, None, iterate, tic)
    for k in range(1, settings.max_iter + 1):
        tic = time.perf_counter()
        try:
            iterate, step_norm = disc.step(iterate)
        except SingularSystemError as exc:
            res = [r.residual_norm for r in report.records[-3:]]
            if len(res) == 3 and res[0] < res[1] < res[2]:
                report.status = "diverged"
                reason = (
                    f"residual norm grew to {res[2]:.3e} over the last two iterations, "
                    f"then the linearized system at iteration {k} failed"
                )
            else:
                report.status = "singular"
                reason = f"linearized system singular at iteration {k}"
            raise SingularOperatorError(f"{report.method}: {reason}: {exc}", report) from exc
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
        n_fine=settings.n_fine if settings.mode == "fine" else None,
        mode=settings.mode,
    )
    return _newton(_Workspace(problem, grid, settings), settings, report, phi0)
