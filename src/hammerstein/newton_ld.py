"""Linearize-then-discretize solver.

Newton is applied to the operator equation itself; each linear operator
equation is then discretized by product integration. Every step solves for
the nodal step on the Newton grid (product trapezoid rule) and recovers the
next iterate on a frozen set of iteration points (grid nodes and
operator-quadrature nodes) by the same rule, so the whole iteration works
with function values that are never re-interpolated from coarser data. The
output samples are read from the same rules after the loop (`_Samples`).

The limit of the iteration is set by the accuracy of the operator
evaluation (LDSettings.mode and n_fine), not by the Newton grid size n.

In fine mode the operator is the product Simpson rule on N = n_fine panels:
H times the piecewise-quadratic interpolant of L F on the panel pairs
[t_2g, t_2g+2], integrated exactly (Atkinson, The Numerical Solution of
Integral Equations of the Second Kind, CUP 1997, sec. 4.2; de Hoog & Weiss,
Math. Comp. 1973). It reads F at the fine nodes only, so the operator stays
closed under the iteration. Its error is about O(h^4) for the log kernel
and O(h^(4 - beta)) for the algebraic one (measured orders 3.8, 3.6 and 3.3
per doubling at N = 80-640 for log, beta = 0.3 and beta = 0.7), against
O(h^2) for the product trapezoid rule.

Each rule is a nodal part, the rule at its own grid's nodes, and readers of
it at points off that grid (`_nodal_part`). The nodal part is dense rows on
at most 64 panels (_COARSE_N), for a smooth H and for an L with no cross
factor; else it is never a dense matrix (`_Structured`): Toeplitz weights
applied by FFT, times a cross approximation of L of rank q on the lattice
of the nodes (Bebendorf, Numer. Math. 2000; Tyrtyshnikov, Computing 2000):
q = 9 for exp_st on [0, 1], 1 for L = one, so an apply is O(q N log N) and
it holds O(q N) numbers. LD's rules
(`_ProductRule`) read the iteration points off their grids (the Newton nodes
off the fine grid, the fine nodes off the Newton grid) by a reader built
once, and both solvers read the output samples after the loop. A reader is
dense rows, or, for a structured Simpson rule and a structured trapezoid
rule of at least 512 panels, with L smooth in s at the grid's spacing,
precorrected interpolation from the nodal values (`_Precorrected`; the idea
of the precorrected FFT, Phillips & White, IEEE Trans. CAD 1997): Lagrange
interpolation on 12 nodes around the point, with the 64 nearest columns
(for Simpson the 32 nearest panel pairs) taken out of the interpolant and
added back with exact weights, 76 or 77 numbers a point, not N + 1.

Every sum of a rule's apply is row-local: dense rows are contracted by
np.einsum, which sums each row on its own in one fixed order (a BLAS product
rounds a row by its place in the matrix), and the precorrection multiplies
one point's matrices at a time. So a point's value does not depend on which
other points or iterates are read with it, nor on the BLAS thread count;
the only BLAS/LAPACK call of a solve is solve_dense's gesv.

The Newton linear step is that of the DL solver too: with A the product
trapezoid rule of the grid at its own nodes and D = diag F'(X) at the nodal
iterate X, it solves (I - A D) delta = -res by the stationary iteration
delta <- delta + M (-res - (I - A D) delta), with M the Atkinson-Brakhage
two-grid inverse on a uniform coarse grid (`_TwoGrid`; Atkinson 1997;
Kelley, Iterative Methods for Linear and Nonlinear Equations, SIAM 1995),
whose coarse correction reaches the grid through the Toeplitz part and
cross factor of its structured nodal part.
M only sets the rate; each residual is the grid's true one, so a step is
taken only once checked. It is solved only as far as Newton can use: to a
forcing term eta = O(|res|) relative, which keeps the convergence quadratic
(Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 1982; Eisenstat &
Walker, SISC 1996; Kelley 1995, ch. 6), and no finer than the rounding of
the iterate. After a miss (a residual that stops shrinking, or a singular
coarse system), this step and the later ones are LU solves of the Newton
matrix on the grid itself, as all steps of a dense nodal part are.

The Newton loop itself (`_newton`: records, stopping and failure statuses,
the output samples read after it), the settings it reads, the nodal parts
with their readers, and the step are shared with the DL solver in
newton_dl, whose discrete operator is the trapezoid rule of its own grid.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .linalg import SingularSystemError, solve_dense
from .problem import (
    KERNEL_SMOOTH,
    Grid,
    HammersteinProblem,
    SampledFunction,
    _sorted_unique,
    make_grid,
)
from .quadrature import SubtractionPlan, _window_weight_rows, weight_matrix
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

    mode "fine": the product Simpson rule on a uniform grid of n_fine panels,
    taken in pairs, so n_fine must be even. At the default 320 the LD
    terminal error of the manufactured log-kernel problems with L = exp_st
    (n = 16-64, F square or cubic) is at most 1.6e-10.
    mode "subtract": singularity subtraction (SubtractionPlan); n_fine unused.
    """

    n_fine: int = 320
    mode: str = "fine"

    def __post_init__(self):
        super().__post_init__()
        if self.n_fine < 2:
            raise ValueError(f"n_fine must be at least 2, got {self.n_fine}")
        if self.n_fine % 2:
            raise ValueError(f"n_fine must be even, got {self.n_fine}")
        if self.mode not in ("fine", "subtract"):
            raise ValueError(f"mode must be 'fine' or 'subtract', got {self.mode!r}")


class _Samples:
    """The sample_count output points of a solve, read after its Newton loop.

    ``iteration_points`` (sorted) are the points the loop holds each
    iterate's values at. A sample among them reads those values, kept per
    iterate by ``keep``; the others, ``off_points``, are evaluated by the
    workspace after the loop. ``points``, the sorted union of the two sets,
    are the points of the returned function. y is requested at all of them
    at once, so a manufactured y runs its reference quadrature once.
    """

    def __init__(self, problem: HammersteinProblem, settings, iteration_points):
        samples = np.linspace(problem.a, problem.b, settings.sample_count)
        self.points = _sorted_unique(np.concatenate([iteration_points, samples]))
        self.iteration_pos = np.searchsorted(self.points, iteration_points)
        self.sample_pos = np.searchsorted(self.points, samples)
        at = np.minimum(np.searchsorted(iteration_points, samples), iteration_points.size - 1)
        held = iteration_points[at] == samples
        self.held_at = at[held]
        self.held, self.off = np.flatnonzero(held), np.flatnonzero(~held)
        self.off_points = samples[self.off]
        y = _broadcast(problem.y(self.points), self.points)
        self.y_iteration, self.y_off = y[self.iteration_pos], y[self.sample_pos[self.off]]
        self.exact = None
        if problem.exact is not None:
            self.exact = np.asarray(problem.exact(samples), dtype=float)
        self.kept: list[np.ndarray] = []

    def keep(self, values: np.ndarray) -> None:
        """Keeps an iterate's values at the held samples, from its values at
        the iteration points; the first call of a solve is its iterate 0."""
        self.kept.append(values[self.held_at])

    def values(self, ks: range, off_values: np.ndarray) -> np.ndarray:
        """Iterates ks at every sample, from their values off the iteration
        points, shape (len(ks), off_points.size)."""
        out = np.empty((len(ks), self.sample_pos.size))
        out[:, self.held] = [self.kept[k] for k in ks]
        out[:, self.off] = off_values
        return out

    def result(self, iteration_values, sample_values) -> SampledFunction:
        values = np.empty(self.points.size)
        values[self.iteration_pos] = iteration_values
        values[self.sample_pos] = sample_values
        return SampledFunction(self.points, values)


def _broadcast(values, points: np.ndarray) -> np.ndarray:
    """values as floats of the shape of ``points``; y, phi0, F or dF may be a scalar."""
    values = np.asarray(values, dtype=float)
    return values if values.shape == points.shape else np.full(points.shape, values)


def _sample_initial(problem, phi0, points) -> np.ndarray:
    phi0 = problem.y if phi0 is None else phi0
    return _broadcast(phi0(points) if callable(phi0) else phi0, points)


# Cross factor of L on the lattice of a rule's nodes (`_cross_factor`). It
# is accepted once a pivot and _CHECK_COUNT check rows, nodes picked by the
# golden-ratio sequence, are within _RANK_TOL * max|L| of it. The pivots
# alone can stop short: with one check row, the bump exp(-((s - 0.5)^2 +
# (t - 0.5)^2) / 0.001) on [0.3, 2.9] passed as rank 0 (lattice error 1.0
# max|L|) and exp_st there as rank 11 at 2.4e-13; with 32, rank 1 at 2e-16
# and rank 12 at 1.1e-14. _RANK_TOL sits above the rounding of the residual,
# a sum of q rank-1 terms: at 32 eps cos(35 s t) on [0, 1] took 59 crosses at
# N = 1500, at 64 eps (1.42e-14) 27.
# An L that takes more than _MAX_RANK crosses keeps dense operator rows.
# Measured on a 2-vCPU host, one BLAS thread, with L = cos(w s t) on [0, 1]:
# LD's Simpson rule at n_fine = 320 on 489 evaluation points builds in
# 6.5-8.5 ms at q = 28-61 and applies in 0.17-0.38 ms, against 7.7-9.3 ms and
# 0.02 ms with dense rows; the trapezoid rule of a 1500-panel grid on 1600
# points builds in 7-10 ms at q = 27-50 and applies in 1.0-1.7 ms, against
# 50-76 ms (a 19 MB matrix) and 0.8 ms dense.
_RANK_TOL = 64 * np.finfo(float).eps
_MAX_RANK = 64
_CHECK_COUNT = 32


def _L_values(L, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """L on the lattice s x t, shape (s.size, t.size)."""
    vals = np.asarray(L(s[:, None], t[None, :]), dtype=float)
    return np.broadcast_to(vals, (s.size, t.size))


def _cross_factor(L, t: np.ndarray):
    """Low-rank factor (E, V, smooth) of L on the lattice t x t, E and V each
    of shape (q, t.size) with L(t_i, t_l) ~ sum_k E[k, i] V[k, l], or None
    when none of at most _MAX_RANK crosses meets _RANK_TOL.

    Adaptive cross approximation with partial pivoting (Bebendorf, Numer.
    Math. 2000; Tyrtyshnikov, Computing 2000): from a row i, the residual row
    L(t_i, .) - E[:, i] V pivots on its largest entry j, the residual column
    at t_j makes the cross, and the next row is the column's largest unused
    entry. Crosses stop at a pivot of at most _RANK_TOL max|L|, max|L| over
    the entries evaluated so far. The check rows are then held to that
    tolerance too: the worst one above it starts the next crosses, and one
    already crossed gives None. The first crosses start at the check row of
    largest |L|.

    ``smooth`` says whether L is smooth enough in s, at the spacing of the
    nodes t, for the interpolant of _Precorrected: the remainder of
    interpolation on _STENCIL nodes, estimated from the _STENCIL-th
    differences of the pivot columns L(t, t_j) (every factor row is a
    combination of them), is at most _SMOOTH_TOL times their max|L|.
    `_Structured` decides whether its points are read so.
    """
    n = t.size
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    check = _sorted_unique((np.arange(1, _CHECK_COUNT + 1) * golden % 1.0 * n).astype(int))
    # the check rows are evaluated in blocks of at most _ROW_BLOCK entries,
    # here and again in each check round, and never held whole: the 32 x
    # 1501 block set a DL solve's memory peak at n = 1500
    step = max(1, _ROW_BLOCK // n)
    blocks = [(c, check[c : c + step]) for c in range(0, check.size, step)]
    check_max = np.empty(check.size)
    for c, rows in blocks:
        L_check = _L_values(L, t[rows], t)
        # max |L| per check row without a temporary of the whole block
        check_max[c : c + step] = np.maximum(L_check.max(axis=1), -L_check.min(axis=1))
    scale = check_max.max()
    # rows for q crosses, doubled when full: a rank-1 L holds 2 rows, not
    # the 2 _MAX_RANK (1.6 MB at N = 1558) of a buffer for the largest q
    E, V = np.empty((2, 1, n))
    used = np.zeros(n, dtype=bool)
    q = 0
    rough = col_scale = 0.0
    i = check[np.argmax(check_max)]
    while True:
        while True:
            used[i] = True
            row = _L_values(L, t[i : i + 1], t)[0]
            scale = max(scale, np.max(np.abs(row)))
            row = row - np.einsum("kl,k->l", V[:q], E[:q, i])
            j = np.argmax(np.abs(row))
            if abs(row[j]) <= _RANK_TOL * scale:
                break
            if q == _MAX_RANK:
                return None
            if q == len(E):
                E = np.concatenate([E, np.empty_like(E)])
                V = np.concatenate([V, np.empty_like(V)])
            col = _L_values(L, t, t[j : j + 1])[:, 0]
            col_max = np.max(np.abs(col))
            scale, col_scale = max(scale, col_max), max(col_scale, col_max)
            rough = max(rough, np.max(np.abs(np.diff(col, _STENCIL)), initial=0.0))
            col = col - np.einsum("ki,k->i", E[:q], V[:q, j])
            E[q], V[q] = col / row[j], row
            q += 1
            i = np.argmax(np.where(used, 0.0, np.abs(col)))
        rest = np.empty(check.size)
        for c, rows in blocks:
            part = _L_values(L, t[rows], t) - np.einsum("ki,kl->il", E[:q, rows], V[:q])
            rest[c : c + step] = np.max(np.abs(part, out=part), axis=1)
        if rest.max() <= _RANK_TOL * scale:
            return E[:q].copy(), V[:q].copy(), _REMAINDER * rough <= _SMOOTH_TOL * col_scale
        i = check[np.argmax(rest)]
        if used[i]:
            return None


# Entries per block, at most, of a dense reader, the cross factor's check
# rows and _precorrect's terms, as _REF_BLOCK and _PLAN_BLOCK: each
# temporary stays at 64 kB, under glibc's initial 128 kB mmap threshold, so
# it is served from reused heap memory. Measured on a 2-vCPU host over warm
# compare_fine ops (seed 5, ops 0-7): 8k-entry blocks of _dense_rows took
# no minor page faults per op, 32k-entry blocks (the former rule)
# 465-1,002. With the former two-grid row build, compare_fine ops took
# 1,221-1,640 faults each and dl_large_n ops 532-1,344. In a warm loop
# alone, 192 off-grid rows of 1025 entries fault in neither case.
_ROW_BLOCK = 8192
# _dense_rows builds its weight rows and L in half blocks: the panel
# moments hold five arrays of a block at once (tracemalloc, 65 nodes:
# 417 kB at 8k entries, 210 kB at 4k), which in 8k blocks lifted
# compare_fine's peak_mb 0.81 -> 0.96 MB; in 4k blocks it stays at 0.81
_WEIGHT_BLOCK = _ROW_BLOCK // 2


def _dense_rows(grid: Grid, kernel, L, s: np.ndarray, simpson: bool = False):
    """Product-rule rows w_j(s) L(s, t_j) of ``grid`` at the points s.

    Every such matrix of both solvers comes from here: the rows of a dense
    nodal part (`_Dense`), which are also its grid's LU step matrix, and of
    a dense reader (`_DenseRows`; ``simpson`` for LD's fine rule). Per block
    of at most _WEIGHT_BLOCK entries: one weight_matrix call and one L
    evaluation at the grid's nodes.
    """
    out = np.empty((s.size, grid.n + 1))
    step = max(1, _WEIGHT_BLOCK // (grid.n + 1))
    for start in range(0, s.size, step):
        block = s[start : start + step]
        # no name holds a block's temporaries into the next block
        np.multiply(
            weight_matrix(grid, kernel, block, simpson),
            _L_values(L, block, grid.nodes),
            out=out[start : start + step],
        )
    return out


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


def _nodal_part(problem: HammersteinProblem, grid: Grid, simpson: bool = False):
    """The product rule of ``grid`` at its nodes: the trapezoid rule, or the
    Simpson rule with ``simpson`` (LD's fine rule; N even). Its form is
    decided here, once: dense rows (`_Dense`), whose grid steps by their LU
    (`_TwoGrid`), on at most _COARSE_N panels, for a smooth H (not a
    function of t - s) and for an L with no cross factor within _MAX_RANK;
    else Toeplitz weights and the factor (`_Structured`), whose grid takes
    two-grid steps."""
    structured = problem.kernel.kind != KERNEL_SMOOTH and grid.n > _COARSE_N
    factor = _cross_factor(problem.L, grid.nodes) if structured else None
    if factor is None:
        return _Dense(problem, grid, simpson)
    return _Structured(problem, grid, simpson, factor)


class _Nodal:
    """A nodal part (`_nodal_part`) and its readers. ``reader(s)`` reads the
    rule at points s off the grid: called with F at the nodes and the rule's
    values there, one of each per F, ``(fts, nodals)``, it returns one row of
    values at s per F. It is dense rows (`_DenseRows`) unless a structured
    part precorrects (`_Precorrected`)."""

    def __init__(self, problem: HammersteinProblem, grid: Grid, simpson: bool):
        self.grid, self.kernel, self.L, self.simpson = grid, problem.kernel, problem.L, simpson
        self.reader_type, self.block = _DenseRows, max(1, _ROW_BLOCK // (grid.n + 1))

    def reader(self, s: np.ndarray):
        return self.reader_type(self, s)

    def read(self, s: np.ndarray, fts, nodals) -> np.ndarray:
        """The rule at s by a reader per ``block`` points, each built and
        applied at once, so none outlives its block (the output samples)."""
        out = np.empty((len(fts), s.size))
        for start in range(0, s.size, self.block):
            part = slice(start, start + self.block)  # no name holds its reader past it
            out[:, part] = self.reader(s[part])(fts, nodals)
        return out


class _Dense(_Nodal):
    """A nodal part held as its rows w_j(t_i) L(t_i, t_j)."""

    def __init__(self, problem: HammersteinProblem, grid: Grid, simpson: bool):
        super().__init__(problem, grid, simpson)
        self.rows = _dense_rows(grid, self.kernel, self.L, grid.nodes, simpson)

    def __call__(self, ft: np.ndarray) -> np.ndarray:
        return np.einsum("ij,j->i", self.rows, ft)

    def matrix(self) -> np.ndarray:
        """The rows at the nodes: the matrix of the LU steps (`_TwoGrid`)."""
        return self.rows


class _Structured(_Nodal):
    """A nodal part applied without a dense matrix.

    At a node t_i the log and alg weights of node t_l depend only on l - i
    and, for Simpson, on the parity of l, except in the boundary columns l =
    0 and l = N. The interior columns are a Toeplitz matrix (one per parity
    for Simpson), applied by FFT on one circulant embedding, and L enters
    through its cross factor L(t_i, t_l) ~ sum_k ell_k(t_i) v_k(t_l) of q
    terms (``factor``, `_cross_factor`):

        K(t_i) = sum_k ell_k(t_i) [T (v_k F)]_i
                 + col_first(t_i) F_0 + col_last(t_i) F_N.

    For Simpson, T = S_odd + D P with D = S_even - S_odd and P the projection
    on the even columns. On an even circulant length m the spectrum of a
    vector's even part is (X[k] + conj X[m/2 - k]) / 2, so an apply is one
    rfft and one irfft of q rows, O(q N log N), and O(q N) memory.

    It reads its points off the grid from its nodal values by precorrected
    interpolation (`_Precorrected`) if it is a Simpson rule or a trapezoid
    rule on at least _PRECORRECT_MIN_N panels, and L is smooth in s at the
    grid's spacing (`_cross_factor`); by dense rows otherwise.
    """

    def __init__(self, problem: HammersteinProblem, grid: Grid, simpson: bool, factor):
        super().__init__(problem, grid, simpson)
        N, t = grid.n, grid.nodes
        self.ell, self.v, smooth = factor
        # the parity fold needs an even m; _fft_size(2 N) is odd for some
        # even N (66, 110, ...)
        self.m = 2 * _fft_size(N) if simpson else _fft_size(2 * N)
        # the precorrection reads c and the end columns as K applies them
        self.c, first, last = _nodal_weights(grid, self.kernel, simpson)
        self.symbol, self.mirror = _symbol(self.c, self.m)
        L_ends = _L_values(self.L, t, t[[0, N]])
        self.col_first = first * L_ends[:, 0]
        self.col_last = last * L_ends[:, 1]
        if smooth and (simpson or N >= _PRECORRECT_MIN_N):
            self.reader_type, self.block = _Precorrected, _NEAR_BLOCK

    def __call__(self, ft: np.ndarray) -> np.ndarray:
        return self.convolve(self.v * ft, ft[0], ft[-1])

    def matrix(self) -> np.ndarray:
        """The dense rows at the nodes, built for LU steps (`_TwoGrid`)."""
        return _dense_rows(self.grid, self.kernel, self.L, self.grid.nodes, self.simpson)

    def prolongation(self, coarse: _Dense):
        """x -> R x at the nodes for x = d_c z at the nodes tau of ``coarse``
        (`_TwoGrid`), through the factor:

            (R D_c z)_i = sum_k ell_k(t_i) [T P(v_k(tau) d_c z)]_i
                          + col_first(t_i) (d_c z)_0 + col_last(t_i) (d_c z)_(n_c),

        with v_k(tau) read from v_k by linear interpolation, P the linear
        interpolation from tau to the interior nodes and T the Toeplitz part:
        one FFT pair of q rows, not (n + 1) x (n_c + 1) dense rows. Where tau
        are grid nodes (n a multiple of n_c) the coarse hats are piecewise
        linear on grid panels and this is R D_c z to rounding and _RANK_TOL;
        otherwise it is a prolongation of the same order."""
        to_nodes = _linear_interpolation(coarse.grid.n, self.grid.n)
        index, theta = _linear_interpolation(self.grid.n, coarse.grid.n)
        v_tau = (1.0 - theta) * self.v[:, index] + theta * self.v[:, index + 1]

        def prolong(x):
            index, theta = to_nodes
            rows = v_tau * x
            return self.convolve(
                (1.0 - theta) * rows[:, index] + theta * rows[:, index + 1], x[0], x[-1]
            )

        return prolong

    def convolve(self, rows: np.ndarray, f_first, f_last) -> np.ndarray:
        """K at the nodes from rows = v_k F, shape (q, N + 1), and F at t_0
        and t_N (see the class docstring). The ends of rows are zeroed in
        place: the boundary columns are added exactly, outside the
        convolution."""
        rows[:, 0] = rows[:, -1] = 0.0
        spectrum = np.fft.rfft(rows, self.m)
        if self.mirror is None:
            spectrum *= self.symbol
        else:
            mirrored = spectrum[:, ::-1].conj()  # conj X[m/2 - k]
            mirrored *= self.mirror
            spectrum *= self.symbol
            spectrum += mirrored
        conv = np.fft.irfft(spectrum, self.m)
        return (
            np.einsum("ki,ki->i", self.ell, conv[:, : rows.shape[1]])
            + self.col_first * f_first
            + self.col_last * f_last
        )


class _DenseRows:
    """A nodal part read at points s by its rows there, w_j(s) L(s, t_j); it
    reads no ``nodals``."""

    def __init__(self, nodal: _Nodal, s: np.ndarray):
        self.rows = _dense_rows(nodal.grid, nodal.kernel, nodal.L, s, nodal.simpson)

    def __call__(self, fts, nodals) -> np.ndarray:
        return np.einsum("ij,fj->fi", self.rows, np.stack(fts))


# Off-grid points of a precorrected rule (`_Precorrected`). The far field of
# s, the rule's sum over the nodes outside a window of _WINDOW nodes around s
# (_WINDOW + 1, whole panel pairs, for Simpson), is smooth in s where L is:
# it is interpolated from the rule's nodal values on _STENCIL nodes around s,
# and the window is added exactly. The interpolant has degree _STENCIL - 1,
# and the nearest singularity of the far field (the hat of the first node
# outside the window) lies _MARGIN + 1 panels beyond the stencil, so its
# error falls geometrically with _MARGIN; the rounding of the nodal values
# enters times the stencil's Lebesgue constant, largest for the clipped
# stencils near the ends, which grows with _STENCIL. Worst error of the
# trapezoid rule against dense moment rows, in eps max|K| (log, alg 0.3 and
# 0.7; L one and exp_st; [0, 1] and [0.3, 2.9]; N = 256 and 1454; 120
# points, 60 of them within 40 panels of an end; smooth and random F):
# 12 nodes read 62-101 with margins of 26 or 20 panels, 138 with 16 and
# 1,773 with 12, where the interpolation error shows; with a margin of 26,
# 10 nodes read 108, 14 nodes 224 and 8 nodes 7,519. _MARGIN keeps 6
# panels above the smallest margin that reads the rounding floor.
_STENCIL = 12
_MARGIN = 26
_WINDOW = _STENCIL + 2 * _MARGIN
# A trapezoid rule on fewer panels keeps dense off-grid rows: the evaluator
# costs about the same per point on any grid, dense rows N + 1 entries.
# Whole warm solves on a 2-vCPU host (one BLAS thread, log kernel, 201
# samples, median of 7 alternating runs), time precorrected over time with
# dense rows at N = 65, 128, 256 and 511: log-sine (L = one) DL 1.22, 1.01,
# 0.81 and 0.70, LD 1.29, 1.08, 0.90 and 0.72; exp_st (manufactured cos, F
# square) DL 1.34, 1.15, 1.01 and 0.86, LD 1.33, 1.20, 1.05 and 0.82. DL
# with exp_st peaks 8-18% higher precorrected at every N from 65 to 511; LD
# peaks up to 46% lower from 128 panels. So the evaluator matches dense
# rows from about 128 panels with L = one and 256-384 with exp_st, and near
# 512 it is faster in both solvers on both.
# A Simpson rule with a factor (N > _COARSE_N >= _WINDOW) always precorrects:
# it is LD's operator, whose off-grid points are most of its iteration
# points, and its dense rows cost about 70 ns an entry against 50 ns for
# trapezoid rows (400 points, N = 320 and 1024). Measured on a 2-vCPU host
# (exp_st on [0, 1], one BLAS thread, best of 9), for 50 off-grid points
# built and applied to 6 iterates: dense rows 0.33 ms at N = 66, 0.95 at
# 256, 1.21 at 320, 1.84 at 512 and 3.67 at 1024, the evaluator 1.0-1.8 ms
# at each; for 160 output samples of 6 iterates, dense rows 0.97, 2.78,
# 3.60, 5.60 and 12.2 ms, the evaluator 3.4-3.7 ms. So below ~300 panels it
# costs up to ~2.5 ms more per solve, and holds 77 numbers a point where
# dense rows hold N + 1.
_PRECORRECT_MIN_N = 512
# Points per block of _Precorrected: the window weights of a block hold
# about five temporaries of _NEAR_BLOCK x 65 doubles, and each block costs
# about 0.2 ms of numpy calls whatever its size. On log-sine at n = 1500 a
# DL solve's sample pass (131 samples) peaked at 527, 561, 604 and 670 kB
# with blocks of 32, 40, 50 and 66 points, against 563 kB for its Newton
# steps; at n = 1417-1583 (198 samples, 6 iterates) it took 3.6, 2.7, 2.4
# and 2.3 ms, and 5.6 ms with dense rows.
_NEAR_BLOCK = 50
_STENCIL_AT = np.arange(_STENCIL)
_WINDOW_AT = np.arange(_WINDOW + 1)
_ENTRIES_AT = np.arange(_WINDOW + _STENCIL)
# max |prod_b (x - b)| / _STENCIL! over the stencil, at x in [0, 1]: times the
# _STENCIL-th difference of a function on the nodes, the largest remainder of
# its interpolant
_REMAINDER = np.max(
    np.abs(np.prod(np.linspace(0.0, 1.0, 1001)[:, None] - _STENCIL_AT, axis=1))
) / math.factorial(_STENCIL)
# The largest remainder, relative to max|L|, that `_cross_factor` lets the
# interpolant make of L. Smooth L read 5-520 eps here at N = 64-4096 (exp_st,
# exp(2 s t), cos(pi s), cubics, cos(35 s t) from 1024 panels), the rounding
# of the differences; L rough at the grid's spacing read from 2,500 eps
# (sqrt(s + t + 0.01) at 1454 panels) to 1e14 (|s - 0.3|, at any N)
_SMOOTH_TOL = 1024 * np.finfo(float).eps
# 1 / prod_(c != b) (b - c) on the stencil 0 .. _STENCIL - 1
_LAGRANGE_INVERSE = 1.0 / np.array(
    [math.prod(b - c for c in range(_STENCIL) if c != b) for b in range(_STENCIL)], dtype=float
)


class _Precorrected:
    """A structured nodal part read at points s off its grid by
    precorrected interpolation (the idea of the precorrected FFT: Phillips &
    White, IEEE Trans. CAD 1997):

        value(s) = sum_b lam_b(s) K(t_(k0+b)) + sum_a rho_a(s) F_(j0+a),
        rho_a(s) = w_j(s) L(s, t_j) - sum_b lam_b(s) w_j(t_k) l(t_k).v(t_j),

    with j = j0 + a and k = k0 + b. K are the rule's values at its nodes,
    lam the Lagrange weights of s on the _STENCIL nodes from k0, and the a
    run over the window of nodes from j0, the stencil and at least _MARGIN
    nodes on each side, both clipped into [0, N]: _WINDOW nodes for the
    trapezoid rule, and for Simpson _WINDOW + 1 from an even j0, whole panel
    pairs, so that no node outside the window shares a pair with one inside.
    The first sum interpolates all of K; the correction takes the window's
    part of it out again, as the rule computes it (its Toeplitz entries c,
    of the parity of j for Simpson, its end columns, and L through the cross
    factor l.v), and puts the window back with exact weights. What is left
    of the interpolant is the far field, panel pairs at least _MARGIN panels
    away, smooth in s where L is, so one interpolant serves both parities. A
    point holds _STENCIL numbers and one per window node, and two ints,
    built in blocks of _NEAR_BLOCK points.
    """

    def __init__(self, rule: _Structured, s: np.ndarray):
        grid = rule.grid
        N, t = grid.n, grid.nodes
        self.N = N
        # s - a >= 0, so astype(int) is the floor; min and max clip faster
        # than np.clip
        panel = ((s - grid.a) / grid.h).astype(int)
        self.k0 = np.maximum(np.minimum(panel - (_STENCIL // 2 - 1), N + 1 - _STENCIL), 0)
        j0 = np.maximum(self.k0 - _MARGIN, 0)
        if rule.simpson:
            # whole panel pairs: an even start, and one node more
            j0 -= j0 % 2
        window = _WINDOW + rule.simpson
        self.j0 = np.minimum(j0, N + 1 - window)
        # one row per point: lam, then rho
        self.weights = np.empty((s.size, _STENCIL + window))
        lam, rho = self.weights[:, :_STENCIL], self.weights[:, _STENCIL:]
        # Lagrange weights prod_(c != b) (x - c) / prod_(c != b) (b - c) at x =
        # (s - t_k0) / h, from the products of the factors left and right of b
        x = ((s - t[self.k0]) / grid.h)[:, None] - _STENCIL_AT
        right = np.empty_like(x)
        lam[:, 0] = right[:, -1] = 1.0
        np.cumprod(x[:, :-1], axis=1, out=lam[:, 1:])
        np.cumprod(x[:, :0:-1], axis=1, out=right[:, -2::-1])
        lam *= right
        lam *= _LAGRANGE_INVERSE
        for start in range(0, s.size, _NEAR_BLOCK):
            part = slice(start, start + _NEAR_BLOCK)
            _precorrect(rule, s[part], self.k0[part], self.j0[part], lam[part], rho[part])

    def __call__(self, fts, nodals) -> np.ndarray:
        """Values at the points, shape (len(fts), points), one row per F at
        the nodes in ``fts`` and the rule's values there in ``nodals``."""
        out = np.empty((len(fts), self.k0.size))
        window_at = _WINDOW_AT[: self.weights.shape[1] - _STENCIL]
        for start in range(0, self.k0.size, _NEAR_BLOCK):
            part = slice(start, start + _NEAR_BLOCK)
            # both sums as one: the stencil's K and the window's F, read
            # from one vector of K then F
            at = np.concatenate(
                [self.k0[part, None] + _STENCIL_AT, self.j0[part, None] + (self.N + 1 + window_at)],
                axis=1,
            )
            for row, ft, nodal in zip(out[:, part], fts, nodals):
                np.einsum("pa,pa->p", self.weights[part], np.concatenate([nodal, ft])[at], out=row)
        return out


def _precorrect(rule, s, k0, j0, lam, rho):
    """rho of the points s of a _Precorrected, in place, from their stencil
    and window starts and Lagrange weights lam."""
    N, t = rule.grid.n, rule.grid.nodes
    size = rho.shape[1]
    window_at = _WINDOW_AT[:size]
    np.multiply(
        _window_weight_rows(rule.grid, rule.kernel, s, j0, size, rule.simpson),
        rule.L(s[:, None], t[j0[:, None] + window_at]),
        out=rho,
    )
    stencil = k0[:, None] + _STENCIL_AT
    window = j0[:, None] + window_at
    # the end columns hold L itself, not its factor: their rho is set after
    # the Toeplitz part, from the exact w L kept here
    ends = [
        (at, col, rows)
        for at, col, end in ((0, rule.col_first, 0), (-1, rule.col_last, N + 1 - size))
        if (rows := np.nonzero(j0 == end)[0]).size
    ]
    exact = [rho[rows, at] for at, _, rows in ends]
    # toeplitz[p, b, a] = c_(j0 + a - k0 - b), for Simpson of the parity of
    # j0 + a, which is that of a: strided views of the size + _STENCIL - 1
    # entries of each point from c_(j0 - k0 - _STENCIL + 1), one per parity,
    # each over the columns a of its parity
    entries = rule.c.take(
        (j0 - k0 + N - _STENCIL)[:, None] + _ENTRIES_AT[: size + _STENCIL - 1], axis=1
    )
    step = entries.strides[2]
    parities = rule.c.shape[0]
    toeplitz = [
        (
            slice(parity, None, parities),
            as_strided(
                entries[parity, :, _STENCIL - 1 + parity :],
                (s.size, _STENCIL, (size - parity + parities - 1) // parities),
                (entries.strides[1], -step, parities * step),
            ),
        )
        for parity in range(parities)
    ]
    # the factor's terms a few at a time, in temporaries of at most
    # _ROW_BLOCK entries; as many for every block, so that a point's rho
    # does not depend on the block it is built in
    lam_ell = (lam * rule.ell[:, stencil]).transpose(1, 0, 2)
    terms = max(1, _ROW_BLOCK // (_NEAR_BLOCK * _WINDOW))
    for k in range(0, lam_ell.shape[1], terms):
        part = np.empty((s.size, min(terms, lam_ell.shape[1] - k), size))
        for columns, view in toeplitz:
            # row-local too: matmul's batch axis is the points
            np.matmul(lam_ell[:, k : k + terms], view, out=part[..., columns])
        part *= rule.v[k : k + terms][:, window].transpose(1, 0, 2)
        rho -= part.sum(axis=1)
    for (at, col, rows), wl in zip(ends, exact):
        rho[rows, at] = wl - np.einsum("pb,pb->p", lam[rows], col[stencil[rows]])


def _nodal_weights(grid: Grid, kernel, simpson: bool):
    """(c, first, last): the weights of ``grid`` at its nodes, c for the
    interior columns and first and last for the columns l = 0 and l = N.

    c[p, k + N - 1] = w_l(t_i) for k = l - i = -(N-1)..N-1 and p the parity
    of l for Simpson (one row p = 0 for the trapezoid rule). Entry c_k is
    read from the rows at t_1, t_0 and t_N; where two rows hold the same
    c_k, the later one is kept. Simpson has one such c per parity of l, read
    from the rows at t_2, t_1, t_0, t_N-1 and t_N. The k that no row holds
    pair no interior node with any node and stay 0. `_symbol` applies them
    by FFT; `_Precorrected` reads them as they are, so that what it takes
    out of an interpolant of K is what K holds. The end columns are one-node
    windows of the grid at every node, the dense rows' own columns to the
    bit: read across the domain from the rows of c, their node offsets
    would round at eps |b|, not eps |t_i|.

    The rows are the panel moments' whole windows, as every dense row is:
    at N = 1558 (log, L = one, F = sin 3t + 1.2, 22 nodes against mpmath at
    40 digits) the stitched operator is 2.1e-15 off, the dense rows 2.4e-15.
    Closed-form rows, which lose up to (|t - s| / h)^2 eps of a weight far
    from s, put it 4.1e-13 off: that error cancels within one row but not
    in an operator stitched from three of them.
    """
    N, t = grid.n, grid.nodes
    at = [2, 1, 0, N - 1, N] if simpson else [1, 0, N]
    rows = _window_weight_rows(grid, kernel, t[at], np.zeros(len(at), dtype=int), N + 1, simpson)
    J = np.arange(1, N)
    parity = J % 2 if simpson else np.zeros(N - 1, dtype=int)
    c = np.zeros((2 if simpson else 1, 2 * N - 1))  # c_k at k + N - 1
    for i, row in zip(at, rows):
        c[parity, J - i + N - 1] = row[1:-1]
    # both end columns in one call, the nodes once for each
    ends = _window_weight_rows(grid, kernel, np.tile(t, 2), np.repeat([0, N], N + 1), 1, simpson)
    return c, ends[: N + 1, 0], ends[N + 1 :, 0]


def _symbol(c: np.ndarray, m: int):
    """(symbol, mirror): rffts of the length-m circulants of the Toeplitz
    entries c (`_nodal_weights`); mirror is None for the trapezoid rule.
    Simpson's spectra S_even and S_odd, one per parity, give symbol (S_even
    + S_odd) / 2 and mirror (S_even - S_odd) / 2."""
    N = (c.shape[1] + 1) // 2
    v = np.zeros((c.shape[0], m))
    v[:, :N] = c[:, N - 1 :: -1]  # c_0, c_-1, ..., c_-(N-1)
    v[:, m - N + 1 :] = c[:, : N - 1 : -1]  # c_(N-1), ..., c_1
    spectra = np.fft.rfft(v)
    if c.shape[0] == 1:
        return spectra[0], None
    even, odd = spectra
    return 0.5 * (even + odd), 0.5 * (even - odd)


class _ProductRule:
    """A rule at every one of the sorted ``points`` (LD's iteration points):
    its nodal part at the grid's nodes, which sit at ``at`` among them, and a
    reader of the nodal part at the others, built once."""

    def __init__(self, nodal: _Nodal, points: np.ndarray):
        self.nodal, self.size = nodal, points.size
        self.at = np.searchsorted(points, nodal.grid.nodes)
        off = np.ones(points.size, dtype=bool)
        off[self.at] = False
        self.off = np.flatnonzero(off)
        self.reader = nodal.reader(points[self.off])

    def __call__(self, ft: np.ndarray) -> np.ndarray:
        """Rule values at every point from F at the grid's nodes."""
        out = np.empty(self.size)
        nodal = out[self.at] = self.nodal(ft)
        out[self.off] = self.reader([ft], [nodal])[0]
        return out


class _Workspace:
    """LD discretization: geometry-dependent factors shared by every step.

    An iterate is its values at the iteration points (the grid nodes and,
    in fine mode, the fine nodes; in subtract mode the output samples too,
    whose values set the plan's interpolant), the integral-operator values
    there, and F at the fine nodes, so each operator application serves both
    the residual of one iterate and the step that leaves it. In fine mode
    step k appends one record to ``steps``, (df * delta, that F, A (df
    delta) at the grid nodes, K_fine F at the fine nodes), from which the
    output samples off the iteration points are read after the loop:

        u_(k+1)(s) = A(s) (df delta)_k + K_fine(s) F_k + y(s),

    with A the trapezoid rule of the grid and K_fine the Simpson rule of the
    fine grid, each read from its nodal values where it precorrects.
    """

    def __init__(self, problem: HammersteinProblem, grid: Grid, settings: LDSettings):
        self.problem = problem
        self.grid = grid
        a, b = problem.a, problem.b
        if settings.mode == "fine":
            self.fine = make_grid(a, b, settings.n_fine)
            points = _sorted_unique(np.concatenate([grid.nodes, self.fine.nodes]))
        else:
            samples = np.linspace(a, b, settings.sample_count)
            points = _sorted_unique(np.concatenate([grid.nodes, samples]))
        self.points = points
        self.samples = _Samples(problem, settings, points)

        # the product trapezoid rule of the Newton grid at every iteration
        # point: its values at the nodes are the Newton matrix's, so nodal
        # values stay consistent with the recovered ones
        self.rule = _ProductRule(_nodal_part(problem, grid), points)
        self.two_grid = _TwoGrid(problem, self.rule.nodal)

        if settings.mode == "fine":
            self.fine_rule = _ProductRule(_nodal_part(problem, self.fine, simpson=True), points)
            self.plan = None
        else:
            self.plan = SubtractionPlan(problem, points)
        self.y_points = self.samples.y_iteration
        self.steps: list[tuple[np.ndarray, ...]] = []

    def _iterate(self, values):
        self.samples.keep(values)
        if self.plan is not None:
            return values, self.plan.apply(values), None
        F, fine = self.problem.nonlin.F, self.fine.nodes
        ft = _broadcast(F(fine, values[self.fine_rule.at]), fine)
        return values, self.fine_rule(ft), ft

    def start(self, phi0):
        self.phi0_off = _sample_initial(self.problem, phi0, self.samples.off_points)
        return self._iterate(_sample_initial(self.problem, phi0, self.points))

    def residual(self, iterate) -> np.ndarray:
        values, K_points, _ = iterate
        at = self.rule.at
        return values[at] - K_points[at] - self.y_points[at]

    def step(self, iterate):
        """One Newton step: the next iterate and the nodal step norm."""
        values, K_points, ft = iterate
        nodal = values[self.rule.at]
        df = _broadcast(self.problem.nonlin.dF(self.grid.nodes, nodal), nodal)
        delta = self.two_grid.solve(df, -self.residual(iterate), nodal)
        d_delta = df * delta
        A_points = self.rule(d_delta)
        if ft is not None:
            self.steps.append((d_delta, ft, A_points[self.rule.at], K_points[self.fine_rule.at]))
        values_new = A_points + K_points + self.y_points
        return self._iterate(values_new), float(np.max(np.abs(delta)))

    def sample_values(self, ks: range) -> np.ndarray:
        """Iterates ks at the output samples, shape (len(ks), sample_count)."""
        off = np.empty((len(ks), self.samples.off.size))
        later = ks
        if ks[0] == 0:
            off[0] = self.phi0_off
            later = ks[1:]
        if len(later) and off.shape[1]:
            s = self.samples.off_points
            d_delta, ft, nodal, fine_nodal = zip(*self.steps[later[0] - 1 : later[-1]])
            off[len(ks) - len(later) :] = (
                self.rule.nodal.read(s, d_delta, nodal)
                + self.fine_rule.nodal.read(s, ft, fine_nodal)
                + self.samples.y_off
            )
        return self.samples.values(ks, off)

    def result(self, iterate, sample_values) -> SampledFunction:
        return self.samples.result(iterate[0], sample_values)


# Panels of the coarse grid. On log-sine (L = one, F = sin_pi, x0 =
# 0.80-0.95) at n = 1400-1583, 32 DL solves took 1367 structured applies in
# all with 16 panels, 989 with 32, 866 with 64 and 698 with 128, at about the
# same CPU time on a 2-vCPU host. Against exact steps, 16 and 128 panels
# added a Newton step to 1 and 2 solves, 32 saved one on 1 and 64 kept every
# Newton count. The coarse rows G hold 65^2 numbers. A grid of at most this
# many panels has dense rules (`_nodal_part`), and a dense nodal part of any
# size is its own coarse grid: LU steps on its own (n + 1)^2 rows.
_COARSE_N = 64
# Smallest forcing term: an accepted step's true linear residual is at most
# max(eta |res|, eps |X|) in the max-norm, eta = max(_STEP_RTOL, min(1e-3,
# |res|^2)). On those 32 solves that took 866 applies, against 2162 with
# eta = _STEP_RTOL and no floor, with the same statuses and Newton counts
# and terminal errors of at most 8.9e-16. The forcing term alone
# took 1554 applies and the floor alone 1476; a cap of 1e-2 in place of
# 1e-3, or eta = min(1e-3, 1e-2 |res|), added a Newton step to 2 solves.
_STEP_RTOL = 1e-13
# Two-grid updates before the step falls back to the grid's own LU; an
# update that does not shrink the residual ends the iteration sooner. Where
# the coarse grid resolves the problem a step takes 1-5. On alg beta = 0.7
# at n = 256 (L = one, F = square) the first update already fails to shrink
# it on the coarse grid of 64 panels.
_STEP_MAXITER = 20


class _TwoGrid:
    """The Newton linear step of both solvers: delta with (I - A D) delta = rhs.

    A is the trapezoid rule of a grid at its nodes, ``nodal`` (`_nodal_part`),
    and D = diag(df). With K = A D, a coarse grid of n_c panels with nodes
    tau, the rows G of its dense nodal part and D_c = D interpolated to tau,

        M r = r + K r + R D_c (I - G D_c)^-1 (K r)(tau),

    where (K r)(tau) is K r interpolated to tau and R, the coarse rule at the
    grid nodes, prolongs a coarse correction z (`prolong`): (R D_c z)(t_i) =
    int H(t_i, t) I_c[L(t_i, .) d_c z](t) dt, with I_c the piecewise-linear
    interpolant on tau. A structured nodal part coarsens to n_c = _COARSE_N
    and gives R through its factor (``prolongation``). Each application of M
    solves the coarse system I - G D_c afresh, with solve_dense. When n_c =
    n, G is the matrix of A itself and M the LU solve of I - A D; after a
    miss (the residual stops shrinking, or the coarse system is singular)
    the step becomes that one. A dense nodal part, of any size, starts so,
    with G its own rows.
    """

    def __init__(self, problem: HammersteinProblem, nodal: _Nodal):
        self.problem, self.grid, self.nodal = problem, nodal.grid, nodal
        self._coarsen(self.grid.n if isinstance(nodal, _Dense) else _COARSE_N)

    def _coarsen(self, n_c: int) -> None:
        self.exact = n_c == self.grid.n
        coarse = self.nodal
        if not self.exact:
            coarse = _nodal_part(self.problem, make_grid(self.problem.a, self.problem.b, n_c))
            self.to_grid = self.nodal.prolongation(coarse)
        self.tau = coarse.grid.nodes
        self.G = coarse.matrix()

    def prolong(self, x: np.ndarray) -> np.ndarray:
        """R x at the grid nodes, for x = d_c z at tau."""
        return self.to_grid(x)

    def inverse(self, df, K):
        """M for D = diag(df) at the nodes and K(v) = A D v; one coarse LU
        per application."""
        d_c = np.interp(self.tau, self.grid.nodes, df)
        M = np.eye(self.tau.size) - self.G * d_c[None, :]
        if self.exact:
            # the LU of the Newton matrix itself; the two-grid form would
            # add and cancel terms of size |A D| |r|, and a runaway iterate
            # makes |A D| large
            return lambda r: solve_dense(M, r)

        def apply(r):
            Kr = K(r)
            if not np.isfinite(Kr).all():
                return Kr  # K overflowed: no coarse system to solve
            z = solve_dense(M, np.interp(self.tau, self.grid.nodes, Kr))
            return r + Kr + self.prolong(d_c * z)

        return apply

    def solve(self, df, rhs, X) -> np.ndarray:
        """A two-grid step checked to the accuracy Newton at the iterate X can
        use (see _STEP_RTOL), else an LU step."""

        def K(v):
            return self.nodal(df * v)

        if not self.exact:
            size = np.max(np.abs(rhs))
            eta = max(_STEP_RTOL, min(1e-3, size * size))
            tol = max(eta * size, np.finfo(float).eps * np.max(np.abs(X)))
            try:
                delta = _two_grid_solve(
                    lambda v: v - K(v), self.inverse(df, K), rhs, tol, _STEP_MAXITER
                )
            except SingularSystemError:
                delta = None  # a singular coarse system says nothing about the grid's own
            if delta is not None:
                return delta
            self._coarsen(self.grid.n)
        return self.inverse(df, K)(rhs)


def _linear_interpolation(n_from: int, n_to: int):
    """(index, theta) with (1 - theta) x[index] + theta x[index + 1] the
    linear interpolant, at the nodes of a uniform grid of n_to panels, of
    values x at those of n_from panels on the same interval; theta is
    exactly 0 where two nodes coincide."""
    x = np.arange(n_to + 1) * n_from / n_to
    index = np.minimum(x.astype(int), n_from - 1)
    return index, x - index


def _two_grid_solve(op, precond, b, tol: float, maxiter: int):
    """x with max|b - op(x)| <= tol by x <- x + precond(b - op(x)) from x = 0.

    At least one update is made, so a step at the rounding floor is noise,
    not zero, as an LU step is. Every residual measured is the true one, so a
    returned x is checked. None once the residual fails to shrink (a NaN one
    never shrinks) or after maxiter updates. The tolerance is tested first: a
    zero b gives a zero residual, which is met and does not shrink. An x that
    is not finite (precond overflowed) is returned at once: its step is not
    finite, and the Newton driver ends the solve as diverged (`_record`).
    """
    x, r = np.zeros_like(b), b
    size = np.max(np.abs(r))
    for _ in range(maxiter):
        x = x + precond(r)
        if not np.isfinite(x).all():
            return x
        r = b - op(x)
        last, size = size, np.max(np.abs(r))
        if size <= tol:
            return x
        if not size < last:
            return None
    return None


def _newton(disc, settings: _NewtonSettings, report: SolveReport, phi0):
    """The Newton loop of both solvers over one discretization ``disc``.

    ``disc`` provides start(phi0) -> iterate, step(iterate) -> (iterate,
    step_norm), residual(iterate) -> its residual vector, samples (its _Samples),
    sample_values(ks) -> the values of the recorded iterates ks at the
    output samples, and result(iterate, sample_values) -> SampledFunction.
    The loop stops when the step norm drops to settings.tol ("converged") or
    after settings.max_iter steps ("max_iter", not fatal). A numerically
    singular linear system ("singular") or a non-finite residual or step norm
    ("diverged") raises SingularOperatorError carrying the partial report. A
    linear system that fails after the residual norm grew at each of the last
    two recorded iterations is reported as "diverged": the iterate ran away,
    and the singular matrix is a symptom of that.

    No step reads the output samples, so they are read once, after the loop
    and before a partial report is raised: the records' true errors, and the
    values of the returned function. Record wall times exclude that pass.

    Overflow and invalid operations raise no warning here, also where
    warnings are errors: an iterate that overflows is caught by the finite
    checks above (a non-finite norm, or a two-grid step that misses), which
    give it its status.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            iterate = _iterations(disc, settings, report, phi0)
        except SingularOperatorError:
            _read_samples(disc, report, last=False)
            raise
        return disc.result(iterate, _read_samples(disc, report, last=True)), report


def _iterations(disc, settings: _NewtonSettings, report: SolveReport, phi0):
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
    return iterate


def _read_samples(disc, report: SolveReport, last: bool):
    """Fills every record's true error from its iterate's values at the
    output samples, when the problem has an exact solution, and returns the
    last iterate's values there (None without exact unless ``last``)."""
    count = len(report.records)
    exact = disc.samples.exact
    if exact is None:
        return disc.sample_values(range(count - 1, count))[0] if last else None
    values = disc.sample_values(range(count))
    errors = np.max(np.abs(values - exact), axis=1)
    report.records[:] = [replace(r, true_error=float(e)) for r, e in zip(report.records, errors)]
    return values[-1]


def _record(disc, report: SolveReport, k: int, step_norm, iterate, tic: float) -> None:
    residual_norm = float(np.max(np.abs(disc.residual(iterate))))
    report.records.append(
        IterationRecord(
            k=k,
            step_norm=step_norm,
            residual_norm=residual_norm,
            true_error=None,
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
