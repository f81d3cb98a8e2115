"""Product-integration quadrature for weakly singular kernels.

Weight vectors integrate the singular factor H exactly against the
piecewise-linear hat basis on a grid (product trapezoid) or, with
``simpson``, against the piecewise-quadratic Lagrange basis on pairs of
panels (product Simpson). Every row, of either rule and any kernel, is
built from the moments of H on each panel: midpoint expansions far from s,
which keep each weight to a few eps, the closed-form antiderivatives near
s, and folded Gauss-Legendre panels for a smooth H, scaled so that H == 1
gives the trapezoid weights exactly.
`SubtractionPlan` evaluates the integral operator by singularity
subtraction with graded Gauss panels (the LD solver's subtract mode). Its
`apply` takes the iterate's values at the plan's own points and reads them
at the Gauss nodes piecewise linearly, with np.interp; it holds one weight
per node, laid out node row (panel x Gauss node) x point, and build and
apply run in blocks of node rows of at most 8192 nodes, so no temporary
leaves the heap for a fresh mmap. Its panels are graded only as deep as the
kernel's singularity makes the innermost one matter at eps. Each point's
terms are added one after another in node order, carried from block to
block, which keeps every value bitwise what a per-point loop gives.
On a uniform grid the log and alg weight rows at the grid nodes depend only
on j - i within each parity of j, apart from the two boundary columns; the
structured product rules of newton_ld (LD's fine-mode Simpson rule among
them) are built from a few such rows and two one-node windows of the
panel moments instead of the full matrix.

An independent adaptive engine (`adaptive_kernel_batch`) supplies reference
values for tests and manufactured right-hand sides. It never touches the
analytic antiderivatives: singular integrands are tamed by an exact change
of variable t = s +- v**p at t = s (p = 6 for log, p >= 4 with a polynomial
weight for alg), and then refined by interval halving on the Gauss-Kronrod
10/21 pair of QUADPACK (Piessens et al., 1983). Each interval's error is
|K21 - G10|, but at least one rounding unit of its integral of |f|; a task
whose summed floor stays above its tolerance fails at once. A batch is laid
out as profiles, one change of variable each (a left and a right one for a
task whose singular point lies in its range, a direct one otherwise), each
the starting interval of its refinement. The table is built with array
operations, every refinement round treats the whole batch at once, and a
task's value does not depend on the rest of its batch. The embedded error
estimate is trusted only where g is smooth: a caller whose g has kinks
splits [c, d] at them into tasks of its own and sums their values.
"""

from __future__ import annotations

import math

import numpy as np

from .problem import (
    KERNEL_ALG,
    KERNEL_LOG,
    KERNEL_SMOOTH,
    Grid,
    HammersteinProblem,
    SingularKernel,
    make_grid,
)

# Distances below this are treated as coincident with the singular point;
# the antiderivative limits there are exactly zero.
_TINY = 1e-300


class QuadratureConvergenceError(RuntimeError):
    """Adaptive refinement exhausted its budget above the requested tolerance."""


# ---------------------------------------------------------------------------
# analytic antiderivatives and moments


def _antiderivs(kernel: SingularKernel, u: np.ndarray, orders: int = 3):
    """Antiderivatives of H, u H and u^2 H at offsets u = t - s, each 0 at u = 0:
    u (log|u| - 1), u^2 (log|u| / 2 - 1/4) and u^3 (log|u| / 3 - 1/9) for log,
    sign(u) |u|^(k - beta) / (k - beta) for alg, k = 1, 2, 3 (no sign at k = 2);
    with ``orders`` = 2 the first two (the third takes a pow per entry). Each
    is built in place from |u|; u is not modified. For log |u| is raised to
    _TINY, one log per entry: u times the finite log(_TINY) is the exact 0 at
    u = 0. For alg each power of |u| is its own: |u|^(2 - beta) as |u|^(1 -
    beta) |u| carries one more rounding, which the near-field moments of
    `_panel_moments` magnify: it moves alg 0.3 weights by up to 12 eps of
    max|w| (trapezoid) and 49 eps (Simpson).
    """
    f0 = np.abs(u)
    if kernel.kind == KERNEL_LOG:
        lg = np.log(np.maximum(f0, _TINY, out=f0), out=f0)
        out = [lg, lg * 0.5]
        out[1] -= 0.25
        out[1] *= np.square(u)
        if orders > 2:
            out.append(lg / 3.0)
            out[2] -= 1.0 / 9.0
            out[2] *= u**3
        lg -= 1.0
        lg *= u
        return out
    beta = kernel.beta
    out = [f0, f0 ** (2.0 - beta)]
    out[1] /= 2.0 - beta
    sign = np.sign(u)
    if orders > 2:
        out.append(f0 ** (3.0 - beta) * sign)
        out[2] /= 3.0 - beta
    np.power(f0, 1.0 - beta, out=f0)
    f0 *= sign
    f0 /= 1.0 - beta
    return out


# 16-point Gauss-Legendre on [-1, 1], ascending: folded about each panel
# midpoint for the moments of a smooth H, and the rule of SubtractionPlan's
# graded panels
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def moment0(kernel: SingularKernel, s: float, c: float, d: float) -> float:
    """int_c^d H(s,t) dt, exact for the built-in singular kernels."""
    if not (c <= d):
        raise ValueError(f"need c <= d, got c={c}, d={d}")
    if c == d:
        return 0.0
    return float(_moment0(kernel, np.array([float(s)]), c, d)[0])


def _moment0(kernel: SingularKernel, svals: np.ndarray, c: float, d: float) -> np.ndarray:
    """int_c^d H(s,t) dt at every point s, for c < d: the antiderivative
    difference for log and alg, the moments of 8 equal panels for a smooth H."""
    if kernel.kind == KERNEL_SMOOTH:
        first = np.zeros(svals.size, dtype=int)
        return 2.0 * _panel_moments(make_grid(c, d, 8), kernel, svals, first, 8)[0].sum(axis=1)
    f = _antiderivs(kernel, np.stack([c - svals, d - svals]), orders=2)[0]
    return f[1] - f[0]


# ---------------------------------------------------------------------------
# product-rule weights


def weight_matrix(grid: Grid, kernel: SingularKernel, svals, simpson: bool = False) -> np.ndarray:
    """Rows of product-rule weights, one row per evaluation point.

    Row i holds the n+1 weights that integrate H(svals[i], t) against the
    piecewise-linear interpolant on the grid (product trapezoid) or, with
    ``simpson``, against the piecewise-quadratic one on the panel pairs
    [t_2g, t_2g+2] (product Simpson; n must be even).
    """
    svals = np.atleast_1d(np.asarray(svals, dtype=float))
    if simpson and grid.n % 2:
        raise ValueError(f"the Simpson rule needs an even panel count, got {grid.n}")
    start = np.zeros(svals.size, dtype=int)
    return _window_weight_rows(grid, kernel, svals, start, grid.n + 1, simpson)


# Panels whose midpoint m lies within _NEAR_PANELS panel widths of s get
# their moments from the closed-form antiderivatives, which lose at most
# about (|m| / h)^3 eps of them to cancellation there; the others get the
# midpoint expansions in z = h / (2m), |z| <= 1/8, cut after z^(2 _TERMS),
# whose omitted terms are below 1e-16 of the leading one. Far from s the
# expansions keep every moment to a few eps, where differences of the
# antiderivatives lose (|m| / h)^2 eps or more: trapezoid rows so built were
# 2.2e5 eps of max|w| off at 1024 panels (log, s = 0.0007).
_NEAR_PANELS = 4.0
_TERMS = 8


def _panel_moments(
    grid: Grid, kernel: SingularKernel, svals: np.ndarray, first, count: int, orders: int = 3
):
    """Scaled moments (M0 / 2, M1 / h, M2 / (2 h^2)) of H on the ``count``
    panels from ``first`` (one panel index per point); with ``orders`` = 2
    the first two (a trapezoid row needs no more). A panel past the ends
    gets finite moments that are not the grid's: a far one is the grid
    continued, but a near one (within _NEAR_PANELS widths of s) gets the end
    panel's closed forms, and for a smooth H the end panel's nodes, so that
    H is read on [a, b] alone. That is harmless only because
    `_window_weight_rows` zeroes every such panel.

    For panel j with midpoint c_j and half-width r = h/2, M0 = int H,
    M1 = int H (t - c_j) and M2 = int H ((t - c_j)^2 - r^2), each over
    [t_j, t_{j+1}]; one row per point s, shape (s.size, count). An entry
    does not depend on the others asked for. Far from s, with m = c_j - s,
    z = r / m and k over the even (M0, M2) or odd (M1) integers:

        log: M0 = 2r (log|m| - sum z^k / (k (k+1))),
             M1 = r^2 sum 2 z^k / (k (k+2)),
             M2 = r^3 (-4/3 log|m| + sum 4 z^k / (k (k+1) (k+3)));
        alg: with b_k = binom(-beta, k) and P = |m|^-beta,
             M0 = 2r P sum b_k z^k / (k+1),
             M1 = r^2 P sum 2 b_k z^k / (k+2),
             M2 = -r^3 P sum 4 b_k z^k / ((k+1) (k+3)),

    from the expansions of log(1 + z y) and (1 + z y)^-beta on t = c_j + r y.
    Near s they are combinations of the antiderivatives of u^k H, k <= 2. A
    smooth H takes 16-point Gauss-Legendre panels folded about c_j, with M0
    divided by the rule's own value for H == 1, so that a constant H has an
    exact M0.
    """
    h = grid.h
    r = 0.5 * h
    # a + h (j + 0.5), in place
    mid = first[:, None] + (np.arange(count) + 0.5)
    mid *= h
    mid += grid.a
    if kernel.kind == KERNEL_SMOOTH:
        np.clip(mid, 0.5 * h + grid.a, (grid.n - 0.5) * h + grid.a, out=mid)
        # einsum sums each row on its own in one fixed order, so for H == 1
        # the sum and its norm are the same double, and a is r to the bit
        xp, wp = _GL_X[8:], _GL_W[8:]
        hp = np.asarray(kernel.func(svals[:, None, None], mid[..., None] + r * xp), dtype=float)
        hm = np.asarray(kernel.func(svals[:, None, None], mid[..., None] - r * xp), dtype=float)
        both = hp + hm
        a = np.einsum("ijk,k->ij", both, wp)
        a /= np.einsum("ijk,k->ij", np.full((1, 1, xp.size), 2.0), wp)
        a *= r
        return (
            a,
            np.einsum("ijk,k->ij", hp - hm, wp * xp) * (r * r / h),
            np.einsum("ijk,k->ij", both, wp * (xp**2 - 1.0)) * (0.125 * r),
        )[:orders]
    # mid is this call's own: its memory takes m
    m = np.subtract(mid, svals[:, None], out=mid)
    am = np.abs(m)
    near = am < _NEAR_PANELS * h
    # node offsets t - s, which are exactly 0 where s is a node: near s the
    # alg antiderivative |u|^(1 - beta) magnifies any rounding of them
    row, col = np.nonzero(near)
    col = np.minimum(np.maximum(first[row] + col, 0), grid.n - 1)
    u0 = grid.nodes[col] - svals[row]
    u1 = grid.nodes[col + 1] - svals[row]
    # their closed forms, before the far-field arrays exist (the temporaries
    # of _antiderivs would add to those)
    f = _antiderivs(kernel, np.concatenate([u0, u1]), orders)
    d = [fk[u0.size :] - fk[: u0.size] for fk in f]
    del f
    # the Taylor coefficients of the three scaled moments by power of z^2,
    # before the last factor (z^2, or z for M1) and the leading terms
    k = np.arange(1, 2 * _TERMS + 1.0)
    if kernel.kind == KERNEL_LOG:
        c0, c1, c2 = -r / (k * (k + 1.0)), r / (k * (k + 2.0)), 0.5 * r / (k * (k + 1.0) * (k + 3.0))
    else:
        binom = np.cumprod(-(kernel.beta + k - 1.0) / k)  # binom(-beta, k)
        c0, c1 = r * binom / (k + 1.0), r * binom / (k + 2.0)
        c2 = -0.5 * r * binom / ((k + 1.0) * (k + 3.0))
    # near panels, |z| up to inf, get their closed forms below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z = np.divide(r, m, out=m)
        z2 = np.square(z)
        series = _horner([c0[1::2], c1[0::2], c2[1::2]][:orders], z2)
        a, b = series[0], series[1]
        c = series[2] if orders > 2 else None
        a *= z2
        b *= z
        if c is not None:
            c *= z2
        if kernel.kind == KERNEL_LOG:
            lead = np.log(am, out=am)
            lead *= r
            a += lead
            if c is not None:
                lead *= -1.0 / 6.0
                c += lead
        else:
            lead = np.power(am, -kernel.beta, out=am)
            a += r
            a *= lead
            b *= lead
            if c is not None:
                c -= r / 6.0
                c *= lead
    a[near] = 0.5 * d[0]
    b[near] = (d[1] - 0.5 * (u0 + u1) * d[0]) / h
    if c is not None:
        c[near] = (d[2] - (u0 + u1) * d[1] + u0 * u1 * d[0]) / (2.0 * h * h)
    return tuple(series)


def _horner(coefs, x: np.ndarray) -> np.ndarray:
    """sum_i coef[i] x^i for each coef in coefs, shape (len(coefs),) +
    x.shape. Each series runs on its own: an in-place operation that
    broadcasts over the stack allocates a temporary of the whole stack."""
    out = np.empty((len(coefs),) + x.shape)
    for series, coef in zip(out, coefs):
        series.fill(coef[-1])
        for c in coef[-2::-1]:
            series *= x
            series += c
    return out


def _window_weight_rows(grid, kernel, svals, start, size, simpson=False):
    """Trapezoid weights w_j(s) of the ``size`` nodes j = start .. start +
    size - 1 of each point s (one start per point, 0 <= start <= n + 1 -
    size), from the moments of the size + 1 panels around them alone. With
    ``simpson`` the Simpson weights of a window of whole panel pairs (every
    start even, size odd), from the moments of the size + 3 panels of the
    pairs that touch it. A window is the columns of the whole window (start
    0, size n + 1) to the bit.

    With the scaled moments a, b, c of each panel, its trapezoid part gives
    a - b to its left node and a + b to its right one (the hat ramps over
    h); the Simpson rule adds mu_g = c_2g + c_2g+1 times (1, -2, 1) at
    columns 2g, 2g + 1, 2g + 2, which is b - mu on panel 2g and b + mu on
    panel 2g + 1."""
    # p panels each side beyond the nodes' own: one, or a whole pair
    p = 2 if simpson else 1
    moments = _panel_moments(
        grid, kernel, svals, start - p, size - 1 + 2 * p, orders=3 if simpson else 2
    )
    # a panel beyond the ends adds an exact 0 to the end node's one-sided sum
    for cols, beyond in ((slice(0, p), start == 0), (slice(-p, None), start + size - 1 == grid.n)):
        for moment in moments:
            moment[beyond, cols] = 0.0
    a, b = moments[:2]
    if simpson:
        mu = np.add(moments[2][:, 0::2], moments[2][:, 1::2])
        b[:, 0::2] -= mu
        b[:, 1::2] += mu
        a, b = a[:, 1:-1], b[:, 1:-1]
    w = np.add(a[:, :-1], a[:, 1:])
    w += b[:, :-1]
    w -= b[:, 1:]
    return w


def product_weights(grid: Grid, kernel: SingularKernel, s: float) -> np.ndarray:
    """Weight row w_j(s), one weight per grid node, at a point s in [a, b]."""
    s = float(s)
    if not (grid.a <= s <= grid.b):
        raise ValueError(f"s={s} outside [{grid.a}, {grid.b}]")
    return weight_matrix(grid, kernel, [s])[0]


# ---------------------------------------------------------------------------
# operator evaluation by singularity subtraction (the LD solver's subtract mode)

# A plan grades each side of a point s down to the first level K whose
# innermost panel, of width w = d 2^-K (d = s - a or b - s), holds a share
# of at most _GRADE_TOL eps: the integral of |H| |t - s| over [s, s + w]
# relative to that over [s, s + d], (w / d)^(2 - beta) for H = |s - t|^-beta,
# (w / d)^2 |log(w / d)| for log|s - t| and (w / d)^2 for a bounded H. The 16
# Gauss nodes of that panel miss at most 1.2e-4 of its integral of
# H (g - g(s)) (t^(1 - beta) and t log t on [0, 1], beta <= 0.9), so the
# levels left out move no value by more than 1 eps max|value| on smooth
# iterates: the move against 46 levels falls by 2^(2 - beta) a level at
# shallower depths and, extrapolated, is 0.003-0.4 eps at K. K = 26 for log,
# 26-29 for the alg beta of 0.2-0.4 of nsweep_subtract, 36 at beta 0.7 and
# 42 at 0.9.
_GRADE_TOL = 64
# From level 53 on, d 2^-k is at most an ulp of s for a point with |s| >= d:
# the edges of successive levels round together and the panels between
# them are held empty, so no plan grades deeper than 52 levels
_GRADE_CAP = 52


def _grade_levels(kernel: SingularKernel) -> int:
    """Dyadic levels per side of a SubtractionPlan for the kernel H."""
    beta = kernel.beta if kernel.kind == KERNEL_ALG else 0.0
    for levels in range(1, _GRADE_CAP):
        w = 2.0**-levels
        share = w ** (2.0 - beta) * (-math.log(w) if kernel.kind == KERNEL_LOG else 1.0)
        if share <= _GRADE_TOL * _EPS:
            return levels
    return _GRADE_CAP


# Nodes per block of a SubtractionPlan's build and apply, at most. Whole-plan
# temporaries (1.3M nodes and about 10 MB each over the four plans of an
# nsweep_subtract sweep at 46 levels) came from fresh mmaps on every apply
# and build: 41-52k page faults per op. Blocks of 8192 nodes keep each
# temporary at 64 kB, under glibc's initial 128 kB mmap threshold, as
# _REF_BLOCK does. A block is a run of node rows (panel x Gauss node) of a
# run of points: 31 rows of 257 points, where blocks of one whole panel (16
# rows) used half of the budget and took twice the blocks. The plan holds 8
# bytes per node (weights). A warm 257-point plan (alg 0.3, exp_st,
# F = 0.15 u^2; 28 levels, 59 panels, 243k nodes, 1.94 MB of weights)
# builds in 3.4-3.9 ms and applies in 2.8-3.1 ms (medians of 41 over 8 runs,
# one BLAS thread, 2-vCPU Xeon host), against 5.9-6.4 ms and 4.8-5.0 ms at 46
# levels (95 panels, 391k nodes, 3.1 MB) with one panel per block.
_PLAN_BLOCK = 8192


class SubtractionPlan:
    """Precomputed node weights for singularity-subtraction evaluation.

    For each plan point s the integral of H*(g - g(s)) is done by composite
    Gauss-Legendre on panels graded toward t = s, and g(s)*moment0 is added
    back, with g = L F(t, x(t)). The panels of s lie between the sorted
    distinct edges a, s - (s - a) 2^-k, s + (b - s) 2^-k (k = 0..levels)
    and b, each clipped to [a, b]; `levels` is the depth the kernel needs
    (`_grade_levels`). The plan points `svals` are also where the plan reads
    the iterate x: `apply` takes x at svals and reads it at the Gauss nodes
    piecewise linearly, with np.interp(t, svals, values).

    `weights` is node-major: node row (panel x Gauss node) x point, over the
    2 levels + 3 panels between the 2 levels + 4 sorted edges of every
    point. `mid` and `half` (panel x point) hold each panel's midpoint and
    half-width; a panel between repeated edges is held as half = 0 at
    mid = s, so its nodes coincide with s. Per node the plan keeps one
    number, h_w L, where h_w is H times the panel's Gauss weight (0 where
    t == s), and per point `rest`, moment0 less the sum of its h_w: apply
    returns sum h_w L F + g(s) rest, the sum above grouped so that g(s)
    enters once per point. It rebuilds the nodes as mid + half * x, as the
    build made them. Build and apply run over blocks of node rows of a run
    of points, at most _PLAN_BLOCK nodes each, and add each block's terms
    into each point's running sum in node order (`_node_sum`), as a
    per-point loop does. Empty panels add zeros, which change no sum.
    """

    def __init__(self, problem: HammersteinProblem, svals):
        svals = np.atleast_1d(np.asarray(svals, dtype=float))
        a, b = problem.a, problem.b
        if svals.ndim != 1 or svals.size == 0 or not np.all(svals[1:] > svals[:-1]):
            raise ValueError("plan points must be a non-empty, strictly increasing sequence")
        if not (a <= svals[0] and svals[-1] <= b):
            raise ValueError(f"plan points must lie in [{a}, {b}]")
        self.problem = problem
        self.svals = svals
        kernel = problem.kernel
        self.levels = _grade_levels(kernel)
        panels = 2 * self.levels + 3  # graded panels per point, empty ones included
        self.mid = np.empty((panels, svals.size))
        self.half = np.empty((panels, svals.size))
        step = _PLAN_BLOCK // (panels + 1)  # points per table of edges
        for c0 in range(0, svals.size, step):
            s = svals[c0 : c0 + step]
            edges = self._edges(a, b, s, self.levels)
            lo, hi = edges[:, :-1], edges[:, 1:]
            self.mid[:, c0 : c0 + step] = np.where(hi > lo, 0.5 * (lo + hi), s[:, None]).T
            self.half[:, c0 : c0 + step] = (0.5 * (hi - lo)).T
        # the panel and the Gauss node of each node row
        self._panel, self._node = np.divmod(np.arange(panels * _GL_X.size), _GL_X.size)
        self.weights = np.empty((self._panel.size, svals.size))
        h_sum = np.zeros(svals.size)  # each point's sum of h_w so far, in node order
        for rows, cols, t in self._blocks():
            s = svals[cols]
            with np.errstate(divide="ignore"):
                hw = np.asarray(kernel.evaluate(s, t), dtype=float)
            hw[t == s] = 0.0
            hw *= self.half[self._panel[rows], cols] * _GL_W[self._node[rows], None]
            np.multiply(hw, problem.L(s, t), out=self.weights[rows, cols])
            h_sum[cols] = _node_sum(hw, h_sum[cols])
        self.rest = _moment0(kernel, svals, a, b) - h_sum
        self.L_diag = np.asarray(problem.L(svals, svals), dtype=float)

    @staticmethod
    def _edges(a, b, s, levels):
        """Graded panel edges of the points s, one sorted row per point;
        rows hold repeated edges where s is at or near a or b.

        s - (s - a) and s + (b - s) can round past a and b; clipped to
        [a, b], such an edge repeats a or b, so no panel lies outside."""
        off = 2.0 ** (-np.arange(levels + 1.0))
        edges = np.empty((s.size, 2 * off.size + 2))
        edges[:, 0] = a
        edges[:, 1 : off.size + 1] = s[:, None] - (s - a)[:, None] * off
        edges[:, off.size + 1 : -1] = s[:, None] + (b - s)[:, None] * off
        edges[:, -1] = b
        np.clip(edges, a, b, out=edges)
        edges.sort(axis=1)
        return edges

    def _blocks(self):
        """(rows, points, nodes) per block: slices of the node rows and the
        points, and their Gauss nodes t = mid + half * x (row x point). Past
        512 points one panel (16 rows) of all of them exceeds _PLAN_BLOCK,
        so the points are split into near-equal runs, each block at least a
        panel deep."""
        npts, nrows = self.svals.size, self._panel.size
        runs = -(-npts * _GL_X.size // _PLAN_BLOCK)
        width = -(-npts // runs)
        per = _PLAN_BLOCK // width
        for c0 in range(0, npts, width):
            cols = slice(c0, c0 + width)
            for r0 in range(0, nrows, per):
                rows = slice(r0, r0 + per)
                panel = self._panel[rows]
                t = self.half[panel, cols] * _GL_X[self._node[rows], None]
                t += self.mid[panel, cols]
                yield rows, cols, t

    @property
    def t_nodes(self) -> np.ndarray:
        """The Gauss nodes of the non-empty panels, point after point."""
        real = self.half.T > 0
        t = np.multiply.outer(self.half.T[real], _GL_X)
        t += self.mid.T[real][:, None]
        return t.ravel()

    def apply(self, values) -> np.ndarray:
        """Operator values at every plan point from the iterate's values there."""
        nl = self.problem.nonlin
        s = self.svals
        v = np.asarray(values, dtype=float)
        gs = self.L_diag * np.asarray(nl.F(s, v), dtype=float)
        out = np.zeros(s.size)  # each point's sum so far, in node order
        for rows, cols, t in self._blocks():
            ft = np.asarray(nl.F(t, np.interp(t, s, v)), dtype=float)
            out[cols] = _node_sum(self.weights[rows, cols] * ft, out[cols])
        return out + gs * self.rest


def _node_sum(terms, carried):
    """carried plus the rows of terms (node row x point) in node order:
    np.add.reduce adds a 2-D array's rows one after another, but a single
    column pairwise, so one point accumulates instead."""
    terms[0] += carried
    return np.add.reduce(terms, axis=0) if terms.shape[1] > 1 else np.add.accumulate(terms)[-1]


# ---------------------------------------------------------------------------
# adaptive reference quadrature (independent of the analytic weight path)

# QUADPACK's qk21 (Piessens et al., 1983): the 21-point Kronrod nodes on
# [0, 1], descending, with their weights; the nodes at odd positions are the
# 10-point Gauss nodes, and _WG10 holds their Gauss weights. Hard-coded
# because scipy keeps them private, in scipy.integrate, whose import would
# add to every run's start-up time.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG10 = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# the whole rule on [-1, 1], ascending: the Gauss nodes are _GK_X[1::2]
_GK_X = np.concatenate([-_XGK, _XGK[-2::-1]])
_GK_W = np.concatenate([_WGK, _WGK[-2::-1]])
_G10_W = np.concatenate([_WG10, _WG10[::-1]])
_GK_POINTS = _GK_X.size
_EPS = np.finfo(float).eps

# intervals per integrand call in _rule_pair. A whole round of a compare_fine
# reference (17k intervals) made node arrays of 2.9 MB; malloc served them
# from fresh mmaps, so each round page-faulted about 47 MB anew: 100k faults
# and 0.3 s of system time per op on a 2-vCPU host, varying from op to op
# with the allocator's state. Blocks of at most 512 intervals keep every
# temporary within 86 kB (22 kB at 128), below glibc's initial 128 kB mmap
# threshold, so malloc serves them from reused heap memory whatever the
# process freed before (blocks of 2048, 340 kB, took 25-35k faults on a
# 4.3k-point reference). The block also sets the reference's own peak: the
# compare_fine references (489-551 points, seed 5, ops 0-3; best of 5 on a
# 2-vCPU host) peaked at 1.12-1.22 MB over 3.4-4.5 ms with blocks of 512,
# 0.73-0.78 MB over 3.0-3.8 ms with 256, 0.51-0.56 MB over 3.0-3.9 ms with
# 128 and 0.40-0.45 MB over 3.6-7.4 ms with 64, where the per-block numpy
# calls start to show. Only the grouping of the work changes: each
# interval's sums are row-local, so the values come out bit-identical.
_REF_BLOCK = 128

_PROFILE_DIRECT = 0
_PROFILE_POWER = 1  # t = s + sgn * v**p; weight factor per kernel kind

# refinement rounds before a batch is given up as not converging
_MAX_ROUNDS = 600

# t = s +- v**p for the log kernel: the integrand p**2 v**(p-1) log(v) g has
# four continuous derivatives at v = 0. With p = 2 a v log v term is left,
# and halving splits the innermost interval of every profile round after round
_LOG_POWER = 6


def _rule_pair(fun, lo, hi, prof):
    """Gauss-Kronrod 10/21 on a batch of intervals.

    Returns the K21 values, the error estimates |K21 - G10|, and the
    roundoff floors eps * K21(|f|) that bound each error from below: without
    the floor the two rules can round to the same double above the error.
    """
    val = np.empty(lo.size)
    err = np.empty(lo.size)
    floor = np.empty(lo.size)
    for start in range(0, lo.size, _REF_BLOCK):
        sl = slice(start, start + _REF_BLOCK)
        mid = 0.5 * (lo[sl] + hi[sl])
        half = 0.5 * (hi[sl] - lo[sl])
        f = fun(mid[:, None] + half[:, None] * _GK_X, prof[sl])
        # row-local sums: a BLAS f @ w rounds a row differently depending on
        # where it sits in the block, so a point's value would depend on the
        # batch it came in
        k21 = np.einsum("ij,j->i", f, _GK_W)
        g10 = np.einsum("ij,j->i", f[:, 1::2], _G10_W)
        val[sl] = half * k21
        floor[sl] = _EPS * half * np.einsum("ij,j->i", np.abs(f), _GK_W)
        err[sl] = np.maximum(half * np.abs(k21 - g10), floor[sl])
    return val, err, floor


def _adaptive_batch(fun, lo, hi, prof, task_of_prof, tol, max_evals):
    """Interval-halving refinement of a batch of transformed integrals.

    fun(points, profile_ids) evaluates the integrand on an (intervals, nodes)
    block of points, one profile id per interval; profiles group
    intervals that share transform parameters, tasks group profiles whose
    values are summed into one integral. lo, hi and prof are the starting
    intervals, each with hi > lo, and their profiles. tol is absolute, per
    task.

    A task's error is at least the sum of its intervals' roundoff floors,
    which halving does not lower. A task whose floor sum is above tol and
    stopped falling from one round to the next fails at once, without
    spending its evaluation budget.
    """
    n_tasks = tol.size
    if lo.size == 0:
        return np.zeros(n_tasks), np.zeros(n_tasks)
    val, err, floor = _rule_pair(fun, lo, hi, prof)
    evals = _GK_POINTS * np.bincount(task_of_prof[prof], minlength=n_tasks)
    last_floor = np.full(n_tasks, np.inf)
    for _ in range(_MAX_ROUNDS):
        tid = task_of_prof[prof]
        tot_err = np.bincount(tid, weights=err, minlength=n_tasks)
        needy = tot_err > tol
        if not needy.any():
            break
        tot_floor = np.bincount(tid, weights=floor, minlength=n_tasks)
        # an early floor sum can sit above tol and still fall below it as
        # the intervals resolve |f|, so only one that stopped falling fails
        stuck = needy & (tot_floor > tol) & (tot_floor >= last_floor)
        if stuck.any():
            i = np.flatnonzero(stuck)[0]
            raise QuadratureConvergenceError(
                f"roundoff floor {tot_floor[i]:.3g} (eps times the integral of |f|) "
                f"is above the requested tolerance {tol[i]:g}"
            )
        last_floor = tot_floor
        # halving cannot lower a floor, so only the error above it is refined
        excess = err - floor
        task_max = np.zeros(n_tasks)
        np.maximum.at(task_max, tid, excess)
        cand = needy[tid] & (excess > 0.0) & (excess >= 0.25 * task_max[tid])
        mid = 0.5 * (lo + hi)
        cand &= (mid > lo) & (mid < hi)
        if not cand.any():
            raise QuadratureConvergenceError(
                "interval halving stalled above the requested tolerance"
            )
        if np.any(evals[needy] > max_evals):
            raise QuadratureConvergenceError(
                f"evaluation budget ({max_evals}) exhausted above tolerance"
            )
        c_lo = np.concatenate([lo[cand], mid[cand]])
        c_hi = np.concatenate([mid[cand], hi[cand]])
        c_prof = np.concatenate([prof[cand], prof[cand]])
        c_val, c_err, c_floor = _rule_pair(fun, c_lo, c_hi, c_prof)
        evals += _GK_POINTS * np.bincount(task_of_prof[c_prof], minlength=n_tasks)
        lo = np.concatenate([lo[~cand], c_lo])
        hi = np.concatenate([hi[~cand], c_hi])
        prof = np.concatenate([prof[~cand], c_prof])
        val = np.concatenate([val[~cand], c_val])
        err = np.concatenate([err[~cand], c_err])
        floor = np.concatenate([floor[~cand], c_floor])
    tid = task_of_prof[prof]
    tot_err = np.bincount(tid, weights=err, minlength=n_tasks)
    if np.any(tot_err > tol):
        raise QuadratureConvergenceError(
            "adaptive refinement did not reach the requested tolerance"
        )
    sums = np.bincount(tid, weights=val, minlength=n_tasks)
    return sums, tot_err


def adaptive_kernel_batch(
    kernel: SingularKernel,
    g,
    svals,
    c,
    d,
    tol: float = 1e-10,
    max_evals: int = 10**6,
) -> np.ndarray:
    """Reference values of int_c^d H(s,t) g(t) dt for a batch of tasks.

    Each side of a singular point s is integrated in v with t = s +- v**p:
    p = 6 for the log kernel, whose integrand p**2 v**(p-1) log(v) g then
    has four continuous derivatives at v = 0, and p = k / (1 - beta)
    with k = ceil(4 (1 - beta)) for the alg kernel, whose integrand
    p v**(k-1) g is then a polynomial weight times g(s +- v**p), p >= 4.
    Intervals are refined by halving with the Gauss-Kronrod 10/21 pair
    (value K21, error |K21 - G10|, 21 integrand values per interval). An
    interval's error is at least eps times its K21 integral of |f|, the
    roundoff floor that halving cannot lower; only the error above it is
    refined. A task's value is bitwise the same in any batch.

    Each profile starts as one interval, so g must be smooth on each task's
    [c, d]: on an integrand with an interior kink the two Gauss rules can
    agree by accident while both are off. A caller with a kinked g splits
    [c, d] at the kinks into tasks and sums their values.

    Parameters
    ----------
    kernel : SingularKernel
        The singular factor H.
    g : callable
        Smooth part of the integrand, called as ``g(t, task_idx)`` with flat
        arrays; must be vectorized and smooth on each task's [c, d].
    svals, c, d : array_like
        Per-task singular point and integration bounds (scalars broadcast).
    tol : float
        Absolute tolerance per task.
    max_evals : int
        Integrand-evaluation budget per task before reporting failure.

    Raises
    ------
    ValueError
        If some c > d, or tol is not positive.
    QuadratureConvergenceError
        If a task's summed roundoff floor, about eps times int |H g|, is
        above ``tol`` and stopped falling (the message names the floor and
        the tolerance), or if the budget is exhausted before every task
        meets ``tol``.
    """
    svals = np.atleast_1d(np.asarray(svals, dtype=float))
    c = np.broadcast_to(np.asarray(c, dtype=float), svals.shape).astype(float)
    d = np.broadcast_to(np.asarray(d, dtype=float), svals.shape).astype(float)
    if np.any(c > d):
        raise ValueError("need c <= d for every task")
    if not tol > 0:
        raise ValueError("tol must be positive")
    n_tasks = svals.size

    if kernel.kind == KERNEL_LOG:
        power = float(_LOG_POWER)
        weight_power = _LOG_POWER - 1
    elif kernel.kind == KERNEL_ALG:
        # |t - s|**-beta dt = p v**(k-1) dv with p = k / (1 - beta): an integer
        # k >= 4 (1 - beta) makes the weight a polynomial and p >= 4, so
        # g(s +- v**p) has four continuous derivatives at v = 0 even for
        # beta near 0; with k = 1, p = 1 / (1 - beta) is near 1 there, and
        # G10 and K21 can agree while both are off
        weight_power = math.ceil(4.0 * (1.0 - kernel.beta)) - 1
        power = (weight_power + 1) / (1.0 - kernel.beta)
    else:
        power = 1.0
    kind, ps, sgn, task, lo, hi = _profile_table(
        kernel.kind == KERNEL_SMOOTH, svals, c, d, 1.0 / power
    )

    def direct(v, pid):
        t = v.ravel()
        ss = np.repeat(ps[pid], v.shape[1])
        hv = np.asarray(kernel.evaluate(ss, t), dtype=float)
        return (hv * g(t, np.repeat(task[pid], v.shape[1]))).reshape(v.shape)

    def transformed(v, pid):
        t = ps[pid][:, None] + sgn[pid][:, None] * v**power
        gv = g(t.ravel(), np.repeat(task[pid], v.shape[1])).reshape(v.shape)
        # the Kronrod nodes are interior, so v > 0 and log v is finite
        if kernel.kind == KERNEL_LOG:
            return power**2 * v**weight_power * np.log(v) * gv
        return power * v**weight_power * gv

    if np.all(kind == _PROFILE_POWER):
        fun = transformed
    elif np.all(kind == _PROFILE_DIRECT):
        fun = direct
    else:

        def fun(v, pid):
            out = np.empty_like(v)
            m = kind[pid] == _PROFILE_DIRECT
            if m.any():
                out[m] = direct(v[m], pid[m])
            m = ~m
            if m.any():
                out[m] = transformed(v[m], pid[m])
            return out

    tol_arr = np.full(n_tasks, float(tol))
    vals, _ = _adaptive_batch(fun, lo, hi, np.arange(lo.size), task, tol_arr, max_evals)
    return vals


def _profile_table(smooth, svals, c, d, q):
    """Integration profiles of a task batch, in task order.

    A task whose singular point lies in [c, d] gets a left profile
    (t = s - v**(1/q) for v in [0, (s - c)**q]) and then a right one
    (t = s + v**(1/q)), each dropped when empty. Any other task, and every
    task of a smooth kernel, gets one direct profile over [c, d], dropped
    when c == d.

    Returns per-profile (kind, s, sgn, task, lo, hi) arrays, every hi > lo.
    """
    n_tasks = svals.size
    split = (not smooth) & (c <= svals) & (svals <= d)
    # slot 0: direct, 1: left, 2: right; flattening the rows puts the
    # profiles in task order, left before right
    present = np.stack([~split & (c < d), split & (svals > c), split & (svals < d)], axis=1)
    left, right = present[:, 1], present[:, 2]
    lo = np.zeros((n_tasks, 3))
    hi = np.zeros((n_tasks, 3))
    lo[:, 0] = c
    hi[:, 0] = d
    # only present sides are transformed: s - c and d - s are negative elsewhere
    hi[left, 1] = (svals[left] - c[left]) ** q
    hi[right, 2] = (d[right] - svals[right]) ** q
    present &= hi > lo
    slot = np.broadcast_to(np.arange(3), (n_tasks, 3))[present]
    task = np.broadcast_to(np.arange(n_tasks)[:, None], (n_tasks, 3))[present]
    kind = np.where(slot == 0, _PROFILE_DIRECT, _PROFILE_POWER)
    sgn = np.array([1.0, -1.0, 1.0])[slot]
    return kind, svals[task], sgn, task, lo[present], hi[present]


def eval_operator_reference_parts(
    kernel, L, nonlin, x, svals, a, b, tol=1e-10, max_evals: int = 10**6
) -> np.ndarray:
    """Reference values of the integral operator int_a^b H L F(t, x(t)) dt at svals.

    Adaptive quadrature split (and transformed) at t = s, refined until the
    estimated absolute error of each value is at most tol; L(s, .) and
    F(., x(.)) must be smooth on [a, b] (see adaptive_kernel_batch). Raises
    QuadratureConvergenceError when that fails.
    """
    svals = np.atleast_1d(np.asarray(svals, dtype=float))

    def g(t, task_idx):
        ss = svals[task_idx]
        xt = np.asarray(x(t), dtype=float)
        lv = np.asarray(L(ss, t), dtype=float)
        return lv * np.asarray(nonlin.F(t, xt), dtype=float)

    return adaptive_kernel_batch(kernel, g, svals, a, b, tol=tol, max_evals=max_evals)

