"""Product-trapezoidal quadrature for weakly singular kernels.

Weight vectors integrate the singular factor H exactly against the
piecewise-linear hat basis on a grid, using closed-form antiderivatives for
the built-in kernels and folded Gauss-Legendre panels for smooth ones.
`SubtractionPlan` evaluates the integral operator by singularity
subtraction with graded Gauss panels (the LD solver's subtract mode). The
product rule of its fine mode is built in newton_ld from `weight_matrix`
rows. On a uniform grid the log and alg weight rows at the grid nodes depend
only on j - i, apart from the two boundary columns; the LD solver builds its
fine operator from a few such rows instead of the full matrix.

An independent adaptive engine (`adaptive_kernel_batch`) supplies reference
values for tests and manufactured right-hand sides. It never touches the
analytic antiderivatives: singular integrands are tamed by an exact change
of variable at t = s and then refined by interval halving with an embedded
Gauss pair error estimate. A batch is laid out as profiles, one change of
variable each (a left and a right one for a task whose singular point lies in
its range, a direct one otherwise), and the intervals between each profile's
breaks. Both tables are built with array operations, and every refinement
round treats the whole batch at once.
"""

from __future__ import annotations

import numpy as np

from .problem import (
    KERNEL_ALG,
    KERNEL_LOG,
    KERNEL_SMOOTH,
    Grid,
    HammersteinProblem,
    SampledFunction,
    SingularKernel,
)

# Distances below this are treated as coincident with the singular point;
# the antiderivative limits there are exactly zero.
_TINY = 1e-300


class QuadratureConvergenceError(RuntimeError):
    """Adaptive refinement exhausted its budget above the requested tolerance."""


# ---------------------------------------------------------------------------
# analytic antiderivatives and moments


def _antideriv0(kernel: SingularKernel, u: np.ndarray) -> np.ndarray:
    """Antiderivative of H at offset u = t - s, normalized to 0 at u = 0."""
    au = np.abs(u)
    if kernel.kind == KERNEL_LOG:
        out = np.zeros_like(u)
        m = au > _TINY
        out[m] = u[m] * (np.log(au[m]) - 1.0)
        return out
    beta = kernel.beta
    return np.sign(u) * au ** (1.0 - beta) / (1.0 - beta)


def _antideriv1(kernel: SingularKernel, u: np.ndarray) -> np.ndarray:
    """Antiderivative of u*H at offset u = t - s, normalized to 0 at u = 0."""
    au = np.abs(u)
    if kernel.kind == KERNEL_LOG:
        out = np.zeros_like(u)
        m = au > _TINY
        out[m] = u[m] ** 2 * (0.5 * np.log(au[m]) - 0.25)
        return out
    beta = kernel.beta
    return au ** (2.0 - beta) / (2.0 - beta)


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_rule(npts: int) -> tuple[np.ndarray, np.ndarray]:
    if npts not in _GL_CACHE:
        _GL_CACHE[npts] = np.polynomial.legendre.leggauss(npts)
    return _GL_CACHE[npts]


def _smooth_panel_integrals(kernel, s, c, d, tfun, npts=16):
    """Gauss-Legendre value of int_c^d H(s,t) tfun(t) dt for a smooth H.

    Nodes are folded symmetrically about the panel midpoint so that constant
    kernels reproduce hat-function integrals to a couple of ulp.
    """
    x, w = _gl_rule(npts)
    half_n = npts // 2
    xp = x[npts - half_n :]
    wp = w[npts - half_n :]
    mid = 0.5 * (c + d)
    half = 0.5 * (d - c)
    tp = mid[..., None] + half[..., None] * xp
    tm = mid[..., None] - half[..., None] * xp
    vals = kernel.func(s[..., None], tp) * tfun(tp) + kernel.func(s[..., None], tm) * tfun(tm)
    return half * (vals @ wp)


def moment0(kernel: SingularKernel, s: float, c: float, d: float) -> float:
    """int_c^d H(s,t) dt, exact for the built-in singular kernels."""
    _check_subinterval(c, d)
    if c == d:
        return 0.0
    if kernel.kind == KERNEL_SMOOTH:
        edges = np.linspace(c, d, 9)
        lo, hi = edges[:-1], edges[1:]
        vals = _smooth_panel_integrals(kernel, np.full(8, float(s)), lo, hi, lambda t: 1.0)
        return float(np.sum(vals))
    u = np.array([c - s, d - s], dtype=float)
    f = _antideriv0(kernel, u)
    return float(f[1] - f[0])


def _check_subinterval(c, d):
    if not (c <= d):
        raise ValueError(f"need c <= d, got c={c}, d={d}")


# ---------------------------------------------------------------------------
# product-rule weights


def weight_matrix(grid: Grid, kernel: SingularKernel, svals) -> np.ndarray:
    """Rows of product-trapezoidal weights, one row per evaluation point.

    Row i holds the n+1 weights that integrate H(svals[i], t) against the
    piecewise-linear interpolant on the grid.
    """
    svals = np.atleast_1d(np.asarray(svals, dtype=float))
    if kernel.kind == KERNEL_SMOOTH:
        return _smooth_weight_rows(grid, kernel, svals)
    return _analytic_weight_rows(grid, kernel, svals)


def _analytic_weight_rows(grid, kernel, svals):
    nodes = grid.nodes
    u = nodes[None, :] - svals[:, None]
    p0 = _antideriv0(kernel, u)
    p1 = _antideriv1(kernel, u)
    d0 = p0[:, 1:] - p0[:, :-1]
    d1 = p1[:, 1:] - p1[:, :-1]
    # per panel j (spanning [t_j, t_{j+1}]): integrals of H*(t - t_j) and H*(t_{j+1} - t)
    up = d1 - u[:, :-1] * d0
    dn = u[:, 1:] * d0 - d1
    w = np.empty((svals.size, grid.n + 1))
    w[:, 0] = dn[:, 0]
    w[:, -1] = up[:, -1]
    if grid.n > 1:
        w[:, 1:-1] = up[:, :-1] + dn[:, 1:]
    return w / grid.h


def _smooth_weight_rows(grid, kernel, svals, npts=16):
    # hat ramps are formed in panel-local coordinates half*(1 +- xi), and the
    # panel geometry comes from index arithmetic rather than node differences:
    # both t - t_j and t_{j+1} - t_j carry absolute roundoff at the node
    # magnitude, which is dozens of ulp relative to one panel width
    x, wq = _gl_rule(npts)
    half_n = npts // 2
    xp = x[npts - half_n :]
    wp = wq[npts - half_n :]
    half = grid.h / 2.0
    mid = grid.a + grid.h * (np.arange(grid.n) + 0.5)
    tp = mid[:, None] + half * xp  # (panels, fold)
    tm = mid[:, None] - half * xp
    hp = np.asarray(kernel.func(svals[:, None, None], tp[None]), dtype=float)
    hm = np.asarray(kernel.func(svals[:, None, None], tm[None]), dtype=float)
    ramp_p = 1.0 + xp
    ramp_m = 1.0 - xp
    up = (hp * ramp_p + hm * ramp_m) @ wp * half**2
    dn = (hp * ramp_m + hm * ramp_p) @ wp * half**2
    w = np.empty((svals.size, grid.n + 1))
    w[:, 0] = dn[:, 0]
    w[:, -1] = up[:, -1]
    if grid.n > 1:
        w[:, 1:-1] = up[:, :-1] + dn[:, 1:]
    return w / grid.h


def product_weights(grid: Grid, kernel: SingularKernel, s: float) -> np.ndarray:
    """Weight row w_j(s), one weight per grid node, at a point s in [a, b]."""
    s = float(s)
    if not (grid.a <= s <= grid.b):
        raise ValueError(f"s={s} outside [{grid.a}, {grid.b}]")
    return weight_matrix(grid, kernel, [s])[0]


# ---------------------------------------------------------------------------
# operator evaluation by singularity subtraction (the LD solver's subtract mode)

_GRADE_LEVELS = 46  # dyadic panels per side; innermost width ~1e-14 of the side
_PANEL_GAUSS_POINTS = 16  # Gauss-Legendre points per graded panel


class SubtractionPlan:
    """Precomputed node/weight tables for singularity-subtraction evaluation.

    For each point s the integral of H*(g - g(s)) is done by composite
    Gauss-Legendre on panels graded toward t = s, and g(s)*moment0 is added
    back. Geometry-dependent factors are computed once so the plan can be
    reapplied cheaply to successive iterates.
    """

    def __init__(self, problem: HammersteinProblem, svals):
        self.problem = problem
        self.svals = np.atleast_1d(np.asarray(svals, dtype=float))
        a, b = problem.a, problem.b
        x, w = _gl_rule(_PANEL_GAUSS_POINTS)
        t_rows = []
        hw_rows = []
        counts = []
        m0 = np.empty(self.svals.size)
        for i, s in enumerate(self.svals):
            edges = self._edges(a, b, s)
            mid = 0.5 * (edges[:-1] + edges[1:])
            half = 0.5 * (edges[1:] - edges[:-1])
            tn = (mid[:, None] + half[:, None] * x).ravel()
            gw = (half[:, None] * w).ravel()
            dist = np.abs(tn - s)
            hv = np.zeros_like(tn)
            pos = dist > 0.0
            hv[pos] = np.asarray(problem.kernel.evaluate(s, tn[pos]), dtype=float)
            t_rows.append(tn)
            hw_rows.append(hv * gw)
            counts.append(tn.size)
            m0[i] = moment0(problem.kernel, s, a, b)
        self.t_nodes = np.concatenate(t_rows)
        self.h_weights = np.concatenate(hw_rows)
        self.row_of_node = np.repeat(np.arange(self.svals.size), counts)
        self.m0 = m0
        self.L_nodes = np.asarray(
            problem.L(self.svals[self.row_of_node], self.t_nodes), dtype=float
        )
        self.L_diag = np.asarray(problem.L(self.svals, self.svals), dtype=float)
        # mask where the quadrature node coincides with s in floating point:
        # the subtracted integrand has limit zero there
        self.coincident = self.t_nodes == self.svals[self.row_of_node]

    @staticmethod
    def _edges(a, b, s):
        pieces = [np.array([a])]
        if a < s < b:
            off = 2.0 ** (-np.arange(_GRADE_LEVELS + 1.0))
            pieces.append(s - (s - a) * off)
            pieces.append(s + (b - s) * off[::-1])
        elif s == a:
            off = 2.0 ** (-np.arange(_GRADE_LEVELS + 1.0))
            pieces.append(a + (b - a) * off[::-1])
        elif s == b:
            off = 2.0 ** (-np.arange(_GRADE_LEVELS + 1.0))
            pieces.append(b - (b - a) * off)
        else:
            raise ValueError(f"s={s} outside [{a}, {b}]")
        pieces.append(np.array([b]))
        edges = np.unique(np.concatenate(pieces))
        return edges

    def apply(self, values_at) -> np.ndarray:
        """Operator values at every plan point; values_at(t) samples the iterate."""
        nl = self.problem.nonlin
        xt = np.asarray(values_at(self.t_nodes), dtype=float)
        g = self.L_nodes * np.asarray(nl.F(self.t_nodes, xt), dtype=float)
        xs = np.asarray(values_at(self.svals), dtype=float)
        gs = self.L_diag * np.asarray(nl.F(self.svals, xs), dtype=float)
        diff = g - gs[self.row_of_node]
        diff[self.coincident] = 0.0
        sums = np.bincount(
            self.row_of_node, weights=diff * self.h_weights, minlength=self.svals.size
        )
        return sums + gs * self.m0


# ---------------------------------------------------------------------------
# adaptive reference quadrature (independent of the analytic weight path)

_REF_LO = 10
_REF_HI = 21
# intervals per integrand call in _rule_pair. A whole round of a compare_fine
# reference (17k intervals) made node arrays of 2.9 MB; malloc served them
# from fresh mmaps, so each round page-faulted about 47 MB anew: 100k faults
# and 0.3 s of system time per op on a 2-vCPU host, varying from op to op
# with the allocator's state. Blocks of 512 intervals keep every temporary
# near 86 kB, below glibc's initial 128 kB mmap threshold, so malloc serves
# them from reused heap memory whatever the process freed before. Blocks of
# 2048 (340 kB) needed an earlier multi-MB free to raise that threshold: on
# their own, a 4.3k-point reference took 0.40 s and 25-35k faults, against
# 0.28 s and under 2k faults with 512. Only the grouping of the work
# changes: the values come out bit-identical.
_REF_BLOCK = 512

_PROFILE_DIRECT = 0
_PROFILE_POWER = 1  # t = s + sgn * v**p; weight factor per kernel kind


def _rule_pair(fun, lo, hi, prof):
    """Embedded Gauss pair on a batch of intervals; returns (value, error)."""
    xh, wh = _gl_rule(_REF_HI)
    xl, wl = _gl_rule(_REF_LO)
    ih = np.empty(lo.size)
    il = np.empty(lo.size)
    for start in range(0, lo.size, _REF_BLOCK):
        sl = slice(start, start + _REF_BLOCK)
        mid = 0.5 * (lo[sl] + hi[sl])
        half = 0.5 * (hi[sl] - lo[sl])
        ih[sl] = half * (fun(mid[:, None] + half[:, None] * xh, prof[sl]) @ wh)
        il[sl] = half * (fun(mid[:, None] + half[:, None] * xl, prof[sl]) @ wl)
    return ih, np.abs(ih - il)


def _adaptive_batch(fun, lo, hi, prof, task_of_prof, tol, max_evals, max_rounds=600):
    """Interval-halving refinement of a batch of transformed integrals.

    fun(points, profile_ids) evaluates the integrand on an (intervals, nodes)
    block of points, one profile id per interval; profiles group
    intervals that share transform parameters, tasks group profiles whose
    values are summed into one integral. tol is absolute, per task.
    """
    n_tasks = tol.size
    keep = hi > lo
    lo, hi, prof = lo[keep], hi[keep], prof[keep]
    if lo.size == 0:
        return np.zeros(n_tasks), np.zeros(n_tasks)
    val, err = _rule_pair(fun, lo, hi, prof)
    per_interval = _REF_LO + _REF_HI
    evals = per_interval * np.bincount(task_of_prof[prof], minlength=n_tasks)
    for _ in range(max_rounds):
        tid = task_of_prof[prof]
        tot_err = np.bincount(tid, weights=err, minlength=n_tasks)
        needy = tot_err > tol
        if not needy.any():
            break
        task_max = np.zeros(n_tasks)
        np.maximum.at(task_max, tid, err)
        cand = needy[tid] & (err >= 0.25 * task_max[tid])
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
        c_val, c_err = _rule_pair(fun, c_lo, c_hi, c_prof)
        evals += per_interval * np.bincount(task_of_prof[c_prof], minlength=n_tasks)
        lo = np.concatenate([lo[~cand], c_lo])
        hi = np.concatenate([hi[~cand], c_hi])
        prof = np.concatenate([prof[~cand], c_prof])
        val = np.concatenate([val[~cand], c_val])
        err = np.concatenate([err[~cand], c_err])
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
    breaks=(),
) -> np.ndarray:
    """Reference values of int_c^d H(s,t) g(t) dt for a batch of tasks.

    Parameters
    ----------
    kernel : SingularKernel
        The singular factor H.
    g : callable
        Smooth part of the integrand, called as ``g(t, task_idx)`` with flat
        arrays; must be vectorized.
    svals, c, d : array_like
        Per-task singular point and integration bounds (scalars broadcast).
    tol : float
        Absolute tolerance per task.
    max_evals : int
        Integrand-evaluation budget per task before reporting failure.
    breaks : array_like
        Known kink locations of g (t coordinates). Intervals never straddle
        a break, which keeps the embedded error estimate trustworthy: on
        integrands with an interior kink the two Gauss rules can agree by
        accident while both are off.

    Raises
    ------
    QuadratureConvergenceError
        If the budget is exhausted before every task meets ``tol``.
    """
    svals = np.atleast_1d(np.asarray(svals, dtype=float))
    c = np.broadcast_to(np.asarray(c, dtype=float), svals.shape).astype(float)
    d = np.broadcast_to(np.asarray(d, dtype=float), svals.shape).astype(float)
    if np.any(c > d):
        raise ValueError("need c <= d for every task")
    n_tasks = svals.size
    breaks = np.unique(np.asarray(breaks, dtype=float)) if len(breaks) else np.empty(0)

    if kernel.kind == KERNEL_LOG:
        power = 2.0
    elif kernel.kind == KERNEL_ALG:
        power = 1.0 / (1.0 - kernel.beta)
    else:
        power = 1.0
    kind, ps, sgn, task, lo, hi, cut_of, cuts = _profile_table(
        kernel.kind == KERNEL_SMOOTH, svals, c, d, breaks, 1.0 / power
    )
    iv_lo, iv_hi, iv_prof = _interval_table(lo, hi, cut_of, cuts)

    def direct(v, pid):
        t = v.ravel()
        ss = np.repeat(ps[pid], v.shape[1])
        hv = np.asarray(kernel.evaluate(ss, t), dtype=float)
        return (hv * g(t, np.repeat(task[pid], v.shape[1]))).reshape(v.shape)

    def transformed(v, pid):
        t = ps[pid][:, None] + sgn[pid][:, None] * v**power
        gv = g(t.ravel(), np.repeat(task[pid], v.shape[1])).reshape(v.shape)
        if kernel.kind == KERNEL_LOG:
            return 4.0 * v * np.log(v) * gv
        return power * gv

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
    vals, _ = _adaptive_batch(fun, iv_lo, iv_hi, iv_prof, task, tol_arr, max_evals)
    return vals


def _profile_table(smooth, svals, c, d, breaks, q):
    """Integration profiles of a task batch, in task order.

    A task whose singular point lies in [c, d] gets a left profile
    (t = s - v**(1/q) for v in [0, (s - c)**q]) and then a right one
    (t = s + v**(1/q)), each dropped when empty. Any other task, and every
    task of a smooth kernel, gets one direct profile over [c, d], dropped
    when c == d. Breaks strictly inside a profile's t range are mapped to
    its v coordinate and returned as cuts, grouped by profile.

    Returns per-profile (kind, s, sgn, task, lo, hi) arrays, then the profile
    of each cut and the cut values.
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
    ps = svals[task]

    # breaks[first:stop] are the breaks strictly inside each profile's t range
    above_c, above_s = np.searchsorted(breaks, np.stack([c, svals]), side="right")
    from_s, from_d = np.searchsorted(breaks, np.stack([svals, d]), side="left")
    first = np.where(slot == 2, above_s[task], above_c[task])
    stop = np.where(slot == 1, from_s[task], from_d[task])
    count = np.maximum(stop - first, 0)
    cut_of = np.repeat(np.arange(task.size), count)
    offset = np.arange(cut_of.size) - np.repeat(np.cumsum(count) - count, count)
    cuts = breaks[first[cut_of] + offset]
    power_cut = kind[cut_of] == _PROFILE_POWER
    owner = cut_of[power_cut]
    cuts[power_cut] = (sgn[owner] * (cuts[power_cut] - ps[owner])) ** q
    return kind, ps, sgn, task, lo[present], hi[present], cut_of, cuts


def _interval_table(lo, hi, cut_of, cuts):
    """Intervals between the sorted distinct edges of every profile.

    Edges are each profile's ends plus its cuts that fall within them; the
    intervals come out grouped by profile in profile order, ascending inside.
    """
    n_prof = lo.size
    edge = np.concatenate([lo, cuts, hi])
    owner = np.concatenate([np.arange(n_prof), cut_of, np.arange(n_prof)])
    keep = (edge >= lo[owner]) & (edge <= hi[owner])
    edge, owner = edge[keep], owner[keep]
    order = np.lexsort((edge, owner))
    edge, owner = edge[order], owner[order]
    distinct = np.ones(edge.size, dtype=bool)
    distinct[1:] = (owner[1:] != owner[:-1]) | (edge[1:] != edge[:-1])
    edge, owner = edge[distinct], owner[distinct]
    inside = owner[1:] == owner[:-1]
    return edge[:-1][inside], edge[1:][inside], owner[:-1][inside]


def eval_operator_reference_parts(
    kernel, L, nonlin, x, svals, a, b, tol=1e-10, max_evals: int = 10**6
) -> np.ndarray:
    """Reference operator values built from problem parts (see eval_operator_reference)."""
    svals = np.atleast_1d(np.asarray(svals, dtype=float))
    breaks = x.points[1:-1] if isinstance(x, SampledFunction) else ()

    def g(t, task_idx):
        ss = svals[task_idx]
        xt = np.asarray(x(t), dtype=float)
        lv = np.asarray(L(ss, t), dtype=float)
        return lv * np.asarray(nonlin.F(t, xt), dtype=float)

    return adaptive_kernel_batch(
        kernel, g, svals, a, b, tol=tol, max_evals=max_evals, breaks=breaks
    )


def eval_operator_reference(
    problem: HammersteinProblem, x, s, tol: float = 1e-10, max_evals: int = 10**6
):
    """High-accuracy reference value of the integral operator at s.

    Adaptive quadrature split (and transformed) at t = s, refined until the
    estimated absolute error is at most tol. Raises
    QuadratureConvergenceError when the evaluation budget is exhausted.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    scalar = np.ndim(s) == 0
    vals = eval_operator_reference_parts(
        problem.kernel,
        problem.L,
        problem.nonlin,
        x,
        np.atleast_1d(np.asarray(s, dtype=float)),
        problem.a,
        problem.b,
        tol=tol,
        max_evals=max_evals,
    )
    return float(vals[0]) if scalar else vals
