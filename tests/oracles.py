"""Reference-value helpers shared by the unit and acceptance tests.

The product-rule weights are checked against their defining integrals,
evaluated by the adaptive engine on the raw hat-function integrands. This
never touches the analytic antiderivative path under test.
"""

import functools

import numpy as np

from hammerstein.quadrature import adaptive_kernel_batch


def oracle_weight_rows(kernel, grid, svals, tol=1e-12):
    """Weight matrix rows from the defining integrals, one row per s.

    Each weight is the sum of up to two hat-ramp integrals over adjacent
    panels; every panel integral is an independent task for the adaptive
    engine so one batched call covers the whole matrix.
    """
    svals = np.atleast_1d(np.asarray(svals, dtype=float))
    nodes, h, n = grid.nodes, grid.h, grid.n
    t_s, t_c, t_d, t_anchor, t_up, t_row, t_col = [], [], [], [], [], [], []
    for si, s in enumerate(svals):
        for j in range(n + 1):
            if j > 0:  # rising ramp on [t_{j-1}, t_j]
                t_s.append(s)
                t_c.append(nodes[j - 1])
                t_d.append(nodes[j])
                t_anchor.append(nodes[j - 1])
                t_up.append(True)
                t_row.append(si)
                t_col.append(j)
            if j < n:  # falling ramp on [t_j, t_{j+1}]
                t_s.append(s)
                t_c.append(nodes[j])
                t_d.append(nodes[j + 1])
                t_anchor.append(nodes[j + 1])
                t_up.append(False)
                t_row.append(si)
                t_col.append(j)
    anchor = np.array(t_anchor)
    up = np.array(t_up)

    def g(t, idx):
        a = anchor[idx]
        return np.where(up[idx], t - a, a - t) / h

    vals = adaptive_kernel_batch(kernel, g, t_s, t_c, t_d, tol=tol)
    W = np.zeros((svals.size, n + 1))
    np.add.at(W, (np.array(t_row), np.array(t_col)), vals)
    return W


def mpmath_kernel_integral(beta, s, c, d, g):
    """int_c^d H(s,t) g(t) dt at the working mpmath precision, for s in [c, d].

    H is log|t - s| (beta None) or |t - s|**-beta. Each side of s is
    substituted as t = s -+ v**q, with q = 2 for log and q = 1 / (1 - beta)
    otherwise, so the integrand in v is q**2 v**(q-1) log(v) g or q g; the
    tanh-sinh rule of mpmath.quad handles what is left at v = 0. g takes and
    returns mpmath numbers. A direct quad of |s - t|**-0.7 split at s was
    off by 2.6e-10.
    """
    import mpmath as mp

    s, c, d = mp.mpf(s), mp.mpf(c), mp.mpf(d)
    q = mp.mpf(2) if beta is None else 1 / (1 - mp.mpf(beta))
    total = mp.mpf(0)
    for sgn, length in ((-1, s - c), (1, d - s)):
        if length <= 0:
            continue
        if beta is None:
            f = lambda v, sgn=sgn: q * q * v ** (q - 1) * mp.log(v) * g(s + sgn * v**q)
        else:
            f = lambda v, sgn=sgn: q * g(s + sgn * v**q)
        # four pieces of equal length in t keep each tanh-sinh panel short
        total += mp.quad(f, [(length * j / 4) ** (1 / q) for j in range(5)])
    return total


def direct_nystrom_solution(problem, grid):
    """Nodal solution of the linear (identity-nonlinearity) discrete system.

    The matrix A[i, j] = w_j(t_i) L(t_i, t_j) is built here from the weight
    rows and L, independently of the solvers' own assembly.
    """
    from hammerstein.linalg import solve_dense
    from hammerstein.quadrature import weight_matrix

    nodes = grid.nodes
    A = weight_matrix(grid, problem.kernel, nodes) * np.asarray(
        problem.L(nodes[:, None], nodes[None, :]), dtype=float
    )
    Y = np.broadcast_to(np.asarray(problem.y(nodes), dtype=float), nodes.shape)
    return solve_dense(np.eye(grid.n + 1) - A, Y)


def dense_fine_operator(problem, points, n_fine, ft):
    """LD's fine operator values at ``points`` from F at the fine nodes.

    The product Simpson rule on N = n_fine panels: the full dense matrix
    W_j(points[i]) L(points[i], t_j), with W_j the integral of H against the
    piecewise-quadratic Lagrange basis function of node j (on the panel pairs
    [t_2g, t_2g+2]), each piece a task of the adaptive engine. No Toeplitz or
    low-rank structure and no closed form is used.
    """
    from hammerstein import make_grid

    kernel = problem.kernel
    points = np.asarray(points, dtype=float)
    if kernel.kind == "smooth":
        W = _simpson_weight_rows(kernel, problem.a, problem.b, n_fine, points)
    else:
        W = _cached_simpson_rows(
            kernel.kind, kernel.beta, problem.a, problem.b, n_fine, points.tobytes()
        )
    nodes = make_grid(problem.a, problem.b, n_fine).nodes
    return (W * np.asarray(problem.L(points[:, None], nodes[None, :]), dtype=float)) @ ft


@functools.lru_cache(maxsize=16)
def _cached_simpson_rows(kind, beta, a, b, n_fine, points):
    from hammerstein import algebraic_kernel, log_kernel

    kernel = log_kernel() if kind == "log" else algebraic_kernel(beta)
    return _simpson_weight_rows(kernel, a, b, n_fine, np.frombuffer(points))


def _simpson_weight_rows(kernel, a, b, n_fine, points):
    from hammerstein import make_grid

    grid = make_grid(a, b, n_fine)
    groups = n_fine // 2
    # task (i, g, r): point i, panel pair g, Lagrange basis function r of the
    # pair's nodes t_2g, t_2g+1, t_2g+2
    i, g, r = (x.ravel() for x in np.meshgrid(
        np.arange(points.size), np.arange(groups), np.arange(3), indexing="ij"
    ))
    s, lo, hi = points[i], grid.nodes[2 * g], grid.nodes[2 * g + 2]
    if kernel.kind != "smooth":
        # H depends on t - s alone: integrating in t - s keeps the engine's
        # nodes near s free of the rounding of s itself, which at 1e-13 h
        # would stay above the tolerance for alg 0.7 at s >= 0.5
        s, lo, hi = np.zeros_like(s), lo - s, hi - s

    # the basis functions in x = 2 (t - t_2g) / (t_2g+2 - t_2g), expanded:
    # (x - 1)(x - 2) / 2, x (2 - x) and x (x - 1) / 2
    c0, c1, c2 = np.array([[1.0, 0.0, 0.0], [-1.5, 2.0, -0.5], [0.5, -1.0, 0.5]])[:, r]
    scale = 2.0 / (hi - lo)

    def basis(t, idx):
        x = (t - lo[idx]) * scale[idx]
        return c0[idx] + x * (c1[idx] + x * c2[idx])

    vals = adaptive_kernel_batch(kernel, basis, s, lo, hi, tol=1e-13 * grid.h)
    W = np.zeros((points.size, n_fine + 1))
    np.add.at(W, (i, 2 * g + r), vals)
    return W


def profile_tables_by_task(smooth, svals, c, d, q):
    """The adaptive engine's profile table, built task by task.

    Mirrors the documented layout: per task a direct profile over [c, d], or
    a left (sgn -1) then a right (sgn +1) profile in v = |t - s|**q from 0;
    empty profiles dropped. Returns (kind, s, sgn, task, lo, hi) per profile
    (kind 0 direct, 1 power).
    """
    profiles = []

    def add(kind, s, sgn, task, lo, hi):
        if hi > lo:
            profiles.append((kind, s, sgn, task, lo, hi))

    for i, (s, ci, di) in enumerate(zip(svals, c, d)):
        if smooth or not ci <= s <= di:
            add(0, s, 1.0, i, ci, di)
            continue
        if s > ci:
            add(1, s, -1.0, i, 0.0, (s - ci) ** q)
        if s < di:
            add(1, s, 1.0, i, 0.0, (di - s) ** q)
    return tuple(np.array(col) for col in zip(*profiles))


def frozen_problem(problem, x):
    """``problem`` with F frozen at x, F(t, u) := F(t, x(t)) with dF = 0, and y = 0.

    One Newton step of either solver from any start then returns exactly its
    integral operator applied to x, at every point where the solver reports
    values. x is called at every point the operator reads.
    """
    from hammerstein import FUNCTIONS, HammersteinProblem, Nonlinearity

    F = problem.nonlin.F
    frozen = Nonlinearity(
        "frozen",
        lambda t, u: np.asarray(F(t, x(t)), dtype=float),
        lambda t, u: np.zeros(np.broadcast(t, u).shape),
    )
    return HammersteinProblem(
        problem.a, problem.b, problem.kernel, problem.L, frozen, FUNCTIONS["zero"]
    )


def solver_operator(problem, x, settings, n=7):
    """The integral operator that ld_solve runs, applied to x at its evaluation points.

    One Newton step on frozen_problem(problem, x) returns the operator values
    at every point of the solver's evaluation set (the nodes of an n-panel
    grid, the output samples and, in fine mode, the fine nodes); subtract
    mode never interpolates x. Returns a SampledFunction of those points and
    values.
    """
    from dataclasses import replace

    from hammerstein import ld_solve, make_grid

    linear = frozen_problem(problem, x)
    fn, _ = ld_solve(linear, make_grid(problem.a, problem.b, n), replace(settings, max_iter=1))
    return fn


def subtraction_reference(problem, points, values):
    """Subtract-mode operator values at ``points``, one point at a time.

    For each s: panels between the distinct edges a, s - (s - a) 2^-k and
    s + (b - s) 2^-k for k = 0..46, and b, clipped to [a, b]; 16
    Gauss-Legendre nodes per panel; the iterate read at the nodes by
    np.interp over (points, values); the integral of H (g - g(s)) over the
    nodes other than s itself, plus g(s) times the exact integral of H over
    [a, b], with g = L F. Returns the values and the list of each point's
    nodes.
    """
    from hammerstein import moment0

    kernel, L, F = problem.kernel, problem.L, problem.nonlin.F
    a, b = problem.a, problem.b
    x, w = np.polynomial.legendre.leggauss(16)
    off = 2.0 ** (-np.arange(47.0))
    out, node_rows = [], []
    for s in points:
        edges = np.concatenate([[a], s - (s - a) * off, s + (b - s) * off, [b]])
        edges = np.unique(np.clip(edges, a, b))
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        t = (mid[:, None] + half[:, None] * x).ravel()
        pos = t != s
        hv = np.zeros_like(t)
        hv[pos] = np.asarray(kernel.evaluate(s, t[pos]), dtype=float)
        # L(s, s) and F(s, x(s)) on length-1 arrays, as the plan reads them:
        # on numpy scalars u**2 calls libm pow, which can land one ulp away
        s1 = np.array([s])
        xs = np.interp(s1, points, values)
        gs = (np.asarray(L(s1, s1), dtype=float) * np.asarray(F(s1, xs), dtype=float))[0]
        g = np.asarray(L(s, t), dtype=float) * np.asarray(F(t, np.interp(t, points, values)))
        diff = g - gs
        diff[~pos] = 0.0
        total = 0.0
        for term in diff * (hv * (half[:, None] * w).ravel()):  # in node order
            total += term
        out.append(total + gs * moment0(kernel, s, a, b))
        node_rows.append(t)
    return np.array(out), node_rows


def smooth_in_s(L, t, V):
    """The smoothness criterion of the structured product rules, evaluated
    apart from the cross factor that carries it: L is smooth enough in s, at
    the spacing of the nodes t, for precorrected interpolation when the
    remainder of interpolation on _STENCIL nodes, estimated from the
    _STENCIL-th differences of L's pivot columns L(t, t_j), j = argmax
    |V_k|, is at most _SMOOTH_TOL max|L| there. The columns are evaluated
    again, in blocks of at most _ROW_BLOCK entries."""
    from hammerstein.newton_ld import (
        _REMAINDER,
        _ROW_BLOCK,
        _SMOOTH_TOL,
        _STENCIL,
        _L_values,
    )

    pivots = np.argmax(np.abs(V), axis=1)
    step = max(1, _ROW_BLOCK // t.size)
    rough = scale = 0.0
    for c in range(0, pivots.size, step):
        cols = _L_values(L, t, t[pivots[c : c + step]])
        scale = max(scale, np.max(np.abs(cols)))
        rough = max(rough, np.max(np.abs(np.diff(cols, _STENCIL, axis=0))))
    return _REMAINDER * rough <= _SMOOTH_TOL * scale
