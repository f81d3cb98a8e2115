"""Reference-value helpers shared by the unit and acceptance tests.

The product-rule weights are checked against their defining integrals,
evaluated by the adaptive engine on the raw hat-function integrands. This
never touches the analytic antiderivative path under test.
"""

import numpy as np

from hammerstein import adaptive_kernel_batch


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


def direct_nystrom_solution(problem, grid):
    """Nodal solution of the linear (identity-nonlinearity) discrete system.

    The matrix A[i, j] = w_j(t_i) L(t_i, t_j) is built here from the weight
    rows and L, independently of the solvers' own assembly.
    """
    from hammerstein import solve_dense, weight_matrix

    nodes = grid.nodes
    A = weight_matrix(grid, problem.kernel, nodes) * np.asarray(
        problem.L(nodes[:, None], nodes[None, :]), dtype=float
    )
    Y = np.broadcast_to(np.asarray(problem.y(nodes), dtype=float), nodes.shape)
    return solve_dense(np.eye(grid.n + 1) - A, Y)


def dense_fine_operator(problem, points, n_fine, ft):
    """LD's fine operator values at ``points`` from F at the fine nodes.

    The Richardson extrapolation (4 K_N - K_N/2) / 3 of the product rule on
    N = n_fine panels and on the nested grid of N/2 panels, whose nodes are
    the even fine nodes: full dense matrices w_j(points[i]) L(points[i], t_j),
    with no use of Toeplitz or low-rank structure.
    """
    from hammerstein import make_grid, weight_matrix

    def dense(n):
        grid = make_grid(problem.a, problem.b, n)
        return weight_matrix(grid, problem.kernel, points) * np.asarray(
            problem.L(points[:, None], grid.nodes[None, :]), dtype=float
        )

    return (4.0 * (dense(n_fine) @ ft) - dense(n_fine // 2) @ ft[::2]) / 3.0


def profile_tables_by_task(smooth, svals, c, d, breaks, q):
    """The adaptive engine's profile and interval tables, built task by task.

    Mirrors the documented layout: per task a direct profile over [c, d], or
    a left (sgn -1) then a right (sgn +1) profile in v = |t - s|**q; empty
    profiles dropped; edges are each profile's ends and the breaks strictly
    inside its t range, mapped to v. Returns (kind, s, sgn, task) per profile
    (kind 0 direct, 1 power) and (lo, hi, profile) per interval.
    """
    breaks = np.unique(np.asarray(breaks, dtype=float))
    profiles, intervals = [], []

    def add(kind, s, sgn, task, lo, hi, cuts):
        if hi <= lo:
            return
        edges = np.concatenate(([lo], cuts, [hi]))
        edges = np.unique(edges[(edges >= lo) & (edges <= hi)])
        intervals.extend((e0, e1, len(profiles)) for e0, e1 in zip(edges[:-1], edges[1:]))
        profiles.append((kind, s, sgn, task))

    for i, (s, ci, di) in enumerate(zip(svals, c, d)):
        inner = breaks[(breaks > ci) & (breaks < di)]
        if smooth or not ci <= s <= di:
            add(0, s, 1.0, i, ci, di, inner)
            continue
        if s > ci:
            add(1, s, -1.0, i, 0.0, (s - ci) ** q, (s - inner[inner < s]) ** q)
        if s < di:
            add(1, s, 1.0, i, 0.0, (di - s) ** q, (inner[inner > s] - s) ** q)
    kind, s, sgn, task = (np.array(col) for col in zip(*profiles))
    lo, hi, prof = (np.array(col) for col in zip(*intervals))
    return (kind, s, sgn, task), (lo, hi, prof)


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
