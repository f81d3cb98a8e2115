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
    """Fine product-rule operator values at ``points`` from F at the fine nodes.

    Row i is w_j(points[i]) L(points[i], t_j) over the n_fine-panel grid, the
    full dense matrix, with no use of Toeplitz or low-rank structure.
    """
    from hammerstein import make_grid, weight_matrix

    fine = make_grid(problem.a, problem.b, n_fine)
    WL = weight_matrix(fine, problem.kernel, points) * np.asarray(
        problem.L(points[:, None], fine.nodes[None, :]), dtype=float
    )
    return WL @ ft
