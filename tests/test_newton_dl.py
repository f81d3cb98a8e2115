import numpy as np
import pytest

from hammerstein import (
    DLSettings,
    FUNCTIONS,
    HammersteinProblem,
    SingularOperatorError,
    dl_solve,
    get_nonlinearity,
    log_kernel,
    make_grid,
    moment0,
    polynomial_nonlinearity,
    smooth_kernel,
    weight_matrix,
)
from hammerstein.problem import L_one, L_zero

FAST = DLSettings(sample_count=41)
ONE_STEP = DLSettings(max_iter=1, sample_count=41)


def ones_kernel():
    return smooth_kernel(
        lambda s, t: np.full(np.broadcast_shapes(np.shape(s), np.shape(t)), 1.0)
    )


def operator_rows(prob, grid):
    """A[i, j] = w_j(t_i) L(t_i, t_j), the discrete operator of dl_solve."""
    nodes = grid.nodes
    return weight_matrix(grid, prob.kernel, nodes) * prob.L(nodes[:, None], nodes[None, :])


class TestAssemble:
    def test_trapezoid_rows(self):
        prob = HammersteinProblem(
            0.0, 1.0, ones_kernel(), L_one, get_nonlinearity("zero"), FUNCTIONS["one"]
        )
        grid = make_grid(0, 1, 2)
        for row in operator_rows(prob, grid):
            np.testing.assert_allclose(row, [0.25, 0.5, 0.25], rtol=0, atol=2e-16)
        # with F = 0 one step from zero lands on Y, and the extension is y
        fn, report = dl_solve(prob, grid, ONE_STEP, x0=0.0)
        assert report.records[1].step_norm == 1.0
        assert report.records[1].residual_norm == 0.0
        np.testing.assert_array_equal(fn.values, 1.0)

    def test_row_sums_equal_kernel_moment(self, benchmark_problem):
        grid = make_grid(0, 1, 50)
        A = operator_rows(benchmark_problem, grid)
        m0 = np.array([moment0(log_kernel(), s, 0.0, 1.0) for s in grid.nodes])
        assert np.max(np.abs(A.sum(axis=1) - m0) / (1 + np.abs(m0))) <= 1e-12

    def test_zero_smooth_factor_gives_zero_matrix(self):
        # F(0.5) = 1 is nonzero, so only A == 0 lets one step from 0.5 land
        # exactly on Y == 1 and leaves the extension equal to y
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L_zero, get_nonlinearity("sin_pi"), FUNCTIONS["one"]
        )
        grid = make_grid(0, 1, 5)
        fn, report = dl_solve(prob, grid, ONE_STEP, x0=0.5)
        assert report.records[1].step_norm == 0.5
        assert report.records[1].residual_norm == 0.0
        np.testing.assert_array_equal(fn.values, 1.0)


class TestNewtonStep:
    def test_benchmark_all_ones_is_discrete_solution(self, benchmark_problem):
        grid = make_grid(0, 1, 10)
        _, report = dl_solve(benchmark_problem, grid, ONE_STEP, x0=1.0)
        assert report.records[1].step_norm <= 1e-14
        assert report.records[-1].k == 1

    def test_zero_nonlinearity_one_step(self):
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L_one, get_nonlinearity("zero"), np.cos
        )
        grid = make_grid(0, 1, 8)
        _, report = dl_solve(prob, grid, ONE_STEP, x0=0.0)
        # the step from 0 is Y itself, and X = Y solves X - A F(X) = Y
        assert report.records[1].step_norm == np.max(np.abs(np.cos(grid.nodes)))
        assert report.records[1].residual_norm <= 1e-15

    def test_quadratic_residual_decay(self, cosine_problem):
        grid = make_grid(0, 1, 16)
        settings = DLSettings(tol=1e-30, max_iter=8, sample_count=41)
        _, report = dl_solve(cosine_problem, grid, settings)
        resid = np.array([r.residual_norm for r in report.records])
        # fit log r_{k+1} against log r_k over steps that are locally
        # convergent but still well above the roundoff floor
        floor = resid.min()
        usable = [
            (np.log(resid[i]), np.log(resid[i + 1]))
            for i in range(len(resid) - 1)
            if resid[i + 1] > max(1e3 * floor, 1e-13) and resid[i] < 0.5
        ]
        assert len(usable) >= 2
        xs = np.array([u[0] for u in usable])
        ys = np.array([u[1] for u in usable])
        slope = np.polyfit(xs, ys, 1)[0]
        assert 1.7 <= slope <= 2.3


class TestSolve:
    def test_benchmark_converges_to_ones(self, benchmark_problem):
        grid = make_grid(0, 1, 50)
        fn, report = dl_solve(benchmark_problem, grid, FAST)
        assert report.status == "converged"
        assert report.records[-1].residual_norm <= 1e-12
        assert report.records[-1].true_error <= 1e-12
        nodes_vals = fn(grid.nodes)
        assert np.max(np.abs(nodes_vals - 1.0)) <= 1e-12

    def test_plateau_unchanged_by_extra_iterations(self, cosine_problem):
        grid = make_grid(0, 1, 12)
        _, short = dl_solve(cosine_problem, grid, DLSettings(tol=1e-30, max_iter=7,
                                                             sample_count=41))
        _, long = dl_solve(cosine_problem, grid, DLSettings(tol=1e-30, max_iter=14,
                                                            sample_count=41))
        e_short = short.records[-1].true_error
        e_long = long.records[-1].true_error
        assert e_long > 0
        assert abs(e_short - e_long) <= 0.01 * e_long

    def test_plateau_shrinks_with_n(self, cosine_problem):
        errs = {}
        for n in (8, 16):
            _, rep = dl_solve(cosine_problem, make_grid(0, 1, n),
                              DLSettings(tol=1e-30, max_iter=10, sample_count=41))
            errs[n] = rep.records[-1].true_error
        assert errs[16] < errs[8]

    def test_natural_extension_interpolates_discrete_solution(self, benchmark_problem):
        # X == 1 solves the discrete system, so one step keeps it and the
        # returned extension reproduces it at the nodes
        grid = make_grid(0, 1, 10)
        fn, _ = dl_solve(benchmark_problem, grid, ONE_STEP, x0=1.0)
        np.testing.assert_allclose(fn(grid.nodes), 1.0, rtol=0, atol=1e-12)

    def test_non_finite_iterate_diverges_with_partial_report(self):
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L_one, polynomial_nonlinearity([0] * 20 + [1]),
            lambda s: np.full(np.shape(s), 1e20),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SingularOperatorError) as info:
                dl_solve(prob, make_grid(0, 1, 8), FAST)
        assert info.value.report.status == "diverged"
        assert [r.k for r in info.value.report.records] == [0]

    def test_callable_start(self, benchmark_problem):
        grid = make_grid(0, 1, 10)
        fn, report = dl_solve(benchmark_problem, grid, FAST, x0=FUNCTIONS["one"])
        assert report.status == "converged"

    def test_report_is_dense_in_k(self, cosine_problem):
        grid = make_grid(0, 1, 8)
        _, report = dl_solve(cosine_problem, grid, DLSettings(max_iter=5, sample_count=41))
        assert [r.k for r in report.records] == list(range(len(report.records)))
        report.validate()


class TestSettings:
    @pytest.mark.parametrize("kwargs", [{"tol": -1.0}, {"max_iter": 0}, {"sample_count": 0}])
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            DLSettings(**kwargs)
