import tracemalloc

import numpy as np
import pytest

from hammerstein import (
    FUNCTIONS,
    HammersteinProblem,
    LDSettings,
    SingularOperatorError,
    algebraic_kernel,
    eval_operator_reference,
    get_nonlinearity,
    ld_solve,
    log_kernel,
    make_grid,
    manufactured_problem,
    smooth_kernel,
)
from hammerstein.newton_ld import _fft_size, _product
from hammerstein.problem import L_exp_st, L_one, L_zero
from oracles import dense_fine_operator, direct_nystrom_solution, solver_operator

FAST = LDSettings(n_fine=256, sample_count=41)


def linear_problem(y=np.cos):
    return HammersteinProblem(
        0.0, 1.0, log_kernel(), L_one, get_nonlinearity("identity"), y
    )


ONE_STEP = LDSettings(max_iter=1, n_fine=256, sample_count=41)


class TestInit:
    def test_default_start_is_rhs_on_benchmark(self, benchmark_problem):
        # y == 1 is the exact solution, so the k = 0 record of the default
        # start shows zero error and, with sin(pi) at the nodes, a tiny residual
        grid = make_grid(0, 1, 10)
        _, report = ld_solve(benchmark_problem, grid, ONE_STEP)
        assert report.records[0].k == 0
        assert report.records[0].true_error == 0.0
        assert report.records[0].residual_norm <= 1e-15

    def test_zero_start(self, benchmark_problem):
        # from u == 0 the operator term sin(0) vanishes: residual and error are 1
        grid = make_grid(0, 1, 10)
        _, report = ld_solve(benchmark_problem, grid, ONE_STEP, phi0=0.0)
        assert report.records[0].residual_norm == 1.0
        assert report.records[0].true_error == 1.0

    def test_default_start_on_manufactured_problem(self, cosine_problem):
        grid = make_grid(0, 1, 6)
        _, default = ld_solve(cosine_problem, grid, ONE_STEP)
        _, explicit = ld_solve(cosine_problem, grid, ONE_STEP, phi0=cosine_problem.y)
        samples = np.linspace(0.0, 1.0, ONE_STEP.sample_count)
        start_error = np.max(np.abs(cosine_problem.y(samples) - np.cos(samples)))
        assert default.records[0].true_error == start_error
        assert [r.residual_norm for r in default.records] == [
            r.residual_norm for r in explicit.records
        ]

    def test_nodal_matches_iterate_exactly(self, cosine_problem):
        # the grid nodes belong to the iterate's point set, so nodal values
        # are stored samples, never interpolated
        grid = make_grid(0, 1, 6)
        fn, _ = ld_solve(cosine_problem, grid, ONE_STEP, phi0=np.sin)
        idx = np.searchsorted(fn.points, grid.nodes)
        np.testing.assert_array_equal(fn.points[idx], grid.nodes)
        np.testing.assert_array_equal(fn(grid.nodes), fn.values[idx])


class TestStep:
    def test_benchmark_fixed_point(self, benchmark_problem):
        grid = make_grid(0, 1, 10)
        fn, report = ld_solve(benchmark_problem, grid, ONE_STEP)
        assert report.records[-1].k == 1
        assert report.records[1].step_norm <= 1e-13
        assert np.max(np.abs(fn.values - 1.0)) <= 1e-13

    def test_zero_nonlinearity_reaches_rhs_exactly(self):
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L_one, get_nonlinearity("zero"), np.cos
        )
        grid = make_grid(0, 1, 8)
        fn, _ = ld_solve(prob, grid, ONE_STEP, phi0=FUNCTIONS["one"])
        np.testing.assert_array_equal(fn.values, np.cos(fn.points))

    def test_affine_one_step_equals_direct_solve_from_zero(self):
        prob = linear_problem()
        grid = make_grid(0, 1, 20)
        x_direct = direct_nystrom_solution(prob, grid)
        fn, _ = ld_solve(prob, grid, ONE_STEP, phi0=0.0)
        assert np.max(np.abs(fn(grid.nodes) - x_direct)) <= 1e-12

    def test_affine_limit_any_start_is_extrapolated_nystrom_solve(self):
        # the fine rule is closed under the iteration: with the operator on
        # the Newton grid itself, LD's limit from any start is the direct
        # solve of (I - K_R) u = y at the fine nodes, K_R = (4 K_N - K_N/2) / 3
        prob = linear_problem()
        grid = make_grid(0, 1, 20)
        settings = LDSettings(n_fine=20, sample_count=41)
        K_R = dense_fine_operator(prob, grid.nodes, 20, np.eye(21))
        x_direct = np.linalg.solve(np.eye(21) - K_R, np.cos(grid.nodes))
        for phi0 in (np.sin, 0.7, np.exp):
            fn, report = ld_solve(prob, grid, settings, phi0=phi0)
            assert report.status == "converged"
            assert np.max(np.abs(fn(grid.nodes) - x_direct)) <= 1e-12


class TestSolve:
    def test_benchmark_converges_immediately(self, benchmark_problem):
        grid = make_grid(0, 1, 20)
        fn, report = ld_solve(benchmark_problem, grid, FAST)
        assert report.status == "converged"
        assert all(r.true_error <= 1e-12 for r in report.records)
        assert report.records[0].step_norm is None
        assert [r.k for r in report.records] == list(range(len(report.records)))

    def test_zero_nonlinearity_converges_in_one_step(self):
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L_one, get_nonlinearity("zero"),
            FUNCTIONS["one"], exact=FUNCTIONS["one"],
        )
        grid = make_grid(0, 1, 8)
        fn, report = ld_solve(prob, grid, FAST)
        assert report.status == "converged"
        assert report.records[-1].k == 1
        assert report.records[-1].true_error == 0.0

    def test_manufactured_error_decays_to_quadrature_floor(self, cosine_problem):
        grid = make_grid(0, 1, 16)
        settings = LDSettings(tol=1e-30, max_iter=10, n_fine=1024, sample_count=101)
        fn, report = ld_solve(cosine_problem, grid, settings)
        errs = np.array([r.true_error for r in report.records])
        floor = errs[-1]
        assert floor <= 1e-5
        pre_floor = errs[errs > 10 * floor]
        assert np.all(np.diff(pre_floor) < 0)  # strictly decreasing until the floor

    def test_terminal_error_is_third_order_in_n_fine(self):
        # the extrapolated rule is O(h^3) on the log kernel (the plain product
        # trapezoid, O(h^2), gives 4x per doubling); measured: 9.1e-8, 1.2e-8,
        # 1.5e-9, each far above the rhs quadrature's 1e-12
        prob = manufactured_problem(
            log_kernel(), L_exp_st, get_nonlinearity("square"), np.cos, quad_tol=1e-12
        )
        errors = []
        for n_fine in (128, 256, 512):
            settings = LDSettings(n_fine=n_fine, sample_count=41)
            _, report = ld_solve(prob, make_grid(0, 1, 16), settings)
            assert report.status == "converged"
            errors.append(report.records[-1].true_error)
        assert errors[-1] >= 100 * 1e-12
        assert all(coarse >= 6 * fine for coarse, fine in zip(errors, errors[1:]))

    def test_fixed_point_property(self, cosine_problem):
        # starting at the exact solution, one step moves the nodal values by
        # no more than a small multiple of quadrature floor + solver tolerance
        grid = make_grid(0, 1, 12)
        settings = LDSettings(max_iter=1, n_fine=1024, sample_count=41)
        # the residual of the exact solution measures the quadrature floor
        ws_floor = np.max(
            np.abs(
                np.cos(grid.nodes)
                - np.array(
                    [
                        eval_operator_reference(cosine_problem, np.cos, s, tol=1e-12)
                        for s in grid.nodes
                    ]
                )
                - cosine_problem.y(grid.nodes)
            )
        )
        _, report = ld_solve(cosine_problem, grid, settings, phi0=np.cos)
        moved = report.records[1].step_norm  # max nodal change of the one step
        quad_floor = max(ws_floor, 3e-8)  # fine-rule error scale at n_fine=1024
        assert moved <= 10 * (quad_floor + settings.tol)

    def test_max_iter_flagged_not_fatal(self, cosine_problem):
        grid = make_grid(0, 1, 8)
        settings = LDSettings(tol=1e-30, max_iter=2, n_fine=256, sample_count=41)
        fn, report = ld_solve(cosine_problem, grid, settings)
        assert report.status == "max_iter"
        assert len(report.records) == 3

    def test_singular_linearization_raises_with_partial_report(self):
        # H == 1 and F = u make the system matrix I - (trapezoid row-sums),
        # which is exactly rank-deficient on [0, 1]
        ones_kernel = smooth_kernel(
            lambda s, t: np.full(np.broadcast_shapes(np.shape(s), np.shape(t)), 1.0)
        )
        prob = HammersteinProblem(
            0.0, 1.0, ones_kernel, L_one, get_nonlinearity("identity"), FUNCTIONS["one"]
        )
        grid = make_grid(0, 1, 6)
        with pytest.raises(SingularOperatorError) as info:
            ld_solve(prob, grid, FAST)
        assert info.value.report is not None
        assert info.value.report.status == "singular"
        assert len(info.value.report.records) >= 1

    def test_report_environment_echo(self, benchmark_problem):
        grid = make_grid(0, 1, 10)
        _, report = ld_solve(benchmark_problem, grid, FAST)
        assert report.n == 10
        assert report.n_fine == 256
        assert report.mode == "fine"

    def test_subtract_mode_solve(self, benchmark_problem):
        grid = make_grid(0, 1, 10)
        settings = LDSettings(mode="subtract", sample_count=41)
        fn, report = ld_solve(benchmark_problem, grid, settings)
        assert report.status == "converged"
        assert report.records[-1].true_error <= 1e-10

    @pytest.mark.parametrize(
        "mode",
        [
            "fine",
            pytest.param(
                "subtract",
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="SubtractionPlan.apply reads the iterate through np.interp on "
                    "the evaluation points, so sample_count, an output knob, sets the "
                    "accuracy: 2.9e-5 at 51 samples, 1.4e-7 at 801",
                ),
            ),
        ],
    )
    def test_terminal_error_independent_of_sample_count(self, cosine_problem, mode):
        # the limit is set by the operator quadrature alone; the 801 samples
        # hold the 51 and the error curve is smooth, so a 2x gap means the
        # output grid changed the iterate
        errors = []
        for sample_count in (51, 801):
            settings = LDSettings(mode=mode, sample_count=sample_count)
            _, report = ld_solve(cosine_problem, make_grid(0, 1, 50), settings)
            assert report.status == "converged"
            errors.append(report.records[-1].true_error)
        assert max(errors) <= 2 * min(errors)


def _g(t):
    return np.cos(5.0 * t) + t**2


def L_kinked(s, t):
    # not smooth in s: no Chebyshev interpolant of bounded size resolves it
    return np.abs(np.asarray(s, dtype=float) - 0.3) + 0.0 * t


# Smooth in s, but each agrees with its linear interpolant at s = 0, 0.5, 1,
# the first nested Chebyshev points, so a rank check on nested points alone
# would take them for rank 2.
def L_cos_pi(s, t):
    return np.cos(np.pi * np.asarray(s, dtype=float)) + 0.0 * t


def L_odd_cubic(s, t):
    s = np.asarray(s, dtype=float)
    return s + (s - 0.5) ** 3 + 0.0 * t


def L_cheb_T3(s, t):
    x = 2.0 * np.asarray(s, dtype=float) - 1.0
    return 4.0 * x**3 - 3.0 * x + 0.0 * t


class TestFineOperator:
    N_FINE = 256

    def _check(self, kernel, L, n, a=0.0, b=1.0):
        prob = HammersteinProblem(
            a, b, kernel, L, get_nonlinearity("identity"), FUNCTIONS["zero"]
        )
        fn = solver_operator(prob, _g, LDSettings(n_fine=self.N_FINE, sample_count=41), n)
        fine_nodes = np.linspace(a, b, self.N_FINE + 1)
        want = dense_fine_operator(prob, fn.points, self.N_FINE, _g(fine_nodes))
        assert np.max(np.abs(fn.values - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [7, 16])  # n does not / does divide n_fine
    @pytest.mark.parametrize(
        "L",
        [L_one, L_zero, L_exp_st, L_kinked, L_cos_pi, L_odd_cubic, L_cheb_T3],
        ids=["one", "zero", "exp_st", "kinked", "cos_pi", "odd_cubic", "cheb_T3"],
    )
    @pytest.mark.parametrize("kernel", [log_kernel(), algebraic_kernel(0.3),
                                        algebraic_kernel(0.7)],
                             ids=["log", "alg0.3", "alg0.7"])
    def test_matches_dense_product_rule(self, kernel, L, n):
        self._check(kernel, L, n)

    def test_smooth_kernel_matches_dense_product_rule(self):
        # H(s, t) = exp(s t) is not a function of t - s
        self._check(smooth_kernel(lambda s, t: np.exp(s * t)), L_one, 7)

    def test_offset_domain_matches_dense_product_rule(self):
        # fine-node differences t_j - t_i carry rounding away from a = 0
        self._check(log_kernel(), L_exp_st, 7, a=0.3, b=2.9)

    @pytest.mark.parametrize("shape", [(0, 4097), (1, 4097), (200, 4097), (10, 70000)])
    def test_split_matvec_matches_whole(self, shape, rng):
        a = rng.standard_normal(shape)
        b = rng.standard_normal(shape[1])
        np.testing.assert_allclose(_product(a, b), a @ b, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("m, r, N", [(1, 2, 257), (16, 17, 4097), (32, 65, 4097)])
    def test_split_matrix_product_matches_whole(self, m, r, N, rng):
        # basis.T @ samples in the rank search, with columns over several calls
        basis = rng.standard_normal((r, m))
        samples = rng.standard_normal((r, N))
        np.testing.assert_allclose(
            _product(basis.T, samples), basis.T @ samples, rtol=1e-12, atol=1e-12
        )

    def test_memory_grows_linearly_in_n_fine(self):
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L_exp_st, get_nonlinearity("sin_pi"), FUNCTIONS["one"]
        )
        peaks = []
        for n_fine in (1024, 4096):
            settings = LDSettings(max_iter=1, n_fine=n_fine)
            tracemalloc.start()
            try:
                fn, _ = ld_solve(prob, make_grid(0, 1, 16), settings)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] / peaks[0] < 8
        # the dense points x (n_fine + 1) operator alone would take this much
        dense_bytes = fn.points.size * (4096 + 1) * 8
        assert peaks[1] < dense_bytes / 2

    def test_fft_size_is_scipy_next_fast_len(self):
        from scipy.fft import next_fast_len

        for n in range(1, 5000):
            assert _fft_size(n) == next_fast_len(n, real=True)


class TestSettings:
    def test_defaults(self):
        settings = LDSettings()
        assert settings.n_fine == 1024 and settings.mode == "fine"

    @pytest.mark.parametrize(
        "kwargs",
        [{"tol": 0.0}, {"max_iter": 0}, {"sample_count": 1}, {"n_fine": 1}, {"mode": "magic"}],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            LDSettings(**kwargs)
