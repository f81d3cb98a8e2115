import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import hammerstein
from hammerstein import (
    FUNCTIONS,
    DLSettings,
    HammersteinProblem,
    LDSettings,
    SingularOperatorError,
    algebraic_kernel,
    dl_solve,
    get_nonlinearity,
    ld_solve,
    log_kernel,
    make_grid,
    manufactured_problem,
    smooth_kernel,
)
from hammerstein import newton_ld
from hammerstein import newton_dl
from hammerstein.newton_ld import (
    _COARSE_N,
    _RANK_TOL,
    _Dense,
    _DenseRows,
    _Precorrected,
    _ProductRule,
    _Structured,
    _cross_factor,
    _dense_rows,
    _fft_size,
    _L_values,
    _nodal_part,
    _nodal_weights,
    _product,
    _WINDOW,
)
from hammerstein.problem import L_exp_st, L_one, L_zero, Nonlinearity, _const
from hammerstein.quadrature import _window_weight_rows, eval_operator_reference_parts, weight_matrix
from oracles import dense_fine_operator, direct_nystrom_solution, smooth_in_s, solver_operator

FAST = LDSettings(n_fine=256, sample_count=41)


def moment_rows(grid, kernel, s, simpson=False):
    """Dense weight rows at the points s from the panel moments: the whole
    window of every point."""
    return _window_weight_rows(grid, kernel, s, np.zeros(s.size, dtype=int), grid.n + 1, simpson)


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

    def test_affine_limit_any_start_is_simpson_nystrom_solve(self):
        # the fine rule is closed under the iteration: with the operator on
        # the Newton grid itself, LD's limit from any start is the direct
        # solve of (I - K_S) u = y at the fine nodes, K_S the product Simpson rule
        prob = linear_problem()
        grid = make_grid(0, 1, 20)
        settings = LDSettings(n_fine=20, sample_count=41)
        K_S = dense_fine_operator(prob, grid.nodes, 20, np.eye(21))
        x_direct = np.linalg.solve(np.eye(21) - K_S, np.cos(grid.nodes))
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

    def test_terminal_error_falls_at_order_3_5_in_n_fine(self):
        # the product Simpson rule is about O(h^4) on the log kernel (an
        # O(h^3) rule would give 8x per doubling); measured: 4.5e-8, 3.4e-9,
        # 2.5e-10, each far above the rhs quadrature's 1e-12
        prob = manufactured_problem(
            log_kernel(), L_exp_st, get_nonlinearity("square"), np.cos, quad_tol=1e-12
        )
        errors = []
        for n_fine in (64, 128, 256):
            settings = LDSettings(n_fine=n_fine, sample_count=41)
            _, report = ld_solve(prob, make_grid(0, 1, 16), settings)
            assert report.status == "converged"
            errors.append(report.records[-1].true_error)
        assert errors[-1] >= 100 * 1e-12
        assert all(coarse >= 2**3.5 * fine for coarse, fine in zip(errors, errors[1:]))

    def test_fixed_point_property(self, cosine_problem):
        # starting at the exact solution, one step moves the nodal values by
        # no more than a small multiple of quadrature floor + solver tolerance
        grid = make_grid(0, 1, 12)
        settings = LDSettings(max_iter=1, n_fine=1024, sample_count=41)
        # the residual of the exact solution measures the quadrature floor
        p = cosine_problem
        k_ref = eval_operator_reference_parts(
            p.kernel, p.L, p.nonlin, np.cos, grid.nodes, p.a, p.b, tol=1e-12
        )
        ws_floor = np.max(np.abs(np.cos(grid.nodes) - k_ref - p.y(grid.nodes)))
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

    def test_samples_read_after_the_loop_match_dense_rows(self, cosine_problem, monkeypatch):
        # u_0 = phi0 and u_(k+1)(s) = A(s) (df delta)_k + K_fine(s) F_k + y(s)
        # at every output sample, with A and K_fine the dense trapezoid and
        # Simpson rows: at the 13 samples on the nodes or the fine nodes the
        # loop's own values, at the other 28 the blocked pass after it
        spaces = []

        class Kept(newton_ld._Workspace):
            def __init__(self, *args):
                super().__init__(*args)
                spaces.append(self)

        monkeypatch.setattr(newton_ld, "_Workspace", Kept)
        prob, grid, fine = cosine_problem, make_grid(0, 1, 12), make_grid(0, 1, 64)
        settings = LDSettings(tol=1e-30, max_iter=3, n_fine=64, sample_count=41)
        fn, report = ld_solve(prob, grid, settings, phi0=np.sin)
        s = np.linspace(0, 1, 41)
        A = weight_matrix(grid, prob.kernel, s) * prob.L(s[:, None], grid.nodes)
        K = weight_matrix(fine, prob.kernel, s, simpson=True) * prob.L(s[:, None], fine.nodes)
        u = [np.sin(s)] + [A @ dd + K @ ft + prob.y(s) for dd, ft, _, _ in spaces[0].steps]
        errors = [np.max(np.abs(v - np.cos(s))) for v in u]
        assert len(report.records) == len(u) == 4
        np.testing.assert_allclose(
            [r.true_error for r in report.records], errors, rtol=0, atol=1e-14
        )
        np.testing.assert_allclose(fn(s), u[-1], rtol=0, atol=1e-14)

    def test_partial_reports_keep_every_true_error(self):
        # the samples are read before a partial report is raised too: a
        # runaway iterate (residual 3e209 at k = 5, then a singular Newton
        # matrix), in both LD modes (subtract mode zeroes the nodes at s in
        # its weights, not in the sum), and a singular first step, for both
        # solvers
        exact = FUNCTIONS["one"]
        runaway = HammersteinProblem(
            0.0, 1.0, log_kernel(), L_one, get_nonlinearity("cubic"),
            lambda s: np.full(np.shape(s), 80.0), exact=exact,
        )
        ones_kernel = smooth_kernel(
            lambda s, t: np.full(np.broadcast_shapes(np.shape(s), np.shape(t)), 1.0)
        )
        singular = HammersteinProblem(
            0.0, 1.0, ones_kernel, L_one, get_nonlinearity("identity"), exact, exact=exact
        )
        runs = [
            (ld_solve, runaway, 8, LDSettings(n_fine=64), "diverged", 6),
            (ld_solve, runaway, 8, LDSettings(mode="subtract", sample_count=41), "diverged", 6),
            (ld_solve, singular, 6, FAST, "singular", 1),
            (dl_solve, singular, 6, DLSettings(sample_count=41), "singular", 1),
        ]
        for solve, prob, n, settings, status, count in runs:
            with pytest.raises(SingularOperatorError) as info:
                solve(prob, make_grid(0, 1, n), settings)
            report = info.value.report
            assert report.status == status
            errors = [r.true_error for r in report.records]
            assert len(errors) == count
            assert all(isinstance(e, float) and np.isfinite(e) for e in errors), errors

    SCALAR = {
        # F and dF each a scalar; and an array F with a scalar dF
        "constant": (
            Nonlinearity("constant", lambda t, u: 1.0, lambda t, u: 0.0),
            Nonlinearity("constant", _const(1.0), _const(0.0)),
        ),
        "affine": (
            Nonlinearity("affine", lambda t, u: 0.5 * u + 1.0, lambda t, u: 0.5),
            Nonlinearity("affine", lambda t, u: 0.5 * u + 1.0, _const(0.5)),
        ),
    }

    @pytest.mark.parametrize("n", [32, 200])
    @pytest.mark.parametrize("solve", [ld_solve, dl_solve], ids=["ld", "dl"])
    @pytest.mark.parametrize("case", sorted(SCALAR))
    def test_nonlinearity_may_return_a_scalar(self, case, solve, n):
        # a scalar F raised IndexError in both solvers, and a scalar dF
        # ValueError in LD's np.interp; read at the points' shape, each runs
        # as its twin whose F and dF return arrays, to the bit
        grid = make_grid(0.0, 1.0, n)
        runs = []
        for nonlin in self.SCALAR[case]:
            prob = HammersteinProblem(0.0, 1.0, log_kernel(), L_exp_st, nonlin, np.cos)
            fn, report = solve(prob, grid)
            assert report.status == "converged"
            records = [(r.k, r.step_norm, r.residual_norm) for r in report.records]
            runs.append((records, fn.points, fn.values))
        (records, points, values), twin = runs
        assert records == twin[0]
        np.testing.assert_array_equal(points, twin[1])
        np.testing.assert_array_equal(values, twin[2])

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
    # not smooth in s, yet of rank 1 on any lattice
    return np.abs(np.asarray(s, dtype=float) - 0.3) + 0.0 * t


# Smooth in s, but each agrees with its linear interpolant at s = 0, 0.5, 1,
# so a factor checked at those points alone would take them for rank 2.
def L_cos_pi(s, t):
    return np.cos(np.pi * np.asarray(s, dtype=float)) + 0.0 * t


def L_odd_cubic(s, t):
    s = np.asarray(s, dtype=float)
    return s + (s - 0.5) ** 3 + 0.0 * t


def L_cheb_T3(s, t):
    x = 2.0 * np.asarray(s, dtype=float) - 1.0
    return 4.0 * x**3 - 3.0 * x + 0.0 * t


def L_cos35(s, t):
    return np.cos(35.0 * np.asarray(s, dtype=float) * t)


def L_cos64(s, t):
    return np.cos(64.0 * np.asarray(s, dtype=float) * t)


def L_sqrt(s, t):
    return np.sqrt(s + t + 0.01)


class TestFineOperator:
    N_FINE = 256

    def _check(self, kernel, L, n, a=0.0, b=1.0, n_fine=N_FINE):
        prob = HammersteinProblem(
            a, b, kernel, L, get_nonlinearity("identity"), FUNCTIONS["zero"]
        )
        fn = solver_operator(prob, _g, LDSettings(n_fine=n_fine, sample_count=41), n)
        fine_nodes = np.linspace(a, b, n_fine + 1)
        want = dense_fine_operator(prob, fn.points, n_fine, _g(fine_nodes))
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

    @pytest.mark.parametrize("n_fine", [66, 110, 320, 1024])
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.3, 2.9)])
    @pytest.mark.parametrize("kernel", [log_kernel(), algebraic_kernel(0.3)], ids=["log", "alg0.3"])
    def test_half_grid_fold_matches_dense_product_rule(self, kernel, a, b, n_fine):
        # the Simpson weights of the even columns (the nodes of the half
        # grid of panel pairs) enter through the spectrum folded at m/2 on an
        # even circulant; _fft_size(2 n_fine) is odd at 66 and 110
        assert _fft_size(2 * n_fine) % 2 == (n_fine in (66, 110))
        self._check(kernel, L_exp_st, 7, a=a, b=b, n_fine=n_fine)

    @pytest.mark.parametrize("kernel", [log_kernel(), algebraic_kernel(0.3)], ids=["log", "alg0.3"])
    def test_rank_above_the_check_rounding_floor(self, kernel):
        # cos(35 s t) takes about 26 crosses on 1025 nodes, and their
        # residual rounds near 1e-14 max|L|; the rule applies that factor,
        # not dense rows
        assert _cross_factor(L_cos35, np.linspace(0.0, 1.0, 1025)) is not None
        self._check(kernel, L_cos35, 7, n_fine=1024)

    @pytest.mark.parametrize("shape", [(0, 4097), (1, 4097), (200, 4097), (10, 70000)])
    def test_split_matvec_matches_whole(self, shape, rng):
        a = rng.standard_normal(shape)
        b = rng.standard_normal(shape[1])
        np.testing.assert_allclose(_product(a, b), a @ b, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("m, r, N", [(1, 2, 257), (16, 17, 4097), (32, 65, 4097)])
    def test_split_matrix_product_matches_whole(self, m, r, N, rng):
        # E[:, check].T @ V in the cross factor's check, with columns over
        # several calls
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
        default = LDSettings().n_fine
        for n_fine in (default, 4 * default):
            settings = LDSettings(max_iter=1, n_fine=n_fine)
            tracemalloc.start()
            try:
                fn, _ = ld_solve(prob, make_grid(0, 1, 16), settings)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] / peaks[0] < 8
        # the dense points x (n_fine + 1) operator alone would take this much
        dense_bytes = fn.points.size * (4 * default + 1) * 8
        assert peaks[1] < dense_bytes / 2

    def test_row_blocks_stay_small(self):
        # 192 off-grid rows of the Simpson rule at the default n_fine = 320,
        # built block by block: nothing but the output outlives a block
        fine = make_grid(0.0, 1.0, LDSettings().n_fine)
        s = (np.arange(192) + 0.5) / 192
        tracemalloc.start()
        try:
            rows = _dense_rows(fine, log_kernel(), L_exp_st, s, simpson=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (192, 321)
        assert peak <= rows.nbytes + 0.5e6

    def test_fft_size_is_scipy_next_fast_len(self):
        from scipy.fft import next_fast_len

        for n in range(1, 5000):
            assert _fft_size(n) == next_fast_len(n, real=True)


class TestCrossFactor:
    """The cross factor of L on the lattice of a rule's nodes."""

    @staticmethod
    def _lattice_error(L, a, b, n):
        t = np.linspace(a, b, n + 1)
        E, V, smooth = _cross_factor(L, t)
        # the pivot columns' smoothness in s, carried by the factor, is the
        # criterion evaluated apart from it
        assert smooth == smooth_in_s(L, t, V)
        full = _L_values(L, t, t)
        return E.shape[0], np.max(np.abs(full - E.T @ V)), np.max(np.abs(full))

    @pytest.mark.parametrize("n", [16, 64, 320, 1024, 1500])
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.3, 2.9)])
    @pytest.mark.parametrize("L", [L_one, L_zero, L_exp_st], ids=["one", "zero", "exp_st"])
    def test_lattice_error(self, L, a, b, n):
        _, error, scale = self._lattice_error(L, a, b, n)
        assert error <= 4 * _RANK_TOL * scale

    @pytest.mark.parametrize("n", [16, 64, 320, 1024, 1500])
    @pytest.mark.parametrize(
        "L", [L_cos_pi, L_kinked, L_cos35, L_cos64], ids=["cos_pi", "kinked", "cos35", "cos64"]
    )
    def test_lattice_error_of_harder_L(self, L, n):
        _, error, scale = self._lattice_error(L, 0.0, 1.0, n)
        assert error <= 16 * _RANK_TOL * scale

    def test_zero_is_an_exact_zero_operator(self):
        E, V, smooth = _cross_factor(L_zero, np.linspace(0.0, 1.0, 1025))
        assert E.shape[0] == V.shape[0] == 0 and smooth
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L_zero, get_nonlinearity("identity"), FUNCTIONS["zero"]
        )
        fn = solver_operator(prob, _g, LDSettings(sample_count=41))
        assert np.all(fn.values == 0.0)

    def test_constant_is_rank_one(self):
        # the residual of L = one after one cross is exactly 0, and nothing
        # is divided by a rounding-level pivot
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for n in range(1176, 1601):
                E, _, _ = _cross_factor(L_one, np.linspace(0.0, 1.0, n + 1))
                assert E.shape[0] == 1, n

    def test_rank_follows_the_lattice_not_smoothness_in_s(self):
        # |s - 0.3| has no short interpolant in s but is rank 1 on the
        # lattice; sqrt(s + t + 0.01) is near-singular at the corner
        E, _, _ = _cross_factor(L_kinked, np.linspace(0.0, 1.0, 321))
        assert E.shape[0] == 1
        q, _, _ = self._lattice_error(L_sqrt, 0.0, 1.0, 320)
        assert q <= 24


class TestNodalWeights:
    """The weights of a structured rule at its own nodes: the Toeplitz
    entries c of the interior columns and the two end columns."""

    @pytest.mark.parametrize("n", [2, 4, 6, 64, 320, 1454])
    @pytest.mark.parametrize("simpson", [False, True], ids=["trapezoid", "simpson"])
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.3, 2.9)])
    @pytest.mark.parametrize(
        "kernel", [log_kernel(), algebraic_kernel(0.3), algebraic_kernel(0.7)],
        ids=["log", "alg0.3", "alg0.7"],
    )
    def test_rebuild_the_dense_rows_at_the_nodes(self, kernel, a, b, simpson, n):
        # the end columns are the dense rows' own columns to the bit. c is
        # read from a few rows and translated: each row rounds its node
        # offsets t_l - t_i differently, up to 774 eps max|w| (log, Simpson,
        # [0.3, 2.9], n = 1454)
        grid = make_grid(a, b, n)
        c, first, last = _nodal_weights(grid, kernel, simpson)
        cols = np.arange(1, n)
        parity = cols % 2 if simpson else 0
        worst = scale = 0.0
        for start in range(0, n + 1, 256):
            at = np.arange(start, min(start + 256, n + 1))
            rows = moment_rows(grid, kernel, grid.nodes[at], simpson)
            np.testing.assert_array_equal(first[at], rows[:, 0])
            np.testing.assert_array_equal(last[at], rows[:, -1])
            rebuilt = c[parity, cols - at[:, None] + n - 1]
            worst = max(worst, np.max(np.abs(rebuilt - rows[:, 1:-1]), initial=0.0))
            scale = max(scale, np.max(np.abs(rows)))
        assert worst <= 1024 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.3, 2.9)])
    @pytest.mark.parametrize("beta", [None, 0.3], ids=["log", "alg0.3"])
    def test_end_columns_against_mpmath(self, beta, a, b):
        # trapezoid end columns at the six nodes nearest each end, against
        # 40 digits with the hats on the rounded nodes: 5-86 eps max|w| off.
        # Read from sub-grids of the end panels, rescaled to the grid's h,
        # they were 131 eps off (log on [0, 1]) and 130 (alg 0.3 on [0, 1])
        import mpmath as mp

        n = 1454
        grid = make_grid(a, b, n)
        kernel = log_kernel() if beta is None else algebraic_kernel(beta)
        _, first, last = _nodal_weights(grid, kernel, False)
        at = np.r_[0:6, n - 5 : n + 1]
        with mp.workdps(40):
            for j, other, col in ((0, 1, first), (n, n - 1, last)):
                tj, to = (mp.mpf(float(grid.nodes[k])) for k in (j, other))
                for i in at:
                    s = mp.mpf(float(grid.nodes[i]))
                    H = (lambda t: mp.log(abs(t - s))) if beta is None else (
                        lambda t: abs(t - s) ** -mp.mpf(beta)
                    )
                    truth = mp.quad(lambda t: H(t) * (t - to) / (tj - to), sorted([tj, to]))
                    err = abs(col[i] - float(truth))
                    assert err <= 100 * np.finfo(float).eps * np.max(np.abs(col)), (j, i)


class TestPrecorrected:
    """A structured nodal part reads its points off the grid by precorrected
    interpolation from its own nodal values, not from dense rows: a
    trapezoid rule from _PRECORRECT_MIN_N panels, a Simpson rule on every
    grid of more than _COARSE_N panels, and neither when L is rough in s."""

    @staticmethod
    def _check(kernel, bound, L, a, b, n, rng, simpson=False):
        grid = make_grid(a, b, n)
        prob = HammersteinProblem(a, b, kernel, L, get_nonlinearity("square"), FUNCTIONS["one"])
        nodal = _nodal_part(prob, grid, simpson)
        ends = grid.h * rng.uniform(0.0, 40.0, 25)
        s = np.concatenate([a + ends, b - ends[::-1], rng.uniform(a, b, 25)])
        rows = moment_rows(grid, kernel, s, simpson) * _L_values(L, s, grid.nodes)
        # the same points held by a rule, as LD's rules hold the points off
        # their grids
        points = np.unique(np.concatenate([grid.nodes, s]))
        held = _ProductRule(nodal, points)
        assert isinstance(held.reader, _Precorrected) and not hasattr(nodal, "rows")
        for f in (np.cos(3.0 * grid.nodes) + 1.2, rng.standard_normal(n + 1)):
            got = nodal.read(s, [f], [nodal(f)])[0]
            want = rows @ f
            tol = bound * np.finfo(float).eps * np.max(np.abs(want))
            np.testing.assert_allclose(got, want, rtol=0, atol=tol)
            np.testing.assert_array_equal(held(f)[np.searchsorted(points, s)], got)

    @pytest.mark.parametrize("n", [256, 1454, 3001])
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.3, 2.9)])
    @pytest.mark.parametrize("L", [L_one, L_exp_st], ids=["one", "exp_st"])
    @pytest.mark.parametrize(
        "kernel, bound",
        [(log_kernel(), 128), (algebraic_kernel(0.3), 512), (algebraic_kernel(0.7), 512)],
        ids=["log", "alg0.3", "alg0.7"],
    )
    def test_matches_dense_moment_rows(self, kernel, bound, L, a, b, n, rng, monkeypatch):
        # the dense rows from the panel moments keep each weight to a few
        # eps; the closed-form rows that dense off-grid rows used to take
        # are up to 4.6e6 eps max|ref| off them on these random inputs. What
        # is left here (at most 53 eps max|ref| for log and 64 for alg with
        # this draw) is the rounding of the rule's nodal values, its FFT
        # apply, which the interpolation reads: those are 110-440 eps
        # max|ref| off the dense rows on random inputs with exp_st on [0.3,
        # 2.9], and over eight other draws of 60 points the worst here was
        # 150 eps for log and 173 for alg. The evaluator works on any grid
        # its window fits in; the rules take it from _PRECORRECT_MIN_N panels
        monkeypatch.setattr(newton_ld, "_PRECORRECT_MIN_N", 256)
        self._check(kernel, bound, L, a, b, n, rng)

    @pytest.mark.parametrize("n", [66, 320, 1454])
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.3, 2.9)])
    @pytest.mark.parametrize("L", [L_one, L_exp_st], ids=["one", "exp_st"])
    @pytest.mark.parametrize(
        "kernel", [log_kernel(), algebraic_kernel(0.3), algebraic_kernel(0.7)],
        ids=["log", "alg0.3", "alg0.7"],
    )
    def test_simpson_matches_dense_moment_rows(self, kernel, L, a, b, n, rng):
        # the Simpson window is whole panel pairs, and each of its columns
        # takes the Toeplitz entries of its parity. Over this draw and 23
        # others of 60 points the worst here was 163 eps max|ref| for log,
        # 173 for alg 0.3 and 105 for alg 0.7 (random F; 105 for smooth F).
        # At n = 66, the smallest even grid with a factor, the window is all
        # but two of the nodes
        self._check(kernel, 256, L, a, b, n, rng, simpson=True)

    def test_window_fits_in_every_grid_with_a_factor(self):
        # a rule has a factor on more than _COARSE_N panels only, and the
        # Simpson window of _WINDOW + 1 nodes fits in N + 1 >= _COARSE_N + 2:
        # no window spans its grid, so every Toeplitz entry it reads exists
        assert _COARSE_N >= _WINDOW

    @pytest.mark.parametrize(
        "simpson, n, differences, precorrects",
        [
            (False, 22, False, False),
            (True, 22, False, False),
            (False, 64, False, False),
            (True, 64, False, False),
            (False, 66, True, False),
            (False, 512, True, True),
            (True, 66, True, True),
        ],
        ids=[
            "trapezoid22", "simpson22", "trapezoid64", "simpson64", "trapezoid66",
            "trapezoid512", "simpson66",
        ],
    )
    def test_differences_only_where_the_rule_has_a_factor(
        self, simpson, n, differences, precorrects, monkeypatch
    ):
        # the 12th differences of the pivot columns (~20 us each) are taken
        # by every cross factor, and a rule on at most _COARSE_N panels has
        # none; whether they let a rule precorrect is the rule's to decide
        grid = make_grid(0.0, 1.0, n)
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L_exp_st, get_nonlinearity("square"), FUNCTIONS["one"]
        )
        points = np.unique(np.concatenate([grid.nodes, np.linspace(0.0, 1.0, 41)]))
        calls, diff = [], np.diff
        monkeypatch.setattr(np, "diff", lambda *args, **kw: calls.append(1) or diff(*args, **kw))
        rule = _ProductRule(_nodal_part(prob, grid, simpson), points)
        assert isinstance(rule.nodal, _Structured) == differences
        assert isinstance(rule.reader, _Precorrected) == precorrects
        assert bool(calls) == differences

    @pytest.mark.parametrize("simpson, n", [(False, 600), (True, 320)], ids=["trapezoid", "simpson"])
    def test_rough_L_keeps_dense_rows(self, simpson, n, rng):
        # |s - 0.3| is rank 1 on the lattice, so the rule has a factor, but
        # no interpolant in s reads it across the kink: the remainder
        # estimated from the 12th differences of its pivot column is 1e13
        # eps max|L|. Precorrected, these points were up to 5.7e-4
        # (trapezoid) and 1.0e-3 (Simpson) max|K| off
        grid = make_grid(0.0, 1.0, n)
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L_kinked, get_nonlinearity("square"), FUNCTIONS["one"]
        )
        s = np.concatenate([0.3 + grid.h * rng.uniform(-8.0, 8.0, 20), rng.uniform(0.0, 1.0, 20)])
        points = np.unique(np.concatenate([grid.nodes, s]))
        rule = _ProductRule(_nodal_part(prob, grid, simpson), points)
        assert isinstance(rule.nodal, _Structured) and isinstance(rule.reader, _DenseRows)
        _, V, smooth = _cross_factor(L_kinked, grid.nodes)
        assert not smooth and not smooth_in_s(L_kinked, grid.nodes, V)
        f = np.cos(3.0 * grid.nodes) + 1.2
        rows = moment_rows(grid, prob.kernel, s, simpson) * _L_values(L_kinked, s, grid.nodes)
        want = rows @ f
        got = rule(f)[np.searchsorted(points, s)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))


def exact_steps(monkeypatch):
    """Makes every _TwoGrid take the LU steps of its own grid, on the same
    rule: it coarsens to the grid itself, and a two-grid solve fails."""
    coarsen = newton_ld._TwoGrid._coarsen
    monkeypatch.setattr(
        newton_ld._TwoGrid, "_coarsen", lambda self, n_c: coarsen(self, self.grid.n)
    )

    def two_grid_solve(*args):
        raise AssertionError("a two-grid step where exact steps were forced")

    monkeypatch.setattr(newton_ld, "_two_grid_solve", two_grid_solve)


class TestSmallGrid:
    """A grid of at most _COARSE_N panels is one dense matrix: its nodal
    parts are dense rows and hold no cross factor, their readers are dense
    rows, and its Newton steps are the LU of the same rows (`_TwoGrid`)."""

    @staticmethod
    def _problem():
        return HammersteinProblem(
            0.0, 1.0, log_kernel(), L_exp_st, get_nonlinearity("square"), np.cos
        )

    @pytest.mark.parametrize("n", [22, 64])
    @pytest.mark.parametrize("simpson", [False, True], ids=["trapezoid", "simpson"])
    def test_rule_is_dense_rows_at_every_point(self, simpson, n):
        prob = self._problem()
        grid = make_grid(0.0, 1.0, n)
        points = np.unique(np.concatenate([grid.nodes, np.linspace(0.0, 1.0, 41)]))
        rule = _ProductRule(_nodal_part(prob, grid, simpson), points)
        at = np.searchsorted(points, grid.nodes)
        assert isinstance(rule.nodal, _Dense) and isinstance(rule.reader, _DenseRows)
        for name in ("ell", "c", "symbol"):
            assert not hasattr(rule.nodal, name)
        # the node rows and the off-grid rows, built apart, are the rows of
        # all the points to the bit
        rows = _dense_rows(grid, prob.kernel, prob.L, points, simpson)
        np.testing.assert_array_equal(rule.nodal.rows, rows[at])
        np.testing.assert_array_equal(rule.reader.rows, np.delete(rows, at, axis=0))

    @pytest.mark.parametrize("solver, n", [("dl", 40), ("ld", 64)])
    def test_rows_at_the_nodes_are_the_step_matrix(self, solver, n):
        # the step matrix is the nodal part's own array, not a rebuild
        grid = make_grid(0.0, 1.0, n)
        if solver == "dl":
            space = newton_dl._Workspace(self._problem(), grid, DLSettings(sample_count=41))
            nodal = space.nodal
        else:
            space = newton_ld._Workspace(self._problem(), grid, LDSettings(sample_count=41))
            nodal = space.rule.nodal
        two_grid = space.two_grid
        assert two_grid.exact and two_grid.nodal is nodal
        assert two_grid.G is nodal.rows

    def test_step_matrix_costs_no_weight_rows(self, monkeypatch):
        # weight_matrix calls and entries of a solve at n = 40 (default
        # settings: 201 samples, n_fine 320). The step matrix G took one
        # more call of (n + 1)^2 entries when it was rebuilt: DL made 3
        # calls of 10250 entries, LD 4 of 21730. LD's trapezoid rows at its
        # 280 fine nodes off the grid, in blocks of 199 rows, now take two
        # calls of their own where the 321 rows of every iteration point
        # took two in all, so its call count stays at 4
        counts = []
        weights = newton_ld.weight_matrix

        def counted(*args):
            out = weights(*args)
            counts.append(out.size)
            return out

        monkeypatch.setattr(newton_ld, "weight_matrix", counted)
        grid = make_grid(0.0, 1.0, 40)
        dl_solve(self._problem(), grid)
        assert (len(counts), sum(counts)) == (2, 10250 - 41**2)
        counts.clear()
        ld_solve(self._problem(), grid)
        assert (len(counts), sum(counts)) == (4, 21730 - 41**2)

    def test_only_larger_grids_build_a_cross_factor(self, monkeypatch):
        sizes = []
        factor = newton_ld._cross_factor
        monkeypatch.setattr(
            newton_ld, "_cross_factor", lambda L, t: sizes.append(t.size) or factor(L, t)
        )
        prob = self._problem()
        # LD and DL at n = 48: the fine Simpson rule alone, on 320 panels;
        # the trapezoid rules of both solvers' grids took one each before
        ld_solve(prob, make_grid(0.0, 1.0, 48), LDSettings(sample_count=41))
        dl_solve(prob, make_grid(0.0, 1.0, 48), DLSettings(sample_count=41))
        assert sizes == [321]
        sizes.clear()
        subtract = LDSettings(mode="subtract", sample_count=41)
        for n in (8, 16, 32, 64):
            ld_solve(prob, make_grid(0.0, 1.0, n), subtract)
        assert sizes == []
        dl_solve(prob, make_grid(0.0, 1.0, 65), DLSettings(sample_count=41))
        assert sizes == [66]


class TestLargeGrid:
    """LD on grids of more than _COARSE_N panels: two-grid Newton steps on the
    structured trapezoid rule of the Newton grid, no dense recovery matrix."""

    CONFIG = {"kernel": "log", "L": "exp_st", "F": "square", "y": {"manufactured": "cos"}}

    @staticmethod
    def _problem():
        return manufactured_problem(
            kernel=log_kernel(), L=L_exp_st, nonlin=get_nonlinearity("square"),
            exact=np.cos, quad_tol=1e-10,
        )

    def test_csv_does_not_depend_on_blas_threads(self, tmp_path):
        # with an (n+1)^2 LU and dense recovery products per step, the CSV
        # at n = 512 differed at the 1e-15 level between 1 and 2 threads
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**self.CONFIG, "n": 512, "solver": "ld"}))
        src = str(Path(hammerstein.__file__).resolve().parents[1])
        csvs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-m", "hammerstein.cli", "compare",
                 "--config", str(config), "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            csvs.append((out / "compare.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_memory_stays_below_the_recovery_matrix(self):
        # the dense recovery rows alone took 1920 x 1501 x 8 = 23 MB at
        # n = 1500, and the whole solve peaked at 99.5 MB
        tracemalloc.start()
        try:
            _, report = ld_solve(self._problem(), make_grid(0, 1, 1500))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.status == "converged"
        assert peak <= 20e6

    def test_off_grid_points_hold_no_dense_rows(self):
        # the CI ld.json problem: the 313 fine nodes off the Newton grid
        # took 313 x 1501 dense rows of its trapezoid rule, and the 1493
        # Newton nodes off the fine grid 1493 x 321 dense rows of the
        # Simpson rule; the solve peaked at 9.2 MB with both, 5.8 MB with
        # the Simpson rows alone. Read by precorrected interpolation they
        # hold 76 and 77 numbers each, and it peaks at 2.9 MB
        tracemalloc.start()
        try:
            _, report = ld_solve(self._problem(), make_grid(0, 1, 1500))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.status == "converged"
        assert report.records[-1].true_error <= 1.5e-10
        assert peak < 3.8e6

    def test_fine_rule_holds_no_dense_rows(self):
        # at n_fine = 1024 the Simpson rows at the 1496 Newton nodes off the
        # fine grid took 1496 x 1025 numbers (12.3 MB), and the solve peaked
        # at 14.8 MB; read by precorrected interpolation it peaks at 3.5 MB
        tracemalloc.start()
        try:
            _, report = ld_solve(self._problem(), make_grid(0, 1, 1500), LDSettings(n_fine=1024))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.status == "converged"
        assert peak <= 6.0e6

    def test_two_grid_steps_match_exact_steps(self, monkeypatch):
        prob = self._problem()
        grid = make_grid(0, 1, 256)
        _, two_grid = ld_solve(prob, grid)
        exact_steps(monkeypatch)
        _, exact = ld_solve(prob, grid)
        assert two_grid.status == exact.status == "converged"
        assert len(two_grid.records) == len(exact.records)
        errors = [r.records[-1].true_error for r in (two_grid, exact)]
        assert abs(errors[0] - errors[1]) <= 1e-15


def L_cos35(s, t):
    return np.cos(35.0 * s * t)


class TestDenseCoarseRows:
    """Two-grid steps of a dense nodal part on more than _COARSE_N panels: a
    smooth H, or an L above _MAX_RANK crosses. Its coarse correction is the
    dense reader of the coarse part at the grid nodes."""

    PROBLEMS = {
        "smooth_exp_st": lambda: HammersteinProblem(
            0.0, 1.0, smooth_kernel(lambda s, t: np.exp(s * t)), L_one,
            get_nonlinearity("sin_pi"), np.cos,
        ),
        "cos35": lambda: HammersteinProblem(
            0.3, 2.9, log_kernel(), L_cos35, get_nonlinearity("square"), np.cos
        ),
    }

    @pytest.mark.parametrize("solve", [dl_solve, ld_solve], ids=["dl", "ld"])
    @pytest.mark.parametrize("case", sorted(PROBLEMS))
    def test_two_grid_steps_match_exact_steps(self, solve, case, monkeypatch):
        prob = self.PROBLEMS[case]()
        grid = make_grid(prob.a, prob.b, 128)
        settings = (DLSettings if solve is dl_solve else LDSettings)(sample_count=41)
        calls = []
        prolong = newton_ld._TwoGrid.prolong

        def recorded(self, x):
            out = prolong(self, x)
            calls.append((isinstance(self.nodal, _Dense), x, out))
            return out

        monkeypatch.setattr(newton_ld._TwoGrid, "prolong", recorded)
        _, two_grid = solve(prob, grid, settings)
        assert calls and all(dense for dense, _, _ in calls)
        coarse = make_grid(prob.a, prob.b, _COARSE_N)
        R = _dense_rows(coarse, prob.kernel, prob.L, grid.nodes)
        for _, x, out in calls:
            np.testing.assert_array_equal(out, R @ x)
        exact_steps(monkeypatch)
        _, exact = solve(prob, grid, settings)
        assert two_grid.status == exact.status == "converged"
        assert len(two_grid.records) == len(exact.records)


class TestSettings:
    def test_defaults(self):
        settings = LDSettings()
        assert settings.n_fine == 320 and settings.mode == "fine"

    @pytest.mark.parametrize(
        "kwargs",
        [{"tol": 0.0}, {"max_iter": 0}, {"sample_count": 1}, {"n_fine": 1}, {"mode": "magic"}],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            LDSettings(**kwargs)
