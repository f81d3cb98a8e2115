import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hammerstein
from hammerstein import (
    DLSettings,
    FUNCTIONS,
    HammersteinProblem,
    SingularOperatorError,
    SingularSystemError,
    algebraic_kernel,
    dl_solve,
    get_nonlinearity,
    log_kernel,
    make_grid,
    manufactured_problem,
    moment0,
    polynomial_nonlinearity,
    smooth_kernel,
)
from hammerstein import newton_dl, newton_ld
from hammerstein.linalg import solve_dense
from hammerstein.newton_ld import _COARSE_N, _Structured, _dense_rows
from hammerstein.problem import L_exp_st, L_one, L_zero
from hammerstein.quadrature import weight_matrix
from oracles import frozen_problem

FAST = DLSettings(sample_count=41)
ONE_STEP = DLSettings(max_iter=1, sample_count=41)


def ones_kernel():
    return smooth_kernel(
        lambda s, t: np.full(np.broadcast_shapes(np.shape(s), np.shape(t)), 1.0)
    )


def operator_rows(prob, grid, s=None):
    """A[i, j] = w_j(s_i) L(s_i, t_j), the discrete operator of dl_solve at
    the points s (default: the nodes t)."""
    nodes = grid.nodes
    s = nodes if s is None else s
    return weight_matrix(grid, prob.kernel, s) * prob.L(s[:, None], nodes[None, :])


def dl_operator(prob, x, grid):
    """The operator dl_solve runs, applied to x: the product rule of ``grid``
    applied to F(x) at the nodes, at the nodes and the 41 output samples."""
    fn, _ = dl_solve(frozen_problem(prob, x), grid, ONE_STEP)
    return fn


def dense_newton(prob, grid, x0, steps):
    """Nodal iterates of Newton on X - A F(X) = Y with the dense matrix A."""
    A = operator_rows(prob, grid)
    nodes = grid.nodes
    Y = np.broadcast_to(np.asarray(prob.y(nodes), dtype=float), nodes.shape)
    X = np.full(nodes.shape, float(x0))
    for _ in range(steps):
        res = X - A @ prob.nonlin.F(nodes, X) - Y
        X = X + solve_dense(np.eye(nodes.size) - A * prob.nonlin.dF(nodes, X)[None, :], -res)
    return X


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


class TestStructured:
    """The Toeplitz-times-low-rank operator and the two-grid step, used
    at grids of more than _COARSE_N panels. 2N = 602 = 2 * 7 * 43, so the
    Toeplitz circulant is padded to 625 points."""

    N = 301

    @pytest.mark.parametrize("L", [L_one, L_exp_st], ids=["one", "exp_st"])
    def test_operator_matches_dense_rows(self, L):
        # the structured rule is stitched from the rows at t_0, t_1 and t_N;
        # with closed-form rows, whose far-field weights lose (|t - s| / h)^2
        # eps, it was 1357-1599 eps max|K| off the dense rows at N = 1558
        # and 179-214 at N = 301; from the panel moments it is at most 17
        assert self.N > _COARSE_N
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L, get_nonlinearity("square"), FUNCTIONS["one"]
        )
        for n in (self.N, 1558):
            grid = make_grid(0, 1, n)
            fn = dl_operator(prob, np.cos, grid)
            f = prob.nonlin.F(grid.nodes, np.cos(grid.nodes))
            for s in (grid.nodes, np.linspace(0, 1, 41)):
                want = np.concatenate(
                    [operator_rows(prob, grid, s[i : i + 256]) @ f for i in range(0, s.size, 256)]
                )
                bound = 32 * np.finfo(float).eps * np.max(np.abs(want))
                np.testing.assert_allclose(fn(s), want, rtol=0, atol=bound)

    def test_nodal_values_match_dense_newton(self):
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L_exp_st, get_nonlinearity("square"), FUNCTIONS["one"]
        )
        grid = make_grid(0, 1, self.N)
        fn, report = dl_solve(prob, grid, FAST)
        assert report.status == "converged"
        oracle = dense_newton(prob, grid, 1.0, len(report.records) + 1)
        np.testing.assert_allclose(fn(grid.nodes), oracle, rtol=0, atol=1e-12)

    def test_memory_stays_below_one_dense_matrix(self, benchmark_problem):
        # at n = 3000 every output sample is a node; at 1454, 198 of them
        # are off the grid. With their dense rows held through the loop a
        # solve peaked at 230-400 doubles per node; read after it, in
        # blocks, at 99-124; with the coarse correction prolonged through
        # the rule's factor, not by (n + 1) x 65 dense coarse rows, at 48-58
        for n in (1454, 3000):
            tracemalloc.start()
            try:
                _, report = dl_solve(benchmark_problem, make_grid(0, 1, n), x0=0.9)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert report.status == "converged"
            assert report.records[-1].true_error <= 1e-12
            assert peak < 80 * (n + 1) * 8, n

    def test_samples_read_after_the_loop_match_dense_rows(self, cosine_problem, monkeypatch):
        # the extension at the output samples is read once, after the loop:
        # at the 21 samples on the grid from the loop's own operator values,
        # at the other 20 from blocked dense rows; both are the dense rows'
        # extension of each iterate's F(X), in every record's true error
        spaces = []

        class Kept(newton_dl._Workspace):
            def __init__(self, *args):
                super().__init__(*args)
                spaces.append(self)

        monkeypatch.setattr(newton_dl, "_Workspace", Kept)
        prob, grid = cosine_problem, make_grid(0, 1, 100)
        settings = DLSettings(tol=1e-30, max_iter=4, sample_count=41)
        fn, report = dl_solve(prob, grid, settings, x0=0.5)
        s = np.linspace(0, 1, 41)
        fx = np.stack([f for f, _ in spaces[0].iterates], axis=1)
        ext = prob.y(s)[:, None] + operator_rows(prob, grid, s) @ fx
        errors = np.max(np.abs(ext - np.cos(s)[:, None]), axis=0)
        assert len(report.records) == fx.shape[1] == 5
        np.testing.assert_allclose(
            [r.true_error for r in report.records], errors, rtol=0, atol=1e-14
        )
        np.testing.assert_allclose(fn(s), ext[:, -1], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("L", [L_one, L_exp_st], ids=["one", "exp_st"])
    def test_coarse_correction_matches_dense_coarse_rows(self, L, monkeypatch):
        # n = 256 nests the coarse grid of 64 panels, so the coarse hats are
        # piecewise linear on grid panels and the correction prolonged
        # through the rule's factor is the coarse rule's dense rows at the
        # grid nodes times d_c z (4-9 eps max|.| off on the first updates)
        calls = []
        prolong = newton_ld._TwoGrid.prolong

        def recorded(self, x):
            out = prolong(self, x)
            calls.append((self, x, out))
            return out

        monkeypatch.setattr(newton_ld._TwoGrid, "prolong", recorded)
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L, get_nonlinearity("square"), FUNCTIONS["one"]
        )
        grid = make_grid(0, 1, 256)
        _, report = dl_solve(prob, grid, FAST, x0=0.5)
        assert report.status == "converged"
        coarse = make_grid(0, 1, _COARSE_N)
        R = _dense_rows(coarse, prob.kernel, L, grid.nodes)
        for two_grid, x, out in calls[:2]:
            assert isinstance(two_grid.nodal, _Structured)
            want = R @ x
            bound = 32 * np.finfo(float).eps * np.max(np.abs(want))
            np.testing.assert_allclose(out, want, rtol=0, atol=bound)

    def test_coarse_grid_that_stalls_falls_back_to_exact_steps(self, monkeypatch):
        # the two-grid iteration on the coarse grid of 64 panels stops
        # shrinking the residual after one update here, so the steps come
        # from the grid's own LU, as with dense LU steps: 7 steps, converged,
        # and 8 applications of an inverse (1 two-grid, 7 exact), by the
        # panel count of its coarse grid
        levels, applies = [], []

        class Recorded(newton_ld._TwoGrid):
            def _coarsen(self, n_c):
                levels.append(n_c)
                super()._coarsen(n_c)

            def inverse(self, df, K):
                apply = super().inverse(df, K)

                def counted(r):
                    applies.append(self.tau.size - 1)
                    return apply(r)

                return counted

        monkeypatch.setattr(newton_dl, "_TwoGrid", Recorded)
        prob = manufactured_problem(
            kernel=algebraic_kernel(0.7), L=L_one, nonlin=get_nonlinearity("square"),
            exact=np.cos, quad_tol=1e-10,
        )
        _, report = dl_solve(prob, make_grid(0, 1, 256), FAST)
        assert report.status == "converged"
        assert report.records[-1].k == 7
        assert levels == [64, 256]
        assert applies == [64] + [256] * 7

    def test_singular_coarse_system_falls_back_to_exact_steps(
        self, benchmark_problem, monkeypatch
    ):
        # a singular coarse system says nothing about the grid's own, so the
        # step is taken by the grid's LU, and so are the later ones: the run
        # ends as the two-grid run does, converged after 5 steps, with one
        # coarse solve tried and then 5 LUs of the grid, and its nodal
        # values are dense Newton's
        n = 100
        grid = make_grid(0, 1, n)
        _, plain = dl_solve(benchmark_problem, grid, FAST, x0=0.85)
        sizes = []
        solve = newton_ld.solve_dense

        def singular_coarse(M, rhs):
            sizes.append(len(M))
            if len(M) == _COARSE_N + 1:
                raise SingularSystemError("coarse system made singular")
            return solve(M, rhs)

        monkeypatch.setattr(newton_ld, "solve_dense", singular_coarse)
        fn, report = dl_solve(benchmark_problem, grid, FAST, x0=0.85)
        assert plain.status == report.status == "converged"
        assert plain.records[-1].k == report.records[-1].k == 5
        assert sizes == [_COARSE_N + 1] + [n + 1] * 5
        oracle = dense_newton(benchmark_problem, grid, 0.85, 5)
        np.testing.assert_allclose(fn(grid.nodes), oracle, rtol=0, atol=1e-12)

    def test_two_grid_solve_non_finite_check_is_a_miss(self):
        # the update gives x = b, then the residual check reads NaN: no x
        # comes back unchecked
        def op(v):
            return np.full_like(v, np.nan)

        assert newton_ld._two_grid_solve(op, lambda v: v, np.ones(5), 1e-13, 5) is None

    def test_two_grid_solve_overflowing_operator_is_a_miss(self):
        def op(v):
            return v * 1e308 * 1e10

        with np.errstate(over="ignore"):
            assert newton_ld._two_grid_solve(op, lambda v: v, np.ones(5), 1e-13, 5) is None

    def test_two_grid_solve_residual_that_does_not_shrink_is_a_miss(self):
        # op = 0 leaves the residual at b: a miss after one update, not after
        # maxiter of them
        updates = []

        def precond(r):
            updates.append(1)
            return r

        assert newton_ld._two_grid_solve(np.zeros_like, precond, np.ones(5), 1e-13, 5) is None
        assert len(updates) == 1

    def test_two_grid_solve_makes_at_least_one_update(self):
        # a b already within tol is still updated once, so the step is b,
        # not zero; a zero b meets the tolerance and is not read as a miss
        def identity(v):
            return v

        b = np.full(5, 1e-20)
        np.testing.assert_array_equal(newton_ld._two_grid_solve(identity, identity, b, 1.0, 5), b)
        x = newton_ld._two_grid_solve(identity, identity, np.zeros(5), 1.0, 5)
        assert x is not None
        np.testing.assert_array_equal(x, np.zeros(5))

    def test_steps_at_the_rounding_floor_take_few_updates(self, benchmark_problem, monkeypatch):
        # a step is accepted once its linear residual is below the rounding
        # of the iterate: the last step here starts from a Newton residual
        # of ~3e-16 and took 10 updates when every step was solved to 1e-13
        # relative; it takes 1 now
        steps = []
        solve = newton_ld._two_grid_solve

        def recorded(op, precond, b, tol, maxiter):
            updates = []

            def counted(r):
                updates.append(1)
                return precond(r)

            x = solve(op, counted, b, tol, maxiter)
            steps.append((np.max(np.abs(b)), len(updates)))
            return x

        monkeypatch.setattr(newton_ld, "_two_grid_solve", recorded)
        _, report = dl_solve(benchmark_problem, make_grid(0, 1, self.N), FAST, x0=0.85)
        assert report.status == "converged"
        floor = [count for residual, count in steps if residual <= 1e-12]
        assert floor
        assert max(floor) <= 2, steps

    def test_steps_below_rounding_are_noise_not_zero(self, benchmark_problem):
        # as with LU steps at n <= _COARSE_N, a tol below eps is never met:
        # each step at the rounding floor is a noise-level update, never an
        # exactly zero step that would read "converged"
        n = 100
        assert n > _COARSE_N
        settings = DLSettings(tol=1e-30, max_iter=8, sample_count=41)
        _, report = dl_solve(benchmark_problem, make_grid(0, 1, n), settings, x0=0.85)
        assert report.status == "max_iter"
        assert all(r.step_norm > 0 for r in report.records[1:])


class TestSettings:
    @pytest.mark.parametrize("kwargs", [{"tol": -1.0}, {"max_iter": 0}, {"sample_count": 0}])
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            DLSettings(**kwargs)


@pytest.mark.parametrize("module", ["scipy", "scipy.sparse", "scipy.integrate", "scipy.fft"])
def test_import_does_not_load_heavy_scipy_modules(module):
    # scipy is a test dependency only: every cold start would pay its import.
    # On a 2-vCPU host (medians of 9 cold processes) import numpy takes
    # 0.22 s and import hammerstein 0.27 s, against 0.61 s when linalg used
    # scipy.linalg (306-350 ms of 530-570 under -X importtime). The Newton
    # solves are numpy's gesv, the qk21 tables of the reference quadrature
    # are hard-coded instead of read from scipy.integrate, and newton_ld
    # picks its FFT sizes itself instead of with scipy.fft.next_fast_len.
    # The match is a substring one, so "scipy" covers every scipy module; the
    # submodule cases name the ones the runtime once imported
    src = str(Path(hammerstein.__file__).resolve().parents[1])
    code = f"import sys, hammerstein; print([m for m in sys.modules if {module!r} in m])"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_solves_do_not_import_numpy_ma():
    # np.unique calls np.ma.is_masked, and the import of numpy.ma took 9-14 ms
    # of every cold start; a DL solve and a fine-mode LD solve on a
    # manufactured problem (reference quadrature included) load no numpy.ma
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from hammerstein import LDSettings, dl_solve, ld_solve, make_grid\n"
        "from hammerstein import get_nonlinearity, log_kernel, manufactured_problem\n"
        "from hammerstein.problem import L_one\n"
        "prob = manufactured_problem(log_kernel(), L_one, get_nonlinearity('square'), np.cos)\n"
        "dl_solve(prob, make_grid(0, 1, 7))\n"
        "ld_solve(prob, make_grid(0, 1, 7), LDSettings(n_fine=64))\n"
        "print([m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']])\n"
    )
    src = str(Path(hammerstein.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
