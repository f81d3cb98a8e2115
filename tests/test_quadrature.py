import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from hammerstein import (
    FUNCTIONS,
    HammersteinProblem,
    LDSettings,
    QuadratureConvergenceError,
    SampledFunction,
    adaptive_kernel_batch,
    algebraic_kernel,
    eval_operator_reference,
    get_nonlinearity,
    log_kernel,
    make_grid,
    moment0,
    product_weights,
    smooth_kernel,
    weight_matrix,
)
from hammerstein import quadrature
from hammerstein.problem import L_one
from oracles import oracle_weight_rows, profile_tables_by_task, solver_operator

# frozen reference values (40-digit tanh-sinh quadrature, split at the
# singular point; independently confirmed by the adaptive engine)
MOMENT1_LOG_QUARTER = -0.5531726702467689
RAMP0_LOG_HALF_N2 = -0.29828679513998633


def moment1(kernel, s, c, d):
    """int_c^d H(s,t) t dt from one product-rule row on the single panel
    [c, d]: the rule is exact on linear data, so w_0 c + w_1 d is the moment."""
    grid = make_grid(c, d, 1)
    return float(weight_matrix(grid, kernel, [s])[0] @ grid.nodes)


def smooth_one():
    return smooth_kernel(lambda s, t: np.full(np.broadcast_shapes(np.shape(s), np.shape(t)), 1.0))


def smooth_exp():
    return smooth_kernel(lambda s, t: np.exp(np.asarray(s, dtype=float) * t))


class TestMoments:
    def test_log_moment0_midpoint(self):
        assert moment0(log_kernel(), 0.5, 0.0, 1.0) == pytest.approx(
            np.log(0.5) - 1.0, abs=1e-15
        )

    def test_empty_interval(self):
        assert moment0(log_kernel(), 0.3, 0.7, 0.7) == 0.0

    def test_algebraic_moment0_endpoint(self):
        assert moment0(algebraic_kernel(0.5), 0.0, 0.0, 1.0) == pytest.approx(2.0, abs=1e-14)

    def test_log_moment1_symmetric_point(self):
        expected = 0.5 * (np.log(0.5) - 1.0)
        assert moment1(log_kernel(), 0.5, 0.0, 1.0) == pytest.approx(expected, abs=1e-15)

    def test_log_moment1_golden(self):
        assert moment1(log_kernel(), 0.25, 0.0, 1.0) == pytest.approx(
            MOMENT1_LOG_QUARTER, abs=1e-14
        )

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            moment0(log_kernel(), 0.5, 0.8, 0.2)

    @given(
        s=st.floats(0, 1),
        c=st.floats(0, 1),
        width=st.floats(0, 1),
        beta=st.sampled_from([0.25, 0.5, 0.9]),
    )
    @settings(max_examples=60, deadline=None)
    def test_moments_against_adaptive_engine(self, s, c, width, beta):
        d = min(1.0, c + width)
        for kernel in (log_kernel(), algebraic_kernel(beta)):
            ref0 = adaptive_kernel_batch(kernel, lambda t, i: np.ones_like(t), [s], c, d, tol=1e-12)
            assert moment0(kernel, s, c, d) == pytest.approx(float(ref0[0]), abs=1e-10)
            if c < d:
                ref1 = adaptive_kernel_batch(kernel, lambda t, i: t, [s], c, d, tol=1e-12)
                assert moment1(kernel, s, c, d) == pytest.approx(float(ref1[0]), abs=1e-10)


class TestProductWeights:
    def test_trapezoidal_degeneration(self):
        grid = make_grid(0.0, 1.0, 4)
        w = product_weights(grid, smooth_one(), 0.37)
        expected = np.array([0.125, 0.25, 0.25, 0.25, 0.125])
        assert np.all(np.abs(w - expected) <= 2 * np.spacing(expected))

    def test_log_weights_match_oracle_n2(self):
        grid = make_grid(0.0, 1.0, 2)
        w = product_weights(grid, log_kernel(), 0.5)
        W_ref = oracle_weight_rows(log_kernel(), grid, [0.5], tol=1e-12)[0]
        np.testing.assert_allclose(w, W_ref, rtol=0, atol=1e-10)
        assert w[0] == pytest.approx(RAMP0_LOG_HALF_N2, abs=1e-14)

    def test_reflection_symmetry(self, rng):
        grid = make_grid(0.0, 1.0, 7)
        for kernel in (log_kernel(), algebraic_kernel(0.5)):
            for s in rng.uniform(0, 1, 10):
                w = product_weights(grid, kernel, s)
                w_ref = product_weights(grid, kernel, 1.0 - s)
                np.testing.assert_allclose(w, w_ref[::-1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 7, 50])
    @pytest.mark.parametrize(
        "kernel_factory", [log_kernel, lambda: algebraic_kernel(0.5), smooth_exp]
    )
    def test_weight_sum_identity(self, kernel_factory, n, rng):
        kernel = kernel_factory()
        grid = make_grid(0.0, 1.0, n)
        svals = rng.uniform(0, 1, 100)
        W = weight_matrix(grid, kernel, svals)
        sums = W.sum(axis=1)
        m0 = np.array([moment0(kernel, s, 0.0, 1.0) for s in svals])
        assert np.max(np.abs(sums - m0) / (1.0 + np.abs(m0))) <= 1e-12

    def test_weight_sum_holds_at_nodes(self):
        grid = make_grid(0.0, 1.0, 7)
        kernel = log_kernel()
        W = weight_matrix(grid, kernel, grid.nodes)
        m0 = np.array([moment0(kernel, s, 0.0, 1.0) for s in grid.nodes])
        np.testing.assert_allclose(W.sum(axis=1), m0, rtol=1e-12)

    def test_rejects_point_outside_domain(self):
        grid = make_grid(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            product_weights(grid, log_kernel(), 1.5)


class TestTangentRule:
    """Weight rows applied to nodal data, as the LD step applies them to the
    data of the linearized operator; with L = dF = 1 that is the row itself."""

    def test_zero_data(self):
        grid = make_grid(0.0, 1.0, 4)
        assert weight_matrix(grid, smooth_one(), [0.3])[0] @ np.zeros(5) == 0.0

    def test_trapezoidal_exactness_on_linear_data(self):
        # H = L = dF = 1 and nodal data from h(t) = t: the rule integrates
        # piecewise-linear data exactly, so the value is 1/2
        grid = make_grid(0.0, 1.0, 4)
        val = weight_matrix(grid, smooth_one(), [0.3])[0] @ grid.nodes
        assert val == pytest.approx(0.5, abs=1e-15)

    def test_matches_reference_on_interpolated_data(self, rng):
        grid = make_grid(0.0, 1.0, 8)
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L_one, get_nonlinearity("identity"), FUNCTIONS["zero"]
        )
        h_vals = rng.standard_normal(9)
        interp = SampledFunction(grid.nodes, h_vals)
        for s in (0.0, 0.3, 0.5, 1.0):
            val = weight_matrix(grid, prob.kernel, [s])[0] @ h_vals
            ref = eval_operator_reference(prob, interp, s, tol=1e-12)
            assert val == pytest.approx(ref, abs=1e-10)


class TestEvalOperator:
    """The integral operator as ld_solve evaluates it, in both modes, read
    through oracles.solver_operator at every point of the evaluation set."""

    def test_zero_nonlinearity(self):
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L_one, get_nonlinearity("zero"), FUNCTIONS["one"]
        )
        for mode in ("fine", "subtract"):
            settings = LDSettings(n_fine=64, mode=mode, sample_count=41)
            assert np.all(solver_operator(prob, FUNCTIONS["one"], settings).values == 0.0)

    def test_benchmark_constant_iterate(self, benchmark_problem):
        # sine nonlinearity at the constant 1 integrates to (numerical) zero
        settings = LDSettings(n_fine=256, sample_count=41)
        fn = solver_operator(benchmark_problem, FUNCTIONS["one"], settings)
        assert np.max(np.abs(fn.values)) < 1e-14

    def test_identity_linear_iterate_both_modes(self):
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L_one, get_nonlinearity("identity"), FUNCTIONS["zero"]
        )
        x = lambda t: np.asarray(t, dtype=float)
        ref = eval_operator_reference(prob, x, 0.5, tol=1e-9)
        fine = solver_operator(prob, x, LDSettings(n_fine=4096, sample_count=41))
        sub = solver_operator(prob, x, LDSettings(mode="subtract", sample_count=41))
        assert fine(0.5) == pytest.approx(ref, abs=1e-6)
        assert sub(0.5) == pytest.approx(ref, abs=1e-6)
        # the product rule integrates the linear iterate exactly: with
        # u = t - s, int_0^1 t log|t - s| dt = [A1(u) + s A0(u)] from -s to 1 - s,
        # A0 = u log|u| - u and A1 = u^2 log|u| / 2 - u^2 / 4
        s = fine.points

        def antideriv(u):
            ulogu = xlogy(u, np.abs(u))
            return 0.5 * u * ulogu - 0.25 * u**2 + s * (ulogu - u)

        exact = antideriv(1.0 - s) - antideriv(-s)
        at_half = exact[np.searchsorted(s, 0.5)]
        assert at_half == pytest.approx(0.5 * (np.log(0.5) - 1.0), abs=1e-15)
        np.testing.assert_allclose(fine.values, exact, rtol=0, atol=1e-12)

    def test_mode_agreement_on_smooth_iterate(self):
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L_one, get_nonlinearity("square"), FUNCTIONS["zero"]
        )
        fine = solver_operator(prob, np.cos, LDSettings(n_fine=4096, sample_count=41), n=5)
        sub = solver_operator(prob, np.cos, LDSettings(mode="subtract", sample_count=41), n=5)
        assert np.isin(sub.points, fine.points).all()  # stored values, not interpolated
        assert np.max(np.abs(fine(sub.points) - sub.values)) <= 1e-6


class TestReferenceQuadrature:
    def test_zero_integrand(self):
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L_one, get_nonlinearity("zero"), FUNCTIONS["one"]
        )
        assert eval_operator_reference(prob, FUNCTIONS["one"], 0.3, tol=1e-10) == 0.0

    def test_constant_integrand_reduces_to_moment(self, rng):
        # F(t, u) = u**0 via the polynomial registry would need t; use identity
        # with the constant-one iterate: integrand is H itself
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L_one, get_nonlinearity("identity"), FUNCTIONS["one"]
        )
        for s in rng.uniform(0, 1, 8):
            ref = eval_operator_reference(prob, FUNCTIONS["one"], s, tol=1e-11)
            assert ref == pytest.approx(moment0(log_kernel(), s, 0.0, 1.0), abs=1e-10)

    def test_agrees_with_production_modes_on_random_smooth_iterates(self, rng):
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L_one, get_nonlinearity("square"), FUNCTIONS["zero"]
        )
        # the solver's points for n = 3 and 5 samples: 0, 1/4, 1/3, 1/2, 2/3,
        # 3/4, 1; 1/3 and 2/3 lie off the fine grid
        fine_settings = LDSettings(n_fine=4096, sample_count=5)
        sub_settings = LDSettings(mode="subtract", sample_count=5)
        for _ in range(20):
            coeffs = rng.standard_normal(4)
            x = lambda t, c=coeffs: np.polynomial.polynomial.polyval(t, c)
            sub = solver_operator(prob, x, sub_settings, n=3)
            fine = solver_operator(prob, x, fine_settings, n=3)(sub.points)
            ref = eval_operator_reference(prob, x, sub.points, tol=1e-9)
            scale = 1.0 + np.abs(ref)
            assert np.all(np.abs(ref - fine) <= 1e-6 * scale)
            assert np.all(np.abs(ref - sub.values) <= 1e-8 * scale)

    def test_reports_nonconvergence_on_tiny_budget(self):
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L_one, get_nonlinearity("square"), FUNCTIONS["zero"]
        )
        with pytest.raises(QuadratureConvergenceError):
            eval_operator_reference(prob, np.cos, 0.5, tol=1e-13, max_evals=80)

    def test_rejects_nonpositive_tolerance(self):
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L_one, get_nonlinearity("zero"), FUNCTIONS["one"]
        )
        with pytest.raises(ValueError):
            eval_operator_reference(prob, FUNCTIONS["one"], 0.4, tol=0.0)

    def test_batch_handles_subinterval_tasks(self):
        # panels away from, touching, and containing the singular point
        kernel = log_kernel()
        g = lambda t, i: np.ones_like(t)
        vals = adaptive_kernel_batch(
            kernel, g, [0.5, 0.5, 0.25], [0.6, 0.5, 0.0], [0.9, 0.9, 0.5], tol=1e-12
        )
        expected = [
            moment0(kernel, 0.5, 0.6, 0.9),
            moment0(kernel, 0.5, 0.5, 0.9),
            moment0(kernel, 0.25, 0.0, 0.5),
        ]
        np.testing.assert_allclose(vals, expected, rtol=0, atol=1e-11)


    def test_blocked_batch_matches_one_block(self, monkeypatch):
        # 1500 tasks give over 3000 intervals, so each rule pair runs in
        # several blocks of _REF_BLOCK intervals
        kernel = log_kernel()
        s = np.linspace(0.0, 1.0, 1500)
        g = lambda t, i: np.cos(3.0 * t) * (1.0 + s[i])
        blocked = adaptive_kernel_batch(kernel, g, s, 0.0, 1.0, tol=1e-11)
        monkeypatch.setattr(quadrature, "_REF_BLOCK", 10**9)
        whole = adaptive_kernel_batch(kernel, g, s, 0.0, 1.0, tol=1e-11)
        np.testing.assert_allclose(blocked, whole, rtol=1e-14, atol=1e-15)


# Tasks (s, c, d) on the grid of 8 panels over [-0.5, 1.5] (h = 0.25, so every
# node and sub-grid is exact in binary); breaks are the grid nodes
TABLE_GRID = make_grid(-0.5, 1.5, 8)
TABLE_TASKS = [
    (0.25, -0.5, 1.5),  # s on a break
    (-0.5, -0.5, 1.5),  # s == c == a
    (0.0, 0.0, 1.0),  # s == c, inside [a, b]
    (1.0, 0.0, 1.0),  # s == d
    (1.5, 0.25, 1.5),  # s == d == b
    (1.25, -0.25, 0.75),  # s right of [c, d], breaks inside
    (-0.5, 0.5, 1.5),  # s left of [c, d], breaks inside
    (0.6, 0.25, 1.25),  # s between breaks, sub-interval
    (0.5, 0.5, 0.5),  # c == d == s
    (0.3, 1.0, 1.0),  # c == d away from s
    (0.6, 0.5, 0.75),  # one panel around s
]
TABLE_KERNELS = [log_kernel(), algebraic_kernel(0.3), algebraic_kernel(0.7), smooth_exp()]
TABLE_IDS = ["log", "alg0.3", "alg0.7", "smooth"]


def piecewise_linear(nodes, values):
    """g(t, i) of the adaptive engine: the interpolant of values[i] on nodes."""

    def g(t, i):
        out = np.empty_like(t)
        for task in np.unique(i):
            m = i == task
            out[m] = np.interp(t[m], nodes, values[task])
        return out

    return g


def product_trapezoid(kernel, grid, s, c, d, values):
    """int_c^d H(s,t) g(t) dt for g linear between grid nodes, c and d nodes:
    the product-trapezoid row of the sub-grid on [c, d] is exact there."""
    if c == d:
        return 0.0
    first, last = np.searchsorted(grid.nodes, [c, d])
    sub = make_grid(c, d, last - first)
    return float(weight_matrix(sub, kernel, [s])[0] @ values[first : last + 1])


class TestAdaptiveTables:
    @pytest.mark.parametrize("kernel", TABLE_KERNELS, ids=TABLE_IDS)
    def test_matches_product_trapezoid(self, kernel, rng):
        s, c, d = (np.array(col) for col in zip(*TABLE_TASKS))
        values = rng.uniform(-1.0, 1.0, (s.size, TABLE_GRID.n + 1))
        g = piecewise_linear(TABLE_GRID.nodes, values)
        got = adaptive_kernel_batch(kernel, g, s, c, d, tol=1e-13, breaks=TABLE_GRID.nodes)
        exact = [
            product_trapezoid(kernel, TABLE_GRID, *task, values[i])
            for i, task in enumerate(TABLE_TASKS)
        ]
        np.testing.assert_allclose(got, exact, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kernel", TABLE_KERNELS, ids=TABLE_IDS)
    def test_batch_matches_tasks_alone(self, kernel, rng):
        s, c, d = (np.array(col) for col in zip(*TABLE_TASKS))
        values = rng.uniform(-1.0, 1.0, (s.size, TABLE_GRID.n + 1))
        breaks = TABLE_GRID.nodes
        batch = adaptive_kernel_batch(
            kernel, piecewise_linear(breaks, values), s, c, d, tol=1e-12, breaks=breaks
        )
        alone = [
            adaptive_kernel_batch(
                kernel, piecewise_linear(breaks, values[i : i + 1]), si, ci, di,
                tol=1e-12, breaks=breaks,
            )[0]
            for i, (si, ci, di) in enumerate(TABLE_TASKS)
        ]
        np.testing.assert_allclose(batch, alone, rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("kernel", TABLE_KERNELS, ids=TABLE_IDS)
    def test_tables_follow_task_order(self, kernel, rng):
        # unsorted breaks with a duplicate, off-grid tasks and the grid tasks
        s, c, d = (np.array(col) for col in zip(*TABLE_TASKS))
        extra = rng.uniform(-0.5, 1.5, (3, 12))
        extra[1:].sort(axis=0)
        s, c, d = (np.concatenate(pair) for pair in zip((s, c, d), extra))
        breaks = np.concatenate([rng.permutation(TABLE_GRID.nodes), [0.5]])
        smooth = kernel.kind == "smooth"
        power = 1.0 if smooth else 2.0 if kernel.kind == "log" else 1.0 / (1.0 - kernel.beta)
        q = 1.0 / power
        (kind, ps, sgn, task), (lo, hi, prof) = profile_tables_by_task(
            smooth, s, c, d, breaks, q
        )
        table = quadrature._profile_table(smooth, s, c, d, np.unique(breaks), q)
        np.testing.assert_array_equal(table[0], kind)
        np.testing.assert_array_equal(table[1], ps)
        np.testing.assert_array_equal(table[2], sgn)
        np.testing.assert_array_equal(table[3], task)
        iv_lo, iv_hi, iv_prof = quadrature._interval_table(*table[4:])
        np.testing.assert_array_equal(iv_prof, prof)
        np.testing.assert_allclose(iv_lo, lo, rtol=1e-15, atol=0)
        np.testing.assert_allclose(iv_hi, hi, rtol=1e-15, atol=0)
