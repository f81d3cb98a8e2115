import tracemalloc

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
    SubtractionPlan,
    algebraic_kernel,
    get_nonlinearity,
    log_kernel,
    make_grid,
    moment0,
    product_weights,
    smooth_kernel,
)
from hammerstein import quadrature
from hammerstein.problem import L_exp_st, L_one
from hammerstein.quadrature import adaptive_kernel_batch, weight_matrix
from oracles import (
    mpmath_kernel_integral,
    oracle_weight_rows,
    profile_tables_by_task,
    solver_operator,
    subtraction_by_node,
    subtraction_reference,
)

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


def same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


CLOSED_FORM_KERNELS = [log_kernel, lambda: algebraic_kernel(0.3), lambda: algebraic_kernel(0.7)]
CLOSED_FORM_IDS = ["log", "alg0.3", "alg0.7"]


class TestClosedForms:
    """The one copy of the log and alg antiderivatives, and the trapezoid rows
    differenced from it, against the textbook expressions, to the bit."""

    @staticmethod
    def textbook(kernel, u):
        au = np.abs(u)
        if kernel.kind == "log":
            lg = np.log(np.maximum(au, quadrature._TINY))
            return [u * (lg - 1.0), u**2 * (0.5 * lg - 0.25), u**3 * (lg / 3.0 - 1.0 / 9.0)]
        beta = kernel.beta
        return [
            np.sign(u) * au ** (1.0 - beta) / (1.0 - beta),
            au ** (2.0 - beta) / (2.0 - beta),
            np.sign(u) * au ** (3.0 - beta) / (3.0 - beta),
        ]

    @pytest.mark.parametrize("orders", [2, 3])
    @pytest.mark.parametrize("kernel_factory", CLOSED_FORM_KERNELS, ids=CLOSED_FORM_IDS)
    def test_antiderivs_match_textbook_expressions_bitwise(self, kernel_factory, orders, rng):
        kernel = kernel_factory()
        # exact zeros, both signs, |u| from 1e-300 to 1e3
        mags = np.concatenate([10.0 ** rng.uniform(-300, 3, 400), np.logspace(-300, 3, 304)])
        u = np.concatenate([[0.0, -0.0, 0.0], mags, -mags, rng.uniform(-2, 2, 200)])
        for shaped in (u, u[: 1008].reshape(8, 126)):
            kept = shaped.copy()
            got = quadrature._antiderivs(kernel, shaped, orders)
            assert same_bits(shaped, kept)
            want = self.textbook(kernel, shaped)[:orders]
            assert len(got) == orders
            for g, w in zip(got, want):
                assert same_bits(g, w)

    @pytest.mark.parametrize("n", [8, 64, 1454])
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.3, 2.9)])
    @pytest.mark.parametrize("kernel_factory", CLOSED_FORM_KERNELS, ids=CLOSED_FORM_IDS)
    def test_trapezoid_rows_are_plain_differences_bitwise(self, kernel_factory, a, b, n, rng):
        # w_j = [(d1 - u_(j-1) d0)_(j-1) + (u_(j+1) d0 - d1)_j] / h, with d0
        # and d1 the panel differences of the first two antiderivatives
        kernel, grid = kernel_factory(), make_grid(a, b, n)
        nodes = grid.nodes[:: max(1, n // 16)]
        s = np.concatenate([nodes, grid.nodes[-1:], rng.uniform(a, b, 16)])
        u = grid.nodes[None, :] - s[:, None]
        f0, f1 = quadrature._antiderivs(kernel, u, orders=2)
        d0, d1 = np.diff(f0, axis=1), np.diff(f1, axis=1)
        up = d1 - u[:, :-1] * d0
        dn = u[:, 1:] * d0 - d1
        want = np.empty_like(u)
        want[:, 0], want[:, -1] = dn[:, 0], up[:, -1]
        want[:, 1:-1] = up[:, :-1] + dn[:, 1:]
        want /= grid.h
        assert same_bits(quadrature._analytic_weight_rows(grid, kernel, s), want)
        assert same_bits(weight_matrix(grid, kernel, s), want)


class TestProductWeights:
    def test_trapezoidal_degeneration(self):
        grid = make_grid(0.0, 1.0, 4)
        w = product_weights(grid, smooth_one(), 0.37)
        expected = np.array([0.125, 0.25, 0.25, 0.25, 0.125])
        assert np.all(np.abs(w - expected) <= 2 * np.spacing(expected))

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.3, 2.9)])
    @pytest.mark.parametrize("n", [1, 2, 4, 5, 6, 7, 9, 50, 320])
    def test_constant_kernel_gives_trapezoid_weights_exactly(self, a, b, n, rng):
        # H == 1 must give h (1/2, 1, ..., 1, 1/2) to the bit: the LD solver's
        # singular-linearization check relies on I - G being exactly singular
        grid = make_grid(a, b, n)
        svals = np.concatenate([grid.nodes, rng.uniform(a, b, 20)])
        w = weight_matrix(grid, smooth_one(), svals)
        expected = grid.h * np.concatenate([[0.5], np.ones(n - 1), [0.5]])
        np.testing.assert_array_equal(w, np.broadcast_to(expected, w.shape))

    @pytest.mark.parametrize("simpson", [False, True], ids=["trapezoid", "simpson"])
    def test_smooth_kernel_is_read_on_the_domain_alone(self, simpson):
        # a smooth H may be defined on [a, b] alone; the panels that a whole
        # window of moment rows takes past the ends read the end panel's
        # nodes, and add nothing
        seen = []

        def func(s, t):
            seen.append(np.array(t, dtype=float))
            return np.sqrt(t - 0.3) * np.exp(s * t)

        grid = make_grid(0.3, 2.9, 6)
        w = weight_matrix(grid, smooth_kernel(func), [0.3, 1.7, 2.9], simpson)
        assert all(np.all((0.3 <= t) & (t <= 2.9)) for t in seen)
        assert np.all(np.isfinite(w))

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

    @pytest.mark.parametrize("beta", [None, 0.3], ids=["log", "alg0.3"])
    def test_far_from_s_against_mpmath(self, beta):
        # Far from s the panel differences of the antiderivatives cancel: the
        # worst error here is 3.8e-13 (log) and 1.7e-13 (alg 0.3), and at
        # j = 1023 it is 2.3e-7 of the log weight. This bounds what DL's rows
        # and LD's recovery rows inherit; the Simpson rows of LD's fine rule
        # come from the panel moments instead (TestSimpsonWeights).
        import mpmath as mp

        n, s = 1024, 0.00070123
        kernel = log_kernel() if beta is None else algebraic_kernel(beta)
        w = weight_matrix(make_grid(0.0, 1.0, n), kernel, [s])[0]
        with mp.workdps(30):
            sm, h = mp.mpf(s), mp.mpf(1) / n
            if beta is None:
                H = lambda t: mp.log(t - sm)
            else:
                H = lambda t: (t - sm) ** -mp.mpf(beta)
            for j in (3, 100, 500, 1000, 1023):
                tj = j * h  # s < t_(j-1): both panels are smooth
                truth = mp.quad(lambda t: H(t) * (t - tj + h), [tj - h, tj]) / h
                truth += mp.quad(lambda t: H(t) * (tj + h - t), [tj, tj + h]) / h
                assert abs(w[j] - float(truth)) <= 1e-12


class TestSimpsonWeights:
    """weight_matrix(..., simpson=True): H against the piecewise-quadratic
    Lagrange basis on the panel pairs [t_2g, t_2g+2]."""

    @pytest.mark.parametrize("beta", [None, 0.3, 0.7], ids=["log", "alg0.3", "alg0.7"])
    def test_against_mpmath_near_and_far_from_s(self, beta):
        # s lies in the first panel: j = 0 and 1 take the pair that holds s,
        # j = 3 the closed forms next to it, the rest the midpoint
        # expansions. Measured worst error over the whole row: 2.4e-17 (log),
        # 1.3e-16 (alg 0.3) and 7.1e-16 (alg 0.7), where the trapezoid rows
        # of the same grid are off by up to 1.2e-13 far from s
        import mpmath as mp

        n, s = 320, 0.00070123
        kernel = log_kernel() if beta is None else algebraic_kernel(beta)
        w = weight_matrix(make_grid(0.0, 1.0, n), kernel, [s], simpson=True)[0]
        with mp.workdps(30):
            sm, h = mp.mpf(s), mp.mpf(1) / n
            if beta is None:
                H = lambda t: mp.log(abs(t - sm))
            else:
                H = lambda t: abs(t - sm) ** -mp.mpf(beta)
            for j in (0, 1, 3, 100, 160, 300, 319, 320):
                truth = mp.mpf(0)
                for g in {(j - 1) // 2, j // 2} & set(range(n // 2)):
                    nodes = [(2 * g + i) * h for i in range(3)]
                    others = [x for i, x in enumerate(nodes) if i != j - 2 * g]
                    tj = j * h
                    ell = lambda t: (t - others[0]) * (t - others[1]) / (
                        (tj - others[0]) * (tj - others[1])
                    )
                    if nodes[0] <= sm <= nodes[2]:
                        truth += mpmath_kernel_integral(beta, sm, nodes[0], nodes[2], ell)
                    else:
                        truth += mp.quad(lambda t: H(t) * ell(t), nodes)
                assert abs(w[j] - float(truth)) <= 1e-12

    def test_smooth_one_gives_composite_simpson(self):
        grid = make_grid(0.0, 1.0, 6)
        w = weight_matrix(grid, smooth_one(), [0.37], simpson=True)[0]
        expected = np.array([1.0, 4.0, 2.0, 4.0, 2.0, 4.0, 1.0]) / 18.0
        assert np.all(np.abs(w - expected) <= 4 * np.spacing(expected))

    @pytest.mark.parametrize("kernel", [log_kernel(), algebraic_kernel(0.5)], ids=["log", "alg0.5"])
    def test_exact_on_quadratics(self, kernel, rng):
        # the rule integrates H times any piecewise quadratic on the pairs
        # exactly: the row applied to t^2 is int H t^2, from the adaptive engine
        grid = make_grid(0.0, 1.0, 8)
        svals = np.concatenate([rng.uniform(0, 1, 5), grid.nodes[[0, 3, 8]]])
        W = weight_matrix(grid, kernel, svals, simpson=True)
        want = adaptive_kernel_batch(kernel, lambda t, i: t**2, svals, 0.0, 1.0, tol=1e-14)
        np.testing.assert_allclose(W @ grid.nodes**2, want, rtol=0, atol=1e-13)

    def test_rejects_odd_panel_count(self):
        with pytest.raises(ValueError, match="even"):
            weight_matrix(make_grid(0.0, 1.0, 5), log_kernel(), [0.5], simpson=True)

    @pytest.mark.parametrize("simpson, size", [(False, 64), (True, 65)], ids=["trapezoid", "simpson"])
    @pytest.mark.parametrize("n", [64, 66, 320])
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.3, 2.9)])
    @pytest.mark.parametrize(
        "kernel", [log_kernel(), algebraic_kernel(0.3), algebraic_kernel(0.7), smooth_exp()],
        ids=["log", "alg0.3", "alg0.7", "smooth"],
    )
    def test_window_rows_are_columns_of_whole_rows(self, kernel, a, b, n, simpson, size, rng):
        # a window's weights from the moments of the panels around it alone
        # (for Simpson, of the panel pairs that touch it) are the whole row's
        # columns to the bit, at the ends of the grid, at its nodes and on
        # either side of the window
        grid = make_grid(a, b, n)
        s = np.concatenate([rng.uniform(a, b, 20), grid.nodes[[0, 1, 2, n // 2, n - 1, n]]])
        s = np.concatenate([s, np.minimum(a + grid.h * rng.uniform(0.0, 3.0, 6), b)])
        last = n + 1 - size
        start = rng.integers(0, last + 1, s.size)
        start[:4], start[4:8] = 0, last
        if simpson:
            start -= start % 2
        whole = np.zeros(s.size, dtype=int)
        rows = quadrature._window_weight_rows(grid, kernel, s, whole, n + 1, simpson)
        want = np.take_along_axis(rows, start[:, None] + np.arange(size), axis=1)
        got = quadrature._window_weight_rows(grid, kernel, s, start, size, simpson)
        np.testing.assert_array_equal(got, want)


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
            # one task per panel: the interpolant's kinks at the nodes are
            # task ends, never inside an interval the engine estimates
            ref = quadrature.eval_operator_reference_parts(
                prob.kernel, L_one, prob.nonlin, interp, np.full(grid.n, s),
                grid.nodes[:-1], grid.nodes[1:], tol=1e-12,
            )
            assert val == pytest.approx(ref.sum(), abs=1e-10)


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
        ref = quadrature.eval_operator_reference_parts(
            prob.kernel, L_one, prob.nonlin, x, 0.5, 0.0, 1.0, tol=1e-9
        )[0]
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


class TestSubtractionPlan:
    """The blocked plan against the per-point loop that defines it."""

    KERNELS = [log_kernel(), algebraic_kernel(0.3), algebraic_kernel(0.7)]

    @staticmethod
    def _problem(kernel, a, b):
        return HammersteinProblem(
            a, b, kernel, L_exp_st, get_nonlinearity("square"), FUNCTIONS["zero"]
        )

    @pytest.mark.parametrize("inside", [False, True], ids=["a_to_b", "inside"])
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.3, 2.9)])
    @pytest.mark.parametrize("kernel", KERNELS, ids=["log", "alg0.3", "alg0.7"])
    def test_matches_pointwise_reference_bitwise(self, kernel, a, b, inside, rng):
        # a and b, a uniform grid and one sample off it; near a and b the
        # graded edges s - (s - a) and s + (b - s) need not round to a and b.
        # Without a and b, the nodes beyond the first and last point read
        # the end values, as np.interp does
        points = np.unique(np.concatenate([np.linspace(a, b, 33), [a + (b - a) / 3.0]]))
        if inside:
            points = points[1:-1]
        prob = self._problem(kernel, a, b)
        plan = SubtractionPlan(prob, points)
        for _ in range(10):
            values = rng.standard_normal(points.size)  # not smooth
            want, node_rows = subtraction_reference(prob, points, values, plan.levels)
            assert np.array_equal(plan.apply(values), want)
        assert np.array_equal(plan.t_nodes, np.concatenate(node_rows))
        assert np.array_equal(self._node_counts(plan), [t.size for t in node_rows])

    @pytest.mark.parametrize("inside", [False, True], ids=["a_to_b", "inside"])
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.3, 2.9)])
    @pytest.mark.parametrize("kernel", KERNELS, ids=["log", "alg0.3", "alg0.7"])
    def test_matches_the_sum_grouped_by_node(self, kernel, a, b, inside, rng):
        # the plan adds h_w L F per node and g(s) (moment0 - sum h_w) once;
        # per node, h_w (L F - g(s)) is the same sum grouped otherwise. They
        # differ by at most 27 eps of each point's sum of |terms| here.
        # Without g(s) (moment0 - sum h_w) the alg plans are 9e-12 (alg 0.3)
        # and 9e-6 (alg 0.7) of it off
        points = np.unique(np.concatenate([np.linspace(a, b, 33), [a + (b - a) / 3.0]]))
        if inside:
            points = points[1:-1]
        prob = self._problem(kernel, a, b)
        plan = SubtractionPlan(prob, points)
        for _ in range(10):
            values = rng.standard_normal(points.size)
            want, scale = subtraction_by_node(prob, points, values, plan.levels)
            assert np.all(np.abs(plan.apply(values) - want) <= 64 * np.finfo(float).eps * scale)

    @staticmethod
    def _node_counts(plan):
        # an empty panel is held with half-width 0; the others have 16 nodes
        return 16 * np.count_nonzero(plan.half > 0, axis=0)

    @pytest.mark.parametrize("block, npoints", [(256, 34), (8192, 1)], ids=["runs", "one_point"])
    def test_block_shapes_match_reference_bitwise(self, block, npoints, monkeypatch, rng):
        # points split into runs, as past 512 points at the real block size,
        # and a single point column, which np.add.reduce would sum pairwise
        monkeypatch.setattr(quadrature, "_PLAN_BLOCK", block)
        points = np.linspace(0.3, 2.9, npoints) if npoints > 1 else np.array([1.1])
        prob = self._problem(algebraic_kernel(0.3), 0.3, 2.9)
        plan = SubtractionPlan(prob, points)
        for _ in range(3):
            values = rng.standard_normal(points.size)
            want = subtraction_reference(prob, points, values, plan.levels)[0]
            assert np.array_equal(plan.apply(values), want)

    def test_depth_follows_the_singularity(self):
        # the first level whose innermost panel holds at most 64 eps of a
        # side: 46 / (2 - beta) levels rounded up for alg, deeper as the
        # singularity gets stronger, and no deeper than the fixed 46 levels
        # the plan had
        def levels(betas):
            return [quadrature._grade_levels(algebraic_kernel(beta)) for beta in betas]

        assert np.all(np.diff(levels(np.arange(0.05, 1.0, 0.05))) >= 0)
        assert levels([0.2, 0.3, 0.4, 0.7, 0.9, 0.99]) == [26, 28, 29, 36, 42, 46]
        assert quadrature._grade_levels(log_kernel()) == 26

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.3, 2.9)])
    @pytest.mark.parametrize(
        "kernel",
        [log_kernel(), algebraic_kernel(0.3), algebraic_kernel(0.7), algebraic_kernel(0.9)],
        ids=["log", "alg0.3", "alg0.7", "alg0.9"],
    )
    def test_derived_depth_is_within_rounding_of_46_levels(self, kernel, a, b):
        # The innermost panel at the derived depth holds at most 64 eps of a
        # side, and its 16 Gauss nodes miss at most 1.2e-4 of its integral,
        # so the levels left out move a value by under 1 eps of max|value|
        # (0.003-0.4 eps, extrapolated from shallower depths). The rest of
        # the move is the rounding of two node-order sums of 850-1500 terms
        # over different nodes, at most 28 eps here (37 eps at alg 0.2 on
        # [0.3, 2.9]), so the bound is 64 eps of max|value|.
        # The points are an LD solve's in subtract mode, grid nodes and 201
        # samples, and the iterates smooth: where two points lie an ulp or a
        # few apart, a random iterate puts a steep interpolation interval
        # under the deepest panels that the 46 levels resolve and fewer do not
        prob = self._problem(kernel, a, b)
        for n in (8, 64):
            points = np.unique(np.concatenate([np.linspace(a, b, n + 1), np.linspace(a, b, 201)]))
            plan = SubtractionPlan(prob, points)
            for values in (np.cos(points), np.sin(3.0 * points) + 0.5):
                want = subtraction_reference(prob, points, values, 46)[0]
                bound = 64 * np.finfo(float).eps * np.max(np.abs(want))
                assert np.max(np.abs(plan.apply(values) - want)) <= bound

    def test_node_counts_depend_on_rounding(self):
        # 26 levels for log: 2 * 26 + 3 panels, of which 53 are distinct
        # inside (s - (s - a) and s + (b - s) round to a and b) and 27 at a
        # and b (one graded side); on [0.3, 2.9] s - (s - a) or s + (b - s)
        # rounds inside (a, b) for 154 points and adds a panel of an ulp
        points = np.unique(np.concatenate([np.linspace(0, 1, 201), np.linspace(0, 1, 65)]))
        counts = self._node_counts(SubtractionPlan(self._problem(log_kernel(), 0.0, 1.0), points))
        assert points.size == 257
        assert np.count_nonzero(counts == 848) == 255
        counts = self._node_counts(
            SubtractionPlan(self._problem(log_kernel(), 0.3, 2.9), 0.3 + 2.6 * points)
        )
        assert counts.min() == 432  # at a and b: one graded side
        assert counts[1:-1].min() == 848 and counts.max() == 880

    def test_nodes_stay_in_the_interval(self):
        # s - (s - a) and s + (b - s) round past a and b for some points: 600
        # nodes fell below a and 160 above b here, and an L undefined there
        # made 70 of the 257 values nan
        a, b = 0.3, 2.9

        def L_inside(s, t):
            inside = (t >= a) & (t <= b)
            return np.where(inside, L_exp_st(s, np.where(inside, t, a)), np.nan)

        points = np.unique(np.concatenate([np.linspace(0, 1, 201), np.linspace(0, 1, 65)]))
        points = a + (b - a) * points
        prob = HammersteinProblem(
            a, b, log_kernel(), L_inside, get_nonlinearity("square"), FUNCTIONS["zero"]
        )
        plan = SubtractionPlan(prob, points)
        assert a <= plan.t_nodes.min() and plan.t_nodes.max() <= b
        assert np.all(np.isfinite(plan.apply(np.cos(points))))

    @pytest.mark.parametrize(
        "points",
        [[0.0, 0.5, 0.25, 1.0], [0.0, 0.5, 0.5, 1.0], [-0.1, 0.5], [0.5, 1.1], [0.0, np.nan]],
        ids=["unsorted", "duplicate", "below", "above", "nan"],
    )
    def test_rejects_bad_points(self, points):
        with pytest.raises(ValueError):
            SubtractionPlan(self._problem(log_kernel(), 0.0, 1.0), points)

    def test_memory_of_build_and_apply(self):
        # 201 samples and the nodes of 64 panels: an nsweep_subtract plan. At
        # the 28 levels of alg 0.3 (59 panels) it holds 2.21 MB (8 bytes per
        # node), peaks at 2.58 MB in its build and at 0.39 MB more in an
        # apply (blocks of 31 node rows). At a fixed 46 levels (95 panels) it
        # held 3.52 MB and peaked at 3.69 MB, and 0.20 MB more in an apply of
        # one panel (16 node rows) per block. With h_weights and L_nodes held
        # apart it held 6.65 MB and peaked at 6.85 MB; with its nodes and a
        # row index held too, 12.2 MB and 13.0 MB; unblocked, at 24.5 MB in
        # its build and 12.2 MB in each apply
        points = np.unique(np.concatenate([np.linspace(0, 1, 201), np.linspace(0, 1, 65)]))
        prob = self._problem(algebraic_kernel(0.3), 0.0, 1.0)
        values = np.cos(points)
        tracemalloc.start()
        try:
            plan = SubtractionPlan(prob, points)
            build_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            plan.apply(values)
            apply_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert build_peak < 3.1e6
        assert held < 2.5e6
        assert apply_peak <= 1e6


class TestReferenceQuadrature:
    def test_zero_integrand(self):
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L_one, get_nonlinearity("zero"), FUNCTIONS["one"]
        )
        ref = quadrature.eval_operator_reference_parts(
            prob.kernel, L_one, prob.nonlin, FUNCTIONS["one"], 0.3, 0.0, 1.0, tol=1e-10
        )
        assert ref[0] == 0.0

    def test_constant_integrand_reduces_to_moment(self, rng):
        # F(t, u) = u**0 via the polynomial registry would need t; use identity
        # with the constant-one iterate: integrand is H itself
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L_one, get_nonlinearity("identity"), FUNCTIONS["one"]
        )
        svals = rng.uniform(0, 1, 8)
        ref = quadrature.eval_operator_reference_parts(
            prob.kernel, L_one, prob.nonlin, FUNCTIONS["one"], svals, 0.0, 1.0, tol=1e-11
        )
        for s, value in zip(svals, ref):
            assert value == pytest.approx(moment0(log_kernel(), s, 0.0, 1.0), abs=1e-10)

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
            ref = quadrature.eval_operator_reference_parts(
                prob.kernel, L_one, prob.nonlin, x, sub.points, 0.0, 1.0, tol=1e-9
            )
            scale = 1.0 + np.abs(ref)
            assert np.all(np.abs(ref - fine) <= 1e-6 * scale)
            assert np.all(np.abs(ref - sub.values) <= 1e-8 * scale)

    def test_unreachable_tolerance_stops_at_the_roundoff_floor(self):
        # one rounding unit of int |H L F| is ~1e-16 here: no refinement can
        # reach 1e-19, so the engine says so instead of spending its budget
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L_one, get_nonlinearity("square"), FUNCTIONS["zero"]
        )
        with pytest.raises(QuadratureConvergenceError, match="roundoff floor") as info:
            quadrature.eval_operator_reference_parts(
                prob.kernel, L_one, prob.nonlin, np.cos, 0.5, 0.0, 1.0, tol=1e-19
            )
        assert "tolerance 1e-19" in str(info.value)
        assert "budget" not in str(info.value)

    def test_value_does_not_depend_on_the_batch(self):
        # a point's value must be bitwise the same whatever else its batch
        # holds: the manufactured right-hand side memoizes it across solvers
        kernel = log_kernel()
        nonlin = get_nonlinearity("square")
        s = np.linspace(0.0, 1.0, 41)
        alone = quadrature.eval_operator_reference_parts(
            kernel, L_exp_st, nonlin, np.sin, s, 0.0, 1.0
        )
        others = np.linspace(0.013, 0.987, 300)
        for shift in range(1, 9):
            batch = np.concatenate([others[:shift], s, others[shift:]])
            vals = quadrature.eval_operator_reference_parts(
                kernel, L_exp_st, nonlin, np.sin, batch, 0.0, 1.0
            )
            np.testing.assert_array_equal(vals[shift : shift + s.size], alone)

    def test_reports_nonconvergence_on_tiny_budget(self):
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L_one, get_nonlinearity("square"), FUNCTIONS["zero"]
        )
        with pytest.raises(QuadratureConvergenceError):
            quadrature.eval_operator_reference_parts(
                prob.kernel, L_one, prob.nonlin, np.cos, 0.5, 0.0, 1.0, tol=1e-13, max_evals=80
            )

    def test_rejects_nonpositive_tolerance(self):
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L_one, get_nonlinearity("zero"), FUNCTIONS["one"]
        )
        with pytest.raises(ValueError):
            quadrature.eval_operator_reference_parts(
                prob.kernel, L_one, prob.nonlin, FUNCTIONS["one"], 0.4, 0.0, 1.0, tol=0.0
            )

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
        # several blocks of _REF_BLOCK intervals; each interval's sums are
        # row-local, so the grouping leaves every value bitwise the same
        kernel = log_kernel()
        s = np.linspace(0.0, 1.0, 1500)
        g = lambda t, i: np.cos(3.0 * t) * (1.0 + s[i])
        assert quadrature._REF_BLOCK == 128
        blocked = {}
        for block in (128, 512, 10**9):
            monkeypatch.setattr(quadrature, "_REF_BLOCK", block)
            blocked[block] = adaptive_kernel_batch(kernel, g, s, 0.0, 1.0, tol=1e-11)
        for block in (128, 512):
            np.testing.assert_array_equal(blocked[block], blocked[10**9])


# Tasks (s, c, d) on the grid of 8 panels over [-0.5, 1.5] (h = 0.25, so every
# node and sub-grid is exact in binary); g is piecewise linear between the
# grid nodes, its breaks
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


def by_panel(kernel, values, s, c, d, tol):
    """int_c^d H(s,t) g(t) dt per task for g the interpolant of values[i] on
    TABLE_GRID: each task split at the nodes strictly inside [c, d] into one
    engine task per panel (a task with c == d keeps one empty task, whose
    value is 0), and their values summed."""
    nodes = TABLE_GRID.nodes
    parts = []
    for i, (si, ci, di) in enumerate(zip(s, c, d)):
        edges = np.concatenate(([ci], nodes[(nodes > ci) & (nodes < di)], [di]))
        parts += [(si, e0, e1, i) for e0, e1 in zip(edges[:-1], edges[1:])]
    ps, pc, pd, owner = (np.array(col) for col in zip(*parts))
    owner = owner.astype(int)
    g = piecewise_linear(nodes, values)
    vals = adaptive_kernel_batch(kernel, lambda t, j: g(t, owner[j]), ps, pc, pd, tol=tol)
    return np.bincount(owner, weights=vals, minlength=len(s))


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
        got = by_panel(kernel, values, s, c, d, tol=1e-13)
        exact = [
            product_trapezoid(kernel, TABLE_GRID, *task, values[i])
            for i, task in enumerate(TABLE_TASKS)
        ]
        np.testing.assert_allclose(got, exact, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kernel", TABLE_KERNELS, ids=TABLE_IDS)
    def test_batch_matches_tasks_alone(self, kernel, rng):
        s, c, d = (np.array(col) for col in zip(*TABLE_TASKS))
        values = rng.uniform(-1.0, 1.0, (s.size, TABLE_GRID.n + 1))
        batch = by_panel(kernel, values, s, c, d, tol=1e-12)
        alone = [
            by_panel(kernel, values[i : i + 1], [si], [ci], [di], tol=1e-12)[0]
            for i, (si, ci, di) in enumerate(TABLE_TASKS)
        ]
        np.testing.assert_allclose(batch, alone, rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("kernel", TABLE_KERNELS, ids=TABLE_IDS)
    def test_tables_follow_task_order(self, kernel, rng):
        # off-grid tasks and the grid tasks
        s, c, d = (np.array(col) for col in zip(*TABLE_TASKS))
        extra = rng.uniform(-0.5, 1.5, (3, 12))
        extra[1:].sort(axis=0)
        s, c, d = (np.concatenate(pair) for pair in zip((s, c, d), extra))
        smooth = kernel.kind == "smooth"
        power = 1.0 if smooth else 2.0 if kernel.kind == "log" else 1.0 / (1.0 - kernel.beta)
        q = 1.0 / power
        kind, ps, sgn, task, lo, hi = profile_tables_by_task(smooth, s, c, d, q)
        table = quadrature._profile_table(smooth, s, c, d, q)
        np.testing.assert_array_equal(table[0], kind)
        np.testing.assert_array_equal(table[1], ps)
        np.testing.assert_array_equal(table[2], sgn)
        np.testing.assert_array_equal(table[3], task)
        np.testing.assert_allclose(table[4], lo, rtol=1e-15, atol=0)
        np.testing.assert_allclose(table[5], hi, rtol=1e-15, atol=0)


class TestKronrodRule:
    def test_gauss_points_are_gauss_legendre_10(self):
        x, w = np.polynomial.legendre.leggauss(10)
        np.testing.assert_allclose(quadrature._GK_X[1::2], x, rtol=0, atol=1e-15)
        np.testing.assert_allclose(quadrature._G10_W, w, rtol=0, atol=1e-15)

    def test_kronrod_rule_is_exact_to_degree_31(self):
        x, w = quadrature._GK_X, quadrature._GK_W
        for k in range(32):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert float(np.sum(w * x**k)) == pytest.approx(exact, rel=0, abs=1e-15)


class TestMpmathOracle:
    """Reference values against mpmath at 30 digits, for the manufactured
    integrand of L = exp_st, F = sin_pi and exact = cos, at the ends of the
    domain, 1/256 of the way in, and an interior point."""

    @pytest.mark.parametrize("domain", [(0.0, 1.0), (0.3, 2.9)])
    @pytest.mark.parametrize("beta", [None, 0.1, 0.5, 0.9], ids=["log", "alg0.1", "alg0.5", "alg0.9"])
    def test_reference_meets_its_tolerance(self, beta, domain):
        import mpmath as mp

        a, b = domain
        kernel = log_kernel() if beta is None else algebraic_kernel(beta)
        points = [a, a + (b - a) / 256, a + 0.37 * (b - a), b]
        tol = 1e-10
        ref = quadrature.eval_operator_reference_parts(
            kernel, L_exp_st, get_nonlinearity("sin_pi"), np.cos, points, a, b, tol
        )
        with mp.workdps(30):
            for s, got in zip(points, ref):
                s_mp = mp.mpf(s)
                g = lambda t: mp.exp(s_mp * t) * mp.sin(mp.pi * mp.cos(t))
                truth = mpmath_kernel_integral(beta, s, a, b, g)
                assert abs(float(got - truth)) <= tol, (s, float(got - truth))

    @pytest.mark.xfail(
        strict=True,
        reason="the CHANGES.md FOUND line on adaptive_kernel_batch: the roundoff floor "
        "counts the rounding of the sum, not that of the power-mapped nodes and profile "
        "ends far from s, so this value is 3.7e-12 off against a tolerance of 1e-12",
    )
    def test_reference_meets_its_tolerance_far_from_a_steep_end(self):
        # log / L one / F cubic / exact exp on [0.3, 2.9]: the integrand
        # exp(3t) grows to ~6e3 at t = 2.9, far from s
        import mpmath as mp

        a, b, s, tol = 0.3, 2.9, 0.765, 1e-12
        (got,) = quadrature.eval_operator_reference_parts(
            log_kernel(), L_one, get_nonlinearity("cubic"), np.exp, [s], a, b, tol
        )
        with mp.workdps(30):
            truth = mpmath_kernel_integral(None, s, a, b, lambda t: mp.exp(3 * t))
        assert abs(float(got - truth)) <= tol, float(got - truth)
