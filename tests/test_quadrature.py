import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hammerstein import (
    FUNCTIONS,
    HammersteinProblem,
    QuadratureConfig,
    QuadratureConvergenceError,
    SampledFunction,
    adaptive_kernel_batch,
    algebraic_kernel,
    eval_operator,
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
from oracles import oracle_weight_rows

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
    def test_zero_nonlinearity(self):
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L_one, get_nonlinearity("zero"), FUNCTIONS["one"]
        )
        for mode in ("fine", "subtract"):
            cfg = QuadratureConfig(n_fine=64, mode=mode)
            assert eval_operator(prob, FUNCTIONS["one"], 0.4, cfg) == 0.0

    def test_benchmark_constant_iterate(self, benchmark_problem):
        # sine nonlinearity at the constant 1 integrates to (numerical) zero
        for s in (0.0, 0.317, 1.0):
            v = eval_operator(benchmark_problem, FUNCTIONS["one"], s, QuadratureConfig(n_fine=256))
            assert abs(v) < 1e-14

    def test_identity_linear_iterate_both_modes(self):
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L_one, get_nonlinearity("identity"), FUNCTIONS["zero"]
        )
        x = lambda t: np.asarray(t, dtype=float)
        ref = eval_operator_reference(prob, x, 0.5, tol=1e-9)
        fine = eval_operator(prob, x, 0.5, QuadratureConfig(n_fine=4096))
        sub = eval_operator(prob, x, 0.5, QuadratureConfig(mode="subtract"))
        assert fine == pytest.approx(ref, abs=1e-6)
        assert sub == pytest.approx(ref, abs=1e-6)
        assert fine == pytest.approx(0.5 * (np.log(0.5) - 1.0), abs=1e-12)

    def test_mode_agreement_on_smooth_iterate(self, rng):
        prob = HammersteinProblem(
            0.0, 1.0, log_kernel(), L_one, get_nonlinearity("square"), FUNCTIONS["zero"]
        )
        svals = np.concatenate([rng.uniform(0, 1, 12), [0.0, 0.5, 1.0]])
        for s in svals:
            fine = eval_operator(prob, np.cos, s, QuadratureConfig(n_fine=4096))
            sub = eval_operator(prob, np.cos, s, QuadratureConfig(mode="subtract", gl_points=16))
            assert abs(fine - sub) <= 1e-6


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
        for _ in range(20):
            coeffs = rng.standard_normal(4)
            x = lambda t, c=coeffs: np.polynomial.polynomial.polyval(t, c)
            s = float(rng.uniform(0, 1))
            ref = eval_operator_reference(prob, x, s, tol=1e-9)
            fine = eval_operator(prob, x, s, QuadratureConfig(n_fine=4096))
            sub = eval_operator(prob, x, s, QuadratureConfig(mode="subtract"))
            scale = 1.0 + abs(ref)
            assert abs(ref - fine) <= 1e-6 * scale
            assert abs(ref - sub) <= 1e-8 * scale

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


class TestQuadratureConfig:
    def test_defaults(self):
        cfg = QuadratureConfig()
        assert cfg.n_fine == 4096 and cfg.mode == "fine" and cfg.gl_points == 16

    @pytest.mark.parametrize(
        "kwargs", [{"n_fine": 1}, {"mode": "magic"}, {"gl_points": 1}]
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureConfig(**kwargs)
