import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hammerstein import (
    FUNCTIONS,
    NONLINEARITIES,
    HammersteinProblem,
    SampledFunction,
    get_nonlinearity,
    log_kernel,
    make_grid,
    manufactured_problem,
    polynomial_nonlinearity,
    verify_derivatives,
)
from hammerstein.problem import L_one
from hammerstein.quadrature import eval_operator_reference_parts


class TestGrid:
    def test_quarters(self):
        g = make_grid(0, 1, 4)
        assert g.h == 0.25
        np.testing.assert_array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_single_panel(self):
        g = make_grid(0, 1, 1)
        np.testing.assert_array_equal(g.nodes, [0.0, 1.0])
        assert g.h == 1.0

    def test_fifty_panels(self):
        g = make_grid(0, 1, 50)
        assert g.h == 0.02
        assert g.nodes.size == 51

    @pytest.mark.parametrize("a,b,n", [(1.0, 1.0, 4), (2.0, 1.0, 4), (0.0, 1.0, 0)])
    def test_rejects_bad_input(self, a, b, n):
        with pytest.raises(ValueError):
            make_grid(a, b, n)

    @given(
        a=st.floats(-10, 10),
        width=st.floats(0.01, 20),
        n=st.integers(1, 400),
    )
    @settings(max_examples=80, deadline=None)
    def test_endpoints_exact_and_spacing_uniform(self, a, width, n):
        b = a + width
        g = make_grid(a, b, n)
        assert g.nodes[0] == a
        assert g.nodes[-1] == b
        assert np.all(np.diff(g.nodes) > 0)
        gaps = np.diff(g.nodes)
        # adjacent-node differences carry roundoff at the magnitude of the
        # nodes themselves, so that is the scale of "4 units of roundoff"
        scale = np.spacing(max(abs(a), abs(b), g.h))
        assert np.max(np.abs(gaps - g.h)) <= 4 * scale

    def test_nodes_immutable(self):
        g = make_grid(0, 1, 4)
        with pytest.raises(ValueError):
            g.nodes[0] = 5.0


class TestNonlinearities:
    @pytest.mark.parametrize("name", sorted(NONLINEARITIES))
    def test_registry_derivatives_match_finite_differences(self, name, rng):
        verify_derivatives(get_nonlinearity(name), rng)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="nope"):
            get_nonlinearity("nope")

    def test_polynomial_derivatives(self, rng):
        nl = polynomial_nonlinearity([1.0, -2.0, 0.5, 3.0])
        verify_derivatives(nl, rng)
        u = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(nl.F(0.0, u), 1 - 2 * u + 0.5 * u**2 + 3 * u**3)
        np.testing.assert_allclose(nl.dF(0.0, u), -2 + u + 9 * u**2)

    @pytest.mark.parametrize(
        "coeffs", [[0.7], [0, 0, 0.15], [1.0, -2.0, 0.5, 3.0], [0.0, 1.0, 0.0, 0.0, -0.25]]
    )
    def test_polynomial_matches_polyval_bitwise(self, coeffs, rng):
        # F and dF run polyval's multiply-adds in place: the same values, bit
        # for bit, as polyval(u, c) + 0.0 * t, on random, zero and broadcast
        # inputs, and non-finite where u is
        c = np.asarray(coeffs, dtype=float)
        dc = np.polynomial.polynomial.polyder(c) if c.size > 1 else np.zeros(1)
        nl = polynomial_nonlinearity(coeffs)
        t = rng.uniform(-1.0, 2.0, (16, 40))
        cases = [
            (t, 3.0 * rng.standard_normal(t.shape)),
            (t, np.zeros(t.shape)),
            (t, -np.zeros(t.shape)),
            (t[:, :1], rng.standard_normal((1, 40))),
            (0.5, rng.standard_normal(40)),
            (t, -1.25),
            (0.25, 1.5),
            (np.zeros(3), np.array([np.inf, -np.inf, np.nan])),
        ]
        pv = np.polynomial.polynomial.polyval
        with np.errstate(invalid="ignore"):
            for tt, u in cases:
                for got, cc in ((nl.F(tt, u), c), (nl.dF(tt, u), dc)):
                    want = pv(u, cc) + 0.0 * tt
                    assert np.shape(got) == np.shape(want)
                    assert np.array_equal(got, want, equal_nan=True)
                    assert np.array_equal(np.signbit(got), np.signbit(want))
            assert not np.any(np.isfinite(nl.F(np.zeros(3), np.array([np.inf, -np.inf, np.nan]))))

    def test_polynomial_rejects_empty(self):
        with pytest.raises(ValueError):
            polynomial_nonlinearity([])

    def test_verify_catches_wrong_derivative(self, rng):
        from hammerstein import Nonlinearity

        bad = Nonlinearity("bad", lambda t, u: u**2, lambda t, u: 3.0 * u)
        with pytest.raises(ValueError, match="dF"):
            verify_derivatives(bad, rng)


class TestSampledFunction:
    def test_exact_at_points(self):
        f = SampledFunction([0.0, 0.25, 1.0], [1.0, -3.0, 2.0])
        assert f(0.25) == -3.0
        assert f(0.0) == 1.0
        assert f(1.0) == 2.0

    @given(
        values=st.lists(st.floats(-100, 100), min_size=2, max_size=20),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_at_points_random(self, values, seed):
        r = np.random.default_rng(seed)
        pts = np.sort(r.choice(np.linspace(0, 1, 1000), size=len(values), replace=False))
        f = SampledFunction(pts, values)
        np.testing.assert_array_equal(f(pts), values)

    def test_midpoint_is_mean(self):
        pts = np.array([0.0, 0.5, 0.75])
        vals = np.array([2.0, -4.0, 10.0])
        f = SampledFunction(pts, vals)
        mids = 0.5 * (pts[:-1] + pts[1:])
        means = 0.5 * (vals[:-1] + vals[1:])
        got = f(mids)
        assert np.max(np.abs(got - means)) <= 4 * np.spacing(np.abs(means)).max()

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SampledFunction([0.0, 0.5, 0.5, 1.0], [1, 2, 3, 4])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            SampledFunction([0.0, 1.0], [1.0, 2.0, 3.0])


class TestHammersteinProblem:
    def test_rejects_nonfinite_smooth_factor(self):
        def bad_L(s, t):
            with np.errstate(divide="ignore"):
                return 1.0 / (s - t)  # infinite on the diagonal of the lattice

        with pytest.raises(ValueError, match="finite"):
            HammersteinProblem(
                0.0, 1.0, log_kernel(), bad_L, get_nonlinearity("identity"), FUNCTIONS["one"]
            )

    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            HammersteinProblem(
                1.0, 0.0, log_kernel(), L_one, get_nonlinearity("zero"), FUNCTIONS["one"]
            )


class TestManufactured:
    def test_constant_solution_gives_constant_rhs(self, benchmark_problem):
        # exact == 1 with the sine nonlinearity kills the integral term
        prob = manufactured_problem(
            log_kernel(), L_one, get_nonlinearity("sin_pi"), FUNCTIONS["one"], quad_tol=1e-12
        )
        s = np.linspace(0, 1, 9)
        np.testing.assert_allclose(prob.y(s), 1.0, rtol=0, atol=1e-14)

    def test_zero_solution_zero_nonlinearity(self):
        prob = manufactured_problem(
            log_kernel(), L_one, get_nonlinearity("zero"), FUNCTIONS["zero"], quad_tol=1e-12
        )
        s = np.linspace(0, 1, 5)
        np.testing.assert_array_equal(prob.y(s), 0.0)

    def test_cosine_square_golden_value(self, cosine_problem):
        # frozen from a 40-digit tanh-sinh evaluation of
        # cos(1/2) - int_0^1 log|1/2-t| cos(t)^2 dt  (see tests/golden note)
        assert abs(cosine_problem.y(0.5) - 2.1373108213251033) < 2e-10

    def test_rhs_scalar_and_array_agree(self, cosine_problem):
        s = np.array([0.2, 0.8])
        vec = cosine_problem.y(s)
        assert vec.shape == (2,)
        assert cosine_problem.y(0.2) == vec[0]

    def test_manufactured_residual(self, cosine_problem):
        # exact(s) - (operator at exact)(s) - y(s) vanishes to quadrature accuracy
        tol = cosine_problem.y.tol
        s = np.linspace(0, 1, 11)
        p = cosine_problem
        k_ref = eval_operator_reference_parts(p.kernel, p.L, p.nonlin, np.cos, s, p.a, p.b, tol=tol)
        resid = np.cos(s) - k_ref - cosine_problem.y(s)
        assert np.max(np.abs(resid)) <= 2 * tol

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            manufactured_problem(
                log_kernel(), L_one, get_nonlinearity("zero"), FUNCTIONS["zero"], quad_tol=0.0
            )
