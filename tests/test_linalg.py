import numpy as np
import pytest

from hammerstein import SingularSystemError, solve_dense


def test_identity():
    x = solve_dense(np.eye(2), np.array([3.0, -1.0]))
    np.testing.assert_array_equal(x, [3.0, -1.0])


def test_diagonal():
    x = solve_dense(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 8.0]))
    np.testing.assert_array_equal(x, [1.0, 2.0])


def test_recovers_known_solution(rng):
    M = rng.standard_normal((20, 20)) + 20.0 * np.eye(20)
    x_true = rng.standard_normal(20)
    x = solve_dense(M, M @ x_true)
    assert np.max(np.abs(x - x_true)) / np.max(np.abs(x_true)) <= 1e-12


def test_residual_bound_on_random_systems(rng):
    for _ in range(50):
        n = int(rng.integers(1, 102))
        M = rng.standard_normal((n, n)) + np.sqrt(n) * 4.0 * np.eye(n)
        rhs = rng.standard_normal(n)
        x = solve_dense(M, rhs)
        resid = np.max(np.abs(M @ x - rhs))
        scale = np.max(np.abs(M)) * np.max(np.abs(x)) + np.max(np.abs(rhs))
        assert resid / scale <= 1e-13


def test_permutation_equivariance(rng):
    n = 30
    M = rng.standard_normal((n, n)) + 10.0 * np.eye(n)
    rhs = rng.standard_normal(n)
    x = solve_dense(M, rhs)
    perm = rng.permutation(n)
    x_perm = solve_dense(M[perm], rhs[perm])
    assert np.max(np.abs(x - x_perm)) <= 1e-13 * max(1.0, np.max(np.abs(x)))


def test_singular_matrix_raises():
    M = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularSystemError):
        solve_dense(M, np.array([1.0, 1.0]))


def test_nearly_singular_raises():
    # rank-one defect at roundoff scale must be flagged, not solved
    M = np.eye(3)
    M[2, 2] = 1e-17
    with pytest.raises(SingularSystemError):
        solve_dense(M, np.ones(3))


def test_zero_matrix_raises():
    with pytest.raises(SingularSystemError):
        solve_dense(np.zeros((2, 2)), np.zeros(2))


@pytest.mark.parametrize(
    "M,rhs",
    [
        (np.ones((2, 3)), np.ones(2)),
        (np.ones((2, 2)), np.ones(3)),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2)),
    ],
)
def test_rejects_malformed_input(M, rhs):
    with pytest.raises(ValueError):
        solve_dense(M, rhs)


def test_does_not_mutate_inputs(rng):
    M = rng.standard_normal((5, 5)) + 5 * np.eye(5)
    rhs = rng.standard_normal(5)
    M0, r0 = M.copy(), rhs.copy()
    solve_dense(M, rhs)
    np.testing.assert_array_equal(M, M0)
    np.testing.assert_array_equal(rhs, r0)


@pytest.mark.parametrize(
    "M",
    [
        np.array([[1.0, 2.0], [2.0, 4.0]]),
        np.diag([1.0, 1.0, 1e-17]),
        np.zeros((2, 2)),
        # the threshold is eps times the max row sum, here 1.0
        np.diag([1.0, 0.5 * np.finfo(float).eps]),
    ],
)
def test_singular_below_the_threshold_raises(M):
    with pytest.raises(SingularSystemError):
        solve_dense(M, np.ones(M.shape[0]))


def test_solves_at_the_threshold():
    M = np.diag([1.0, 2.0 * np.finfo(float).eps])
    x = solve_dense(M, np.array([1.0, 1.0]))
    np.testing.assert_array_equal(x, [1.0, 0.5 / np.finfo(float).eps])


# The singularity check is a lower bound on cond_inf(M), from one solve on
# two probes (ones, and LAPACK dlacn2's alternating vector): a defect
# orthogonal to both probes is not caught, as the pivot threshold it replaced
# did not catch every defect either. These rank-one defects along smooth,
# constant and oscillating directions are caught.
def _rank_one_defect(m, u, delta):
    t = (np.arange(m) + 0.5) / m
    u = {
        "constant": np.ones(m),
        "sine": np.sin(np.pi * t),
        "alternating": np.where(np.arange(m) % 2 == 0, 1.0, -1.0),
    }[u]
    return np.eye(m) - (1.0 - delta) * np.outer(u, u) / (u @ u)


@pytest.mark.parametrize("u", ["constant", "sine", "alternating"])
@pytest.mark.parametrize("m", [2, 9, 65, 257])
def test_rank_one_defect_at_roundoff_raises(m, u):
    # 1 - 1e-17 rounds to 1, so M is a projector up to rounding
    M = _rank_one_defect(m, u, 1e-17)
    with pytest.raises(SingularSystemError):
        solve_dense(M, np.ones(m))


@pytest.mark.parametrize("u", ["constant", "sine", "alternating"])
@pytest.mark.parametrize("m", [2, 9, 65, 257])
def test_rank_one_defect_of_1e_3_solves(m, u, rng):
    M = _rank_one_defect(m, u, 1e-3)
    rhs = rng.standard_normal(m)
    x = solve_dense(M, rhs)
    resid = np.max(np.abs(M @ x - rhs))
    scale = np.max(np.abs(M)) * np.max(np.abs(x)) + np.max(np.abs(rhs))
    assert resid / scale <= 1e-13


def _relative_residual(M, x, rhs):
    resid = np.max(np.abs(M @ x - rhs))
    return resid / (np.max(np.abs(M)) * np.max(np.abs(x)) + np.max(np.abs(rhs)))


def test_solves_many_right_hand_sides(rng):
    # one M against several right-hand sides, as a Newton loop calls it
    M = rng.standard_normal((20, 20)) + 20.0 * np.eye(20)
    M0 = M.copy()
    for _ in range(3):
        rhs = rng.standard_normal(20)
        x = solve_dense(M, rhs)
        assert _relative_residual(M, x, rhs) <= 1e-13
        np.testing.assert_array_equal(solve_dense(M, rhs), x)
    np.testing.assert_array_equal(M, M0)
    with pytest.raises(ValueError):
        solve_dense(M, np.ones(19))


@pytest.mark.parametrize("m", [65, 1025])
def test_repeat_solves_agree_bytewise(m, rng):
    # the cached probe block is shared between calls; a solve must not depend
    # on which solves ran before it
    M = rng.standard_normal((m, m)) + 4.0 * np.sqrt(m) * np.eye(m)
    rhs = [rng.standard_normal(m) for _ in range(3)]
    first = [solve_dense(M, r) for r in rhs]
    again = [solve_dense(M, r) for r in reversed(rhs)][::-1]
    for r, x, y in zip(rhs, first, again):
        np.testing.assert_array_equal(y, x)
        assert _relative_residual(M, x, r) <= 1e-13
