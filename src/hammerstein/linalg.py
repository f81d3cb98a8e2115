"""Dense solves for the small Newton systems.

Matrices are plain 2-D float arrays. A solve is one call of numpy's LAPACK
gesv (LU with partial pivoting) on [rhs, p1, p2]: p1 is all ones and
p2_i = (-1)^i (1 + i/(m - 1)) is the alternating test vector of LAPACK's
dlacn2. gesv flags only an exact zero pivot and numpy exposes no pivots, so
the probes give the singularity check: with x_j = M^-1 p_j,

    ||M||_inf * max_j ||x_j||_inf / ||p_j||_inf  <=  cond_inf(M),

a lower bound (Hager, SIAM J. Sci. Stat. Comput. 1984; Higham, Accuracy and
Stability of Numerical Algorithms, 2002, section 15.3). Above 1/eps the
system is numerically singular and SingularSystemError is raised instead of
returning amplified noise. The smooth probe finds smooth near-null vectors,
the alternating one oscillating ones; a defect orthogonal to both is missed,
as the pivot threshold this check replaced missed some of its own. scipy's
LU would keep its factors for reuse, but importing scipy.linalg was over
half of every cold start.
"""

from __future__ import annotations

import functools

import numpy as np

_EPS = np.finfo(float).eps


class SingularSystemError(RuntimeError):
    """The linear system is numerically singular at working precision."""


def solve_dense(M, rhs) -> np.ndarray:
    """Solve M x = rhs by LU with partial pivoting: one gesv on [rhs, p1, p2].

    A malformed rhs raises ValueError before M is factored. Raises
    SingularSystemError when gesv meets an exact zero pivot or the condition
    estimate exceeds 1/eps. The inputs are not modified.
    """
    if np.ndim(M) == 2:
        rhs = _checked_rhs(rhs, np.shape(M)[0])
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    # a row sum, and the estimate below, may overflow to inf, which the
    # checks read as intended: out of range, not an error of their own
    with np.errstate(over="ignore"):
        norm = np.abs(M).sum(axis=1).max()
    if not np.isfinite(norm) and not np.isfinite(M).all():
        raise ValueError("matrix and rhs entries must be finite")
    B = _probe_block(M.shape[0]).copy()
    B[:, 0] = rhs
    try:
        X = np.linalg.solve(M, B)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    # the probes have unit max-norm, so this is kappa * eps
    with np.errstate(over="ignore"):
        kappa_eps = np.abs(X[:, 1:]).max() * norm * _EPS
    if not kappa_eps <= 1.0:
        raise SingularSystemError(
            f"condition estimate {kappa_eps / _EPS:.1e} above 1/eps; "
            "system is numerically singular"
        )
    return X[:, 0].copy()


@functools.lru_cache(maxsize=16)
def _probe_block(m: int) -> np.ndarray:
    """The read-only block [0, p1, p2], each probe scaled by a power of two
    to unit max-norm, so its solve is that of the probe scaled exactly."""
    i = np.arange(m)
    p2 = np.where(i % 2 == 0, 1.0, -1.0) * (1.0 + i / max(m - 1, 1))
    block = np.stack((np.zeros(m), np.ones(m), p2 / np.abs(p2).max()), axis=1)
    block.flags.writeable = False
    return block


def _checked_rhs(rhs, size: int) -> np.ndarray:
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (size,):
        raise ValueError(f"rhs length {rhs.shape} does not match matrix size {size}")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("matrix and rhs entries must be finite")
    return rhs
