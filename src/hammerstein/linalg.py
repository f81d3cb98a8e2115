"""Dense solves for the small Newton systems.

Matrices are plain 2-D float arrays. Factorization is LAPACK LU with
partial pivoting (via scipy); on top of it we enforce an explicit pivot
threshold so that a numerically singular system raises instead of silently
amplifying noise.
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve


class SingularSystemError(RuntimeError):
    """The linear system is numerically singular at working precision."""


def factor_dense(M) -> Callable[[np.ndarray], np.ndarray]:
    """LU factors of M with partial pivoting, as a function rhs -> M^-1 rhs.

    Raises SingularSystemError when any pivot magnitude falls below
    machine epsilon times the max-norm of M. M is not modified, and the
    returned function does not modify its argument.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix and rhs entries must be finite")
    norm = np.max(np.sum(np.abs(M), axis=1))
    try:
        with warnings.catch_warnings():
            # an exact zero pivot only warns in scipy; the threshold check
            # below turns it into SingularSystemError
            warnings.simplefilter("ignore", LinAlgWarning)
            lu, piv = lu_factor(M)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    pivots = np.abs(np.diag(lu))
    threshold = np.finfo(float).eps * norm
    if norm == 0.0 or np.any(pivots < threshold):
        raise SingularSystemError(
            f"pivot below threshold {threshold:.3e}; system is numerically singular"
        )

    def solve(rhs) -> np.ndarray:
        return lu_solve((lu, piv), _checked_rhs(rhs, M.shape[0]))

    return solve


def solve_dense(M, rhs) -> np.ndarray:
    """Solve M x = rhs by LU with partial pivoting: factor_dense(M)(rhs).

    A malformed rhs raises ValueError before M is factored; a singular M
    raises SingularSystemError as in factor_dense. The inputs are not
    modified.
    """
    if np.ndim(M) == 2:
        _checked_rhs(rhs, np.shape(M)[0])
    return factor_dense(M)(rhs)


def _checked_rhs(rhs, size: int) -> np.ndarray:
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (size,):
        raise ValueError(f"rhs length {rhs.shape} does not match matrix size {size}")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("matrix and rhs entries must be finite")
    return rhs
