"""Problem definitions: grids, singular kernels, nonlinearities, equation bundles.

The equation solved throughout the package is a nonlinear second-kind
Fredholm equation of Hammerstein type on a real interval [a, b],

    u(s) - int_a^b H(s,t) L(s,t) F(t, u(t)) dt = y(s),

where H is a weakly singular factor (logarithmic or an integrable negative
power of |s-t|), L is a smooth kernel factor and F is a pointwise
nonlinearity. All callables are expected to be numpy-vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

KERNEL_LOG = "log"
KERNEL_ALG = "alg"
KERNEL_SMOOTH = "smooth"


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [a, b] into n panels of width h."""

    a: float
    b: float
    n: int
    h: float
    nodes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", _frozen_array(self.nodes))


def _frozen_array(x) -> np.ndarray:
    arr = np.array(x, dtype=float, copy=True)
    arr.flags.writeable = False
    return arr


def _sorted_unique(x) -> np.ndarray:
    """np.unique of a 1-D array: its sorted distinct values. np.unique calls
    np.ma.is_masked, and importing numpy.ma took 9-14 ms of a cold start."""
    x = np.sort(x)
    keep = np.empty(x.size, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def make_grid(a: float, b: float, n: int) -> Grid:
    """Uniform grid with n subintervals; endpoints are reproduced exactly."""
    a = float(a)
    b = float(b)
    if not (a < b):
        raise ValueError(f"grid endpoints must satisfy a < b, got a={a}, b={b}")
    if n < 1:
        raise ValueError(f"grid needs at least one panel, got n={n}")
    nodes = np.linspace(a, b, n + 1)
    return Grid(a=a, b=b, n=int(n), h=(b - a) / n, nodes=nodes)


@dataclass(frozen=True)
class SingularKernel:
    """Weakly singular kernel factor H(s,t).

    kind "log" is log|s-t|; kind "alg" is |s-t|**(-beta) with 0 < beta < 1
    (the negative exponent makes the singularity integrable); kind "smooth"
    wraps an arbitrary bounded callable and carries no singularity.
    """

    kind: str
    beta: Optional[float] = None
    func: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in (KERNEL_LOG, KERNEL_ALG, KERNEL_SMOOTH):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == KERNEL_ALG:
            if self.beta is None or not (0.0 < self.beta < 1.0):
                raise ValueError(
                    f"algebraic kernel exponent beta must lie in (0, 1), got {self.beta}"
                )
        if self.kind == KERNEL_SMOOTH and self.func is None:
            raise ValueError("smooth kernel requires a callable")

    def evaluate(self, s, t):
        """Pointwise kernel values; unbounded at s == t for singular kinds."""
        if self.kind == KERNEL_LOG:
            return np.log(np.abs(np.asarray(s, dtype=float) - t))
        if self.kind == KERNEL_ALG:
            return np.abs(np.asarray(s, dtype=float) - t) ** (-self.beta)
        return self.func(s, t)


def log_kernel() -> SingularKernel:
    return SingularKernel(KERNEL_LOG)


def algebraic_kernel(beta: float) -> SingularKernel:
    return SingularKernel(KERNEL_ALG, beta=float(beta))


def smooth_kernel(func: Callable) -> SingularKernel:
    return SingularKernel(KERNEL_SMOOTH, func=func)


@dataclass(frozen=True)
class Nonlinearity:
    """Pointwise nonlinearity F(t, u) with its u-derivative dF."""

    name: str
    F: Callable
    dF: Callable


def _const(value):
    def fn(t, u):
        return np.full(np.broadcast_shapes(np.shape(t), np.shape(u)), float(value))

    return fn


NONLINEARITIES: dict[str, Nonlinearity] = {
    "identity": Nonlinearity("identity", lambda t, u: u + 0.0 * t, _const(1.0)),
    "zero": Nonlinearity("zero", _const(0.0), _const(0.0)),
    "sin_pi": Nonlinearity(
        "sin_pi",
        lambda t, u: np.sin(np.pi * u) + 0.0 * t,
        lambda t, u: np.pi * np.cos(np.pi * u) + 0.0 * t,
    ),
    "square": Nonlinearity(
        "square",
        lambda t, u: u**2 + 0.0 * t,
        lambda t, u: 2.0 * u + 0.0 * t,
    ),
    "cubic": Nonlinearity(
        "cubic",
        lambda t, u: u**3 + 0.0 * t,
        lambda t, u: 3.0 * u**2 + 0.0 * t,
    ),
}


def get_nonlinearity(name: str) -> Nonlinearity:
    try:
        return NONLINEARITIES[name]
    except KeyError:
        known = ", ".join(sorted(NONLINEARITIES))
        raise KeyError(f"unknown nonlinearity {name!r} (known: {known})") from None


def polynomial_nonlinearity(coeffs: Sequence[float]) -> Nonlinearity:
    """Nonlinearity F(t, u) = sum_i coeffs[i] * u**i with its exact derivative."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("polynomial coefficients must be a nonempty 1-D sequence")
    dc = np.polynomial.polynomial.polyder(c) if c.size > 1 else np.zeros(1)
    return Nonlinearity(
        name="poly",
        F=lambda t, u: _horner_in_place(c, t, u),
        dF=lambda t, u: _horner_in_place(dc, t, u),
    )


def _horner_in_place(c: np.ndarray, t, u):
    """sum_i c[i] u**i in one array of the broadcast shape of t and u.

    The multiply-adds of np.polynomial.polynomial.polyval in its order,
    c[-1] + 0 u first, so a non-finite u gives a non-finite value; for a
    finite t the values are polyval(u, c) + 0.0 * t bit for bit (unless
    c[0] is -0.0), without its temporaries."""
    acc = np.multiply(u, 0.0, out=np.empty(np.broadcast(t, u).shape))
    acc += c[-1]
    for ci in c[-2::-1]:
        acc *= u
        acc += ci
    return acc if acc.ndim else acc[()]


def verify_derivatives(
    nonlin: Nonlinearity,
    rng: np.random.Generator,
    n_samples: int = 100,
    t_range: tuple[float, float] = (0.0, 1.0),
    u_range: tuple[float, float] = (-2.0, 2.0),
    step: float = 1e-5,
    rel_tol: float = 1e-6,
) -> None:
    """Spot-check dF against centered differences of F.

    Raises ValueError on disagreement. The comparison scale is max(1, |dF|)
    so that isolated zeros of the derivative do not trip the check.
    """
    t = rng.uniform(*t_range, size=n_samples)
    u = rng.uniform(*u_range, size=n_samples)
    fd = (np.asarray(nonlin.F(t, u + step)) - np.asarray(nonlin.F(t, u - step))) / (2.0 * step)
    exact = np.asarray(nonlin.dF(t, u))
    err = np.abs(fd - exact) / np.maximum(1.0, np.abs(exact))
    if not np.all(err <= rel_tol):
        i = int(np.argmax(err))
        raise ValueError(
            f"nonlinearity {nonlin.name!r}: dF disagrees with finite "
            f"differences at (t={t[i]:.6g}, u={u[i]:.6g}): rel err {err[i]:.3e}"
        )


@dataclass(frozen=True)
class HammersteinProblem:
    """Complete problem instance for u - int H*L*F(., u) = y on [a, b].

    ``exact`` is optional; when present it is used for true-error reporting
    only and never enters the solvers.
    """

    a: float
    b: float
    kernel: SingularKernel
    L: Callable
    nonlin: Nonlinearity
    y: Callable
    exact: Optional[Callable] = None

    def __post_init__(self):
        if not (self.a < self.b):
            raise ValueError(f"domain must satisfy a < b, got [{self.a}, {self.b}]")
        ss = np.linspace(self.a, self.b, 33)
        # an L that overflows on the domain fails the check below, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(self.L(ss[:, None], ss[None, :]), dtype=float)
        if vals.shape != (33, 33):
            vals = np.broadcast_to(vals, (33, 33))
        if not np.all(np.isfinite(vals)):
            raise ValueError("smooth kernel factor L is not finite on the sample lattice")


@dataclass(frozen=True)
class SampledFunction:
    """Function represented by values on a fixed sorted point set.

    Off-point evaluation is piecewise-linear interpolation; evaluation at a
    stored point returns the stored value exactly.
    """

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        pts = _frozen_array(self.points)
        vals = _frozen_array(self.values)
        if pts.ndim != 1 or pts.shape != vals.shape:
            raise ValueError("points and values must be 1-D arrays of equal length")
        if pts.size < 2:
            raise ValueError("need at least two sample points")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("points must be strictly increasing (no duplicates)")
        if not np.all(np.isfinite(vals)):
            raise ValueError("sampled values must be finite")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)

    def __call__(self, s):
        return np.interp(s, self.points, self.values)


class _ManufacturedRHS:
    """Right-hand side y(s) = exact(s) - (operator applied to exact)(s).

    The operator value is produced by the adaptive reference quadrature and
    memoized per evaluation point, so repeated sampling on overlapping point
    sets pays for each point once.
    """

    def __init__(self, problem_parts, exact, tol):
        self._parts = problem_parts  # (kernel, L, nonlin, a, b)
        self._exact = exact
        self.tol = float(tol)
        self._cache: dict[float, float] = {}

    def __call__(self, s):
        from .quadrature import eval_operator_reference_parts

        scalar = np.ndim(s) == 0
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        flat = s_arr.ravel()
        missing = np.array(sorted({v for v in flat.tolist() if v not in self._cache}))
        if missing.size:
            kernel, L, nonlin, a, b = self._parts
            kvals = eval_operator_reference_parts(
                kernel, L, nonlin, self._exact, missing, a, b, self.tol
            )
            self._cache.update(zip(missing.tolist(), kvals.tolist()))
        kv = np.array([self._cache[v] for v in flat.tolist()])
        out = np.asarray(self._exact(flat), dtype=float) - kv
        out = out.reshape(s_arr.shape)
        return float(out[0]) if scalar else out


def manufactured_problem(
    kernel: SingularKernel,
    L: Callable,
    nonlin: Nonlinearity,
    exact: Callable,
    quad_tol: float = 1e-10,
    a: float = 0.0,
    b: float = 1.0,
) -> HammersteinProblem:
    """Build a problem whose known solution is ``exact``.

    The right-hand side is constructed point by point from the reference
    quadrature at absolute tolerance ``quad_tol``.
    """
    if quad_tol <= 0:
        raise ValueError("quad_tol must be positive")
    rhs = _ManufacturedRHS((kernel, L, nonlin, float(a), float(b)), exact, quad_tol)
    return HammersteinProblem(
        a=float(a), b=float(b), kernel=kernel, L=L, nonlin=nonlin, y=rhs, exact=exact
    )


def L_one(s, t):
    return np.full(np.broadcast_shapes(np.shape(s), np.shape(t)), 1.0)


def L_zero(s, t):
    return np.full(np.broadcast_shapes(np.shape(s), np.shape(t)), 0.0)


def L_exp_st(s, t):
    return np.exp(np.asarray(s, dtype=float) * t)


SMOOTH_FACTORS: dict[str, Callable] = {"one": L_one, "zero": L_zero, "exp_st": L_exp_st}

FUNCTIONS: dict[str, Callable] = {
    "one": lambda s: np.full(np.shape(s), 1.0) if np.ndim(s) else 1.0,
    "zero": lambda s: np.full(np.shape(s), 0.0) if np.ndim(s) else 0.0,
    "cos": np.cos,
    "sin": np.sin,
    "exp": np.exp,
}
