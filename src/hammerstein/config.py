"""JSON run configuration: parsing, validation, and default filling.

A minimal config looks like

    {"kernel": "log", "L": "one", "F": "sin_pi", "y": 1, "n": 50}

Every unknown key, unknown registry name or out-of-range value raises
ConfigError with the offending field path in the message.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Optional

import numpy as np

from .newton_dl import DLSettings
from .newton_ld import LDSettings
from .problem import (
    FUNCTIONS,
    NONLINEARITIES,
    SMOOTH_FACTORS,
    HammersteinProblem,
    Nonlinearity,
    SingularKernel,
    algebraic_kernel,
    get_nonlinearity,
    log_kernel,
    manufactured_problem,
    polynomial_nonlinearity,
    verify_derivatives,
)

SEED_ENV_VAR = "HAMMERSTEIN_SEED"

SCHEMA_VERSION = 1

_DEFAULTS: dict[str, Any] = {
    "schema": SCHEMA_VERSION,
    "domain": [0.0, 1.0],
    "beta": None,
    "y": None,
    "exact": None,
    "solver": "both",
    # tol, max_iter, sample_count, n_fine and mode, as LDSettings has them
    **{f.name: f.default for f in fields(LDSettings)},
    "phi0": "y",
    "quad_tol": 1e-10,
    "target_error": 1e-6,
    "seed": 0,
    "record_timings": False,
    "out_dir": None,
}

_REQUIRED = ("kernel", "L", "F", "n")

# numpy refuses an array of more than intp.max bytes ("array is too big");
# n, n_fine and sample_count each size an array of at least value + 1 floats
_MAX_NODES = np.iinfo(np.intp).max // 8


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


@dataclass
class RunConfig:
    """Fully validated run description with the problem already built."""

    problem: HammersteinProblem
    n: int
    solver: str
    ld: LDSettings
    dl: DLSettings
    phi0: Any
    seed: int
    target_error: float
    record_timings: bool
    out_dir: Optional[Path]
    effective: dict = field(default_factory=dict)


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _expect(cond: bool, path: str, message: str):
    if not cond:
        _fail(path, message)


def _as_number(raw, path: str, *, integer=False) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        _fail(path, f"expected a number, got {type(raw).__name__}")
    # Python's json reads NaN, Infinity and integers of any size
    if not abs(raw) <= sys.float_info.max:
        shown = raw if isinstance(raw, float) else "an integer beyond the float range"
        _fail(path, f"expected a finite number, got {shown}")
    if integer and int(raw) != raw:
        _fail(path, f"expected an integer, got {raw}")
    return int(raw) if integer else float(raw)


def _expect_array_size(value: int, path: str) -> None:
    _expect(value + 1 <= _MAX_NODES, path, f"too large for a node array, got {value}")


def _grid_size(raw, path: str) -> int:
    n = _as_number(raw, path, integer=True)
    _expect(n >= 1, path, f"must be at least 1, got {n}")
    _expect_array_size(n, path)
    return n


def check_grid_sizes(raw, path: str = "n_list") -> list[int]:
    """The grid sizes of a sweep, each checked as the config's ``n`` is:
    a nonempty, strictly ascending list of integers from 1 up to the size
    of a node array."""
    _expect(len(raw) > 0, path, "expected at least one grid size")
    sizes = [_grid_size(n, f"{path}[{i}]") for i, n in enumerate(raw)]
    _expect(all(a < b for a, b in zip(sizes, sizes[1:])), path, f"must be strictly ascending, got {sizes}")
    return sizes


def _build_kernel(kind, beta, path: str) -> SingularKernel:
    if kind == "log":
        return log_kernel()
    if kind == "alg":
        _expect(beta is not None, "beta", "required for the algebraic kernel")
        beta = _as_number(beta, "beta")
        _expect(0.0 < beta < 1.0, "beta", f"must lie in (0, 1), got {beta}")
        return algebraic_kernel(beta)
    _fail(path, f"unknown kernel {kind!r} (known: log, alg)")


def _build_nonlinearity(raw, path: str) -> Nonlinearity:
    if isinstance(raw, dict):
        coeffs = raw.get("poly")
        _expect(coeffs is not None, path, "object form must be {'poly': [coefficients]}")
        if isinstance(coeffs, list):
            coeffs = [_as_number(c, f"{path}.poly[{i}]") for i, c in enumerate(coeffs)]
        try:
            return polynomial_nonlinearity(coeffs)
        except ValueError as exc:
            _fail(f"{path}.poly", str(exc))
    try:
        return get_nonlinearity(raw)
    except (KeyError, TypeError):
        known = ", ".join(sorted(NONLINEARITIES))
        _fail(path, f"unknown nonlinearity {raw!r} (known: {known}, or {{'poly': [...]}})")


def _build_function(raw, path: str):
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        value = _as_number(raw, path)
        return lambda s: np.full(np.shape(s), value) if np.ndim(s) else value
    if isinstance(raw, str):
        if raw in FUNCTIONS:
            return FUNCTIONS[raw]
        known = ", ".join(sorted(FUNCTIONS))
        _fail(path, f"unknown function {raw!r} (known: {known}, or a literal number)")
    _fail(path, f"expected a number or function name, got {type(raw).__name__}")


def config_from_dict(raw: dict, out_dir_override=None) -> RunConfig:
    """Validate a configuration dictionary and build the run description."""
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    known_keys = set(_DEFAULTS) | set(_REQUIRED)
    for key in raw:
        if key not in known_keys:
            _fail(key, f"unknown configuration key (known: {', '.join(sorted(known_keys))})")
    for key in _REQUIRED:
        _expect(key in raw, key, "required key is missing")
    cfg = {**_DEFAULTS, **raw}

    _expect(cfg["schema"] == SCHEMA_VERSION, "schema", f"expected version {SCHEMA_VERSION}")
    domain = cfg["domain"]
    _expect(
        isinstance(domain, (list, tuple)) and len(domain) == 2,
        "domain",
        "expected [a, b]",
    )
    a = _as_number(domain[0], "domain[0]")
    b = _as_number(domain[1], "domain[1]")
    _expect(a < b, "domain", f"need a < b, got [{a}, {b}]")

    kernel = _build_kernel(cfg["kernel"], cfg["beta"], "kernel")
    _expect(cfg["L"] in SMOOTH_FACTORS, "L", f"unknown name {cfg['L']!r} (known: {', '.join(sorted(SMOOTH_FACTORS))})")
    L = SMOOTH_FACTORS[cfg["L"]]
    nonlin = _build_nonlinearity(cfg["F"], "F")

    n = _grid_size(cfg["n"], "n")

    solver = cfg["solver"]
    _expect(solver in ("ld", "dl", "both"), "solver", f"must be ld, dl or both, got {solver!r}")

    tol = _as_number(cfg["tol"], "tol")
    max_iter = _as_number(cfg["max_iter"], "max_iter", integer=True)
    n_fine = _as_number(cfg["n_fine"], "n_fine", integer=True)
    sample_count = _as_number(cfg["sample_count"], "sample_count", integer=True)
    _expect_array_size(n_fine, "n_fine")
    _expect_array_size(sample_count, "sample_count")
    # the settings classes check their own ranges; their messages start
    # with the field name
    try:
        ld = LDSettings(tol=tol, max_iter=max_iter, sample_count=sample_count,
                        n_fine=n_fine, mode=cfg["mode"])
        dl = DLSettings(tol=tol, max_iter=max_iter, sample_count=sample_count)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    quad_tol = _as_number(cfg["quad_tol"], "quad_tol")
    _expect(quad_tol > 0, "quad_tol", "must be positive")
    target_error = _as_number(cfg["target_error"], "target_error")
    _expect(target_error > 0, "target_error", "must be positive")
    record_timings = cfg["record_timings"]
    _expect(isinstance(record_timings, bool), "record_timings", "must be true or false")

    seed = cfg["seed"]
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            _fail(SEED_ENV_VAR, f"environment override must be an integer, got {env_seed!r}")
    else:
        seed = _as_number(seed, "seed", integer=True)

    # sampled validation of the nonlinearity derivatives, driven by the seed
    rng = np.random.default_rng(seed)
    try:
        verify_derivatives(nonlin, rng)
    except ValueError as exc:
        _fail("F", str(exc))

    exact = None
    y_raw = cfg["y"]
    try:
        if isinstance(y_raw, dict):
            name = y_raw.get("manufactured")
            _expect(
                name is not None,
                "y",
                "object form must be {'manufactured': <exact solution name>}",
            )
            exact_fn = _build_function(name, "y.manufactured")
            problem = manufactured_problem(kernel, L, nonlin, exact_fn, quad_tol, a=a, b=b)
        else:
            _expect(y_raw is not None, "y", "required key is missing")
            y_fn = _build_function(y_raw, "y")
            if cfg["exact"] is not None:
                exact = _build_function(cfg["exact"], "exact")
            problem = HammersteinProblem(a, b, kernel, L, nonlin, y_fn, exact=exact)
    except ConfigError:
        raise
    except ValueError as exc:  # the problem's own check: L finite on the domain
        raise ConfigError(f"L: {exc} of the domain [{a}, {b}]") from None

    phi0 = cfg["phi0"]
    if phi0 == "y":
        phi0_resolved = None  # solver default: the right-hand side
    elif isinstance(phi0, (int, float)) and not isinstance(phi0, bool):
        phi0_resolved = _as_number(phi0, "phi0")
    else:
        phi0_resolved = _build_function(phi0, "phi0")

    out_dir = out_dir_override if out_dir_override is not None else cfg["out_dir"]

    effective = dict(cfg)
    effective["seed"] = int(seed)
    effective["out_dir"] = str(out_dir) if out_dir is not None else None

    return RunConfig(
        problem=problem,
        n=int(n),
        solver=solver,
        ld=ld,
        dl=dl,
        phi0=phi0_resolved,
        seed=int(seed),
        target_error=target_error,
        record_timings=record_timings,
        out_dir=Path(out_dir) if out_dir is not None else None,
        effective=effective,
    )


def validate_config(path, out_dir_override=None) -> RunConfig:
    """Load and validate a JSON config file."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config: file not found: {p}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, or an integer literal over 4300 digits
        raise ConfigError(f"config: invalid JSON in {p}: {exc}") from exc
    return config_from_dict(raw, out_dir_override=out_dir_override)
