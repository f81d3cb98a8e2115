"""Outside-in layer tracing for the solver benchmark.

The solver modules are not edited: ``instrument`` replaces the public names
they call at run time with wrappers that record spans, and puts the originals
back when it exits. A span carries a name, start and end times, the index of
its parent span and the id of the op it belongs to, plus work counts taken
at the same boundary. Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: Optional[int] = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), float("nan"), parent, self.op)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = time.perf_counter()

    @contextmanager
    def op_span(self, op_id: int):
        """Root span of one op; every span opened inside carries its id."""
        self.op = op_id
        try:
            with self.span("op") as sp:
                yield sp
        finally:
            self.op = None

    def wrap(self, fn: Callable, name: str, counter: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if counter is not None:
                    sp.counts.update(counter(args, result))
                return result

        return wrapper

    def to_json(self) -> list[dict]:
        return [asdict(sp) for sp in self.spans]


def _solve_counts(args, result):
    sampled, report = result
    iter_s = sum(r.wall_ms for r in report.records) / 1e3
    counts = {"iters": len(report.records) - 1, "iter_s": iter_s}
    if report.method == "ld":
        # dense fine operator: one float64 per (evaluation point, fine node)
        fine_cols = 0 if report.n_fine is None else report.n_fine + 1
        counts["operator_bytes"] = sampled.points.size * fine_cols * 8
    return counts


def hook_targets() -> list[tuple[object, str, str, Optional[Callable]]]:
    """(owner, attribute or dict key, span name, counter) for every traced name.

    These are the names the solver modules look up when they run, so the
    wrappers see every call without any change to the package.
    """
    from hammerstein import config, newton_dl, newton_ld, problem, quadrature, reports, runner
    from hammerstein.quadrature import SubtractionPlan

    def weights(args, result):
        return {"entries": result.size}

    def lu(args, result):
        return {"flops": 2.0 * result.size**3 / 3.0}

    targets = [
        (config, "config_from_dict", "config", None),
        (runner, "run_compare", "runner", None),
        (runner, "run_nsweep", "runner", None),
        (runner, "ld_solve", "newton_ld", _solve_counts),
        (runner, "dl_solve", "newton_dl", _solve_counts),
        (newton_ld, "weight_matrix", "quadrature.weight_matrix", weights),
        (newton_dl, "weight_matrix", "quadrature.weight_matrix", weights),
        (newton_ld, "solve_dense", "linalg.solve_dense", lu),
        (newton_dl, "solve_dense", "linalg.solve_dense", lu),
        (
            quadrature,
            "eval_operator_reference_parts",
            "quadrature.reference",
            lambda args, result: {"points": result.size},
        ),
        (
            SubtractionPlan,
            "__init__",
            "quadrature.subtract_plan.build",
            lambda args, result: {"nodes": args[0].t_nodes.size},
        ),
        (SubtractionPlan, "apply", "quadrature.subtract_plan.apply", None),
    ]
    targets += [
        (problem.SMOOTH_FACTORS, key, "problem.L", lambda args, result: {"evals": np.size(result)})
        for key in problem.SMOOTH_FACTORS
    ]
    targets += [
        (runner, name, "reports", None)
        for name, value in vars(runner).items()
        if inspect.isfunction(value) and value.__module__ == reports.__name__
    ]
    return targets


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


@contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers on every hook target; restore the originals on exit."""
    originals = []
    try:
        for owner, key, name, counter in hook_targets():
            original = _get(owner, key)
            originals.append((owner, key, original))
            _set(owner, key, tracer.wrap(original, name, counter))
        yield tracer
    finally:
        for owner, key, original in reversed(originals):
            _set(owner, key, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] += sp.duration
    return [sp.duration - c for sp, c in zip(spans, child)]


def layer_totals(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, summed self and wall time, summed counts."""
    totals: dict[str, dict] = {}
    for sp, self_s in zip(spans, self_times(spans)):
        t = totals.setdefault(sp.name, {"calls": 0, "self_s": 0.0, "wall_s": 0.0, "counts": {}})
        t["calls"] += 1
        t["self_s"] += self_s
        t["wall_s"] += sp.duration
        for key, value in sp.counts.items():
            t["counts"][key] = t["counts"].get(key, 0) + value
    return totals
