"""Seeded workload generator for the solver benchmark.

Every op is a pure function of (workload, seed, op index) and is returned as
the plain config dict that ``hammerstein compare|nsweep --config`` would read,
so any op can be replayed through the CLI. Only the standard library is used
here, so generating inputs costs nothing that the set-up timing would see.

Parameters are drawn by stratified sampling: op indices run in cycles of
``CYCLE`` ops, and within a cycle each parameter visits each of ``CYCLE``
equal strata of its range once, in a seeded order, with a seeded jitter
inside the stratum. Op cost depends strongly on these parameters (grid size,
exponent, Newton basin), so a run's median op then measures the same mix of
inputs for every seed instead of whichever corner of the range a seed hits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

CYCLE = 4


@dataclass(frozen=True)
class Op:
    """One benchmark operation: a CLI command applied to a config dict."""

    command: str  # "compare" | "nsweep"
    config: dict
    n_list: Optional[tuple[int, ...]] = None  # nsweep grid sizes

    def cli_args(self, config_path: str, out_dir: str) -> list[str]:
        """The CLI invocation that replays this op."""
        args = ["hammerstein", self.command, "--config", config_path, "--out", out_dir]
        if self.n_list is not None:
            args += ["--n", ",".join(str(n) for n in self.n_list)]
        return args


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    methods: tuple[str, ...]  # solver reports every op must produce, in order
    ceilings: dict  # method -> largest accepted terminal sup-norm error
    make: Callable[[Callable[[int], float], random.Random], Op]


def _pick(u: float, options):
    return options[min(int(u * len(options)), len(options) - 1)]


def _between(u: float, lo: float, hi: float, digits: int = 6) -> float:
    return round(lo + (hi - lo) * u, digits)


def _compare_fine(u, rng) -> Op:
    # the paper's plateau-versus-decay run at the default operator settings
    # (mode fine, n_fine 4096); exp_st keeps L from being rank 1 in s
    return Op(
        "compare",
        {
            "schema": 1,
            "kernel": "log",
            "L": "exp_st",
            "F": _pick(u(1), ("square", "cubic")),
            "y": {"manufactured": _pick(u(2), ("cos", "sin"))},
            "n": 40 + int(u(0) * 25),
            "solver": "both",
            "seed": rng.randrange(2**31),
        },
    )


def _nsweep_subtract(u, rng) -> Op:
    # beta >= 0.5 or c >= 0.25 leaves the basin of the manufactured solution
    return Op(
        "nsweep",
        {
            "schema": 1,
            "kernel": "alg",
            "beta": _between(u(0), 0.2, 0.4),
            "L": "exp_st",
            "F": {"poly": [0, 0, _between(u(1), 0.1, 0.2)]},
            "y": {"manufactured": _pick(u(2), ("cos", "sin"))},
            "n": 64,
            "mode": "subtract",
            "seed": rng.randrange(2**31),
        },
        n_list=(8, 16, 32, 64),
    )


def _dl_large_n(u, rng) -> Op:
    # log-sine benchmark, exact solution u == 1; phi0 <= 0.75 converges to
    # another root
    return Op(
        "compare",
        {
            "schema": 1,
            "kernel": "log",
            "L": "one",
            "F": "sin_pi",
            "y": 1,
            "exact": 1,
            "n": 1400 + int(u(0) * 201),
            "solver": "dl",
            "phi0": _between(u(1), 0.80, 0.95),
            "seed": rng.randrange(2**31),
        },
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "compare_fine",
            "LD and DL on the log kernel at default fine-mode settings: dense fine "
            "operator assembly, fresh reference quadrature per op",
            methods=("ld", "dl"),
            ceilings={"ld": 3e-8, "dl": 3e-4},
            make=_compare_fine,
        ),
        Workload(
            "nsweep_subtract",
            "LD grid sweep in subtract mode on the algebraic kernel: no dense fine "
            "operator, SubtractionPlan.apply dominates, rhs memo shared by the sweep",
            methods=("ld",) * 4,
            ceilings={"ld": 1e-4},
            make=_nsweep_subtract,
        ),
        Workload(
            "dl_large_n",
            "DL alone on log-sine at n near 1500: dense LU solves and n x n weight "
            "assembly, no reference quadrature and no fine operator",
            methods=("dl",),
            ceilings={"dl": 1e-12},
            make=_dl_large_n,
        ),
    )
}


def unit(workload: str, seed: int, index: int, dim: int) -> float:
    """Stratified draw in [0, 1) for parameter ``dim`` of one op."""
    cycle, pos = divmod(index, CYCLE)
    order = list(range(CYCLE))
    random.Random(f"{workload}:{seed}:{cycle}:{dim}").shuffle(order)
    jitter = random.Random(f"{workload}:{seed}:{index}:{dim}").random()
    return (order[pos] + jitter) / CYCLE


def make_op(workload: str, seed: int, index: int) -> Op:
    """The op at ``index`` of the seeded sequence; a pure function."""
    return WORKLOADS[workload].make(
        lambda dim: unit(workload, seed, index, dim),
        random.Random(f"{workload}:{seed}:{index}:seed"),
    )
