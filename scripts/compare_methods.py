#!/usr/bin/env python3
"""Side-by-side error curves for the two solution strategies.

Runs both solvers on a fixed iteration budget so the discretize-first
plateau and the linearize-first decay are visible in the same table, for
two problems: the log-sine benchmark (exact solution is the constant 1,
started from 0.9) and a manufactured problem with exact solution cos and a square
nonlinearity. Writes CSV + gnuplot artifacts per problem.
"""

import argparse
from pathlib import Path

from hammerstein import config_from_dict, run_compare

BASE = {
    "L": "one",
    "kernel": "log",
    "solver": "both",
    "tol": 1e-30,  # effectively disabled: run the full iteration budget
    "max_iter": 12,
}


def run(name: str, overrides: dict, out_dir: Path, n: int) -> None:
    cfg = config_from_dict(
        {**BASE, **overrides, "n": n, "out_dir": str(out_dir / name)}
    )
    outcome = run_compare(cfg)
    print(f"== {name} (n={n}) -> {outcome.csv_path}")
    header = f"{'k':>3} {'ld error':>13} {'dl error':>13}"
    print(header)
    by_method = {rep.method: rep for rep in outcome.reports}
    rows = max(len(rep.records) for rep in outcome.reports)
    for k in range(rows):
        cells = [f"{k:3d}"]
        for method in ("ld", "dl"):
            rep = by_method.get(method)
            if rep is not None and k < len(rep.records):
                e = rep.records[k].true_error
                cells.append(f"{e:13.4e}" if e is not None else f"{'n/a':>13}")
            else:
                cells.append(f"{'':>13}")
        print(" ".join(cells))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--n", type=int, default=50, help="grid panels for both methods")
    args = parser.parse_args()
    out = Path(args.out)
    # y = 1 is the exact solution, so start away from it, in its basin
    run("log_sine_benchmark", {"F": "sin_pi", "y": 1, "exact": 1, "phi0": 0.9}, out, args.n)
    run("manufactured_cosine", {"F": "square", "y": {"manufactured": "cos"}}, out, args.n)


if __name__ == "__main__":
    main()
