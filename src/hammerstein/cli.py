"""Command-line interface.

Subcommands: solve (the solver selected in the config), compare (the same
run, written to compare.csv), nsweep (LD solver across grid sizes), weights
(inspect a product-rule weight vector). Exit codes: 0 success, 2
configuration error, 3 solver failure (partial results are still written).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .config import ConfigError, check_grid_sizes, validate_config
from .problem import algebraic_kernel, log_kernel, make_grid
from .quadrature import moment0, product_weights
from .runner import run_compare, run_nsweep


def _add_common(p):
    p.add_argument("--config", required=True, help="path to the JSON run configuration")
    p.add_argument("--out", default=None, help="output directory (overrides config)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hammerstein",
        description="Product-integration Newton solvers for weakly singular "
        "Hammerstein integral equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the solver selected in the config")
    _add_common(p_solve)

    p_cmp = sub.add_parser("compare", help="the same run as solve, written to compare.csv")
    _add_common(p_cmp)

    p_sweep = sub.add_parser("nsweep", help="run the LD solver for several grid sizes")
    _add_common(p_sweep)
    p_sweep.add_argument(
        "--n", required=True, help="comma-separated ascending grid sizes, e.g. 10,25,50"
    )

    p_w = sub.add_parser("weights", help="print a product-rule weight vector")
    p_w.add_argument("--kernel", default="log", choices=["log", "alg"])
    p_w.add_argument("--beta", type=float, default=0.5, help="algebraic kernel exponent")
    p_w.add_argument("--n", type=int, required=True, help="number of grid panels")
    p_w.add_argument("--s", type=float, required=True, help="evaluation point")
    p_w.add_argument("--domain", default="0,1", help="interval endpoints a,b")
    return parser


def _print_report_summary(outcome) -> None:
    for rep in outcome.reports:
        last = rep.records[-1] if rep.records else None
        err = "n/a" if last is None or last.true_error is None else f"{last.true_error:.3e}"
        res = "n/a" if last is None else f"{last.residual_norm:.3e}"
        iters = 0 if last is None else last.k
        print(
            f"  {rep.method}: status={rep.status} iterations={iters} "
            f"terminal_residual={res} terminal_error={err}"
        )


def _run_solver_command(args, csv_name: str) -> int:
    cfg = validate_config(args.config, out_dir_override=args.out)
    print("effective configuration:")
    print("  " + ", ".join(f"{k}={v}" for k, v in sorted(cfg.effective.items())))
    outcome = run_compare(cfg, csv_name=csv_name)
    print(f"wrote {outcome.csv_path} and {outcome.plot_path}")
    _print_report_summary(outcome)
    if outcome.fatal:
        print(f"solver failure: {outcome.fatal}", file=sys.stderr)
        return 3
    return 0


def _run_nsweep_command(args) -> int:
    try:
        n_list = check_grid_sizes([int(x) for x in args.n.split(",") if x.strip()], "--n")
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ValueError:
        print(f"--n: expected comma-separated integers, got {args.n!r}", file=sys.stderr)
        return 2
    cfg = validate_config(args.config, out_dir_override=args.out)
    outcome = run_nsweep(cfg, n_list)
    print(f"wrote {outcome.csv_path}, {outcome.summary_path} and {outcome.plot_path}")
    print(f"iterations to reach {cfg.target_error:g}:")
    for n, rep in zip(n_list, outcome.reports):
        k = rep.iterations_to(cfg.target_error)
        terminal = rep.final_true_error
        terminal_s = "n/a" if terminal is None else f"{terminal:.3e}"
        print(f"  n={n}: k={'unreached' if k is None else k} terminal_error={terminal_s}")
    if outcome.fatal:
        print(f"solver failure: {outcome.fatal}", file=sys.stderr)
        return 3
    return 0


def _run_weights_command(args) -> int:
    try:
        a_str, b_str = args.domain.split(",")
        a, b = float(a_str), float(b_str)
    except ValueError:
        a = b = math.nan
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        print(f"--domain: expected finite 'a,b' with a < b, got {args.domain!r}", file=sys.stderr)
        return 2
    try:
        kernel = log_kernel() if args.kernel == "log" else algebraic_kernel(args.beta)
    except ValueError as exc:
        print(f"--beta: {exc}", file=sys.stderr)
        return 2
    try:
        grid = make_grid(a, b, args.n)
        w = product_weights(grid, kernel, args.s)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"--n: out of memory for {args.n} panels: {exc}", file=sys.stderr)
        return 2
    print(f"kernel={args.kernel} n={args.n} s={args.s} domain=[{a}, {b}]")
    for j, (t, wj) in enumerate(zip(grid.nodes, w)):
        print(f"  j={j:3d} t={t:+.6f} w={wj:+.16e}")
    total = float(np.sum(w))
    m0 = moment0(kernel, args.s, a, b)
    print(f"  sum(w) = {total:+.16e}")
    print(f"  moment = {m0:+.16e}  (integral of the kernel; should match the sum)")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _run_solver_command(args, csv_name="solve.csv")
        if args.command == "compare":
            return _run_solver_command(args, csv_name="compare.csv")
        if args.command == "nsweep":
            return _run_nsweep_command(args)
        if args.command == "weights":
            return _run_weights_command(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
