"""Check one in-process run of a config: its outcome, terminal error and peak memory.

    python3 .github/scripts/check_run.py CONFIG [--method M] [--error-ceiling X] --peak-mb Y
    python3 .github/scripts/check_run.py CONFIG --n LIST [--error-ceiling X] --peak-mb Y

Runs ``compare`` on the JSON config CONFIG, or ``nsweep`` over the
comma-separated grid sizes LIST, into a temporary directory with tracemalloc
on. Exits 1 if the run ends in a solver failure, if its traced peak is above
Y MB, or, with --error-ceiling, if a terminal true_error in the run's CSV is
above X: the last one of method M in a compare, the last one of each grid
size in an nsweep (which runs LD alone).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import tempfile
import tracemalloc

from hammerstein.config import config_from_dict
from hammerstein.runner import run_compare, run_nsweep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("--n", type=lambda s: [int(x) for x in s.split(",")])
    parser.add_argument("--method")
    parser.add_argument("--error-ceiling", type=float)
    parser.add_argument("--peak-mb", type=float, required=True)
    args = parser.parse_args(argv)
    if args.n and args.method:
        parser.error("an nsweep runs LD alone: give --error-ceiling without --method")
    if not args.n and (args.method is None) != (args.error_ceiling is None):
        parser.error("--method and --error-ceiling go together")
    with open(args.config) as f:
        raw = json.load(f)
    with tempfile.TemporaryDirectory() as out:
        cfg = config_from_dict(raw, out_dir_override=out)
        tracemalloc.start()
        outcome = run_nsweep(cfg, args.n) if args.n else run_compare(cfg)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
        ok = outcome.fatal is None
        if not ok:
            print(f"solver failure: {outcome.fatal}")
        print(f"{args.config}: peak {peak:.2f} MB (ceiling {args.peak_mb:g} MB)")
        ok &= peak <= args.peak_mb
        if args.error_ceiling is not None:
            with open(outcome.csv_path) as f:
                rows = list(csv.DictReader(f))
            if args.n:
                # rows run in k order within each n: the dict keeps the last
                errors = {f"LD at n={n}": e for n, e in ((r["n"], r["true_error"]) for r in rows)}
            else:
                last = [r["true_error"] for r in rows if r["method"] == args.method][-1]
                errors = {args.method.upper(): last}
            for label, error in errors.items():
                print(
                    f"{label} terminal true_error {float(error):.3e} "
                    f"(ceiling {args.error_ceiling:g})"
                )
                ok &= float(error) <= args.error_ceiling
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
