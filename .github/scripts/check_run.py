"""Check one in-process run of a config: its outcome, terminal error and peak memory.

    python3 .github/scripts/check_run.py CONFIG [--n LIST]
        [--method M --error-ceiling X] --peak-mb Y

Runs ``compare`` on the JSON config CONFIG, or ``nsweep`` over the
comma-separated grid sizes LIST, into a temporary directory with tracemalloc
on. Exits 1 if the run ends in a solver failure, if its traced peak is above
Y MB, or, with --method, if the last true_error of method M in the run's CSV
is above X.
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
    if (args.method is None) != (args.error_ceiling is None):
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
        if args.method:
            with open(outcome.csv_path) as f:
                rows = [r for r in csv.DictReader(f) if r["method"] == args.method]
            error = float(rows[-1]["true_error"])
            print(
                f"{args.method.upper()} terminal true_error {error:.3e} "
                f"(ceiling {args.error_ceiling:g})"
            )
            ok &= error <= args.error_ceiling
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
