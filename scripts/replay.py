#!/usr/bin/env python3
"""Replay record of the solves a solver change should not move.

    python3 scripts/replay.py record
    python3 scripts/replay.py check

``record`` runs every solve below in-process and writes REPLAY.json at the
root of the repository: per solve, its status, its Newton count, its
terminal true error as a hex float and the SHA-256 of its rows of the run's
CSV with the ``wall_ms`` column dropped.
``check`` runs them again and prints a table of what changed against the
file: statuses and counts, error moves (absolute, and in eps of the exact
solution's max on the output samples) and hashes. It exits 1 on a status or
count change, or on an error move above MARGIN eps.

The solves are the benchmark's ops (built by perfbench/workloads.py, which
this imports and does not change): compare_fine seeds 1, 2, 5, ops 0-7;
dl_large_n seeds 1, 5, ops 0-3; nsweep_subtract seeds 1, 2, 5, ops 0-3;
and the configs of the CI workflow's determinism steps. Every run is made at
one BLAS thread, with the seed override variable cleared.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    # before numpy loads
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    os.environ.pop("HAMMERSTEIN_SEED", None)

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

from hammerstein import config_from_dict, run_compare, run_nsweep  # noqa: E402
from workloads import make_op  # noqa: E402

RECORD = ROOT / "REPLAY.json"
EPS = np.finfo(float).eps
# the largest error move check accepts, in eps of max|exact|
MARGIN = 64

# the configs of the CI workflow (.github/workflows/tests.yml), with the
# grid sizes its steps sweep them over
_FINE = {"kernel": "log", "L": "exp_st", "F": "square", "y": {"manufactured": "cos"},
         "n": 40, "solver": "both"}
CI_RUNS = {
    "ci/fine": ("compare", _FINE, None),
    "ci/fine-sweep": ("nsweep", _FINE, (32, 64, 66, 128)),
    "ci/dl": ("compare", {"kernel": "log", "L": "one", "F": "sin_pi", "y": 1, "exact": 1,
                          "n": 1500, "solver": "dl", "phi0": 0.85}, None),
    "ci/ld": ("compare", {"kernel": "log", "L": "exp_st", "F": "square",
                          "y": {"manufactured": "cos"}, "n": 1500, "solver": "ld"}, None),
    "ci/subtract": ("nsweep", {"kernel": "alg", "beta": 0.3, "L": "exp_st",
                               "F": {"poly": [0, 0, 0.15]}, "y": {"manufactured": "cos"},
                               "n": 16, "mode": "subtract"}, (8, 16, 32, 64)),
}
BENCH_RUNS = (
    ("compare_fine", (1, 2, 5), 8),
    ("dl_large_n", (1, 5), 4),
    ("nsweep_subtract", (1, 2, 5), 4),
)


def runs() -> dict:
    """Every recorded run: name -> (command, config dict, grid sizes or None)."""
    out = {}
    for workload, seeds, ops in BENCH_RUNS:
        for seed in seeds:
            for index in range(ops):
                op = make_op(workload, seed, index)
                out[f"{workload}/{seed}/{index}"] = (op.command, op.config, op.n_list)
    out.update(CI_RUNS)
    return out


def _row_hash(header: list[str], rows: list[list[str]]) -> str:
    keep = [i for i, name in enumerate(header) if name != "wall_ms"]
    text = "\n".join(",".join(row[i] for i in keep) for row in [header, *rows])
    return hashlib.sha256(text.encode()).hexdigest()


def replay(name: str, command: str, raw: dict, n_list) -> dict:
    """Runs one recorded run: solve name -> its entry."""
    with tempfile.TemporaryDirectory() as out:
        cfg = config_from_dict(raw, out_dir_override=out)
        if command == "compare":
            outcome = run_compare(cfg)
        else:
            outcome = run_nsweep(cfg, list(n_list))
        lines = outcome.csv_path.read_text(encoding="utf-8").splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    exact = cfg.problem.exact
    scale = None
    if exact is not None:
        s = np.linspace(cfg.problem.a, cfg.problem.b, cfg.ld.sample_count)
        scale = float(np.max(np.abs(np.broadcast_to(exact(s), s.shape))))
    entries = {}
    for report in outcome.reports:
        # the first column of a compare's rows is the method, of an nsweep's n
        key = report.method if command == "compare" else str(report.n)
        error = report.records[-1].true_error
        entries[f"{name}/{key}"] = {
            "status": report.status,
            "newton": report.records[-1].k,
            "error": None if error is None else float(error).hex(),
            "csv_sha256": _row_hash(header, [r for r in rows if r[0] == key]),
            "scale": scale,
        }
    return entries


def replay_all(selected: dict) -> dict:
    entries = {}
    for name, (command, raw, n_list) in selected.items():
        entries.update(replay(name, command, raw, n_list))
    return entries


def changes(recorded: dict, replayed: dict, margin: float) -> tuple[list[list[str]], bool]:
    """Table rows (solve, field, recorded, replayed, move) of every change,
    and whether any is a failure: a status or count change, a missing solve,
    or an error move above ``margin`` eps of max|exact|."""
    rows, failed = [], False
    for solve in sorted(set(recorded) | set(replayed)):
        old, new = recorded.get(solve), replayed.get(solve)
        if old is None or new is None:
            rows.append([solve, "solve", "-" if old is None else "present",
                         "-" if new is None else "present", ""])
            failed = True
            continue
        for field in ("status", "newton"):
            if old[field] != new[field]:
                rows.append([solve, field, str(old[field]), str(new[field]), ""])
                failed = True
        if old["error"] != new["error"]:
            move = ""
            if old["error"] is not None and new["error"] is not None:
                diff = abs(float.fromhex(new["error"]) - float.fromhex(old["error"]))
                eps_move = diff / (EPS * (new["scale"] or 1.0))
                move = f"{diff:.3e} ({eps_move:.1f} eps)"
                failed |= eps_move > margin
            else:
                failed = True
            rows.append([solve, "error", old["error"], new["error"], move])
        if old["csv_sha256"] != new["csv_sha256"]:
            rows.append([solve, "csv_sha256", old["csv_sha256"][:12], new["csv_sha256"][:12], ""])
    return rows, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("record", "check"))
    args = parser.parse_args(argv)
    entries = replay_all(runs())
    if args.command == "record":
        RECORD.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(entries)} solves in {RECORD}")
        return 0
    rows, failed = changes(json.loads(RECORD.read_text()), entries, MARGIN)
    widths = [max(len(r[i]) for r in rows + [["solve", "field", "recorded", "replayed", "move"]])
              for i in range(5)]
    for row in [["solve", "field", "recorded", "replayed", "move"], *rows]:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    print(f"{len(entries)} solves replayed, {len(rows)} changes")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
