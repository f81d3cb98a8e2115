import importlib.util
import json
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# a slice of the record: LD and DL at n = 40-64 (dense rules, LU steps),
# DL at n = 1400-1600 (structured rule, two-grid steps, precorrected
# samples), the CI fine-mode config and an LD sweep in subtract mode
# (SubtractionPlan), 12 solves in all
SLICE = (
    "compare_fine/5/0",
    "compare_fine/5/1",
    "dl_large_n/1/0",
    "ci/dl",
    "ci/fine",
    "nsweep_subtract/5/0",
)
# the largest error move accepted, in eps of max|exact| on the samples: a
# change that moves digits at rounding level re-records, one that moves
# them further is a change of the method
MARGIN = 64


def _replay_module():
    spec = importlib.util.spec_from_file_location("replay", ROOT / "scripts" / "replay.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_replayed_slice_matches_the_record():
    # statuses and Newton counts must match exactly, errors within MARGIN;
    # CSV hashes are reported, not gated, as another numpy build may round
    # differently
    replay = _replay_module()
    recorded = json.loads((ROOT / "REPLAY.json").read_text())
    runs = replay.runs()
    tic = time.perf_counter()
    replayed = replay.replay_all({name: runs[name] for name in SLICE})
    elapsed = time.perf_counter() - tic
    assert len(replayed) == 12
    assert elapsed < 5.0
    for solve, new in replayed.items():
        old = recorded[solve]
        assert (new["status"], new["newton"]) == (old["status"], old["newton"]), solve
        move = abs(float.fromhex(new["error"]) - float.fromhex(old["error"]))
        assert move <= MARGIN * np.finfo(float).eps * new["scale"], solve
    rows, failed = replay.changes(
        {solve: recorded[solve] for solve in replayed}, replayed, MARGIN
    )
    assert not failed, rows


def test_record_covers_every_run():
    # one entry per solve: two per compare of both solvers, one per grid
    # size of an nsweep
    replay = _replay_module()
    recorded = json.loads((ROOT / "REPLAY.json").read_text())
    expected = set()
    for name, (command, raw, n_list) in replay.runs().items():
        if command == "nsweep":
            expected |= {f"{name}/{n}" for n in n_list}
        else:
            methods = {"both": ("ld", "dl")}.get(raw["solver"], (raw["solver"],))
            expected |= {f"{name}/{m}" for m in methods}
    assert set(recorded) == expected
