#!/usr/bin/env python3
"""Solver benchmark for the hammerstein package.

    python3 perfbench/run.py --workload compare_fine --seed 1 --seconds 20 --trace 0

One op is what ``hammerstein compare|nsweep --config`` does after argument
parsing: ``config_from_dict`` on a generated config dict, then
``run_compare`` or ``run_nsweep`` writing into a fresh directory. One client
runs ops back to back in this process (a closed loop).

--trace 0 runs the end-to-end passes and reports setup_s, op_p50_s,
ops_per_s and peak_mb:
  * set-up: ``import hammerstein`` plus one op, cold, in each of a few fresh
    processes (median);
  * timed: a warm-up op, then --seconds worth of ops with no tracing or
    memory tracking, run in slices between the other passes' steps;
  * memory: one cycle of ops, each under tracemalloc (median peak), kept
    apart from the timed ops because tracemalloc slows the Python-heavy
    reference quadrature several fold.
--trace 1 runs one cycle of ops untraced and then traced, and reports the
per-layer metrics per op; the difference of the two medians is the tracing
overhead. --trace both runs every pass, and --workload all every workload.

Every op is checked: an exception, a fatal outcome, a status other than
converged, or a terminal error that is non-finite or above the workload's
ceiling counts as a failed op. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. Everything a run writes goes
under perfbench/out/: the environment, the generated config dicts with the
CLI lines that replay them, per-op results and, when traced, the spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from workloads import CYCLE, WORKLOADS, make_op

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_PROCESSES = 3
CHILD_TIMEOUT_S = 60
# hammerstein's config_from_dict lets this variable override the config seed
SEED_ENV_VAR = "HAMMERSTEIN_SEED"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

E2E_UNITS = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s", "peak_mb": "MB"}

# (span name, work count, metrics the layer should move)
LAYER_ROWS = (
    ("newton_ld", "iters", "op_p50_s, peak_mb; iters -> ld_error"),
    ("newton_dl", "iters", "op_p50_s; iters -> dl_error"),
    ("quadrature.weight_matrix", "entries", "op_p50_s, peak_mb"),
    ("problem.L", "evals", "op_p50_s, peak_mb"),
    ("quadrature.reference", "points", "op_p50_s"),
    ("quadrature.subtract_plan.build", "nodes", "op_p50_s"),
    ("quadrature.subtract_plan.apply", None, "op_p50_s"),
    ("linalg.solve_dense", "flops", "op_p50_s, ops_per_s"),
    ("config", None, "op_p50_s (guard, <1%)"),
    ("reports", None, "op_p50_s (guard, <1%)"),
    ("runner", None, "op_p50_s (guard, <1%)"),
    ("op", None, "benchmark code outside the package"),
)


def prepare_environment() -> dict:
    """Cap BLAS threads at nproc and clear the seed override; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    record: dict = {"nproc": nproc}
    for var in BLAS_THREAD_VARS:
        given = os.environ.get(var)
        try:
            used = min(max(int(given), 1), nproc)
        except (TypeError, ValueError):
            used = nproc
        os.environ[var] = str(used)
        record[var] = {"given": given, "used": str(used)}
    record[SEED_ENV_VAR] = {"given": os.environ.pop(SEED_ENV_VAR, None), "used": None}
    return record


def import_hammerstein():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "hammerstein" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'hammerstein'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hammerstein

    if not Path(hammerstein.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: hammerstein imported from {hammerstein.__file__}")
    return hammerstein


def _git_commit() -> str:
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def environment_record(env: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_vendor,
        **env,
        "git_commit": _git_commit(),
    }


def check_outcome(workload: str, outcome) -> tuple[list[dict], list[str]]:
    """Per-solve summaries and the reasons, if any, the op counts as failed."""
    spec = WORKLOADS[workload]
    solves = [
        {
            "method": r.method,
            "status": r.status,
            "iters": len(r.records) - 1,
            "error": r.final_true_error,
        }
        for r in outcome.reports
    ]
    problems = []
    if outcome.fatal:
        problems.append(f"fatal: {outcome.fatal}")
    if tuple(s["method"] for s in solves) != spec.methods:
        problems.append(f"expected solves {spec.methods}, got {[s['method'] for s in solves]}")
    for s in solves:
        ceiling = spec.ceilings[s["method"]]
        if s["status"] != "converged":
            problems.append(f"{s['method']}: status {s['status']}")
        if s["error"] is None or not math.isfinite(s["error"]) or s["error"] > ceiling:
            problems.append(f"{s['method']}: terminal error {s['error']} above ceiling {ceiling:g}")
    return solves, problems


def run_op(workload: str, seed: int, index: int, scratch: Path) -> dict:
    """One op, timed from config_from_dict to the last file written, then checked."""
    from hammerstein import config, runner

    op = make_op(workload, seed, index)
    with tempfile.TemporaryDirectory(dir=scratch) as out:
        tic = time.perf_counter()
        try:
            cfg = config.config_from_dict(op.config, out_dir_override=out)
            if op.command == "compare":
                outcome = runner.run_compare(cfg)
            else:
                outcome = runner.run_nsweep(cfg, list(op.n_list))
        except Exception:  # a failing op is counted, and the run goes on
            return {"index": index, "seconds": None, "solves": [],
                    "problems": [traceback.format_exc(limit=3)]}
        seconds = time.perf_counter() - tic
    solves, problems = check_outcome(workload, outcome)
    return {"index": index, "seconds": seconds, "solves": solves, "problems": problems}


def setup_process(workload: str, seed: int, index: int) -> dict:
    """``import hammerstein`` plus op ``index``, cold, in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-child", str(index)]
    failed = {"index": index, "setup_s": None, "solves": []}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {**failed, "problems": ["set-up process timed out"]}
    if proc.returncode != 0:
        return {**failed, "problems": [f"set-up process exited {proc.returncode}: "
                                       f"{proc.stderr[-2000:]}"]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_child(workload: str, seed: int, index: int) -> None:
    tic = time.perf_counter()
    import_hammerstein()
    imported = time.perf_counter() - tic
    result = run_op(workload, seed, index, scratch_dir())
    seconds = None if result["seconds"] is None else imported + result["seconds"]
    print(json.dumps({**result, "setup_s": seconds}))


def memory_op(workload: str, seed: int, index: int, scratch: Path) -> dict:
    """One op under tracemalloc, which sees only memory allocated after it starts."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = run_op(workload, seed, index, scratch)
        result["peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    return result


def end_to_end_passes(workload: str, seed: int, seconds: float, scratch: Path) -> dict:
    """Set-up processes, memory ops and timed ops, the timed ones spread over the run.

    Host load on a shared machine drifts over tens of seconds, so timed ops
    run in slices between the set-up processes and the memory ops: their
    median then averages over the whole run rather than one window of it.
    Timed ops see no tracing and no tracemalloc, and follow a warm-up op.
    """
    steps = [("setup", k) for k in range(SETUP_PROCESSES)]
    steps += [("memory", k) for k in range(CYCLE)]
    warm = run_op(workload, seed, 0, scratch)
    timed, setup, memory = [], [], []
    busy = 0.0
    for i, (kind, index) in enumerate(steps + [(None, None)]):
        while not timed or busy < seconds * (i + 1) / (len(steps) + 1):
            tic = time.perf_counter()
            timed.append(run_op(workload, seed, len(timed), scratch))
            busy += time.perf_counter() - tic
        if kind == "setup":
            setup.append(setup_process(workload, seed, index))
        elif kind == "memory":
            memory.append(memory_op(workload, seed, index, scratch))
    return {"warm_up": warm, "timed": timed, "timed_s": busy, "setup": setup, "memory": memory}


def traced_pass(workload: str, seed: int, scratch: Path):
    """One warm-up op, one untraced cycle, then the same cycle traced."""
    from tracing import Tracer, instrument

    warm = run_op(workload, seed, 0, scratch)
    plain = [run_op(workload, seed, index, scratch) for index in range(CYCLE)]
    tracer = Tracer()
    traced = []
    with instrument(tracer):
        for index in range(CYCLE):
            with tracer.op_span(index):
                traced.append(run_op(workload, seed, index, scratch))
    return [warm] + plain, traced, tracer


def per_layer_metrics(totals: dict, n_ops: int) -> dict:
    """Per-op layer metrics from the traced spans (0 for a layer that never ran)."""
    empty = {"calls": 0, "self_s": 0.0, "wall_s": 0.0, "counts": {}}

    def t(name):
        return totals.get(name, empty)

    def count(name, key):
        return t(name)["counts"].get(key, 0)

    ld, dl = t("newton_ld"), t("newton_dl")
    raw = {
        "quadrature.weight_matrix.s": (t("quadrature.weight_matrix")["self_s"], "s"),
        "quadrature.weight_matrix.calls": (t("quadrature.weight_matrix")["calls"], "count"),
        "quadrature.weight_matrix.entries": (count("quadrature.weight_matrix", "entries"), "count"),
        "problem.L.s": (t("problem.L")["self_s"], "s"),
        "problem.L.evals": (count("problem.L", "evals"), "count"),
        "newton_ld.setup_s": (ld["wall_s"] - count("newton_ld", "iter_s"), "s"),
        "newton_ld.iter_s": (count("newton_ld", "iter_s"), "s"),
        "newton_ld.iters": (count("newton_ld", "iters"), "count"),
        "newton_ld.self_s": (ld["self_s"], "s"),
        "newton_ld.operator_bytes": (count("newton_ld", "operator_bytes"), "B"),
        "quadrature.reference.s": (t("quadrature.reference")["self_s"], "s"),
        "quadrature.reference.points": (count("quadrature.reference", "points"), "count"),
        "quadrature.subtract_plan.build_s": (t("quadrature.subtract_plan.build")["self_s"], "s"),
        "quadrature.subtract_plan.apply_s": (t("quadrature.subtract_plan.apply")["self_s"], "s"),
        "quadrature.subtract_plan.apply_calls": (
            t("quadrature.subtract_plan.apply")["calls"], "count"),
        "quadrature.subtract_plan.nodes": (count("quadrature.subtract_plan.build", "nodes"), "count"),
        "linalg.solve_dense.s": (t("linalg.solve_dense")["self_s"], "s"),
        "linalg.solve_dense.calls": (t("linalg.solve_dense")["calls"], "count"),
        "linalg.solve_dense.flops": (count("linalg.solve_dense", "flops"), "flop"),
        "newton_dl.setup_s": (dl["wall_s"] - count("newton_dl", "iter_s"), "s"),
        "newton_dl.iter_s": (count("newton_dl", "iter_s"), "s"),
        "newton_dl.iters": (count("newton_dl", "iters"), "count"),
        "newton_dl.self_s": (dl["self_s"], "s"),
        "config.s": (t("config")["self_s"], "s"),
        "reports.s": (t("reports")["self_s"], "s"),
        "runner.self_s": (t("runner")["self_s"], "s"),
    }
    return {name: {"value": value / n_ops, "unit": unit} for name, (value, unit) in raw.items()}


def layer_table(totals: dict, n_ops: int) -> list[str]:
    op_s = totals["op"]["wall_s"]
    lines = [f"{'layer':32} {'self %':>7} {'self s/op':>10} {'calls/op':>9} "
             f"{'work/op':>22}  should move"]
    for name, work, moves in LAYER_ROWS:
        t = totals.get(name)
        if t is None:
            lines.append(f"{name:32} {'-':>7} {'-':>10} {'0':>9} {'-':>22}  (not run)")
            continue
        work_s = "-" if work is None else f"{t['counts'].get(work, 0) / n_ops:.6g} {work}"
        lines.append(
            f"{name:32} {100 * t['self_s'] / op_s:6.2f}% {t['self_s'] / n_ops:10.4f} "
            f"{t['calls'] / n_ops:9.2f} {work_s:>22}  {moves}"
        )
    return lines


def _median(values):
    return statistics.median(values) if values else float("nan")


def _errors(ops: list[dict], method: str) -> list[float]:
    return [s["error"] for op in ops for s in op["solves"]
            if s["method"] == method and s["error"] is not None]


def scratch_dir() -> Path:
    path = OUT / "tmp"
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_workload(workload: str, seed: int, seconds: float, trace: str, env: dict) -> dict:
    spec = WORKLOADS[workload]
    run_dir = OUT / f"{workload}-seed{seed}-trace{trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    scratch = scratch_dir()
    ops: list[dict] = []
    metrics: dict = {}
    record: dict = {"workload": workload, "why": spec.why, "seed": seed, "seconds": seconds,
                    "trace": trace, "environment": env, "ceilings": spec.ceilings}
    print(f"== {workload} (seed {seed}): {spec.why}")

    if trace in ("0", "both"):
        passes = end_to_end_passes(workload, seed, seconds, scratch)
        timed, busy = passes["timed"], passes["timed_s"]
        ops += [passes["warm_up"], *timed, *passes["setup"], *passes["memory"]]
        op_times = [op["seconds"] for op in timed if op["seconds"] is not None]
        peaks = [op["peak_mb"] for op in passes["memory"]]
        setups = [op["setup_s"] for op in passes["setup"] if op["setup_s"] is not None]
        e2e = {
            "setup_s": (_median(setups), f"median of {len(setups)} fresh processes"),
            "op_p50_s": (_median(op_times), f"median of {len(op_times)} ops, max "
                         f"{max(op_times, default=float('nan')):.4f} s"),
            "ops_per_s": (len(timed) / busy, f"{len(timed)} ops in {busy:.2f} s"),
            "peak_mb": (_median(peaks), f"median of {len(peaks)} ops, max "
                        f"{max(peaks, default=float('nan')):.2f} MB"),
        }
        metrics.update({k: {"value": v, "unit": E2E_UNITS[k]} for k, (v, _) in e2e.items()})
        record.update(passes)
        print(f"{'metric':12} {'value':>14} {'unit':>6}  samples")
        for name, (value, samples) in e2e.items():
            print(f"{name:12} {value:14.6g} {E2E_UNITS[name]:>6}  {samples}")

    if trace in ("1", "both"):
        from tracing import layer_totals

        plain, traced, tracer = traced_pass(workload, seed, scratch)
        ops += plain + traced
        totals = layer_totals(tracer.spans)
        metrics.update(per_layer_metrics(totals, len(traced)))
        untraced_p50 = _median([op["seconds"] for op in plain[1:] if op["seconds"] is not None])
        traced_p50 = _median([op["seconds"] for op in traced if op["seconds"] is not None])
        record.update(plain=plain, traced=traced, layer_totals=totals,
                      tracing_overhead_s=traced_p50 - untraced_p50)
        (run_dir / "spans.json").write_text(json.dumps(tracer.to_json()) + "\n")
        print(f"per-layer trace over {len(traced)} ops (self time excludes traced children):")
        print("\n".join(layer_table(totals, len(traced))))
        print(f"tracing overhead: traced op_p50 {traced_p50:.4f} s - untraced op_p50 "
              f"{untraced_p50:.4f} s = {traced_p50 - untraced_p50:+.4f} s")

    failed = [op for op in ops if op["problems"]]
    ld, dl = _errors(ops, "ld"), _errors(ops, "dl")
    for method, errors in (("ld", ld), ("dl", dl)):
        if errors:
            print(f"{method}_error   {max(errors):14.6g}      1  worst terminal error of "
                  f"{len(errors)} {method.upper()} solves, ceiling {spec.ceilings[method]:g}")
        else:
            print(f"{method}_error   {'n/a':>14}      1  no {method.upper()} solves in this workload")
    print(f"fail_ratio {len(failed) / len(ops):14.6g}      1  {len(failed)} of {len(ops)} ops")
    for op in failed:
        print(f"FAILED op {op['index']}: {'; '.join(op['problems'])}")

    indices = sorted({op["index"] for op in ops})
    config_dir = run_dir / "configs"
    config_dir.mkdir(exist_ok=True)
    replay = []
    for index in indices:
        op = make_op(workload, seed, index)
        path = config_dir / f"op_{index:04d}.json"
        path.write_text(json.dumps(op.config, indent=2, sort_keys=True) + "\n")
        rel = path.relative_to(ROOT)
        replay.append(" ".join(op.cli_args(str(rel), f"{rel.with_suffix('')}_out")))
    (run_dir / "replay.txt").write_text(
        "# run from the repository root with the package installed, or with\n"
        "# PYTHONPATH=src and 'python3 -m hammerstein.cli' for 'hammerstein';\n"
        f"# {SEED_ENV_VAR} must be unset, as it overrides each config's seed\n"
        + "\n".join(replay) + "\n")
    record.update(metrics=metrics, attempted=len(ops), failed=len(failed),
                  ld_error=max(ld, default=None), dl_error=max(dl, default=None))
    (run_dir / "run.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {run_dir.relative_to(ROOT)}/")
    return {"attempted": len(ops), "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    parser.add_argument("--setup-child", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    env = prepare_environment()
    if args.setup_child is not None:
        setup_child(args.workload, args.seed, args.setup_child)
        return 0
    import_hammerstein()
    env = environment_record(env)
    print("environment: " + json.dumps(env, sort_keys=True))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, args.seconds, args.trace, env) for w in names}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
