"""Self-tests for the benchmark harness.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
from types import SimpleNamespace

import pytest

import run
from tracing import Tracer, _get, hook_targets, instrument, layer_totals
from workloads import CYCLE, WORKLOADS, make_op, unit

run.import_hammerstein()

# one op per workload covers every traced layer: fine operator and reference
# quadrature, subtraction plan, and large dense solves
TRACED_OPS = [(name, 0) for name in WORKLOADS]
WORK_COUNTS = {
    "quadrature.weight_matrix": "entries",
    "problem.L": "evals",
    "linalg.solve_dense": "flops",
    "quadrature.reference": "points",
    "quadrature.subtract_plan.build": "nodes",
    "newton_ld": "iters",
    "newton_dl": "iters",
}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_generator_is_a_pure_function_of_workload_and_seed(workload):
    first = [make_op(workload, 7, k) for k in range(2 * CYCLE)]
    again = [make_op(workload, 7, k) for k in reversed(range(2 * CYCLE))][::-1]
    other = [make_op(workload, 8, k) for k in range(2 * CYCLE)]
    assert first == again
    assert [op.config for op in first] != [op.config for op in other]
    for op in first:
        assert json.loads(json.dumps(op.config)) == op.config


def test_each_cycle_visits_every_stratum_of_every_parameter():
    for workload in WORKLOADS:
        for seed in (1, 2):
            for cycle in range(3):
                for dim in range(3):
                    draws = [unit(workload, seed, cycle * CYCLE + k, dim) for k in range(CYCLE)]
                    assert sorted(int(u * CYCLE) for u in draws) == list(range(CYCLE))


def test_cli_replay_line_names_the_config_and_grid_sizes():
    op = make_op("nsweep_subtract", 3, 0)
    args = op.cli_args("cfg.json", "out")
    assert args[:2] == ["hammerstein", "nsweep"]
    assert args[-2:] == ["--n", "8,16,32,64"]


def test_prepare_environment_clears_the_seed_override_and_caps_threads(monkeypatch):
    monkeypatch.setenv(run.SEED_ENV_VAR, "777")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4096")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    record = run.prepare_environment()
    nproc = len(os.sched_getaffinity(0))
    assert run.SEED_ENV_VAR not in os.environ
    assert record[run.SEED_ENV_VAR]["given"] == "777"
    assert os.environ["OPENBLAS_NUM_THREADS"] == str(nproc)
    assert os.environ["OMP_NUM_THREADS"] == "1"


def test_check_outcome_fails_errors_above_the_ceiling_and_bad_statuses():
    def report(status, error):
        records = [SimpleNamespace(), SimpleNamespace()]
        return SimpleNamespace(method="dl", status=status, records=records, final_true_error=error)

    ok = SimpleNamespace(fatal=None, reports=[report("converged", 1e-15)])
    far = SimpleNamespace(fatal=None, reports=[report("converged", 0.3)])
    stuck = SimpleNamespace(fatal=None, reports=[report("max_iter", 1e-15)])
    nan = SimpleNamespace(fatal=None, reports=[report("converged", float("nan"))])
    assert run.check_outcome("dl_large_n", ok)[1] == []
    for outcome in (far, stuck, nan):
        assert run.check_outcome("dl_large_n", outcome)[1]
    missing = SimpleNamespace(fatal=None, reports=[])
    assert run.check_outcome("compare_fine", missing)[1]


def test_an_op_replays_through_the_cli_with_the_same_result(tmp_path, monkeypatch):
    from hammerstein.cli import main
    from hammerstein.reports import parse_compare_csv

    monkeypatch.delenv(run.SEED_ENV_VAR, raising=False)
    op = make_op("dl_large_n", 4, 1)
    config_path = tmp_path / "op.json"
    config_path.write_text(json.dumps(op.config))
    args = op.cli_args(str(config_path), str(tmp_path / "out"))
    assert args[0] == "hammerstein"
    assert main(args[1:]) == 0
    replayed = parse_compare_csv((tmp_path / "out" / "compare.csv").read_text())
    direct = run.run_op("dl_large_n", 4, 1, tmp_path)
    assert [(r.method, len(r.records) - 1, r.final_true_error) for r in replayed] == [
        (s["method"], s["iters"], s["error"]) for s in direct["solves"]
    ]


def _pass(scratch, traced: bool):
    if not traced:
        return [run.run_op(w, 5, k, scratch) for w, k in TRACED_OPS], None
    tracer = Tracer()
    results = []
    with instrument(tracer):
        for op_id, (w, k) in enumerate(TRACED_OPS):
            with tracer.op_span(op_id):
                results.append(run.run_op(w, 5, k, scratch))
    return results, tracer


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    scratch = tmp_path_factory.mktemp("ops")
    before = [_get(owner, key) for owner, key, _, _ in hook_targets()]
    plain, _ = _pass(scratch, traced=False)
    traced1, tracer1 = _pass(scratch, traced=True)
    traced2, tracer2 = _pass(scratch, traced=True)
    after = [_get(owner, key) for owner, key, _, _ in hook_targets()]
    return SimpleNamespace(
        before=before, after=after, plain=plain,
        traced=(traced1, traced2), tracers=(tracer1, tracer2),
    )


def test_every_wrapped_name_is_restored(passes):
    assert len(passes.before) == len(passes.after)
    assert all(a is b for a, b in zip(passes.before, passes.after))


def test_wrapped_names_are_restored_when_an_op_raises():
    before = [_get(owner, key) for owner, key, _, _ in hook_targets()]
    with pytest.raises(RuntimeError):
        with instrument(Tracer()):
            raise RuntimeError("boom")
    after = [_get(owner, key) for owner, key, _, _ in hook_targets()]
    assert all(a is b for a, b in zip(before, after))


def test_tracing_does_not_change_results(passes):
    for plain, traced in zip(passes.plain, passes.traced[0]):
        assert plain["problems"] == traced["problems"] == []
        assert plain["solves"] == traced["solves"]  # bit-identical errors and iterations


def test_every_layer_is_seen_and_work_counts_repeat_exactly(passes):
    totals = [layer_totals(t.spans) for t in passes.tracers]
    for name, key in WORK_COUNTS.items():
        assert totals[0][name]["counts"][key] > 0, name
        assert totals[0][name]["counts"][key] == totals[1][name]["counts"][key], name
        assert totals[0][name]["calls"] == totals[1][name]["calls"], name
    for name in ("config", "runner", "reports", "quadrature.subtract_plan.apply"):
        assert totals[0][name]["calls"] == totals[1][name]["calls"] > 0, name


def test_self_time_partitions_each_op(passes):
    spans = passes.tracers[0].spans
    totals = layer_totals(spans)
    op_wall = totals["op"]["wall_s"]
    self_sum = sum(t["self_s"] for t in totals.values())
    assert self_sum == pytest.approx(op_wall, rel=1e-9)
    assert all(sp.op is not None for sp in spans)
    for sp in spans:
        if sp.parent is not None:
            parent = spans[sp.parent]
            assert parent.start <= sp.start <= sp.end <= parent.end
