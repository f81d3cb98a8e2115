"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines as
they happen. The expensive manufactured-problem solves are shared between
criteria through module-scoped fixtures; their wall time is attributed to
the criterion that owns the runtime budget.
"""

import json
import time

import numpy as np
import pytest

from hammerstein import (
    DLSettings,
    LDSettings,
    config_from_dict,
    dl_solve,
    get_nonlinearity,
    HammersteinProblem,
    ld_solve,
    log_kernel,
    algebraic_kernel,
    make_grid,
    moment0,
    product_weights,
    run_compare,
    smooth_kernel,
    solve_dense,
    weight_matrix,
)
from hammerstein.cli import main as cli_main
from hammerstein.problem import FUNCTIONS, L_one
from oracles import direct_nystrom_solution, oracle_weight_rows, solver_operator


def _report(num: int, ok: bool, detail: str):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def _errors(report):
    return np.array([r.true_error for r in report.records], dtype=float)


@pytest.fixture(scope="module")
def ld_runs(cosine_problem):
    """Full-budget LD runs of the manufactured problem, keyed by n."""
    runs, elapsed = {}, {}
    # n = 10 contracts by about 0.18 per step and reaches the product Simpson
    # rule's limit (1.6e-14 here, at every n) at step 17
    for n, iters in ((10, 18), (25, 12), (50, 12)):
        tic = time.perf_counter()
        settings = LDSettings(tol=1e-30, max_iter=iters, n_fine=4096, sample_count=201)
        _, rep = ld_solve(cosine_problem, make_grid(0, 1, n), settings)
        runs[n] = rep
        elapsed[n] = time.perf_counter() - tic
    return runs, elapsed


@pytest.fixture(scope="module")
def dl_runs(cosine_problem):
    """Full-budget DL runs of the manufactured problem, keyed by n."""
    runs, elapsed = {}, {}
    for n in (16, 32, 50, 64):
        tic = time.perf_counter()
        settings = DLSettings(tol=1e-30, max_iter=12, sample_count=201)
        _, rep = dl_solve(cosine_problem, make_grid(0, 1, n), settings)
        runs[n] = rep
        elapsed[n] = time.perf_counter() - tic
    return runs, elapsed


def test_criterion_01_weight_correctness():
    tic = time.perf_counter()
    rng = np.random.default_rng(101)
    kernels = {
        "log": log_kernel(),
        "alg(1/2)": algebraic_kernel(0.5),
        "smooth": smooth_kernel(lambda s, t: np.exp(np.asarray(s, dtype=float) * t)),
    }
    worst_sum, worst_oracle = 0.0, 0.0
    for kernel in kernels.values():
        for n in (1, 2, 7, 50):
            grid = make_grid(0.0, 1.0, n)
            svals = rng.uniform(0.0, 1.0, 100)
            W = weight_matrix(grid, kernel, svals)
            m0 = np.array([moment0(kernel, s, 0.0, 1.0) for s in svals])
            worst_sum = max(
                worst_sum, float(np.max(np.abs(W.sum(axis=1) - m0) / (1 + np.abs(m0))))
            )
            W_ref = oracle_weight_rows(kernel, grid, svals, tol=1e-12)
            worst_oracle = max(worst_oracle, float(np.max(np.abs(W - W_ref))))
    elapsed = time.perf_counter() - tic
    ok = worst_sum <= 1e-12 and worst_oracle <= 1e-10 and elapsed <= 10.0
    _report(
        1,
        ok,
        f"weight-sum dev {worst_sum:.2e} (<=1e-12), oracle dev {worst_oracle:.2e} "
        f"(<=1e-10), {elapsed:.1f}s (<=10s)",
    )


def test_criterion_02_trapezoidal_degeneration():
    one = smooth_kernel(
        lambda s, t: np.full(np.broadcast_shapes(np.shape(s), np.shape(t)), 1.0)
    )
    rng = np.random.default_rng(202)
    worst_ulp = 0.0
    for n in (1, 4, 9, 50):
        grid = make_grid(0.0, 1.0, n)
        expected = np.full(n + 1, grid.h)
        expected[0] = expected[-1] = grid.h / 2
        for s in rng.uniform(0.0, 1.0, 20):
            w = product_weights(grid, one, s)
            worst_ulp = max(
                worst_ulp, float(np.max(np.abs(w - expected) / np.spacing(expected)))
            )
    ok = worst_ulp <= 2.0
    _report(2, ok, f"max deviation {worst_ulp:.2f} ulp (<=2)")


def test_criterion_03_constant_solution_benchmark(benchmark_problem):
    tic = time.perf_counter()
    grid = make_grid(0.0, 1.0, 50)
    _, ld_rep = ld_solve(benchmark_problem, grid, LDSettings())
    ld_errs = _errors(ld_rep)
    dl_fn, dl_rep = dl_solve(benchmark_problem, grid, DLSettings())
    dl_resid = dl_rep.records[-1].residual_norm
    nodal_dev = float(np.max(np.abs(dl_fn(grid.nodes) - 1.0)))
    elapsed = time.perf_counter() - tic
    ok = (
        bool(np.all(ld_errs <= 1e-10))
        and dl_resid <= 1e-12
        and nodal_dev <= 1e-12
        and elapsed <= 30.0
    )
    _report(
        3,
        ok,
        f"LD max error {ld_errs.max():.2e} (<=1e-10) over {ld_errs.size} iterates, "
        f"DL residual {dl_resid:.2e} (<=1e-12), nodal dev {nodal_dev:.2e}, "
        f"{elapsed:.1f}s (<=30s)",
    )


def test_criterion_04_plateau_vs_decay(ld_runs, dl_runs):
    ld, ld_elapsed = ld_runs
    dl, dl_elapsed = dl_runs
    dl_errs = _errors(dl[50])
    plateau = float(dl_errs[-1])
    tail = dl_errs[-5:]
    tail_drift = float(tail.max() / tail.min() - 1.0)
    ld_terminal = float(_errors(ld[50])[-1])
    elapsed = ld_elapsed[50] + dl_elapsed[50]
    ok = (
        plateau > 0
        and tail_drift < 0.05
        and ld_terminal <= plateau / 100.0
        and ld_terminal <= 1e-6
        and elapsed <= 120.0
    )
    _report(
        4,
        ok,
        f"DL plateau {plateau:.2e} (drift {100 * tail_drift:.2f}% over last 5), "
        f"LD terminal {ld_terminal:.2e} (<= plateau/100 = {plateau / 100:.2e} and <=1e-6), "
        f"{elapsed:.1f}s (<=120s)",
    )


def test_criterion_05_n_independent_limit(ld_runs, dl_runs):
    ld, _ = ld_runs
    dl, _ = dl_runs
    terminals = {n: float(_errors(rep)[-1]) for n, rep in ld.items()}
    spread = max(terminals.values()) / min(terminals.values())
    dl_plateau = float(_errors(dl[50])[-1])
    ok = spread <= 10.0 and all(t < dl_plateau for t in terminals.values())
    _report(
        5,
        ok,
        "LD terminals "
        + ", ".join(f"n={n}: {t:.2e}" for n, t in sorted(terminals.items()))
        + f"; spread x{spread:.2f} (<=10), all below DL plateau {dl_plateau:.2e}",
    )


def test_criterion_06_geometric_decay(ld_runs):
    ld, _ = ld_runs
    worst_ratio = 0.0
    iters_to_target = {}
    for n, rep in ld.items():
        errs = _errors(rep)
        floor = errs[-1]
        pre = [
            errs[k + 1] / errs[k] for k in range(len(errs) - 1) if errs[k + 1] > 10 * floor
        ]
        worst_ratio = max(worst_ratio, max(pre))
        reached = np.nonzero(errs <= 1e-6)[0]
        iters_to_target[n] = int(reached[0]) if reached.size else None
    ns = sorted(iters_to_target)
    monotone = all(
        iters_to_target[a] >= iters_to_target[b] for a, b in zip(ns, ns[1:])
    )
    ok = worst_ratio < 1.0 and None not in iters_to_target.values() and monotone
    _report(
        6,
        ok,
        f"pre-floor ratios all < 1 (worst {worst_ratio:.3f}); iterations to 1e-6: "
        + ", ".join(f"n={n}: {iters_to_target[n]}" for n in ns)
        + " (non-increasing)",
    )


def test_criterion_07_classical_order(dl_runs):
    dl, _ = dl_runs
    plateaus = {n: float(_errors(dl[n])[-1]) for n in (16, 32, 64)}
    orders = [
        float(np.log2(plateaus[16] / plateaus[32])),
        float(np.log2(plateaus[32] / plateaus[64])),
    ]
    ok = min(orders) >= 1.5
    _report(
        7,
        ok,
        "DL plateaus "
        + ", ".join(f"n={n}: {p:.2e}" for n, p in sorted(plateaus.items()))
        + f"; empirical orders {orders[0]:.2f}, {orders[1]:.2f} (>=1.5)",
    )


def test_criterion_08_one_step_affine_exactness():
    prob = HammersteinProblem(
        0.0, 1.0, log_kernel(), L_one, get_nonlinearity("identity"), np.cos
    )
    grid = make_grid(0.0, 1.0, 20)
    x_direct = direct_nystrom_solution(prob, grid)
    stepped, _ = ld_solve(prob, grid, LDSettings(max_iter=1), phi0=0.0)
    dev = float(np.max(np.abs(stepped(grid.nodes) - x_direct)))
    ok = dev <= 1e-10
    _report(8, ok, f"one LD step vs direct product-rule solve: {dev:.2e} (<=1e-10)")


def test_criterion_09_linear_algebra_and_operator_floors():
    rng = np.random.default_rng(909)
    worst_rt = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 102))
        M = rng.standard_normal((n, n)) + 4.0 * np.sqrt(n) * np.eye(n)
        rhs = rng.standard_normal(n)
        x = solve_dense(M, rhs)
        scale = np.max(np.abs(M)) * np.max(np.abs(x)) + np.max(np.abs(rhs))
        worst_rt = max(worst_rt, float(np.max(np.abs(M @ x - rhs)) / scale))
    prob = HammersteinProblem(
        0.0, 1.0, log_kernel(), L_one, get_nonlinearity("square"), FUNCTIONS["zero"]
    )
    # the operator each mode of ld_solve runs, at the nodes of a 7-panel grid
    # (off the fine grid: dense rows) and 257 samples (on it: the FFT apply)
    fine = solver_operator(prob, np.cos, LDSettings(n_fine=4096, sample_count=257), n=7)
    sub = solver_operator(prob, np.cos, LDSettings(mode="subtract", sample_count=257), n=7)
    svals = sub.points
    worst_mode = float(np.max(np.abs(fine(svals) - sub.values)))
    ok = worst_rt <= 1e-13 and worst_mode <= 1e-6
    _report(
        9,
        ok,
        f"dense round-trip {worst_rt:.2e} (<=1e-13) on 50 systems; operator modes "
        f"agree to {worst_mode:.2e} (<=1e-6) at {svals.size} points",
    )


def test_criterion_10_determinism_and_io_contract(tmp_path, capsys):
    base = {
        "kernel": "log",
        "L": "one",
        "F": "sin_pi",
        "y": 1,
        "exact": 1,
        "n": 8,
        "n_fine": 128,
        "max_iter": 4,
        "sample_count": 21,
        "seed": 42,
    }
    blobs = []
    for name in ("first", "second"):
        cfg = config_from_dict(base, out_dir_override=tmp_path / name)
        outcome = run_compare(cfg)
        blobs.append(outcome.csv_path.read_bytes())
    identical = blobs[0] == blobs[1]

    bad = dict(base)
    bad["F"] = "wobble"
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    code = cli_main(["solve", "--config", str(bad_path)])
    err = capsys.readouterr().err
    ok = identical and code == 2 and "F" in err
    _report(
        10,
        ok,
        f"identical config+seed gives byte-identical CSV ({len(blobs[0])} bytes); "
        f"schema violation exits {code} (==2) naming the field",
    )
