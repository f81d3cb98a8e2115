import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hammerstein
from hammerstein import (
    ConfigError,
    DLSettings,
    IterationRecord,
    LDSettings,
    SolveReport,
    compare_csv_text,
    config_from_dict,
    run_compare,
    run_nsweep,
    validate_config,
)
from hammerstein.cli import main as cli_main
from hammerstein.config import SEED_ENV_VAR
from hammerstein.quadrature import eval_operator_reference_parts
from hammerstein.reports import parse_compare_csv

MINIMAL = {"kernel": "log", "L": "one", "F": "sin_pi", "y": 1, "n": 50}

FAST_BENCH = {
    **MINIMAL,
    "n": 8,
    "exact": 1,
    "n_fine": 128,
    "max_iter": 4,
    "sample_count": 21,
}

# F = u**20 at u = 1e20 overflows: the very first iterate is not finite
OVERFLOW = {**MINIMAL, "F": {"poly": [0] * 20 + [1]}, "y": 1e20, "n": 8, "n_fine": 64,
            "solver": "ld"}

# exp(s t) reaches 1.3e307 on [-26.6, 0]: the first residual is finite
# (9e290 for LD), and K r overflows inside the first Newton step
STEP_OVERFLOW = {"kernel": "alg", "beta": 0.5, "L": "exp_st", "F": "sin_pi", "y": 1, "n": 80,
                 "domain": [-26.6, 0]}

# cubic F with y = 80 leaves Newton's basin: finite residuals that keep growing
RUNAWAY = {"kernel": "log", "L": "one", "F": "cubic", "y": 80, "n": 8, "n_fine": 64}


def record_strategy():
    f = st.floats(
        min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False
    )
    return st.builds(
        IterationRecord,
        k=st.integers(0, 10**6),
        step_norm=st.one_of(st.none(), f),
        residual_norm=f,
        true_error=st.one_of(st.none(), f),
        wall_ms=f,
    )


class TestCsvRoundTrip:
    @given(records=st.lists(record_strategy(), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_values_survive_round_trip(self, records):
        records = [
            IterationRecord(k=i, step_norm=r.step_norm, residual_norm=r.residual_norm,
                            true_error=r.true_error, wall_ms=r.wall_ms)
            for i, r in enumerate(records)
        ]
        rep = SolveReport(method="ld", records=records)
        text = compare_csv_text([rep], record_timings=True)
        (parsed,) = parse_compare_csv(text)
        assert parsed.records == records
        assert compare_csv_text([parsed], record_timings=True) == text

    def test_timings_blank_by_default(self):
        rep = SolveReport(
            method="dl",
            records=[IterationRecord(0, None, 1.0, None, 123.4)],
        )
        text = compare_csv_text([rep])
        assert text.splitlines()[1].endswith(",")  # wall_ms cell is empty
        (parsed,) = parse_compare_csv(text)
        assert parsed.records[0].wall_ms == 0.0

    def test_header_is_fixed(self):
        text = compare_csv_text([])
        assert text == "method,k,step_norm,residual_norm,true_error,wall_ms\n"

    def test_rejects_sparse_k(self):
        rep = SolveReport(
            method="ld",
            records=[IterationRecord(0, None, 1.0, None, 0.0),
                     IterationRecord(2, 1.0, 1.0, None, 0.0)],
        )
        with pytest.raises(ValueError, match="dense"):
            rep.validate()


class TestValidateConfig:
    def test_minimal_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(MINIMAL))
        cfg = validate_config(path)
        assert cfg.ld.tol == 1e-12
        assert cfg.ld.max_iter == 30
        assert cfg.ld.n_fine == 320
        assert cfg.ld.mode == "fine"
        assert cfg.ld == LDSettings() and cfg.dl == DLSettings()
        assert cfg.solver == "both"
        assert cfg.n == 50
        assert cfg.effective["tol"] == 1e-12

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            validate_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            validate_config(path)

    def test_oversized_integer_literal(self, tmp_path):
        # Python's json refuses integer literals over 4300 digits with a
        # plain ValueError, not a JSONDecodeError
        path = tmp_path / "huge.json"
        path.write_text('{"kernel": "log", "L": "one", "F": "sin_pi", "y": 1, "n": 1'
                        + "0" * 5000 + "}")
        with pytest.raises(ConfigError, match="JSON"):
            validate_config(path)

    @pytest.mark.parametrize(
        "patch,field",
        [
            ({"F": "wobble"}, "F"),
            ({"L": "wobble"}, "L"),
            ({"kernel": "wobble"}, "kernel"),
            ({"kernel": "alg", "beta": 1.2}, "beta"),
            ({"kernel": "alg"}, "beta"),
            ({"n": 0}, "n"),
            ({"n": 2.5}, "n"),
            ({"tol": 0.0}, "tol"),
            ({"mode": "magic"}, "mode"),
            ({"solver": "all"}, "solver"),
            ({"y": {"mystery": 1}}, "y"),
            ({"y": "wobble"}, "y"),
            ({"schema": 99}, "schema"),
            ({"domain": [1, 0]}, "domain"),
            ({"mystery_key": 1}, "mystery_key"),
            ({"record_timings": "yes"}, "record_timings"),
            ({"kernel": {"kind": "log"}}, "kernel"),  # no object form
            ({"n_fine": 63}, "n_fine"),  # the Simpson rule pairs the fine panels
            # literals that Python's json reads: a run went on with them
            ({"y": float("nan")}, r"^y: "),
            ({"exact": float("inf")}, r"^exact: "),
            ({"phi0": float("nan")}, r"^phi0: "),
            ({"F": {"poly": [0, float("nan")]}}, r"^F\.poly\[1\]: "),
        ],
    )
    def test_errors_name_the_field(self, patch, field):
        raw = {**MINIMAL, **patch}
        with pytest.raises(ConfigError, match=field):
            config_from_dict(raw)

    def test_missing_y_rejected(self):
        raw = dict(MINIMAL)
        del raw["y"]
        with pytest.raises(ConfigError, match="y"):
            config_from_dict(raw)

    def test_polynomial_nonlinearity_form(self):
        cfg = config_from_dict({**MINIMAL, "F": {"poly": [0.0, 1.0, 0.25]}})
        assert cfg.problem.nonlin.name == "poly"

    def test_manufactured_rhs(self):
        cfg = config_from_dict(
            {**MINIMAL, "F": "square", "y": {"manufactured": "cos"}, "quad_tol": 1e-8}
        )
        assert cfg.problem.exact is not None
        p = cfg.problem
        k_ref = eval_operator_reference_parts(
            p.kernel, p.L, p.nonlin, np.cos, 0.0, p.a, p.b, tol=1e-10
        )
        assert p.y(0.0) == pytest.approx(p.exact(0.0) - k_ref[0], abs=1e-7)

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "777")
        cfg = config_from_dict({**MINIMAL, "seed": 3})
        assert cfg.seed == 777
        assert cfg.effective["seed"] == 777

    def test_env_seed_must_be_integer(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "many")
        with pytest.raises(ConfigError, match=SEED_ENV_VAR):
            config_from_dict(MINIMAL)

    def test_broken_derivative_caught_at_validation(self):
        # a polynomial whose registered derivative would disagree cannot be
        # expressed via the config registry, so patch one in directly
        import hammerstein.problem as pm

        broken = pm.Nonlinearity("broken", lambda t, u: u**2, lambda t, u: 3.0 * u)
        try:
            pm.NONLINEARITIES["broken"] = broken
            with pytest.raises(ConfigError, match="F"):
                config_from_dict({**MINIMAL, "F": "broken"})
        finally:
            del pm.NONLINEARITIES["broken"]


class TestRunner:
    def test_compare_deterministic_bytes(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            cfg = config_from_dict(FAST_BENCH, out_dir_override=tmp_path / name)
            outcome = run_compare(cfg)
            outs.append(outcome.csv_path.read_bytes())
        assert outs[0] == outs[1]

    def test_structured_dl_deterministic_bytes(self, tmp_path):
        # n = 301 runs DL's FFT operator and its GMRES steps
        config = {**FAST_BENCH, "solver": "dl", "n": 301, "phi0": 0.9}
        outs = []
        for name in ("a", "b"):
            cfg = config_from_dict(config, out_dir_override=tmp_path / name)
            outs.append(run_compare(cfg).csv_path.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0].count(b"\ndl,") == 5

    def test_dl_rows_do_not_depend_on_the_ld_run(self, tmp_path):
        # under "both", LD first asks the manufactured right-hand side for
        # its ~1.2k evaluation points, and DL then reads the memoized values
        # at its own points: they must equal those of DL's batch alone
        config = {"kernel": "log", "L": "exp_st", "F": "cubic",
                  "y": {"manufactured": "sin"}, "n": 57}
        rows = {}
        for solver in ("both", "dl"):
            cfg = config_from_dict({**config, "solver": solver}, out_dir_override=tmp_path / solver)
            lines = run_compare(cfg).csv_path.read_text().splitlines()
            rows[solver] = [line for line in lines if line.startswith("dl,")]
        assert rows["dl"]
        assert rows["both"] == rows["dl"]

    def test_subtract_nsweep_deterministic_bytes(self, tmp_path):
        # an nsweep_subtract-like sweep: subtract mode on the algebraic kernel
        config = {"kernel": "alg", "beta": 0.3, "L": "exp_st", "F": {"poly": [0, 0, 0.15]},
                  "y": {"manufactured": "cos"}, "n": 16, "mode": "subtract",
                  "sample_count": 41}
        outs = []
        for name in ("a", "b"):
            cfg = config_from_dict(config, out_dir_override=tmp_path / name)
            outcome = run_nsweep(cfg, [8, 16])
            outs.append((outcome.csv_path.read_bytes(), outcome.summary_path.read_bytes()))
        assert outs[0] == outs[1]
        assert [r.status for r in outcome.reports] == ["converged", "converged"]

    def test_compare_respects_solver_selection(self, tmp_path):
        cfg = config_from_dict(
            {**FAST_BENCH, "solver": "ld"}, out_dir_override=tmp_path
        )
        outcome = run_compare(cfg)
        methods = {r.method for r in outcome.reports}
        assert methods == {"ld"}
        text = outcome.csv_path.read_text()
        assert ",dl," not in text and "\ndl," not in text

    def test_nsweep_artifacts(self, tmp_path):
        cfg = config_from_dict(
            {**FAST_BENCH, "solver": "ld"}, out_dir_override=tmp_path
        )
        outcome = run_nsweep(cfg, [4, 8])
        assert outcome.csv_path.read_text().startswith("n,k,true_error\n")
        summary = outcome.summary_path.read_text()
        assert summary.startswith("n,iterations_to_target")
        assert outcome.plot_path.exists()
        assert len(outcome.reports) == 2

    def test_nsweep_singleton(self, tmp_path):
        cfg = config_from_dict(
            {**FAST_BENCH, "solver": "ld"}, out_dir_override=tmp_path
        )
        outcome = run_nsweep(cfg, [8])
        assert len(outcome.reports) == 1

    @pytest.mark.parametrize("bad", [[], [8, 4], [4, 4], [0, 4], [8, 2.5], [8, 10**20]])
    def test_nsweep_rejects_bad_n_list(self, bad, tmp_path):
        # the checks of the config's n, before anything is written
        out = tmp_path / "out"
        cfg = config_from_dict({**FAST_BENCH, "solver": "ld"}, out_dir_override=out)
        with pytest.raises(ConfigError, match="n_list"):
            run_nsweep(cfg, bad)
        assert not out.exists()

    def test_config_echo_written(self, tmp_path):
        cfg = config_from_dict(FAST_BENCH, out_dir_override=tmp_path)
        run_compare(cfg)
        echo = json.loads((tmp_path / "config_echo.json").read_text())
        assert echo["n"] == 8
        assert echo["tol"] == 1e-12


class TestCli:
    def _write(self, tmp_path, payload):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_compare_happy_path(self, tmp_path, capsys):
        cfg = self._write(tmp_path, FAST_BENCH)
        code = cli_main(["compare", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "compare.csv").exists()
        assert (tmp_path / "out" / "compare.gp").exists()
        out = capsys.readouterr().out
        assert "status=converged" in out

    def test_solve_writes_solve_csv(self, tmp_path):
        cfg = self._write(tmp_path, {**FAST_BENCH, "solver": "ld"})
        code = cli_main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "solve.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = self._write(tmp_path, {**MINIMAL, "F": "wobble"})
        code = cli_main(["solve", "--config", cfg])
        assert code == 2
        assert "F" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "patch,field",
        [
            ({"n": float("nan")}, "n"),
            ({"n_fine": float("inf")}, "n_fine"),
            ({"domain": [0, float("inf")]}, "domain[1]"),
            ({"n": 10**400}, "n"),
        ],
        ids=["n_nan", "n_fine_inf", "domain_inf", "n_huge_int"],
    )
    def test_non_finite_number_exit_code(self, tmp_path, capsys, patch, field):
        # json.dumps writes NaN / Infinity and integers of any size, which
        # Python's json reads back; 10**400 is beyond the float range
        cfg = self._write(tmp_path, {**MINIMAL, **patch})
        code = cli_main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{field}: expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "patch,field",
        [
            ({"n": 10**300}, "n"),
            ({"n_fine": 2**62}, "n_fine"),
            ({"sample_count": 2**62}, "sample_count"),
        ],
        ids=["n", "n_fine", "sample_count"],
    )
    def test_oversized_array_exit_code(self, tmp_path, capsys, patch, field):
        # finite and integral, but no array of that many nodes can exist
        cfg = self._write(tmp_path, {**MINIMAL, **patch})
        code = cli_main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{field}: too large for a node array" in capsys.readouterr().err

    @pytest.mark.parametrize("y", [1, {"manufactured": "cos"}], ids=["y", "manufactured"])
    def test_non_finite_L_on_the_domain_exit_code(self, tmp_path, capsys, y):
        # exp(s t) overflows on [0, 30]: the problem's check of L, on both
        # branches that build it, is a config error naming L, before any
        # output, where it was a traceback and exit 1
        payload = {"kernel": "log", "L": "exp_st", "F": "square", "y": y, "n": 40,
                   "domain": [0, 30]}
        out = tmp_path / "out"
        code = cli_main(["compare", "--config", self._write(tmp_path, payload), "--out", str(out)])
        assert code == 2
        assert "L: smooth kernel factor L is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exit_code(self, tmp_path):
        assert cli_main(["solve", "--config", str(tmp_path / "nope.json")]) == 2

    def test_solver_failure_exit_code_with_partial_csv(self, tmp_path, capsys, monkeypatch):
        import hammerstein.runner as runner_mod
        from hammerstein import SingularOperatorError, SolveReport, IterationRecord

        def boom(problem, grid, settings, phi0=None):
            rep = SolveReport(method="ld", status="singular", n=grid.n)
            rep.records.append(IterationRecord(0, None, 1.0, None, 0.0))
            raise SingularOperatorError("synthetic failure", rep)

        monkeypatch.setattr(runner_mod, "ld_solve", boom)
        cfg = self._write(tmp_path, {**FAST_BENCH, "solver": "ld"})
        code = cli_main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 3
        text = (tmp_path / "out" / "solve.csv").read_text()
        assert text.startswith("method,k,")
        assert "ld,0," in text
        assert "synthetic failure" in capsys.readouterr().err

    def test_non_finite_iterate_diverges_with_partial_csv(self, tmp_path, capsys):
        cfg = self._write(tmp_path, OVERFLOW)
        out = tmp_path / "out"
        assert cli_main(["solve", "--config", cfg, "--out", str(out)]) == 3
        assert cli_main(["nsweep", "--config", cfg, "--out", str(out), "--n", "4,8"]) == 3
        outcome = run_nsweep(config_from_dict(OVERFLOW, out_dir_override=tmp_path), [4, 8])
        assert "ld: status=diverged" in capsys.readouterr().out
        assert "\nld,0," in (out / "solve.csv").read_text()
        assert (out / "nsweep.csv").read_text().startswith("n,k,true_error\n4,0,")
        assert [r.status for r in outcome.reports] == ["diverged"]

    @pytest.mark.parametrize("solver", ["ld", "dl"])
    def test_overflow_inside_a_step_diverges_with_partial_csv(self, tmp_path, capsys, solver):
        # the two-grid step's coarse solve was handed the overflowed K r and
        # raised on it: a traceback and exit 1, with no CSV
        cfg = self._write(tmp_path, {**STEP_OVERFLOW, "solver": solver})
        out = tmp_path / "out"
        assert cli_main(["compare", "--config", cfg, "--out", str(out)]) == 3
        assert f"{solver}: status=diverged" in capsys.readouterr().out
        rows = (out / "compare.csv").read_text().splitlines()
        assert [row.split(",")[:2] for row in rows[1:]] == [[solver, "0"], [solver, "1"]]

    def test_growing_residual_before_singular_system_diverges(self, tmp_path, capsys):
        # the residual norm grows at k = 2..5 (to 3.0e209), then the Newton
        # matrix of step 6 is numerically singular
        cfg = self._write(tmp_path, RUNAWAY)
        out = tmp_path / "out"
        assert cli_main(["solve", "--config", cfg, "--out", str(out)]) == 3
        assert "ld: status=diverged" in capsys.readouterr().out
        rows = (out / "solve.csv").read_text().splitlines()
        assert rows[0].startswith("method,k,")
        assert [row.split(",")[1] for row in rows[1:]] == ["0", "1", "2", "3", "4", "5"]

    def test_runs_with_scipy_blocked(self, tmp_path):
        # scipy is a test dependency only. With it blocked, the exact LU
        # steps at n = 40 (both solvers), a DL run at n = 96 on alg 0.7 with
        # one 65-node coarse factor and then the full-grid fallback, the
        # weights command, and a Newton matrix that the condition check
        # finds singular (RUNAWAY, step 6) all run as usual
        configs = {
            "fine": {"kernel": "log", "L": "exp_st", "F": "square",
                     "y": {"manufactured": "cos"}, "n": 40, "solver": "both"},
            "fallback": {"kernel": "alg", "beta": 0.7, "L": "one", "F": "square",
                         "y": {"manufactured": "cos"}, "n": 96, "solver": "dl"},
            "runaway": RUNAWAY,
        }
        for name, payload in configs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(payload))
        runs = [
            ["compare", "--config", "fine.json", "--out", "fine"],
            ["compare", "--config", "fallback.json", "--out", "fallback"],
            ["weights", "--n", "8", "--s", "0.7"],
            ["solve", "--config", "runaway.json", "--out", "runaway"],
        ]
        code = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from hammerstein.cli import main\n"
            f"codes = [main(args) for args in {runs!r}]\n"
            "print(json.dumps(codes))\n"
        )
        src = str(Path(hammerstein.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, 0, 0, 3]
        assert "ld: status=diverged" in proc.stdout
        for csv in ("fine/compare.csv", "fallback/compare.csv", "runaway/solve.csv"):
            assert (tmp_path / csv).read_text().startswith("method,k,")
        rows = (tmp_path / "runaway/solve.csv").read_text().splitlines()
        assert [row.split(",")[1] for row in rows[1:]] == ["0", "1", "2", "3", "4", "5"]

    @staticmethod
    def _run_cli_in_2gib(args):
        # the CLI runs in a child process limited to 2 GiB of address space,
        # where a 75 GiB node array makes make_grid raise MemoryError. One
        # BLAS thread keeps the child's own buffers small on hosts with many
        # cores.
        limit = 2 * 1024**3

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = str(Path(hammerstein.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1"}
        return subprocess.run(
            [sys.executable, "-m", "hammerstein.cli", *args],
            env=env, preexec_fn=limit_address_space, capture_output=True, text=True,
            timeout=120,
        )

    @pytest.mark.parametrize("command", ["solve", "nsweep"])
    def test_out_of_memory_exit_code_with_partial_csv(self, tmp_path, command):
        # n = 10**10 passes validation, but its node array takes 75 GiB
        cfg = self._write(tmp_path, {**FAST_BENCH, "n": 10**10, "solver": "ld"})
        out = tmp_path / "out"
        args = [command, "--config", cfg, "--out", str(out)]
        if command == "nsweep":
            args += ["--n", f"4,{10**10}"]
        proc = self._run_cli_in_2gib(args)
        assert proc.returncode == 3, proc.stderr
        assert "out of memory" in proc.stderr
        assert "Traceback" not in proc.stderr
        rows = (out / f"{command}.csv").read_text().splitlines()
        if command == "solve":
            assert rows == ["method,k,step_norm,residual_norm,true_error,wall_ms"]
        else:
            assert rows[0] == "n,k,true_error"
            assert {row.split(",")[0] for row in rows[1:]} == {"4"}

    @pytest.mark.parametrize("command", ["compare", "nsweep"])
    def test_unreachable_quad_tol_exit_code_with_partial_csv(self, tmp_path, capsys, command):
        # the reference quadrature of the manufactured right-hand side runs
        # out of evaluations at quad_tol = 1e-19
        cfg = self._write(tmp_path, {
            "kernel": "log", "L": "one", "F": "square", "y": {"manufactured": "cos"},
            "n": 2, "n_fine": 2, "sample_count": 2, "quad_tol": 1e-19,
        })
        out = tmp_path / "out"
        args = [command, "--config", cfg, "--out", str(out)]
        if command == "nsweep":
            args += ["--n", "2,4"]
        assert cli_main(args) == 3
        assert "quad_tol = 1e-19" in capsys.readouterr().err
        header = {"compare": "method,k,step_norm,residual_norm,true_error,wall_ms",
                  "nsweep": "n,k,true_error"}[command]
        assert (out / f"{command}.csv").read_text().splitlines() == [header]

    def test_nsweep_cli(self, tmp_path, capsys):
        cfg = self._write(tmp_path, {**FAST_BENCH, "solver": "ld"})
        code = cli_main(
            ["nsweep", "--config", cfg, "--out", str(tmp_path / "out"), "--n", "4,8"]
        )
        assert code == 0
        assert (tmp_path / "out" / "nsweep.csv").exists()
        assert (tmp_path / "out" / "nsweep_summary.csv").exists()
        assert "iterations to reach" in capsys.readouterr().out

    def test_nsweep_rejects_unsorted(self, tmp_path, capsys):
        cfg = self._write(tmp_path, {**FAST_BENCH, "solver": "ld"})
        assert cli_main(["nsweep", "--config", cfg, "--n", "8,4"]) == 2

    def test_nsweep_rejects_a_grid_size_beyond_a_node_array(self, tmp_path, capsys):
        # numpy's "Maximum allowed size exceeded" came out of the n = 10**20
        # solve, after n = 8 had run, as a usage error with no nsweep.csv
        cfg = self._write(tmp_path, {**FAST_BENCH, "solver": "ld"})
        out = tmp_path / "out"
        assert cli_main(["nsweep", "--config", cfg, "--out", str(out), "--n", f"8,{10**20}"]) == 2
        assert "--n[1]: too large for a node array" in capsys.readouterr().err
        assert not out.exists()

    def test_nsweep_grid_size_out_of_memory_keeps_the_rows_before_it(self, tmp_path, capsys):
        # 10**18 nodes fit a node array's size, and numpy refuses the 7 EiB
        # allocation at once: a solver failure after the n = 8 rows
        cfg = self._write(tmp_path, {**FAST_BENCH, "solver": "ld"})
        out = tmp_path / "out"
        assert cli_main(["nsweep", "--config", cfg, "--out", str(out), "--n", f"8,{10**18}"]) == 3
        assert "out of memory" in capsys.readouterr().err
        rows = (out / "nsweep.csv").read_text().splitlines()
        assert rows[0] == "n,k,true_error" and len(rows) > 1
        assert {row.split(",")[0] for row in rows[1:]} == {"8"}

    def test_weights_command(self, capsys):
        code = cli_main(["weights", "--kernel", "log", "--n", "8", "--s", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sum(w)" in out
        assert out.count("j=") == 9

    def test_weights_out_of_memory_is_a_usage_error(self):
        proc = self._run_cli_in_2gib(["weights", "--n", str(10**10), "--s", "0.5"])
        assert proc.returncode == 2, proc.stderr
        assert "--n: out of memory" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_weights_outside_domain(self, capsys):
        assert cli_main(["weights", "--kernel", "log", "--n", "4", "--s", "2.0"]) == 2

    @pytest.mark.parametrize("beta", ["1.5", "nan", "0"])
    def test_weights_bad_beta_is_a_usage_error(self, capsys, beta):
        args = ["weights", "--kernel", "alg", "--beta", beta, "--n", "4", "--s", "0.5"]
        assert cli_main(args) == 2
        assert capsys.readouterr().err.startswith("--beta: ")

    @pytest.mark.parametrize("domain", ["0,inf", "-inf,1", "nan,1", "1,0"])
    def test_weights_bad_domain_is_a_usage_error(self, capsys, domain):
        args = ["weights", "--n", "4", "--s", "0.5", f"--domain={domain}"]
        assert cli_main(args) == 2
        out = capsys.readouterr()
        assert out.err.startswith("--domain: ")
        assert "nan" not in out.out
