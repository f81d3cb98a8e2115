"""Experiment orchestration: method comparison and grid-size sweeps.

Both entry points write CSV data plus a gnuplot script next to it, echo the
effective configuration, and keep partial results when a solver dies on a
singular system or a non-finite iterate, runs out of memory, or cannot
evaluate the manufactured right-hand side to quad_tol.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .config import RunConfig
from .newton_dl import dl_solve
from .newton_ld import SingularOperatorError, ld_solve
from .problem import make_grid
from .quadrature import QuadratureConvergenceError
from .reports import (
    SolveReport,
    compare_csv_text,
    compare_plot_script,
    nsweep_csv_text,
    nsweep_plot_script,
    nsweep_summary_text,
)


@dataclass
class RunOutcome:
    reports: list[SolveReport] = field(default_factory=list)
    csv_path: Optional[Path] = None
    plot_path: Optional[Path] = None
    summary_path: Optional[Path] = None
    fatal: Optional[str] = None  # message when a solver died mid-run


def _resolve_out_dir(cfg: RunConfig) -> Path:
    out = cfg.out_dir if cfg.out_dir is not None else Path("results")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_echo(cfg: RunConfig, out: Path) -> None:
    (out / "config_echo.json").write_text(
        json.dumps(cfg.effective, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _solve(
    cfg: RunConfig, method: str, n: int, label: str
) -> tuple[Optional[SolveReport], Optional[str]]:
    """One solve on a grid of n panels: (report, fatal).

    fatal is None on success. A solver that dies returns its partial report,
    if it has one, and a message that starts with ``label``.
    """
    try:
        grid = make_grid(cfg.problem.a, cfg.problem.b, n)
        if method == "ld":
            _, report = ld_solve(cfg.problem, grid, cfg.ld, phi0=cfg.phi0)
        else:
            _, report = dl_solve(cfg.problem, grid, cfg.dl, x0=cfg.phi0)
        return report, None
    except SingularOperatorError as exc:
        return exc.report, str(exc)
    except MemoryError as exc:
        return None, f"{label}: out of memory: {exc}"
    except QuadratureConvergenceError as exc:
        # the manufactured right-hand side is a run's only reference quadrature
        tol = cfg.effective["quad_tol"]
        return None, f"{label}: manufactured right-hand side missed quad_tol = {tol:g}: {exc}"


def run_compare(cfg: RunConfig, csv_name: str = "compare.csv") -> RunOutcome:
    """Run the selected solver(s) on one problem and grid; emit CSV + plot."""
    out = _resolve_out_dir(cfg)
    _write_echo(cfg, out)
    methods = {"ld": ["ld"], "dl": ["dl"], "both": ["ld", "dl"]}[cfg.solver]
    outcome = RunOutcome()
    for method in methods:
        report, outcome.fatal = _solve(cfg, method, cfg.n, method)
        if report is not None:
            outcome.reports.append(report)
        if outcome.fatal is not None:
            break
    outcome.csv_path = out / csv_name
    outcome.csv_path.write_text(
        compare_csv_text(outcome.reports, record_timings=cfg.record_timings),
        encoding="utf-8",
    )
    outcome.plot_path = out / (Path(csv_name).stem + ".gp")
    outcome.plot_path.write_text(
        compare_plot_script(csv_name, [r.method for r in outcome.reports]),
        encoding="utf-8",
    )
    return outcome


def run_nsweep(cfg: RunConfig, n_list: list[int], csv_name: str = "nsweep.csv") -> RunOutcome:
    """Run the LD solver for each grid size in ascending n_list."""
    if not n_list:
        raise ValueError("n_list must be nonempty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list must be strictly ascending, got {n_list}")
    if any(n < 1 for n in n_list):
        raise ValueError(f"every n must be at least 1, got {n_list}")
    out = _resolve_out_dir(cfg)
    _write_echo(cfg, out)
    outcome = RunOutcome()
    by_n: list[tuple[int, SolveReport]] = []
    for n in n_list:
        report, outcome.fatal = _solve(cfg, "ld", n, f"ld at n={n}")
        if report is not None:
            by_n.append((n, report))
            outcome.reports.append(report)
        if outcome.fatal is not None:
            break
    outcome.csv_path = out / csv_name
    outcome.csv_path.write_text(nsweep_csv_text(by_n), encoding="utf-8")
    outcome.summary_path = out / (Path(csv_name).stem + "_summary.csv")
    outcome.summary_path.write_text(
        nsweep_summary_text(by_n, cfg.target_error), encoding="utf-8"
    )
    outcome.plot_path = out / (Path(csv_name).stem + ".gp")
    outcome.plot_path.write_text(
        nsweep_plot_script(csv_name, [n for n, _ in by_n]), encoding="utf-8"
    )
    return outcome
