"""Per-iteration solve reports and their CSV serialization.

CSV files are UTF-8 with a header row, '.' decimal separator and
scientific notation with 17 significant digits, so float values survive a
round trip exactly. Wall-clock columns are written only when timings are
explicitly requested; otherwise they stay empty so that identical runs
produce byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class IterationRecord:
    k: int
    step_norm: Optional[float]  # None on the initial iterate
    residual_norm: float
    true_error: Optional[float]  # None when no exact solution is known
    wall_ms: float


@dataclass
class SolveReport:
    """History of one solver run plus the environment it ran in."""

    method: str  # "ld" | "dl"
    records: list[IterationRecord] = field(default_factory=list)
    status: str = "max_iter"  # "converged" | "max_iter" | "singular" | "diverged"
    n: int = 0
    n_fine: Optional[int] = None
    mode: Optional[str] = None

    def validate(self) -> None:
        ks = [r.k for r in self.records]
        if ks != list(range(len(ks))):
            raise ValueError(f"iteration records must be dense in k, got {ks}")

    @property
    def final_true_error(self) -> Optional[float]:
        if not self.records:
            return None
        return self.records[-1].true_error

    def iterations_to(self, target: float) -> Optional[int]:
        """First k whose true error is at or below target, if any."""
        for r in self.records:
            if r.true_error is not None and r.true_error <= target:
                return r.k
        return None


def _fmt(x: Optional[float]) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.16e}"


def _parse(cell: str) -> Optional[float]:
    return None if cell == "" else float(cell)


COMPARE_COLUMNS = ("method", "k", "step_norm", "residual_norm", "true_error", "wall_ms")


def compare_csv_text(reports: list[SolveReport], record_timings: bool = False) -> str:
    """Render solve reports as one comparison CSV (string, '\\n' line ends)."""
    lines = [",".join(COMPARE_COLUMNS)]
    for rep in reports:
        rep.validate()
        for r in rep.records:
            lines.append(
                ",".join(
                    (
                        rep.method,
                        str(r.k),
                        _fmt(r.step_norm),
                        _fmt(r.residual_norm),
                        _fmt(r.true_error),
                        _fmt(r.wall_ms) if record_timings else "",
                    )
                )
            )
    return "\n".join(lines) + "\n"


def parse_compare_csv(text: str) -> list[SolveReport]:
    """Inverse of compare_csv_text (statuses and environment echo excluded)."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != ",".join(COMPARE_COLUMNS):
        raise ValueError("unrecognized comparison CSV header")
    by_method: dict[str, list[IterationRecord]] = {}
    order: list[str] = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(COMPARE_COLUMNS):
            raise ValueError(f"malformed CSV row: {ln!r}")
        method = cells[0]
        if method not in by_method:
            by_method[method] = []
            order.append(method)
        wall = _parse(cells[5])
        by_method[method].append(
            IterationRecord(
                k=int(cells[1]),
                step_norm=_parse(cells[2]),
                residual_norm=float(cells[3]),
                true_error=_parse(cells[4]),
                wall_ms=wall if wall is not None else 0.0,
            )
        )
    return [SolveReport(method=m, records=by_method[m]) for m in order]


NSWEEP_COLUMNS = ("n", "k", "true_error")


def nsweep_csv_text(reports_by_n: list[tuple[int, SolveReport]]) -> str:
    lines = [",".join(NSWEEP_COLUMNS)]
    for n, rep in reports_by_n:
        rep.validate()
        for r in rep.records:
            lines.append(f"{n},{r.k},{_fmt(r.true_error)}")
    return "\n".join(lines) + "\n"


def nsweep_summary_text(
    reports_by_n: list[tuple[int, SolveReport]], target: float
) -> str:
    lines = ["n,iterations_to_target,target,terminal_error"]
    for n, rep in reports_by_n:
        k = rep.iterations_to(target)
        lines.append(
            f"{n},{'' if k is None else k},{_fmt(target)},{_fmt(rep.final_true_error)}"
        )
    return "\n".join(lines) + "\n"


def _plot_script(plots: list[str]) -> str:
    """gnuplot script plotting log10 of the true error against iteration."""
    lines = (
        "set datafile separator ','",
        "set xlabel 'Newton iteration k'",
        "set ylabel 'log10 sup-norm error'",
        "set key top right",
        "set grid",
        "plot " + ", \\\n     ".join(plots),
    )
    return "\n".join(lines) + "\n"


def compare_plot_script(csv_name: str, methods: list[str]) -> str:
    """The plot script of a compare run: one curve per method."""
    labels = {"ld": "linearize-then-discretize", "dl": "discretize-then-linearize"}
    return _plot_script(
        [
            f"'{csv_name}' using 2:(strcol(1) eq '{m}' ? log10(column(5)) : NaN) "
            f"with linespoints title '{labels.get(m, m)}'"
            for m in methods
        ]
    )


def nsweep_plot_script(csv_name: str, n_list: list[int]) -> str:
    return _plot_script(
        [
            f"'{csv_name}' using 2:(column(1) == {n} ? log10(column(3)) : NaN) "
            f"with linespoints title 'n = {n}'"
            for n in n_list
        ]
    )
