"""The README's library example runs as printed and reaches the stated accuracy."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, str(README), "exec"), {})
    (status, error), (approx, exact) = (line.split() for line in printed.getvalue().splitlines())
    assert status == "converged"
    assert float(error) < 1e-7
    assert abs(float(approx) - float(exact)) < 1e-7
