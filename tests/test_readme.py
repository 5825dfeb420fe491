"""The README's examples run as written."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def _session():
    """The Python block that follows "A five-line session:" in the README."""
    with open(README, encoding="utf-8") as handle:
        match = re.search(r"A five-line session:\n\n```python\n(.*?)```", handle.read(), re.S)
    assert match, "README has no five-line session"
    return match.group(1)


def test_five_line_session_runs():
    namespace = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(_session(), "README.md", "exec"), namespace)
    distance, residual = map(float, printed.getvalue().split())
    # 10^6 shots of a pure qubit: the estimate lies within a few 1e-3 of the source
    assert 0.0 <= distance <= 5e-3 and residual >= 0.0
    assert namespace["counts"].sum() == 10**6
