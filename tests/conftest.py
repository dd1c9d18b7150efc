"""Shared test plumbing: the acceptance summary block, the CLI runner and
the factorisation counter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

acceptance_lines = []


def package_env():
    """Environment whose PYTHONPATH starts with the directory this process
    imported ``magspec`` from, so a child interpreter runs the same code."""
    import magspec

    root = str(Path(magspec.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return env


def run_cli(*args, **kwargs):
    """Run ``python -m magspec.cli ARGS`` on the code under test."""
    return subprocess.run([sys.executable, "-m", "magspec.cli", *args],
                          capture_output=True, text=True, env=package_env(),
                          **kwargs)


@pytest.fixture
def lu_counter(monkeypatch):
    """The shifts of the sparse factorisations eigensolve makes during the
    test, in order: ``len(lu_counter)`` is the count.  Wraps
    ``eigensolve._factor``, the one ``splu`` call of the package."""
    from magspec import eigensolve

    shifts = []
    true_factor = eigensolve._factor

    def counting(mat, sigma, *args, **kwargs):
        shifts.append(sigma)
        return true_factor(mat, sigma, *args, **kwargs)

    monkeypatch.setattr(eigensolve, "_factor", counting)
    return shifts


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
