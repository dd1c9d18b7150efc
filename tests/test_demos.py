"""Every script under demos/ runs to completion on the code under test, so
drift in the API they use fails here rather than in a reader's hands."""

import subprocess
import sys
from pathlib import Path

import pytest

import conftest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, "no demos found: the parametrised test would run none"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    out = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, env=conftest.package_env(), cwd=tmp_path,
                         timeout=120)
    assert out.returncode == 0, out.stderr
