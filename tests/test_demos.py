"""Smoke test of the demos: each runs to completion in a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

import pytest

from .test_cli import package_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    out = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         env=package_env(), timeout=300)
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr
    assert out.stdout
