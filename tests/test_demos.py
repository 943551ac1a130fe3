"""Smoke test: every demo script runs to completion and prints its report.

Each demo runs in a fresh interpreter with the package source on
``PYTHONPATH``, so a public name it imports cannot go missing unnoticed.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gnmodel

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    src = os.path.dirname(os.path.dirname(gnmodel.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
