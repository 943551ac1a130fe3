"""Shared test helpers: acceptance-criterion reporting and the Hypothesis
settings profile.

``record_criterion`` stores one PASS/FAIL line per acceptance criterion;
the terminal-summary hook prints them after the run so the verdicts are
visible even under captured output.  ``pool_env`` is the environment of a
fresh interpreter with a given BLAS pool, for bit contracts across pool
sizes, which are set once per process.  Every property test runs the same
examples on every run, with no example database and no deadline; each test
sets only its ``max_examples``.
"""
from __future__ import annotations

import os

from hypothesis import settings

import gnmodel

settings.register_profile("gnmodel", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("gnmodel")

_CRITERION_LINES: dict = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    _CRITERION_LINES[number] = f"CRITERION {number}: {verdict} — {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERION_LINES):
        terminalreporter.write_line(_CRITERION_LINES[number])


def pool_env(blas: int) -> dict:
    """This environment with a BLAS pool of ``blas`` and gnmodel importable."""
    src = os.path.dirname(os.path.dirname(gnmodel.__file__))
    return {**os.environ, "OPENBLAS_NUM_THREADS": str(blas),
            "OMP_NUM_THREADS": str(blas),
            "PYTHONPATH": os.pathsep.join(
                filter(None, (src, os.environ.get("PYTHONPATH"))))}
