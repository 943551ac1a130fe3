"""Statistics shared by the Monte Carlo and moment checks.

Imports no engine, so a run that only reports a z-score loads nothing else.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["abs_z_score", "mean_stderr"]


def abs_z_score(delta: float, stderr: float) -> float:
    """|delta| in standard errors; 0 for an exact zero-variance match."""
    if stderr > 0:
        return abs(delta) / stderr
    return 0.0 if delta == 0 else math.inf


def mean_stderr(values: np.ndarray):
    """Mean over axis 0 and its standard error std(ddof=1)/sqrt(n); the
    standard error of a single sample is 0."""
    n = values.shape[0]
    mean = values.mean(axis=0)
    if n > 1:
        return mean, values.std(axis=0, ddof=1) / math.sqrt(n)
    return mean, np.zeros_like(mean)
