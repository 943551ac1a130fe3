"""Statistics shared by the Monte Carlo and moment checks.

Imports no engine, so a run that only reports a z-score loads nothing else.
"""
from __future__ import annotations

import math

__all__ = ["abs_z_score"]


def abs_z_score(delta: float, stderr: float) -> float:
    """|delta| in standard errors; 0 for an exact zero-variance match."""
    if stderr > 0:
        return abs(delta) / stderr
    return 0.0 if delta == 0 else math.inf
