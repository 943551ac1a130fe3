"""Normalized dual-polarization input power spectral densities.

Shapes represent the normalized per-polarization PSD Ghat(f) (units 1/Hz);
the absolute PSD is recovered as G(f) = P0 * Ghat(f).  All shapes are
nonnegative with compact support, which lets the GN double integrals truncate
exactly instead of to a tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .link import _scalar_like

__all__ = [
    "PsdShape",
    "RectangularPsd",
    "RaisedCosinePsd",
    "TabulatedPsd",
    "DualPolPsd",
    "phase_rotation_weight",
]


class PsdShape:
    """Nonnegative spectral density with compact support."""

    def evaluate(self, f):
        """PSD value at frequency f (Hz); exactly 0 outside the support."""
        raise NotImplementedError

    def power_integral(self) -> float:
        """Integral of the shape over all frequency (dimensionless Phat)."""
        raise NotImplementedError

    @property
    def support(self) -> tuple[float, float]:
        """(f_min, f_max) outside which the shape vanishes."""
        raise NotImplementedError

    @property
    def continuous_at_ends(self) -> bool:
        """True when the shape goes to 0 continuously, with a continuous
        derivative, at both support ends; False for a shape that jumps or
        is not known not to."""
        return False


@dataclass(frozen=True)
class RaisedCosinePsd(PsdShape):
    """Raised-cosine PSD with half-amplitude full width ``bandwidth_hz``.

    Flat at ``height`` out to (1-rolloff)*bandwidth/2 from center, cosine
    rolloff to zero at (1+rolloff)*bandwidth/2.  The rolloff is
    area-preserving, so the integral is exactly height*bandwidth.
    """

    center_hz: float
    bandwidth_hz: float
    rolloff: float
    height: float

    def __post_init__(self):
        for name in ("center_hz", "bandwidth_hz", "height"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.bandwidth_hz > 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth_hz}")
        if not 0.0 <= self.rolloff <= 1.0:
            raise ValueError(f"rolloff must be in [0, 1], got {self.rolloff}")
        if self.height < 0:
            raise ValueError(f"height must be >= 0, got {self.height}")

    def evaluate(self, f):
        f = np.asarray(f, dtype=float)
        if self.rolloff == 0.0:    # the rectangle: no |f - center| kept alive
            inside = np.abs(f - self.center_hz) < 0.5 * self.bandwidth_hz
            return _scalar_like(f, np.where(inside, self.height, 0.0))
        x = np.abs(f - self.center_hz)
        flat_edge = 0.5 * (1.0 - self.rolloff) * self.bandwidth_hz
        outer_edge = 0.5 * (1.0 + self.rolloff) * self.bandwidth_hz
        vals = np.where(x <= flat_edge, self.height, 0.0)
        # the cosine is taken on the rolloff band only, where x - flat_edge > 0
        band = (flat_edge < x) & (x < outer_edge)
        cos_arg = np.pi * (x[band] - flat_edge) / (self.rolloff * self.bandwidth_hz)
        vals[band] = 0.5 * self.height * (1.0 + np.cos(cos_arg))
        return _scalar_like(f, vals)

    def power_integral(self) -> float:
        return self.height * self.bandwidth_hz

    @property
    def support(self) -> tuple[float, float]:
        half = 0.5 * (1.0 + self.rolloff) * self.bandwidth_hz
        return (self.center_hz - half, self.center_hz + half)

    @property
    def continuous_at_ends(self) -> bool:
        """The cosine roll-off meets 0 with zero slope; the rectangle
        (roll-off 0) jumps."""
        return self.rolloff > 0.0


@dataclass(frozen=True)
class RectangularPsd(RaisedCosinePsd):
    """Flat-top PSD: ``height`` for |f - center| < bandwidth/2, else 0; the
    raised cosine of zero rolloff."""

    rolloff: float = field(default=0.0, init=False)


@dataclass(frozen=True)
class TabulatedPsd(PsdShape):
    """PSD sampled on a strictly increasing grid, linearly interpolated.

    Zero outside the tabulated range; no extrapolation.
    """

    frequencies_hz: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        fs = np.asarray(self.frequencies_hz, dtype=float)
        vs = np.asarray(self.values, dtype=float)
        if fs.ndim != 1 or fs.size < 2 or vs.shape != fs.shape:
            raise ValueError("tabulated PSD needs two equal-length 1-D columns "
                             "with at least 2 points")
        if not np.all(np.isfinite(fs)) or not np.all(np.isfinite(vs)):
            raise ValueError("tabulated PSD values must be finite")
        if not np.all(np.diff(fs) > 0):
            raise ValueError("tabulated frequency grid must be strictly increasing")
        if np.any(vs < 0):
            raise ValueError("tabulated PSD values must be >= 0")
        object.__setattr__(self, "frequencies_hz", fs)
        object.__setattr__(self, "values", vs)

    @classmethod
    def from_csv(cls, path) -> "TabulatedPsd":
        """Load a two-column CSV (f_Hz, value_per_Hz); '#' lines are comments."""
        try:
            table = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        except OSError as exc:
            raise ConfigError(f"cannot read tabulated PSD file {path}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"malformed tabulated PSD CSV {path}: {exc}") from exc
        if table.shape[1] != 2:
            raise ConfigError(f"tabulated PSD CSV {path} must have exactly "
                              f"2 columns, got {table.shape[1]}")
        return cls(frequencies_hz=table[:, 0], values=table[:, 1])

    def evaluate(self, f):
        f = np.asarray(f, dtype=float)
        vals = np.interp(f, self.frequencies_hz, self.values, left=0.0, right=0.0)
        return _scalar_like(f, vals)

    def power_integral(self) -> float:
        return float(np.trapezoid(self.values, self.frequencies_hz))

    @property
    def support(self) -> tuple[float, float]:
        return (float(self.frequencies_hz[0]), float(self.frequencies_hz[-1]))


@dataclass(frozen=True)
class DualPolPsd:
    """Input spectral description: Ghat_x, Ghat_y and the reference power P0.

    ``px_hat``/``py_hat`` are the dimensionless power integrals, so the
    absolute per-polarization powers are P0*px_hat and P0*py_hat.
    """

    gx: PsdShape
    gy: PsdShape
    p0_w: float

    def __post_init__(self):
        if not (self.p0_w > 0 and math.isfinite(self.p0_w)):
            raise ValueError(f"p0 must be finite and > 0 W, got {self.p0_w}")

    @property
    def px_hat(self) -> float:
        return self.gx.power_integral()

    @property
    def py_hat(self) -> float:
        return self.gy.power_integral()

    def swapped(self) -> "DualPolPsd":
        """The same input with the polarization roles exchanged."""
        return DualPolPsd(gx=self.gy, gy=self.gx, p0_w=self.p0_w)


def phase_rotation_weight(p_main: float, p_partner: float) -> float:
    """P_T = 2*P_main + P_partner, the phase-rotation power weight seen by
    the main polarization (2Px + Py for X; Y swaps the arguments)."""
    return 2.0 * p_main + p_partner
