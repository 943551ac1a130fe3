"""Physical description of a dispersion-uncompensated multi-span link.

The frequency kernel consumes two z-profiles of the link: the power gain
G(z), normalized to G(0) = 1, and the cumulated dispersion
C(z) = xi_pre - integral_0^z beta2(s) ds.  For piecewise-constant spans with
ideal lumped amplification at span boundaries both profiles are closed-form:
G decays exponentially inside a span and jumps by the lumped gain at the
boundary; C is continuous and piecewise linear with slope -beta2.

Units are SI throughout (m, s^2/m, 1/m, 1/(W m)); unit conversion from
engineering units (km, ps^2/km, dB/km) happens once, in the config loader.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Span", "LinkProfile", "power_gain", "cumulated_dispersion"]


@dataclass(frozen=True)
class Span:
    """One homogeneous fiber span.

    Parameters
    ----------
    length_m : float
        Span length in meters, > 0.
    alpha_per_m : float
        Power attenuation coefficient in 1/m, >= 0; in-span power gain is
        exp(-alpha * dz).
    beta2_s2_per_m : float
        Group-velocity dispersion in s^2/m (either sign).
    gamma_per_w_m : float
        Fiber nonlinear coefficient in 1/(W m), >= 0.
    lumped_gain_db : float
        Ideal, noiseless lumped gain in dB applied at the span end.
    """

    length_m: float
    alpha_per_m: float
    beta2_s2_per_m: float
    gamma_per_w_m: float
    lumped_gain_db: float = 0.0

    def __post_init__(self):
        for name, value in (("length", self.length_m), ("alpha", self.alpha_per_m),
                            ("beta2", self.beta2_s2_per_m),
                            ("gamma", self.gamma_per_w_m),
                            ("lumped gain", self.lumped_gain_db)):
            if not math.isfinite(value):
                raise ValueError(f"span {name} must be finite, got {value}")
        if not self.length_m > 0:
            raise ValueError(f"span length must be > 0 m, got {self.length_m}")
        if self.alpha_per_m < 0:
            raise ValueError(f"alpha must be >= 0 1/m, got {self.alpha_per_m}")
        if self.gamma_per_w_m < 0:
            raise ValueError(f"gamma must be >= 0 1/(W m), got {self.gamma_per_w_m}")

    @property
    def lumped_gain_linear(self) -> float:
        """Lumped power gain as a linear factor."""
        return 10.0 ** (self.lumped_gain_db / 10.0)


@dataclass
class LinkProfile:
    """Ordered spans plus the pre-compensation offset xi_pre.

    ``manakov_factor`` selects the effective nonlinear coefficient used in
    kernel weights: gamma' = (8/9) gamma when True (dual-polarization Manakov
    averaging), bare gamma when False.

    Derived per-span arrays (start position, start gain, start cumulated
    dispersion) are precomputed on construction; a span boundary belongs to
    the downstream span, so the lumped amplifier at the boundary is already
    included in the gain from the boundary position onward.
    """

    spans: tuple[Span, ...]
    xi_pre_s2: float = 0.0
    manakov_factor: bool = True

    def __post_init__(self):
        self.spans = tuple(self.spans)
        if not self.spans:
            raise ValueError("a link needs at least one span")
        lengths = np.array([s.length_m for s in self.spans])
        bounds = np.concatenate(([0.0], np.cumsum(lengths)))
        self.span_start_m = bounds[:-1]
        self.total_length_m = float(bounds[-1])

        gains, disps = [], []
        g, c = 1.0, self.xi_pre_s2
        for s in self.spans:
            gains.append(g)
            disps.append(c)
            g *= math.exp(-s.alpha_per_m * s.length_m) * s.lumped_gain_linear
            c -= s.beta2_s2_per_m * s.length_m
        self.start_gain = np.array(gains)
        self.start_dispersion_s2 = np.array(disps)
        self.end_dispersion_s2 = c

    @property
    def gamma_scale(self) -> float:
        return 8.0 / 9.0 if self.manakov_factor else 1.0

    def span_index(self, z):
        """Index of the span containing z (boundaries belong downstream)."""
        z = np.asarray(z, dtype=float)
        if np.any(z < 0.0) or np.any(z > self.total_length_m):
            raise ValueError(
                f"z must lie in [0, {self.total_length_m}] m, got {z}"
            )
        return np.minimum(
            np.searchsorted(self.span_start_m, z, side="right") - 1,
            len(self.spans) - 1,
        )


def _scalar_like(template, values):
    return float(values) if np.ndim(template) == 0 else values


def power_gain(link: LinkProfile, z):
    """Power gain G(z) from 0 to z, with G(0) = 1.

    Accepts a scalar or array position in meters; raises ``ValueError``
    outside [0, L].
    """
    idx = link.span_index(z)
    z = np.asarray(z, dtype=float)
    alpha = np.array([s.alpha_per_m for s in link.spans])[idx]
    g = link.start_gain[idx] * np.exp(-alpha * (z - link.span_start_m[idx]))
    return _scalar_like(z, g)


def cumulated_dispersion(link: LinkProfile, z):
    """Cumulated dispersion C(z) = xi_pre - integral_0^z beta2 ds, in s^2."""
    idx = link.span_index(z)
    z = np.asarray(z, dtype=float)
    beta2 = np.array([s.beta2_s2_per_m for s in link.spans])[idx]
    c = link.start_dispersion_s2[idx] - beta2 * (z - link.span_start_m[idx])
    return _scalar_like(z, c)
