"""Configuration ingestion: one YAML file, units stated in key names.

Every physical quantity is keyed with its unit (``alpha_db_per_km``,
``beta2_ps2_per_km``, ``spacing_hz``...) and converted to SI on load; there
are no positional or unit-ambiguous numerics anywhere.  Unknown keys are
rejected.  Scientific-notation scalars may be quoted or bare ("1e9" and
1.0e9 both parse); NaN and infinities are rejected.

Sections: ``link`` (spans), ``signal`` (dual-pol PSDs + P0), ``kernel``
(quadrature controls), ``psd`` (GN output grid), ``montecarlo``, ``moments``.
Only ``link`` and ``signal`` describe physics; the rest carry numerical
parameters with defaults.  Sections may be omitted when the subcommand that
needs them is not run.

All failures raise ConfigError (CLI exit code 1).
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import ConfigError
from .link import LinkProfile, Span
from .spectra import (DualPolPsd, PsdShape, RaisedCosinePsd, RectangularPsd,
                      TabulatedPsd)

__all__ = ["RunConfig", "load_config"]

# unit conversions to SI
_KM = 1.0e3                                 # km -> m
_DB_PER_KM = np.log(10.0) / 10.0 / 1.0e3    # dB/km -> 1/m (power attenuation)
_PS2_PER_KM = 1.0e-24 / 1.0e3               # ps^2/km -> s^2/m
_PER_W_KM = 1.0 / 1.0e3                     # 1/(W km) -> 1/(W m)
_PS2 = 1.0e-24                              # ps^2 -> s^2


def _require_mapping(node, where: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a key-value mapping")
    return node


def _reject_unknown(node: dict, allowed, where: str) -> None:
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _as_float(node: dict, key: str, where: str, default=None) -> float:
    if key not in node:
        if default is None:
            raise ConfigError(f"missing required key {where}.{key}")
        return float(default)
    value = node[key]
    if isinstance(value, bool):
        raise ConfigError(f"{where}.{key} must be a number, got a boolean")
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{where}.{key} must be finite, got {value!r}")
    return number


def _as_int(node: dict, key: str, where: str, default=None) -> int:
    if key not in node:
        if default is None:
            raise ConfigError(f"missing required key {where}.{key}")
        return int(default)
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
    return value


def _as_bool(node: dict, key: str, where: str, default: bool) -> bool:
    value = node.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{where}.{key} must be true or false, got {value!r}")
    return value


def _as_str(node: dict, key: str, where: str, default=None) -> str:
    if key not in node:
        if default is None:
            raise ConfigError(f"missing required key {where}.{key}")
        return default
    value = node[key]
    if not isinstance(value, str):
        raise ConfigError(f"{where}.{key} must be a string, got {value!r}")
    return value


def _parse_link(node, resolved) -> LinkProfile:
    node = _require_mapping(node, "link")
    _reject_unknown(node, ("xi_pre_ps2", "manakov_factor", "spans"), "link")
    xi_pre_ps2 = _as_float(node, "xi_pre_ps2", "link", default=0.0)
    manakov = _as_bool(node, "manakov_factor", "link", default=True)
    spans_node = node.get("spans")
    if not isinstance(spans_node, list) or not spans_node:
        raise ConfigError("link.spans must be a nonempty list")
    spans = []
    for i, span_node in enumerate(spans_node):
        where = f"link.spans[{i}]"
        span_node = _require_mapping(span_node, where)
        _reject_unknown(span_node, ("length_km", "alpha_db_per_km",
                                    "beta2_ps2_per_km", "gamma_per_w_km",
                                    "lumped_gain_db"), where)
        length_km = _as_float(span_node, "length_km", where)
        alpha_db = _as_float(span_node, "alpha_db_per_km", where)
        beta2_ps2 = _as_float(span_node, "beta2_ps2_per_km", where)
        gamma_wkm = _as_float(span_node, "gamma_per_w_km", where)
        gain_db = _as_float(span_node, "lumped_gain_db", where, default=0.0)
        for key, value in (("length_km", length_km),
                           ("alpha_db_per_km", alpha_db),
                           ("beta2_ps2_per_km", beta2_ps2),
                           ("gamma_per_w_km", gamma_wkm),
                           ("lumped_gain_db", gain_db)):
            resolved[f"link.spans[{i}].{key}"] = value
        try:
            spans.append(Span(
                length_m=length_km * _KM,
                alpha_per_m=alpha_db * _DB_PER_KM,
                beta2_s2_per_m=beta2_ps2 * _PS2_PER_KM,
                gamma_per_w_m=gamma_wkm * _PER_W_KM,
                lumped_gain_db=gain_db,
            ))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    resolved["link.xi_pre_ps2"] = xi_pre_ps2
    resolved["link.manakov_factor"] = manakov
    return LinkProfile(spans=tuple(spans), xi_pre_s2=xi_pre_ps2 * _PS2,
                       manakov_factor=manakov)


def _parse_shape(node, where: str, base_dir: str, resolved) -> PsdShape:
    node = _require_mapping(node, where)
    kind = _as_str(node, "kind", where)
    resolved[f"{where}.kind"] = kind
    if kind == "none":
        _reject_unknown(node, ("kind",), where)
        return RectangularPsd(center_hz=0.0, bandwidth_hz=1.0, height=0.0)
    if kind == "rectangular":
        _reject_unknown(node, ("kind", "center_hz", "bandwidth_hz", "height"),
                        where)
        center = _as_float(node, "center_hz", where, default=0.0)
        bandwidth = _as_float(node, "bandwidth_hz", where)
        height = _as_float(node, "height", where, default=1.0)
        for key, value in (("center_hz", center), ("bandwidth_hz", bandwidth),
                           ("height", height)):
            resolved[f"{where}.{key}"] = value
        try:
            return RectangularPsd(center_hz=center, bandwidth_hz=bandwidth,
                                  height=height)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    if kind == "raised_cosine":
        _reject_unknown(node, ("kind", "center_hz", "bandwidth_hz", "rolloff",
                               "height"), where)
        center = _as_float(node, "center_hz", where, default=0.0)
        bandwidth = _as_float(node, "bandwidth_hz", where)
        rolloff = _as_float(node, "rolloff", where)
        height = _as_float(node, "height", where, default=1.0)
        for key, value in (("center_hz", center), ("bandwidth_hz", bandwidth),
                           ("rolloff", rolloff), ("height", height)):
            resolved[f"{where}.{key}"] = value
        try:
            return RaisedCosinePsd(center_hz=center, bandwidth_hz=bandwidth,
                                   rolloff=rolloff, height=height)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    if kind == "tabulated":
        _reject_unknown(node, ("kind", "csv_path"), where)
        path = _as_str(node, "csv_path", where)
        resolved[f"{where}.csv_path"] = path
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        try:
            return TabulatedPsd.from_csv(path)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    raise ConfigError(f"{where}.kind must be one of rectangular, "
                      f"raised_cosine, tabulated, none; got {kind!r}")


def _parse_signal(node, base_dir: str, resolved) -> DualPolPsd:
    node = _require_mapping(node, "signal")
    _reject_unknown(node, ("p0_w", "x", "y"), "signal")
    p0 = _as_float(node, "p0_w", "signal")
    resolved["signal.p0_w"] = p0
    if "x" not in node or "y" not in node:
        raise ConfigError("signal must declare both x and y shapes "
                          "(use kind 'none' for an unused polarization)")
    gx = _parse_shape(node["x"], "signal.x", base_dir, resolved)
    gy = _parse_shape(node["y"], "signal.y", base_dir, resolved)
    try:
        return DualPolPsd(gx=gx, gy=gy, p0_w=p0)
    except ValueError as exc:
        raise ConfigError(f"signal: {exc}") from None


@dataclass
class RunConfig:
    """Validated run parameters; ``resolved`` is the flat key -> value map
    written into every output header."""

    link: LinkProfile | None
    signal: DualPolPsd | None
    kernel_tolerance: float
    kernel_max_cells: int
    include_phase_term: bool
    inner_grid_step_hz: float | None
    output_grid_hz: np.ndarray | None
    montecarlo: dict
    moments: dict
    resolved: dict = field(default_factory=dict)

    def require_link(self) -> LinkProfile:
        if self.link is None:
            raise ConfigError("this subcommand needs a link section in the "
                              "configuration file")
        return self.link

    def require_signal(self) -> DualPolPsd:
        if self.signal is None:
            raise ConfigError("this subcommand needs a signal section in the "
                              "configuration file")
        return self.signal

    def require_output_grid(self) -> np.ndarray:
        if self.output_grid_hz is None or self.inner_grid_step_hz is None:
            raise ConfigError("this subcommand needs a psd section with "
                              "inner_grid_step_hz, output_min_hz, "
                              "output_max_hz and output_points")
        return self.output_grid_hz


def load_config(path: str) -> RunConfig:
    """Parse and validate a YAML configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            root = yaml.safe_load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse configuration file {path}: {exc}") from None
    root = _require_mapping(root, "configuration root")
    _reject_unknown(root, ("link", "signal", "kernel", "psd", "montecarlo",
                           "moments"), "configuration root")
    base_dir = os.path.dirname(os.path.abspath(path))
    resolved: dict = {}

    link = _parse_link(root["link"], resolved) if "link" in root else None
    signal = _parse_signal(root["signal"], base_dir, resolved) \
        if "signal" in root else None

    kernel_node = _require_mapping(root.get("kernel", {}), "kernel")
    _reject_unknown(kernel_node, ("quadrature_tolerance", "max_cells_per_span"),
                    "kernel")
    tolerance = _as_float(kernel_node, "quadrature_tolerance", "kernel",
                          default=1.0e-10)
    max_cells = _as_int(kernel_node, "max_cells_per_span", "kernel",
                        default=1 << 21)
    resolved["kernel.quadrature_tolerance"] = tolerance
    resolved["kernel.max_cells_per_span"] = max_cells

    include_phase = True
    inner_step = None
    output_grid = None
    if "psd" in root:
        psd_node = _require_mapping(root["psd"], "psd")
        _reject_unknown(psd_node, ("include_phase_term", "inner_grid_step_hz",
                                   "output_min_hz", "output_max_hz",
                                   "output_points"), "psd")
        include_phase = _as_bool(psd_node, "include_phase_term", "psd",
                                 default=True)
        inner_step = _as_float(psd_node, "inner_grid_step_hz", "psd")
        out_min = _as_float(psd_node, "output_min_hz", "psd")
        out_max = _as_float(psd_node, "output_max_hz", "psd")
        out_points = _as_int(psd_node, "output_points", "psd")
        if not out_max > out_min:
            raise ConfigError("psd.output_max_hz must exceed psd.output_min_hz")
        if out_points < 2:
            raise ConfigError("psd.output_points must be at least 2")
        output_grid = np.linspace(out_min, out_max, out_points)
        resolved["psd.include_phase_term"] = include_phase
        resolved["psd.inner_grid_step_hz"] = inner_step
        resolved["psd.output_min_hz"] = out_min
        resolved["psd.output_max_hz"] = out_max
        resolved["psd.output_points"] = out_points

    mc_node = _require_mapping(root.get("montecarlo", {}), "montecarlo")
    _reject_unknown(mc_node, ("mode", "num_lines", "spacing_hz", "num_trials",
                              "seed", "edge_margin"), "montecarlo")
    montecarlo = {
        "mode": _as_str(mc_node, "mode", "montecarlo", default="rp1"),
        "num_lines": _as_int(mc_node, "num_lines", "montecarlo", default=64),
        "spacing_hz": _as_float(mc_node, "spacing_hz", "montecarlo",
                                default=1.0e9),
        "num_trials": _as_int(mc_node, "num_trials", "montecarlo", default=2000),
        "seed": _as_int(mc_node, "seed", "montecarlo", default=12345),
        "edge_margin": _as_float(mc_node, "edge_margin", "montecarlo",
                                 default=0.1),
    }

    mom_node = _require_mapping(root.get("moments", {}), "moments")
    _reject_unknown(mom_node, ("theorem", "k", "num_ensembles", "trials",
                               "seed", "grid_size", "num_processes",
                               "num_sources"), "moments")
    moments = {
        "theorem": _as_int(mom_node, "theorem", "moments", default=3),
        "k": _as_int(mom_node, "k", "moments", default=2),
        "num_ensembles": _as_int(mom_node, "num_ensembles", "moments",
                                 default=20),
        "trials": _as_int(mom_node, "trials", "moments", default=200_000),
        "seed": _as_int(mom_node, "seed", "moments", default=54321),
        "grid_size": _as_int(mom_node, "grid_size", "moments", default=32),
        "num_processes": _as_int(mom_node, "num_processes", "moments",
                                 default=6),
        "num_sources": _as_int(mom_node, "num_sources", "moments", default=4),
    }

    for section, params in (("montecarlo", montecarlo), ("moments", moments)):
        for key, value in params.items():
            resolved[f"{section}.{key}"] = value

    return RunConfig(link=link, signal=signal, kernel_tolerance=tolerance,
                     kernel_max_cells=max_cells,
                     include_phase_term=include_phase,
                     inner_grid_step_hz=inner_step, output_grid_hz=output_grid,
                     montecarlo=montecarlo, moments=moments, resolved=resolved)
