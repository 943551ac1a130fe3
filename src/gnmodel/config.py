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

Schema: each mapping (a section, one span, one shape) is declared once as
rows of ``(key, type, default)``; a row without a default is a required
key.  One reader checks a mapping against its rows: it rejects unknown keys,
type-checks each value (bool, int, finite float or str), applies the
defaults and records every value under ``"<where>.<key>"`` in the resolved
map, from which the output header is written.  A shape's ``kind`` selects
its constructor and rows from ``_SHAPES``; the shape keys are the
constructor's argument names.  Span keys are converted to ``Span`` fields
through ``_SPAN_SI``.

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
from .spectra import (DualPolPsd, RaisedCosinePsd, RectangularPsd,
                      TabulatedPsd)

__all__ = ["RunConfig", "load_config"]

# unit conversions to SI
_KM = 1.0e3                                 # km -> m
_DB_PER_KM = np.log(10.0) / 10.0 / 1.0e3    # dB/km -> 1/m (power attenuation)
_PS2_PER_KM = 1.0e-24 / 1.0e3               # ps^2/km -> s^2/m
_PER_W_KM = 1.0 / 1.0e3                     # 1/(W km) -> 1/(W m)
_PS2 = 1.0e-24                              # ps^2 -> s^2

_LINK = (("xi_pre_ps2", float, 0.0), ("manakov_factor", bool, True))
_SPAN = (("length_km", float), ("alpha_db_per_km", float),
         ("beta2_ps2_per_km", float), ("gamma_per_w_km", float),
         ("lumped_gain_db", float, 0.0))
# span key -> (Span field, factor to SI)
_SPAN_SI = {"length_km": ("length_m", _KM),
            "alpha_db_per_km": ("alpha_per_m", _DB_PER_KM),
            "beta2_ps2_per_km": ("beta2_s2_per_m", _PS2_PER_KM),
            "gamma_per_w_km": ("gamma_per_w_m", _PER_W_KM),
            "lumped_gain_db": ("lumped_gain_db", 1.0)}
_SIGNAL = (("p0_w", float),)
_KIND = (("kind", str),)
# shape kind -> (constructor, rows)
_SHAPES = {
    "rectangular": (RectangularPsd, (("center_hz", float, 0.0),
                                     ("bandwidth_hz", float),
                                     ("height", float, 1.0))),
    "raised_cosine": (RaisedCosinePsd, (("center_hz", float, 0.0),
                                        ("bandwidth_hz", float),
                                        ("rolloff", float),
                                        ("height", float, 1.0))),
    "tabulated": (lambda csv_path: TabulatedPsd.from_csv(csv_path),
                  (("csv_path", str),)),
    "none": (lambda: RectangularPsd(center_hz=0.0, bandwidth_hz=1.0,
                                    height=0.0), ()),
}
_KERNEL = (("quadrature_tolerance", float, 1.0e-10),
           ("max_cells_per_span", int, 1 << 21))
_PSD = (("include_phase_term", bool, True), ("inner_grid_step_hz", float),
        ("output_min_hz", float), ("output_max_hz", float),
        ("output_points", int))
_MONTECARLO = (("mode", str, "rp1"), ("num_lines", int, 64),
               ("spacing_hz", float, 1.0e9), ("num_trials", int, 2000),
               ("seed", int, 12345), ("edge_margin", float, 0.1))
_MOMENTS = (("theorem", int, 3), ("k", int, 2), ("num_ensembles", int, 20),
            ("trials", int, 200_000), ("seed", int, 54321),
            ("grid_size", int, 32), ("num_processes", int, 6),
            ("num_sources", int, 4))

_EXPECTED = {int: "an integer", bool: "true or false", str: "a string"}


def _require_mapping(node, where: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a key-value mapping")
    return node


def _typed(value, kind, name: str):
    """``value`` checked as ``kind``; floats parse from numbers and numeric
    strings and must be finite, the other types must match exactly."""
    if kind is float:
        if isinstance(value, bool):
            raise ConfigError(f"{name} must be a number, got a boolean")
        try:
            number = float(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{name} must be a number, got {value!r}") from None
        if not math.isfinite(number):
            raise ConfigError(f"{name} must be finite, got {value!r}")
        return number
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise ConfigError(f"{name} must be {_EXPECTED[kind]}, got {value!r}")


def _value(node: dict, where: str, row):
    key, kind, *default = row
    if key in node:
        return _typed(node[key], kind, f"{where}.{key}")
    if not default:
        raise ConfigError(f"missing required key {where}.{key}")
    return default[0]


def _read(node, where: str, rows, resolved: dict, nested=()) -> dict:
    """Check one mapping against its schema rows and record its values.

    ``nested`` names further allowed keys that the caller parses itself.
    """
    node = _require_mapping(node, where)
    unknown = sorted(set(node) - {row[0] for row in rows} - set(nested))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    values = {}
    for row in rows:
        values[row[0]] = resolved[f"{where}.{row[0]}"] = _value(node, where, row)
    return values


def _parse_link(node, resolved) -> LinkProfile:
    values = _read(node, "link", _LINK, resolved, nested=("spans",))
    spans_node = node.get("spans")
    if not isinstance(spans_node, list) or not spans_node:
        raise ConfigError("link.spans must be a nonempty list")
    spans = []
    for i, span_node in enumerate(spans_node):
        where = f"link.spans[{i}]"
        span = _read(span_node, where, _SPAN, resolved)
        try:
            spans.append(Span(**{name: span[key] * factor
                                 for key, (name, factor) in _SPAN_SI.items()}))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    return LinkProfile(spans=tuple(spans),
                       xi_pre_s2=values["xi_pre_ps2"] * _PS2,
                       manakov_factor=values["manakov_factor"])


def _parse_shape(node, where: str, base_dir: str, resolved):
    kind = _value(_require_mapping(node, where), where, _KIND[0])
    if kind not in _SHAPES:
        raise ConfigError(f"{where}.kind must be one of rectangular, "
                          f"raised_cosine, tabulated, none; got {kind!r}")
    constructor, rows = _SHAPES[kind]
    params = _read(node, where, _KIND + rows, resolved)
    del params["kind"]
    if "csv_path" in params:
        params["csv_path"] = os.path.join(base_dir, params["csv_path"])
    try:
        return constructor(**params)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_signal(node, base_dir: str, resolved) -> DualPolPsd:
    p0 = _read(node, "signal", _SIGNAL, resolved, nested=("x", "y"))["p0_w"]
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
    _read(root, "configuration root", (), {},
          nested=("link", "signal", "kernel", "psd", "montecarlo", "moments"))
    base_dir = os.path.dirname(os.path.abspath(path))
    resolved: dict = {}

    link = _parse_link(root["link"], resolved) if "link" in root else None
    signal = _parse_signal(root["signal"], base_dir, resolved) \
        if "signal" in root else None

    kernel = _read(root.get("kernel", {}), "kernel", _KERNEL, resolved)
    if not kernel["quadrature_tolerance"] > 0:
        raise ConfigError("kernel.quadrature_tolerance must be > 0, got "
                          f"{kernel['quadrature_tolerance']!r}")
    # the quadrature starts at 8 cells per span and doubles at least once
    if kernel["max_cells_per_span"] < 16:
        raise ConfigError("kernel.max_cells_per_span must be at least 16, got "
                          f"{kernel['max_cells_per_span']}")

    psd = {"include_phase_term": True, "inner_grid_step_hz": None}
    output_grid = None
    if "psd" in root:
        psd = _read(root["psd"], "psd", _PSD, resolved)
        if not psd["output_max_hz"] > psd["output_min_hz"]:
            raise ConfigError("psd.output_max_hz must exceed psd.output_min_hz")
        if psd["output_points"] < 2:
            raise ConfigError("psd.output_points must be at least 2")
        output_grid = np.linspace(psd["output_min_hz"], psd["output_max_hz"],
                                  psd["output_points"])

    montecarlo = _read(root.get("montecarlo", {}), "montecarlo", _MONTECARLO,
                       resolved)
    moments = _read(root.get("moments", {}), "moments", _MOMENTS, resolved)

    return RunConfig(link=link, signal=signal,
                     kernel_tolerance=kernel["quadrature_tolerance"],
                     kernel_max_cells=kernel["max_cells_per_span"],
                     include_phase_term=psd["include_phase_term"],
                     inner_grid_step_hz=psd["inner_grid_step_hz"],
                     output_grid_hz=output_grid,
                     montecarlo=montecarlo, moments=moments, resolved=resolved)
