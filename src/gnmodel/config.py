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
needs them is not run, but every section present is checked in full on
load, whichever subcommand runs: no output header records a value that
another subcommand would reject.

Schema: each mapping (a section, one span, one shape) is declared once as
rows of ``(key, type, default, range)``; a row without a default is a
required key, and a range is a ``(predicate, phrase)`` pair.  One reader
checks a value against its row, the type (bool, int, finite float or str)
and then the range, failing with ``<where>.<key> must be <phrase>, got
<value>``.  ``FLAGS`` declares each subcommand's flags: the section whose
rows they set (the ``kernel`` subcommand's F grid is the ``cli`` rows, no
section of the file) and their keys.  ``read_flags`` reads a flag's text as
YAML, as the file's text is read, then by the key's row: a flag and the file
give the same value and message.  A mapping's reader rejects unknown keys,
applies the defaults and records every value under ``"<where>.<key>"`` in
the resolved map, from which the output header is written.  Rules that tie
keys together, or that are an engine's own limit, stay with their code;
``construct`` turns a value a constructor rejects into a configuration error
of its mapping.  A shape's ``kind`` selects its constructor and rows
from ``_SHAPES``; the shape keys are the constructor's argument names.
Span keys are converted to ``Span`` fields through ``_SPAN_SI``.

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

__all__ = ["RunConfig", "load_config", "FLAGS", "flag_name", "read_flags",
           "construct"]

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


# a range is (predicate, phrase): "<where>.<key> must be <phrase>"
def _at_least(low):
    return (lambda value: value >= low), f"at least {low}"


def _one_of(*choices):
    return (lambda value: value in choices), \
        f"one of {', '.join(map(str, choices))}"


_POSITIVE = (lambda value: value > 0), "> 0"
_SEED = (lambda value: 0 <= value < 2**64), "in [0, 2**64)"
_REQUIRED = object()    # no default: written out where a range follows

_KIND = (("kind", str, _REQUIRED, _one_of(*_SHAPES)),)
# the quadrature starts at 8 cells per span and doubles at least once
_KERNEL = (("quadrature_tolerance", float, 1.0e-10, _POSITIVE),
           ("max_cells_per_span", int, 1 << 21, _at_least(16)))
_PSD = (("include_phase_term", bool, True),
        ("inner_grid_step_hz", float, _REQUIRED, _POSITIVE),
        ("output_min_hz", float), ("output_max_hz", float),
        ("output_points", int, _REQUIRED, _at_least(2)))
# num_lines is M: the grid holds the M + 1 lines k f0, |k| <= M/2
_MONTECARLO = (
    ("mode", str, "rp1", _one_of("rp1", "erp1")),
    ("num_lines", int, 64,
     ((lambda value: value >= 8 and value % 2 == 0), "even and at least 8")),
    ("spacing_hz", float, 1.0e9, _POSITIVE),
    ("num_trials", int, 2000, _at_least(2)), ("seed", int, 12345, _SEED),
    ("edge_margin", float, 0.1,
     ((lambda value: 0.0 <= value < 0.5), "in [0, 0.5)")))
_MOMENTS = (("theorem", int, 3, _one_of(1, 2, 3)),
            # 8 is moments.MAX_MOMENT_ORDER
            ("k", int, 2, ((lambda value: 1 <= value <= 8), "in [1, 8]")),
            ("num_ensembles", int, 20, _at_least(1)),
            ("trials", int, 200_000, _at_least(2)),
            ("seed", int, 54321, _SEED), ("grid_size", int, 32, _at_least(1)),
            ("num_processes", int, 6, _at_least(1)),
            ("num_sources", int, 4, _at_least(1)))
# the sections of numerical parameters
_SECTIONS = {"kernel": _KERNEL, "psd": _PSD, "montecarlo": _MONTECARLO,
             "moments": _MOMENTS}
# the kernel subcommand's F grid: flags only, recorded as cli.<key>
_CLI = (("f_min_hz2", float), ("f_max_hz2", float),
        ("points", int, _REQUIRED, _at_least(1)),
        ("spacing", str, "log", _one_of("log", "linear")),
        ("method", str, "closed-form", _one_of("closed-form", "quadrature")))
_FLAG_ROWS = {**_SECTIONS, "cli": _CLI}     # the rows a flag may set

# each subcommand's flags: the section whose rows they set and their keys,
# in --help order.  A flag is --<key with dashes> unless _SPELLED names it
FLAGS = {"kernel": ("cli", tuple(key for key, *_ in _CLI)),
         "psd": (None, ()),
         "montecarlo": ("montecarlo", ("mode", "num_lines", "spacing_hz",
                                       "num_trials", "seed")),
         "moments": ("moments", ("theorem", "k", "trials", "seed"))}
_SPELLED = {"montecarlo.num_lines": "--lines",
            "montecarlo.num_trials": "--trials"}

_EXPECTED = {int: "an integer", bool: "true or false", str: "a string"}


def _require_mapping(node, where: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a key-value mapping")
    return node


def _typed(value, kind, name: str):
    """``value`` checked as ``kind``; floats parse from numbers and numeric
    strings and must be finite, the other types must match exactly."""
    if kind is float:
        try:
            if isinstance(value, bool):
                raise TypeError
            number = float(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{name} must be a number, got {value!r}") from None
        except OverflowError:       # an integer beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{name} must be finite, got {value!r}")
        return number
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise ConfigError(f"{name} must be {_EXPECTED[kind]}, got {value!r}")


def _value(node: dict, where: str, key: str, kind, default=_REQUIRED,
           accepted=None):
    """``node[key]`` checked against one schema row, or the row's default."""
    name = f"{where}.{key}"
    if key not in node:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {name}")
        return default
    value = _typed(node[key], kind, name)
    if accepted is not None and not accepted[0](value):
        raise ConfigError(f"{name} must be {accepted[1]}, got {value!r}")
    return value


def flag_name(section: str, key: str) -> str:
    """The command-line flag that sets ``<section>.<key>``."""
    return _SPELLED.get(f"{section}.{key}", "--" + key.replace("_", "-"))


def read_flags(command: str, flags: dict, resolved: dict):
    """The values of the section whose rows ``command``'s flags set, read by
    its rows as the file's keys are, and a copy of ``resolved`` recording
    them.  ``flags`` maps each key to its flag's text, or None where the flag
    is unset; the text is read as YAML, as the same text in the file would
    be, and takes the file's value's place."""
    section, keys = FLAGS[command]
    rows = _FLAG_ROWS.get(section, ())
    node = {key: resolved[f"{section}.{key}"] for key, *_ in rows
            if f"{section}.{key}" in resolved}
    for key in keys:
        if flags.get(key) is not None:
            try:
                node[key] = yaml.safe_load(flags[key])
            except yaml.YAMLError as exc:
                raise ConfigError(f"cannot parse {flag_name(section, key)} "
                                  f"{flags[key]!r}: {exc}") from None
    resolved = dict(resolved)
    return _read(node, section, rows, resolved), resolved


def construct(where: str, constructor, /, **params):
    """``constructor(**params)``; a value it rejects is a ConfigError of
    ``where``."""
    try:
        return constructor(**params)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


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
        values[row[0]] = resolved[f"{where}.{row[0]}"] = _value(node, where, *row)
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
        spans.append(construct(where, Span, **{
            name: span[key] * factor
            for key, (name, factor) in _SPAN_SI.items()}))
    return LinkProfile(spans=tuple(spans),
                       xi_pre_s2=values["xi_pre_ps2"] * _PS2,
                       manakov_factor=values["manakov_factor"])


def _parse_shape(node, where: str, base_dir: str, resolved):
    kind = _value(_require_mapping(node, where), where, *_KIND[0])
    constructor, rows = _SHAPES[kind]
    params = _read(node, where, _KIND + rows, resolved)
    del params["kind"]
    if "csv_path" in params:
        params["csv_path"] = os.path.join(base_dir, params["csv_path"])
    return construct(where, constructor, **params)


def _parse_signal(node, base_dir: str, resolved) -> DualPolPsd:
    p0 = _read(node, "signal", _SIGNAL, resolved, nested=("x", "y"))["p0_w"]
    if "x" not in node or "y" not in node:
        raise ConfigError("signal must declare both x and y shapes "
                          "(use kind 'none' for an unused polarization)")
    gx = _parse_shape(node["x"], "signal.x", base_dir, resolved)
    gy = _parse_shape(node["y"], "signal.y", base_dir, resolved)
    return construct("signal", DualPolPsd, gx=gx, gy=gy, p0_w=p0)


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
          nested=("link", "signal", *_SECTIONS))
    base_dir = os.path.dirname(os.path.abspath(path))
    resolved: dict = {}

    link = _parse_link(root["link"], resolved) if "link" in root else None
    signal = _parse_signal(root["signal"], base_dir, resolved) \
        if "signal" in root else None

    kernel = _read(root.get("kernel", {}), "kernel", _KERNEL, resolved)

    psd = {"include_phase_term": True, "inner_grid_step_hz": None}
    output_grid = None
    if "psd" in root:
        psd = _read(root["psd"], "psd", _PSD, resolved)
        if not psd["output_max_hz"] > psd["output_min_hz"]:
            raise ConfigError("psd.output_max_hz must exceed psd.output_min_hz")
        output_grid = np.linspace(psd["output_min_hz"], psd["output_max_hz"],
                                  psd["output_points"])

    for section in ("montecarlo", "moments"):   # a runner's, via read_flags
        _read(root.get(section, {}), section, _SECTIONS[section], resolved)

    return RunConfig(link=link, signal=signal,
                     kernel_tolerance=kernel["quadrature_tolerance"],
                     kernel_max_cells=kernel["max_cells_per_span"],
                     include_phase_term=psd["include_phase_term"],
                     inner_grid_step_hz=psd["inner_grid_step_hz"],
                     output_grid_hz=output_grid, resolved=resolved)
