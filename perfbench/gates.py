"""Correctness gate of every request.

Each gate takes the request, the CLI exit code and the output path, and
returns an error message, or None when the output is correct.  The gates
run outside the timed region, and the tracer never records them.
"""
from __future__ import annotations

import json
import os

import numpy as np

from gnmodel import KernelModel, kernel_closed_form, load_config

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

KERNEL_REL_LIMIT = 1e-9         # criterion 1
ZERO_DISPERSION_REL_LIMIT = 1e-3  # criterion 2
Z_LIMIT, IN_BAND_SHARE = 3.0, 0.95  # criteria 4/5


def read_csv(path):
    """(column names, float matrix) of a gnmodel CSV output."""
    with open(path, encoding="utf-8") as handle:
        rows = [line.rstrip("\n") for line in handle if not line.startswith("#")]
    columns = rows[0].split(",")
    data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    return columns, data.reshape(len(rows) - 1, len(columns))


def _kernel_vs_closed_form(request, out, workdir, reference_dir):
    columns, data = read_csv(out)
    cfg = load_config(os.path.join(workdir, request.config))
    model = KernelModel(link=cfg.link)
    closed = kernel_closed_form(model, data[:, columns.index("F_Hz2")])
    quad = data[:, columns.index("re_K")] + 1j * data[:, columns.index("im_K")]
    worst = float(np.max(np.abs(quad - closed) / np.abs(closed)))
    if not worst <= KERNEL_REL_LIMIT:
        return f"quadrature vs closed form worst rel {worst:.3e} > {KERNEL_REL_LIMIT:g}"
    return None


def load_reference(name, reference_dir):
    """Reference CSV data and tolerance of one psd request."""
    with open(os.path.join(reference_dir, "tolerances.json"), encoding="utf-8") as handle:
        tolerance = json.load(handle)[name]["tolerance"]
    columns, data = read_csv(os.path.join(reference_dir, f"{name}.csv"))
    return columns, data, tolerance


def compare_columns(columns, data, ref_columns, ref_data):
    """Worst column-wise deviation max|a - b| / max|b| over the value
    columns; inf when the grids differ."""
    if columns != ref_columns or data.shape != ref_data.shape \
            or not np.array_equal(data[:, 0], ref_data[:, 0]):
        return np.inf
    worst = 0.0
    for j in range(1, len(columns)):
        scale = np.max(np.abs(ref_data[:, j]))
        gap = np.max(np.abs(data[:, j] - ref_data[:, j]))
        worst = max(worst, gap / scale if scale > 0 else gap)
    return float(worst)


def _reference(request, out, workdir, reference_dir):
    columns, data = read_csv(out)
    ref_columns, ref_data, tolerance = load_reference(request.name, reference_dir)
    worst = compare_columns(columns, data, ref_columns, ref_data)
    if not worst <= tolerance:
        return f"deviation from the reference {worst:.3e} > {tolerance:.3e}"
    return None


def _zero_dispersion(request, out, workdir, reference_dir):
    height, bandwidth = request.params
    columns, data = read_csv(out)
    row = np.nonzero(data[:, columns.index("f_Hz")] == 0.0)[0]
    if row.size != 1:
        return "output grid lacks f = 0"
    spm = data[row[0], columns.index("spm")]
    analytic = 1.5 * height**3 * bandwidth**2
    rel = abs(spm - analytic) / analytic
    if not rel <= ZERO_DISPERSION_REL_LIMIT:
        return f"spm(0) rel error {rel:.3e} > {ZERO_DISPERSION_REL_LIMIT:g}"
    return None


def _z_scores(request, out, workdir, reference_dir):
    center, bandwidth, margin = request.params
    columns, data = read_csv(out)
    f = data[:, columns.index("f_Hz")]
    z = data[:, columns.index("abs_z_score")]
    in_band = np.abs(f - center) <= (1.0 - margin) * 0.5 * bandwidth
    if not in_band.any() or not np.all(np.isfinite(data)):
        return "no in-band points or non-finite output"
    share = float(np.mean(z[in_band] <= Z_LIMIT))
    if not share >= IN_BAND_SHARE:
        return f"{share:.3f} of in-band points within {Z_LIMIT:g} stderr < {IN_BAND_SHARE}"
    return None


def _moments_pass(request, out, workdir, reference_dir):
    with open(out, encoding="utf-8") as handle:
        last = handle.read().rstrip("\n").rsplit("\n", 1)[-1]
    if not last.startswith("# RESULT: PASS"):
        return f"report says {last!r}"
    return None


_GATES = {
    "kernel_vs_closed_form": _kernel_vs_closed_form,
    "reference": _reference,
    "zero_dispersion": _zero_dispersion,
    "z_scores": _z_scores,
    "moments_pass": _moments_pass,
}


def check(request, code, out, workdir, reference_dir=REFERENCE_DIR):
    """Error message for a failed request, or None."""
    if code != 0:
        return f"exit code {code}"
    try:
        return _GATES[request.gate](request, out, workdir, reference_dir)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return f"unreadable output: {exc!r}"
