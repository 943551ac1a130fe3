"""Monte Carlo verification of the GN model over circular-Gaussian lines.

A trial draws one dual-polarization spectral-line field on the uniform grid
k*f0, k in [-M/2, M/2], with independent standard circular complex Gaussian
coefficients scaled by the input PSD:

    line_k = (n1 + j n2)/sqrt(2) * sqrt(Ghat(k f0) / f0)

The discrete RP1 perturbation map applied to a field is

    U_xp(k f0) = -j Phi_NL * f0^2 * sum_{m,n} eta(m n f0^2) *
        [ X_{k+m} conj(X_{k+m+n}) X_{k+n} + X_{k+m} conj(Y_{k+m+n}) Y_{k+n} ]

(out-of-grid indices are zero; Y is X of the swapped field and input,
``DualPolPsd.swapped()``), and the DP-ERP1 map subtracts the
deterministic phase-rotation part P_T * X_k from the bracketed sum before the
-j Phi_NL scaling.  The PSD estimator averages f0 * |sum|^2 per grid
frequency over trials, which converges to the GN total Ghat_xp(f)/Phi_NL^2.

Normalization convention (the only self-consistent one): line amplitudes
carry 1/sqrt(f0), the double sum carries f0^2 (one (f1, f2) grid cell), and
the estimator carries f0.  With these weights the estimator applied to the
input lines themselves recovers Ghat(k f0), and applied to the perturbation
recovers the GN integrals in Phi_NL^2 units.

The P_T coefficient of the ERP1 subtraction uses the *discrete* grid powers
f0 * sum_k Ghat(k f0): on the grid, E[sum * conj(X_k)] equals exactly
P_T_discrete * E|X_k|^2, so this choice cancels the phase term exactly at
finite f0 instead of only asymptotically.

Exact mean: by CGMT the DP-ERP1 estimator at line k has the expectation

    f0^2 sum_{m,n} |eta(m n f0^2)|^2 [2 g_{k+m} g_{k+m+n} g_{k+n}
                                      + g_{k+m} h_{k+m+n} h_{k+n}]

with g_k = Ghat_x(k f0) and h_k = Ghat_y(k f0), and the RP1 estimator that
plus P_T_discrete^2 g_k.  This is the GN midpoint rule on cells of width f0
centred on the lines: ``expected_request`` asks the GN engine for it
(``GnRequest.on_lines``), and every Monte Carlo verdict compares its
estimate with it.  As f0 shrinks it approaches the continuum GN integral.

Engine: with i = k+n, the double sum B over a block of trials (rows)
regroups per line shift m as

    B[:, k] = sum_m X[:, k+m] * (D_m @ W_m)[:, k],
    D_m[:, i] = conj(X[:, i+m]) X[:, i] + conj(Y[:, i+m]) Y[:, i],
    W_m[i, k] = f0^2 eta(m (i-k) f0^2)   (Toeplitz),

one small GEMM per shift, carrying SPM and XPolM in one operand.  Every
product is restricted to the PSD supports, and eta is evaluated once per
request on the integer products m (i-k) the blocks use.  Its GEMMs run
outside the worker pool of ``parallel.ordered_map``, on the BLAS pool.

Draws: each request moves one Philox generator from stream to stream
(``rng.FieldStreams``) instead of building one per trial and polarization;
the stream keys, and so every draw, are those of ``rng.field_stream``.

Result contract: the per-trial values depend on the shape of the arrays they
are computed in, because NumPy's complex products and the GEMM round
differently by row count.  Trials are therefore always processed in fixed
chunks of 256 (``_CHUNK_TRIALS``, the last one shorter), and that chunk shape
is part of the result: changing it moves last bits.  The BLAS pool size
does not: OpenBLAS splits a GEMM between threads by rows and columns, not
along the summed index, and a test checks that pools of 1 and 2 give
identical bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .gn import GnRequest
from .kernel import KernelModel, normalized_kernel_grid
from .rng import POL_X, POL_Y, FieldStreams, complex_normals
from .spectra import DualPolPsd, PsdShape, phase_rotation_weight
from .stats import abs_z_score, mean_stderr

__all__ = [
    "MODE_RP1",
    "MODE_DP_ERP1",
    "TrialConfig",
    "PsdEstimate",
    "PairedEstimates",
    "estimate_nli_psd",
    "run_paired_trials",
    "discrete_powers",
    "in_band_mask",
    "InBandVerdict", "expected_request", "in_band_verdict",
]

MODE_RP1 = "rp1"
MODE_DP_ERP1 = "erp1"

# trials per block; part of the result contract (see the module docstring),
# so never derived from a thread count or the input size
_CHUNK_TRIALS = 256


@dataclass
class TrialConfig:
    """Monte Carlo run parameters.

    ``num_lines`` is M; the grid holds M+1 lines at k*f0 for k in
    [-M/2, M/2], so M is even.  The ranges of the numeric fields are
    declared in the configuration schema, not checked here; a ``mode`` other
    than ``MODE_RP1`` or ``MODE_DP_ERP1`` is a ValueError, since it would
    otherwise select DP-ERP1 silently.
    """

    spacing_hz: float
    num_lines: int
    num_trials: int
    seed: int
    mode: str = MODE_RP1
    edge_margin: float = 0.1

    def __post_init__(self):
        if self.mode not in (MODE_RP1, MODE_DP_ERP1):
            raise ValueError(f"mode must be {MODE_RP1!r} or {MODE_DP_ERP1!r}, "
                             f"got {self.mode!r}")

    @property
    def half_lines(self) -> int:
        return self.num_lines // 2

    @property
    def grid_indices(self) -> np.ndarray:
        return np.arange(-self.half_lines, self.half_lines + 1)

    @property
    def frequencies_hz(self) -> np.ndarray:
        return self.grid_indices * self.spacing_hz


@dataclass
class PsdEstimate:
    """Per-grid-frequency estimator output (normalized to Phi_NL^2)."""

    frequencies_hz: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    num_trials: int


@dataclass
class PairedEstimates:
    """RP1 and DP-ERP1 estimates from the same draws, plus their per-trial
    pointwise difference (whose expectation is exactly the phase term)."""

    rp1: PsdEstimate
    erp1: PsdEstimate
    difference: PsdEstimate


def validate_grid_coverage(cfg: TrialConfig, psd: DualPolPsd) -> None:
    """Reject grids that do not cover the PSD supports with a guard band.

    The grid must contain every support and extend to at least 1.5x the
    largest support extent, so every four-wave-mixing parent of an in-band
    product is representable on the grid.
    """
    half_extent = cfg.half_lines * cfg.spacing_hz
    for name, shape in (("x", psd.gx), ("y", psd.gy)):
        if shape.power_integral() <= 0:
            continue
        lo, hi = shape.support
        extent = max(abs(lo), abs(hi))
        if 1.5 * extent > half_extent * (1.0 + 1e-12):
            raise ConfigError(
                f"grid half-extent {half_extent:g} Hz is below 1.5x the "
                f"{name}-PSD support extent {extent:g} Hz; enlarge the grid "
                f"or shrink the spacing"
            )


def _line_amplitudes(cfg: TrialConfig, shape: PsdShape) -> np.ndarray:
    """Per-line scale sqrt(Ghat(k f0)/f0)/sqrt(2) applied to (n1 + j n2)."""
    ghat = np.asarray(shape.evaluate(cfg.frequencies_hz), dtype=float)
    return np.sqrt(ghat / cfg.spacing_hz) / math.sqrt(2.0)


def _draw_rows(streams: FieldStreams, amps: np.ndarray, pol_tag: int,
               trial_lo: int, trial_hi: int) -> np.ndarray:
    """Line matrix (trials, lines) for one polarization, one trial range."""
    out = np.empty((trial_hi - trial_lo, amps.size), dtype=complex)
    for t in range(trial_lo, trial_hi):
        out[t - trial_lo] = complex_normals(streams.at(t, pol_tag),
                                            amps.size) * amps
    return out


def _support_bounds(cfg: TrialConfig, shape: PsdShape):
    """First/last grid array index where the shape is nonzero, or None."""
    mask = np.asarray(shape.evaluate(cfg.frequencies_hz)) > 0
    if not mask.any():
        return None
    nz = np.nonzero(mask)[0]
    return int(nz[0]), int(nz[-1])


def _shift_sums(cfg, psd, kernel):
    """Support-restricted ranges of the per-shift products of the X sum, and
    the kernel.

    Returns ``(shifts, table, offset)``.  Each entry (m, i0, i1, j0, j1) of
    ``shifts`` keeps rows i in [i0, i1), where i and i+m both lie in one
    support (X for SPM, Y for XPolM; the hull of the two), and output
    columns j in [j0, j1), where the first parent j+m lies in the X
    support: every skipped term has a line outside its support, which is
    exactly zero.  ``table[p + offset]`` holds f0^2 eta(p f0^2) at every
    integer product p = m (i - j) that the kept blocks use, evaluated once.
    """
    count = cfg.grid_indices.size
    main = _support_bounds(cfg, psd.gx)
    other = _support_bounds(cfg, psd.gy)
    if main is None:
        return [], None, 0
    supports = [b for b in (main, other) if b is not None]
    reach = max(hi - lo for lo, hi in supports)
    shifts = []
    for m in range(-reach, reach + 1):
        rows = [(max(lo, lo - m), min(hi, hi - m)) for lo, hi in supports]
        rows = [(lo, hi) for lo, hi in rows if lo <= hi]
        j0, j1 = max(0, main[0] - m), min(count - 1, main[1] - m)
        if rows and j0 <= j1:
            shifts.append((m, min(lo for lo, _ in rows),
                           max(hi for _, hi in rows) + 1, j0, j1 + 1))
    # block (m, i0, i1, j0, j1) holds every i - j in (i0 - j1, i1 - j0)
    products = np.unique(np.concatenate([
        m * np.arange(i0 - j1 + 1, i1 - j0) for m, i0, i1, j0, j1 in shifts]))
    offset = int(np.abs(products).max())
    f0 = cfg.spacing_hz
    table = np.zeros(2 * offset + 1, dtype=complex)
    table[products + offset] = f0 * f0 * normalized_kernel_grid(
        kernel, products * f0 * f0)
    return shifts, table, offset


def _perturbation_rows(main, other, sums):
    """Batched double sum for a block of trials, one GEMM per line shift m.

    ``main``/``other`` are (trials, lines) matrices of the output and partner
    polarization; ``sums`` comes from ``_shift_sums``.  Per shift, D_m (SPM
    and XPolM in one operand) meets the Toeplitz W_m sliced from the kernel
    table, and the product is weighted by the first parent main[:, j+m].
    """
    shifts, table, offset = sums
    out = np.zeros_like(main)
    for m, i0, i1, j0, j1 in shifts:
        d = (np.conj(main[:, i0 + m:i1 + m]) * main[:, i0:i1]
             + np.conj(other[:, i0 + m:i1 + m]) * other[:, i0:i1])
        w = table[m * np.subtract.outer(np.arange(i0, i1), np.arange(j0, j1))
                  + offset]
        out[:, j0:j1] += main[:, j0 + m:j1 + m] * (d @ w)
    return out


def discrete_powers(cfg: TrialConfig, psd: DualPolPsd) -> tuple[float, float]:
    """Grid powers f0 * sum_k Ghat(k f0) for each polarization."""
    px = float(cfg.spacing_hz * np.sum(psd.gx.evaluate(cfg.frequencies_hz)))
    py = float(cfg.spacing_hz * np.sum(psd.gy.evaluate(cfg.frequencies_hz)))
    return px, py


def _main_as_x(cfg: TrialConfig, psd: DualPolPsd, polarization: str) -> DualPolPsd:
    """The input with the requested output polarization in the X role."""
    if polarization not in ("x", "y"):
        raise ValueError(f"polarization must be 'x' or 'y', got {polarization!r}")
    validate_grid_coverage(cfg, psd)
    return psd if polarization == "x" else psd.swapped()


def _per_trial_values(cfg, psd, kernel):
    """Per-trial estimator samples f0*|B|^2 and f0*|B - P_T a|^2 of the X
    polarization, (T, K).

    Only X is computed: the Y samples are the X samples of the swapped input
    (``psd.swapped()``).  Streams are keyed by *role* (main polarization =
    POL_X, partner = POL_Y), so the swap reproduces the Y estimate
    bit-exactly.
    """
    f0 = cfg.spacing_hz
    main_amps = _line_amplitudes(cfg, psd.gx)
    other_amps = _line_amplitudes(cfg, psd.gy)
    sums = _shift_sums(cfg, psd, kernel)
    pt_d = phase_rotation_weight(*discrete_powers(cfg, psd))
    streams = FieldStreams(cfg.seed)

    trials = cfg.num_trials
    count = cfg.grid_indices.size
    v_rp1 = np.empty((trials, count))
    v_erp1 = np.empty((trials, count))

    for t0 in range(0, trials, _CHUNK_TRIALS):
        t1 = min(t0 + _CHUNK_TRIALS, trials)
        main = _draw_rows(streams, main_amps, POL_X, t0, t1)
        other = _draw_rows(streams, other_amps, POL_Y, t0, t1)
        b = _perturbation_rows(main, other, sums)
        v_rp1[t0:t1] = f0 * (b.real**2 + b.imag**2)
        e = b - pt_d * main
        v_erp1[t0:t1] = f0 * (e.real**2 + e.imag**2)
    return v_rp1, v_erp1


def _reduce(cfg: TrialConfig, values: np.ndarray) -> PsdEstimate:
    """Mean and standard error over trials, in one fixed-order pass."""
    mean, stderr = mean_stderr(values)
    return PsdEstimate(cfg.frequencies_hz, mean, stderr, values.shape[0])


def estimate_nli_psd(cfg: TrialConfig, psd: DualPolPsd, kernel: KernelModel,
                     polarization: str = "x") -> PsdEstimate:
    """Monte Carlo estimate of the normalized NLI PSD in the configured mode.

    Deterministic for a given (seed, cfg): the 256-trial chunks are fixed
    and the reduction runs once over the assembled per-trial matrix (see the
    module docstring for why the chunk shape is part of the result).
    ``polarization`` "y" runs the X path on the swapped input.
    """
    v_rp1, v_erp1 = _per_trial_values(cfg, _main_as_x(cfg, psd, polarization),
                                      kernel)
    values = v_rp1 if cfg.mode == MODE_RP1 else v_erp1
    return _reduce(cfg, values)


def run_paired_trials(cfg: TrialConfig, psd: DualPolPsd, kernel: KernelModel,
                      polarization: str = "x") -> PairedEstimates:
    """Both estimators from the same draws, plus their paired difference."""
    v_rp1, v_erp1 = _per_trial_values(cfg, _main_as_x(cfg, psd, polarization),
                                      kernel)
    return PairedEstimates(
        rp1=_reduce(cfg, v_rp1),
        erp1=_reduce(cfg, v_erp1),
        difference=_reduce(cfg, v_rp1 - v_erp1),
    )


def in_band_mask(frequencies_hz: np.ndarray, shape: PsdShape,
                 edge_margin: float) -> np.ndarray:
    """Grid points within the support, excluding the outer ``edge_margin``
    fraction of the support half-width at each edge."""
    lo, hi = shape.support
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return np.abs(np.asarray(frequencies_hz) - center) <= (1.0 - edge_margin) * half


class InBandVerdict(NamedTuple):
    """In-band points ``within`` 3 stderr of ``points``; passed: >= 95 %."""

    within: int
    points: int
    worst_z: float
    passed: bool


def expected_request(cfg: TrialConfig, psd: DualPolPsd,
                     kernel: KernelModel) -> GnRequest:
    """The exact mean of the estimator at spacing f0: GN on cells of width
    f0 centred on the lines (``GnRequest.on_lines``), with the phase term of
    the line powers (``discrete_powers``) in RP1 only; the result holds
    ``phase`` in either mode.  The grid must cover the supports
    (``validate_grid_coverage``, ConfigError otherwise), so that every
    line the sum reads is one the trials draw."""
    validate_grid_coverage(cfg, psd)
    return GnRequest(psd=psd, kernel=kernel, output_grid_hz=cfg.frequencies_hz,
                     inner_grid_step_hz=cfg.spacing_hz,
                     include_phase_term=cfg.mode == MODE_RP1, on_lines=True)


def in_band_verdict(cfg: TrialConfig, shape: PsdShape, estimate: PsdEstimate,
                    reference: np.ndarray) -> InBandVerdict:
    """Judge ``estimate`` against ``reference`` (a value per grid point) on
    the points ``in_band_mask`` keeps of ``shape``; ValueError if none."""
    mask = in_band_mask(estimate.frequencies_hz, shape, cfg.edge_margin)
    z = [abs_z_score(delta, stderr) for delta, stderr in
         zip(estimate.mean[mask] - reference[mask], estimate.stderr[mask])]
    within = sum(int(value <= 3.0) for value in z)
    return InBandVerdict(within, len(z), float(max(z)),
                         within >= 0.95 * len(z))
