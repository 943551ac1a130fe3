"""Frequency-kernel evaluation: K(F), eta(F) = K(F)/K(0), Phi_NL = P0*K(0).

The kernel weighs each frequency pair (f1, f2) of the four-wave-mixing sum
through the product F = f1*f2 only:

    K(F) = integral_0^L gamma'(s) G(s) exp(-j C(s) (2 pi)^2 F) ds     [1/W]

with G(z) the power gain and C(z) the cumulated dispersion of the link.  Two
independent evaluators are provided:

* ``kernel_closed_form`` — per-span analytic integration.  Within span i the
  exponent is affine in s, so the segment integral is
  gamma'_i G_i exp(-j C_i theta) * (exp(w_i L_i) - 1)/w_i with
  w_i = -alpha_i + j beta2_i theta and theta = (2 pi)^2 F.  A span that
  starts at C_i = 0 (the first span of a link without pre-dispersion) skips
  its phase factor: for finite theta, exp(-j 0 theta) is exactly 1 with a
  +-0 imaginary part and the product with it is the real amplitude promoted
  to complex, so skipping it changes no bit and leaves one complex exp per
  such span (an overflowing theta stays non-finite either way).
* ``kernel_quadrature`` — Richardson-extrapolated adaptive composite Simpson
  rule over z on the span-local restriction of the ``power_gain`` /
  ``cumulated_dispersion`` profiles, with an initial resolution of at most
  pi/8 phase change per cell and cell-count doubling.  Each doubling
  extrapolates the last two Simpson levels (Boole's rule, Romberg's second
  column, accurate to h^6) and stops when successive extrapolated estimates
  meet the relative tolerance.
  Each level's positions and integrand are computed in place, in two arrays
  the size of the level: the same ufuncs on the same operands in the same
  order as the grouped expression, so in-place evaluation changes no bit.

Each serves as the other's oracle; the engines use the closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .link import LinkProfile

__all__ = [
    "PHASE_RATE",
    "KernelModel",
    "KernelConvergenceError",
    "kernel_closed_form",
    "kernel_quadrature",
    "normalized_kernel",
    "normalized_kernel_grid",
]

# theta = PHASE_RATE * F converts the frequency product to a phase rate per
# unit cumulated dispersion
PHASE_RATE = (2.0 * np.pi) ** 2


class KernelConvergenceError(RuntimeError):
    """The z-quadrature could not reach the requested relative tolerance.

    Attributes
    ----------
    estimate : complex
        Best value achieved before the cell budget ran out: the extrapolated
        value of the last two levels (the initial Simpson value if the
        budget allowed no doubling); None when the phase criterion alone
        exceeds the budget.
    achieved_rel : float
        Relative change between the last two estimates (the error
        estimate); inf if there was no doubling.
    """

    def __init__(self, message, estimate, achieved_rel):
        super().__init__(message)
        self.estimate = estimate
        self.achieved_rel = achieved_rel


def _exp_ratio(z):
    """(exp(z) - 1)/z, elementwise, with a series branch near z = 0."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-2
    if not small.any():
        # the usual case on lossy spans; same arithmetic as the mixed branch
        return (np.exp(z) - 1.0) / z
    zs = np.where(small, 0.0, z)
    direct = (np.exp(zs) - 1.0) / np.where(small, 1.0, zs)
    # Horner series 1 + z/2 + z^2/6 + ... + z^7/8!; next term < 3e-22 at |z|=1e-2
    series = 1.0 / 40320.0
    for fac in (5040.0, 720.0, 120.0, 24.0, 6.0, 2.0, 1.0):
        series = 1.0 / fac + z * series
    return np.where(small, series, direct)


@dataclass
class KernelModel:
    """Kernel evaluator for one link, with a memoized K(0).

    ``k0`` is K(0) in 1/W, real and positive for any physical link; it is the
    normalizer of eta and, scaled by P0, the cumulated nonlinear phase.
    ``flat`` is derived from the link like ``k0``: it is True when every
    span has beta2 = 0 and starts at zero cumulated dispersion (so no
    pre-dispersion either).  Every span term of the closed form then equals
    its F = 0 value bit for bit, so K(F) == K(0) and eta is one constant.
    ``quadrature_tolerance`` is the relative tolerance of the adaptive check
    evaluator; ``max_cells_per_span`` bounds its refinement budget.
    """

    link: LinkProfile
    quadrature_tolerance: float = 1e-10
    max_cells_per_span: int = 1 << 21
    k0: complex = field(init=False)
    flat: bool = field(init=False)

    def __post_init__(self):
        spans = self.link.spans
        scale = self.link.gamma_scale
        self._gamma_eff = np.array([scale * s.gamma_per_w_m for s in spans])
        self._alpha = np.array([s.alpha_per_m for s in spans])
        self._beta2 = np.array([s.beta2_s2_per_m for s in spans])
        self._length = np.array([s.length_m for s in spans])
        self._g0 = self.link.start_gain
        self._c0 = self.link.start_dispersion_s2
        self.k0 = complex(kernel_closed_form(self, 0.0))
        self.flat = bool(np.all(self._beta2 == 0.0) and np.all(self._c0 == 0.0))


def kernel_closed_form(model: KernelModel, F):
    """K(F) by exact per-span integration; scalar or array F in Hz^2.

    Sums gamma'_i G_i exp(-j C_i theta) L_i * (exp(w_i L_i) - 1)/(w_i L_i)
    over spans, where C_i and G_i are the profile values at the span start;
    the phase factor is skipped where C_i == 0, with the same bits (see the
    module docstring).

    Each complex product whose right operand is a temporary is a
    ``np.multiply`` call, not ``*``: from 256 KiB on, NumPy evaluates
    ``a * <temporary>`` in place as ``<temporary> *= a``, and the swapped
    complex product can round differently, so the bits would depend on the
    array's length.
    """
    F = np.asarray(F, dtype=float)
    theta = PHASE_RATE * F
    out = np.zeros(theta.shape, dtype=complex)
    for i in range(len(model._length)):
        w = -model._alpha[i] + 1j * model._beta2[i] * theta
        amp = model._gamma_eff[i] * model._g0[i] * model._length[i]
        if model._c0[i] != 0.0:
            amp = np.multiply(amp, np.exp(-1j * model._c0[i] * theta))
        out += np.multiply(amp, _exp_ratio(w * model._length[i]))
    return complex(out) if np.ndim(F) == 0 else out


def _span_integrand(model, span_index, theta, s):
    """gamma' G(s) exp(-j theta C(s)) at span-local positions s; overwrites s.

    Uses the one-sided restriction of the profiles to the span,
    G(s) = G_i exp(-alpha_i s) and C(s) = C_i - beta2_i s in span-local s:
    the profile functions agree with it at every interior point (a tested
    invariant), but at the right endpoint the restriction takes the
    within-span limit instead of the next span's post-lumped-gain value,
    which a pointwise profile lookup would return.

    The value is gamma' * (G_i * exp(-alpha_i s)) * exp(-j theta (C_i -
    beta2_i s)) with Python's grouping, one ufunc per step; the steps run
    in place on ``s`` (a float array the caller gives up) and on one complex
    array, so no constant is folded and every value keeps its bits.
    """
    c = np.multiply(model._beta2[span_index], s)
    np.subtract(model._c0[span_index], c, out=c)
    e = np.multiply(-1j * theta, c)
    np.exp(e, out=e)
    g = np.multiply(-model._alpha[span_index], s, out=s)
    np.exp(g, out=g)
    np.multiply(model._g0[span_index], g, out=g)
    np.multiply(model._gamma_eff[span_index], g, out=g)
    return np.multiply(g, e, out=e)


def _midpoint_sums(model, theta, cells):
    """Per span, the integrand summed over the midpoints of its cells."""
    sums = []
    for i, n in enumerate(cells):
        s = np.arange(n, dtype=float)
        s += 0.5
        s *= model._length[i] / n
        sums.append(np.sum(_span_integrand(model, i, theta, s)))
    return np.array(sums)


def kernel_quadrature(model: KernelModel, F: float) -> complex:
    """K(F) by adaptive per-span composite Simpson quadrature with one
    Richardson step (scalar F).

    The initial cell count per span (at least 8) enforces at most pi/8 phase
    change of C(s)*(2 pi)^2*F per cell; all spans then double their cell
    counts.  Each doubling extrapolates the coarse and fine Simpson totals,
    fine + (fine - coarse)/15 (Boole's rule: Romberg's second column), and
    compares that estimate with the previous one, which for the first
    doubling is the initial Simpson total; it returns the estimate once the
    relative change is at most ``quadrature_tolerance``, so a budget of 16
    cells can still stop after one doubling.  Raises
    ``KernelConvergenceError`` (carrying the last estimate) if a span would
    exceed ``max_cells_per_span``.  The closed form is never called, so the
    quadrature stays an independent oracle.

    Each span keeps running sums of the integrand at its two ends, its
    interior cell edges and its cell midpoints.  Doubling turns the
    midpoints into edges, so a refinement evaluates only the new midpoints.
    """
    theta = PHASE_RATE * float(F)
    max_phase = np.pi / 8.0
    # compared as floats before the int conversion, which would wrap a count
    # beyond int64; a NaN count (non-finite theta) fails the comparison too
    needed = np.ceil(np.abs(model._beta2 * theta) * model._length / max_phase)
    if not np.all(needed <= model.max_cells_per_span):
        raise KernelConvergenceError(
            f"phase criterion needs {np.max(needed):.17g} cells/span, "
            f"budget is {model.max_cells_per_span}",
            estimate=None,
            achieved_rel=math.inf,
        )
    cells = np.maximum(8, needed.astype(int))
    spans = range(len(cells))
    ends = np.array([
        np.sum(_span_integrand(model, i, theta, np.array([0.0, model._length[i]])))
        for i in spans])
    inner = np.array([
        np.sum(_span_integrand(model, i, theta,
                               np.arange(1, n) * (model._length[i] / n)))
        for i, n in enumerate(cells)])
    mids = _midpoint_sums(model, theta, cells)

    def simpson():
        h = model._length / cells
        return np.sum(h / 6.0 * (ends + 2.0 * inner + 4.0 * mids))

    coarse = estimate = simpson()
    rel = math.inf
    while True:
        cells = cells * 2
        if np.any(cells > model.max_cells_per_span):
            raise KernelConvergenceError(
                f"tolerance {model.quadrature_tolerance:g} not reached within "
                f"{model.max_cells_per_span} cells/span (achieved {rel:g})",
                estimate=estimate,
                achieved_rel=rel,
            )
        inner = inner + mids
        mids = _midpoint_sums(model, theta, cells)
        fine = simpson()
        # Richardson step on Simpson's h^4 error: Romberg's second column
        refined = fine + (fine - coarse) / 15.0
        rel = abs(refined - estimate) / max(abs(refined), 1e-300)
        if rel <= model.quadrature_tolerance:
            return refined
        coarse, estimate = fine, refined


def normalized_kernel(model: KernelModel, F: float) -> complex:
    """eta(F) = K(F)/K(0) via the closed form, for a scalar F.

    eta(0) == 1 exactly: numerator and denominator are the same evaluation.
    """
    return kernel_closed_form(model, float(F)) / model.k0


def normalized_kernel_grid(model: KernelModel, F):
    """Vectorized eta over an array of F values, elementwise.

    No deduplication: each value depends on its own F only, not on its
    position, on the other elements or on the array's length, so any split
    or reordering of F gives the same bits (``kernel_closed_form`` fixes
    the operand order of its complex products).  The callers that know of
    repeated products evaluate them once themselves: the GN engine's
    |eta|^2 tables (``gn``) evaluate the upper triangle of a symmetric table
    and mirror it, let SPM and XPolM read one table when their axes share a
    lattice, and take one value on a ``model.flat`` link; the Monte Carlo
    engine (``montecarlo``) evaluates each distinct integer product of the
    line spacing once.  On a flat link every element is K(0)/K(0) as the
    division rounds it: 1+0j for most links, 1 - 2**-53 for some.
    """
    F = np.asarray(F, dtype=float)
    return (kernel_closed_form(model, F.ravel()) / model.k0).reshape(F.shape)
