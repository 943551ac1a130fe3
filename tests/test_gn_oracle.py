"""GN engine against an independent nested Gauss-Legendre oracle.

The oracle integrates each GN term in absolute frequencies,

    II |eta((a - f)(b - f))|^2 A(a) B(b) C(a + b - f) da db,

with no cell grid.  Both integrals are split wherever the integrand's
pieces change form: the inner one over supp B and supp C - a + f at B's
knots and at c - a + f for every knot c of C; the outer one over supp A at
A's knots and at c + f - b for every knot c of C and b of B, where the
inner integral has kinks.  Every piece is then smooth, is cut to at most
``width`` and takes ``order``-point Gauss-Legendre.  A knot is a support
end, or a raised cosine's flat edge.  Only the kernel's closed form, which
criterion 1 checks against its quadrature, is shared with the engine.

The engine's errors against it are pinned as upper bounds, which may only
move down.
"""
import math

import numpy as np
import pytest

from gnmodel import (DualPolPsd, GnRequest, KernelModel, LinkProfile,
                     RaisedCosinePsd, RectangularPsd, Span, nli_psd_x)
from gnmodel.kernel import normalized_kernel_grid

ALPHA = 0.2 * math.log(10.0) / 1.0e4

DEMO_LINK = LinkProfile(spans=(Span(80e3, ALPHA, -21.7e-27, 1.3e-3),))
# criterion 1's 3-span link with pre-dispersion
THREE_SPAN_LINK = LinkProfile(spans=(
    Span(80e3, ALPHA, -21.7e-27, 1.3e-3, 16.0),
    Span(60e3, 1.25 * ALPHA, 5.1e-27, 1.8e-3, 15.0),
    Span(100e3, 0.9 * ALPHA, -16.0e-27, 1.1e-3, 18.0)), xi_pre_s2=3e-24)
# criterion 2's dispersion-free span
FLAT_LINK = LinkProfile(spans=(Span(80e3, ALPHA, 0.0, 1.3e-3),))

DEMO_PSD = DualPolPsd(RectangularPsd(0.0, 31e9, 1.0),
                      RectangularPsd(0.0, 21e9, 0.6), 1e-3)
RC_PSD = DualPolPsd(RaisedCosinePsd(0.0, 28e9, 0.1, 1.0),
                    RaisedCosinePsd(0.0, 20e9, 0.2, 0.6), 1e-3)
STEP = 0.25e9
POINTS = (0.0, 5e9, 12e9)


def knots(shape):
    """Where a raised cosine (or rectangle) changes form."""
    flat = 0.5 * (1.0 - shape.rolloff) * shape.bandwidth_hz
    outer = 0.5 * (1.0 + shape.rolloff) * shape.bandwidth_hz
    return np.unique(shape.center_hz + np.array([-outer, -flat, flat, outer]))


def gauss_pieces(lo, hi, breaks, width, rule):
    """Nodes and weights on [lo, hi], split at the breaks inside it and cut
    into pieces of at most ``width``."""
    x, w = rule
    edges = np.unique(np.concatenate(([lo, hi],
                                      breaks[(lo < breaks) & (breaks < hi)])))
    nodes, weights = [], []
    for left, right in zip(edges[:-1], edges[1:]):
        cut = np.linspace(left, right, math.ceil((right - left) / width) + 1)
        half = 0.5 * np.diff(cut)[:, None]
        nodes.append((0.5 * (cut[:-1] + cut[1:]))[:, None] + half * x)
        weights.append(half * w)
    return np.concatenate(nodes).ravel(), np.concatenate(weights).ravel()


def oracle_term(kernel, main, partner, third, f, width=1e9, order=10):
    """II |eta((a - f)(b - f))|^2 main(a) partner(b) third(a + b - f) da db
    by nested Gauss-Legendre on the pieces described in the module
    docstring."""
    rule = np.polynomial.legendre.leggauss(order)
    ka, kb, kc = knots(main), knots(partner), knots(third)
    (lo_b, hi_b), (lo_c, hi_c) = partner.support, third.support
    a, wa = gauss_pieces(*main.support,
                         np.concatenate((ka, (kc[:, None] + f - kb).ravel())),
                         width, rule)
    total = 0.0
    for ai, wai in zip(a, wa):
        lo, hi = max(lo_b, lo_c - ai + f), min(hi_b, hi_c - ai + f)
        if hi <= lo:
            continue
        b, wb = gauss_pieces(lo, hi, np.concatenate((kb, kc - ai + f)),
                             width, rule)
        eta = normalized_kernel_grid(kernel, (ai - f) * (b - f))
        inner = wb * partner.evaluate(b) * third.evaluate(ai + b - f) \
            * (eta.real**2 + eta.imag**2)
        total += wai * main.evaluate(ai) * np.sum(inner)
    return float(total)


def oracle_terms(kernel, psd, f, **kwargs):
    """(SPM, XPolM) of the X polarization at f."""
    gx, gy = psd.gx, psd.gy
    return (2.0 * oracle_term(kernel, gx, gx, gx, f, **kwargs),
            oracle_term(kernel, gx, gy, gy, f, **kwargs))


def engine_errors(link, psd):
    """Engine / oracle - 1 for (SPM, XPolM) at each of POINTS."""
    kernel = KernelModel(link=link)
    result = nli_psd_x(GnRequest(psd=psd, kernel=kernel,
                                 output_grid_hz=np.array(POINTS),
                                 inner_grid_step_hz=STEP))
    errors = []
    for i, f in enumerate(POINTS):
        spm, xpolm = oracle_terms(kernel, psd, f)
        errors.append((result.spm[i] / spm - 1.0,
                       result.xpolm[i] / xpolm - 1.0))
    return np.array(errors)


class TestOracle:
    def test_hexagon_on_the_flat_link(self):
        # criterion 2: with eta == 1 the SPM integral at f = 0 is G0^3
        # times the hexagon area (3/4) B^2, which the knots make exact
        bandwidth, g0 = 32e9, 1.3
        psd = DualPolPsd(RectangularPsd(0.0, bandwidth, g0),
                         RectangularPsd(0.0, 1.0, 0.0), 1e-3)
        spm = oracle_terms(KernelModel(link=FLAT_LINK), psd, 0.0)[0]
        assert spm == pytest.approx(1.5 * g0**3 * bandwidth**2, rel=1e-12)

    def test_doubled_resolution_agrees(self):
        kernel = KernelModel(link=THREE_SPAN_LINK)
        base = oracle_terms(kernel, RC_PSD, 12e9)
        fine = oracle_terms(kernel, RC_PSD, 12e9, width=0.5e9)
        np.testing.assert_allclose(base, fine, rtol=1e-11, atol=0.0)


class TestEngineAccuracy:
    """Worst |engine / oracle - 1| at f = 0, 5 and 12 GHz on a 250 MHz
    step, per term."""

    def test_three_span_raised_cosine(self):
        # cells of exactly the step on continuous spectra: second order;
        # the support-aligned cells read 1.79e-5 (SPM) and 1.13e-5 (XPolM)
        worst = np.max(np.abs(engine_errors(THREE_SPAN_LINK, RC_PSD)), axis=0)
        assert worst[0] <= 2.0e-6
        assert worst[1] <= 1.2e-6

    def test_demo_rectangles(self):
        # first order: the third factor jumps across cell midpoints
        worst = np.max(np.abs(engine_errors(DEMO_LINK, DEMO_PSD)), axis=0)
        assert worst[0] <= 5.4e-3
        assert worst[1] <= 1.06e-2

    def test_three_span_rectangles(self):
        # the demo rectangles on criterion 1's link, first order; XPolM
        # reads SPM's table, since Y lies on X's 250 MHz lattice
        worst = np.max(np.abs(engine_errors(THREE_SPAN_LINK, DEMO_PSD)), axis=0)
        assert worst[0] <= 5.14e-3
        assert worst[1] <= 9.82e-3
