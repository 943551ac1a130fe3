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
import dataclasses
import math

import numpy as np
import pytest

from gnmodel import (DualPolPsd, GnRequest, KernelModel, LinkProfile,
                     RaisedCosinePsd, RectangularPsd, Span, TrialConfig,
                     expected_request, nli_psd_x)
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
# points a fractional number of cells from each other and from the supports
OFF_LATTICE_POINTS = (0.07e9, 3.33e9, 9.91e9, 14.2e9)


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


def engine_errors(link, psd, points=POINTS):
    """Engine / oracle - 1 for (SPM, XPolM) at each of the points."""
    kernel = KernelModel(link=link)
    result = nli_psd_x(GnRequest(psd=psd, kernel=kernel,
                                 output_grid_hz=np.array(points),
                                 inner_grid_step_hz=STEP))
    errors = []
    for i, f in enumerate(points):
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
    """Worst |engine / oracle - 1| at f = 0, 5 and 12 GHz, or at the
    off-lattice points, on a 250 MHz step, per term."""

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

    def test_three_span_rectangles_off_lattice(self):
        # each point is a run of its own; both terms read one shared table
        # and take their third factor on the anti-diagonal layout
        worst = np.max(np.abs(engine_errors(THREE_SPAN_LINK, DEMO_PSD,
                                            OFF_LATTICE_POINTS)), axis=0)
        assert worst[0] <= 2.13e-3
        assert worst[1] <= 3.40e-3

    def test_unequal_cell_widths_off_lattice(self):
        # X takes 124 cells of 248.4 MHz and Y 84 of the 250 MHz step, so
        # XPolM evaluates each point's own n1 x n2 third factor
        psd = DualPolPsd(RectangularPsd(0.0, 30.8e9, 1.0),
                         RectangularPsd(0.3e9, 21e9, 0.6), 1e-3)
        worst = np.max(np.abs(engine_errors(DEMO_LINK, psd,
                                            OFF_LATTICE_POINTS)), axis=0)
        assert worst[0] <= 1.43e-3
        assert worst[1] <= 3.03e-3


class TestLatticeLimit:
    """The exact Monte Carlo mean at line spacing f0 (``expected_request``)
    approaches the continuum GN integral as f0 halves: the limit that the
    paper derives.  Worst |lattice / oracle - 1| at f = 0, 5 and 12 GHz per
    term, at f0 = 1, 0.5, 0.25 and 0.125 GHz on grids that just cover 1.5x
    the X support."""

    SPACINGS = (1e9, 0.5e9, 0.25e9, 0.125e9)

    def gaps(self, link, psd):
        kernel = KernelModel(link=link)
        oracle = np.array([oracle_terms(kernel, psd, f) for f in POINTS])
        extent = max(abs(end) for end in psd.gx.support)
        gaps = []
        for f0 in self.SPACINGS:
            cfg = TrialConfig(spacing_hz=f0, num_trials=1, seed=0, mode="erp1",
                              num_lines=2 * math.ceil(1.5 * extent / f0))
            request = dataclasses.replace(expected_request(cfg, psd, kernel),
                                          output_grid_hz=np.array(POINTS))
            mean = nli_psd_x(request)
            gaps.append(np.max(np.abs(np.stack((mean.spm, mean.xpolm), axis=1)
                                      / oracle - 1.0), axis=0))
        return np.array(gaps)

    def test_three_span_raised_cosines(self):
        # smooth spectra: the gap shrinks faster than f0
        gaps = self.gaps(THREE_SPAN_LINK, RC_PSD)
        assert np.all(gaps[:, 0] <= [3.32e-4, 1.08e-4, 7.35e-6, 1.70e-6])
        assert np.all(gaps[:, 1] <= [2.20e-4, 6.35e-5, 4.30e-6, 1.02e-6])

    def test_demo_rectangles_edge_on_line(self):
        # from 0.5 GHz on the rectangles' edges (+-15.5 and +-10.5 GHz) fall
        # on lines, which read 0 (``TestEdgeOnLine``): a gap first order in
        # f0, which halves with f0; pinned, not avoided
        gaps = self.gaps(DEMO_LINK, DEMO_PSD)
        assert np.all(gaps[:, 0] <= [1.48e-3, 3.23e-2, 1.62e-2, 8.07e-3])
        assert np.all(gaps[:, 1] <= [1.05e-3, 5.37e-2, 2.70e-2, 1.36e-2])
        ratios = gaps[2:] / gaps[1:-1]
        assert np.all((0.49 < ratios) & (ratios < 0.51))
