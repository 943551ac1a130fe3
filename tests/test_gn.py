"""GN engine: phase identity, analytic oracle, independent reassembly."""
import math
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import pool_env
from gnmodel import (DualPolPsd, GnRequest, KernelModel, LinkProfile,
                     RaisedCosinePsd, RectangularPsd, Span, TabulatedPsd,
                     TrialConfig, estimate_nli_psd, gn, nli_psd_x,
                     phase_term_coefficient)
from gnmodel.cli import run
from gnmodel.gn import _cell_axis, _runs
from gnmodel.kernel import kernel_closed_form, normalized_kernel_grid

ALPHA = 0.2 * math.log(10.0) / 1.0e4


def lossy_span(beta2=-21.7e-27):
    return Span(length_m=80e3, alpha_per_m=ALPHA, beta2_s2_per_m=beta2,
                gamma_per_w_m=1.3e-3)


def brute_force_term(kernel, main, partner, third, f, step):
    """The same double integral assembled in absolute (a, b) coordinates.

    Independent of the engine's shifted (f1, f2) parameterization: axes are
    absolute frequencies from the main/partner support starts, the third
    slot is evaluated at a + b - f and the kernel at (a - f)(b - f).  The
    nodes follow the engine's rule: a raised cosine with roll-off > 0 takes
    cells of the step itself, the last one reaching past its support end;
    any other shape divides its support into ceil(width/step) equal cells.
    """
    def axis(shape):
        lo, hi = shape.support
        cells = max(1, math.ceil((hi - lo) / step))
        if isinstance(shape, RaisedCosinePsd) and shape.rolloff > 0:
            h = step
        else:
            h = (hi - lo) / cells
        return lo + (np.arange(cells) + 0.5) * h, h

    a, ha = axis(main)
    b, hb = axis(partner)
    eta = normalized_kernel_grid(kernel, (a[:, None] - f) * (b[None, :] - f))
    integrand = main.evaluate(a)[:, None] * partner.evaluate(b)[None, :] \
        * third.evaluate(a[:, None] + b[None, :] - f) * np.abs(eta) ** 2
    return ha * hb * float(np.sum(integrand))


class TestPhaseTermCoefficient:
    def test_square_form_equals_expanded_form(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            px, py = rng.uniform(0, 5, 2)
            square = phase_term_coefficient(px, py)
            expanded = 4 * px**2 + 4 * px * py + py**2
            assert square == pytest.approx(expanded, rel=4e-16)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            phase_term_coefficient(-1.0, 0.0)


class TestZeroDispersionOracle:
    """With beta2 = 0 the kernel is flat (eta == 1) and the SPM integral at
    f = 0 is G0^3 times the triple-overlap area of three rectangles, which is
    the hexagon area (3/4)B^2."""

    B, G0 = 32e9, 1.3
    ANALYTIC = 2.0 * 0.75 * G0**3 * B**2
    # midpoint brute force of the overlap area on an 8192^2 grid; regenerate:
    # h = B/8192; c = (arange(8192)+0.5)*h - B/2
    # 2*G0^3 * h^2 * count(|c_i + c_j| < B/2)
    BRUTE_8192 = 3.3743173750e21

    def model(self):
        return KernelModel(link=LinkProfile(spans=(lossy_span(beta2=0.0),)))

    def test_frozen_brute_force_agrees_with_analytic(self):
        assert self.BRUTE_8192 == pytest.approx(self.ANALYTIC, rel=2e-4)

    def test_eta_is_flat_without_dispersion(self):
        eta = normalized_kernel_grid(self.model(), np.logspace(15, 22, 50))
        np.testing.assert_allclose(eta, 1.0, rtol=1e-13)

    def test_engine_spm_matches_hexagon_value(self):
        psd = DualPolPsd(gx=RectangularPsd(0.0, self.B, self.G0),
                         gy=RectangularPsd(0.0, self.B, 0.0), p0_w=1e-3)
        req = GnRequest(psd=psd, kernel=self.model(),
                        output_grid_hz=np.array([0.0]),
                        inner_grid_step_hz=self.B / 256,
                        include_phase_term=False)
        result = nli_psd_x(req)
        assert result.spm[0] == pytest.approx(self.ANALYTIC, rel=3e-3)
        assert result.xpolm[0] == 0.0  # zero-power partner short-circuits

    @settings(max_examples=30)
    @given(bandwidth=st.floats(1e9, 100e9), g0=st.floats(0.1, 2.0),
           n=st.integers(16, 1024))
    def test_hexagon_holds_on_random_bandwidth_and_step(self, bandwidth, g0,
                                                         n):
        # the midpoint sum's first-order bias: at most 2/(3n) as measured,
        # often far less; this bound may only move down
        psd = DualPolPsd(gx=RectangularPsd(0.0, bandwidth, g0),
                         gy=RectangularPsd(0.0, bandwidth, 0.0), p0_w=1e-3)
        req = GnRequest(psd=psd, kernel=self.model(),
                        output_grid_hz=np.array([0.0]),
                        inner_grid_step_hz=bandwidth / n,
                        include_phase_term=False)
        spm = float(nli_psd_x(req).spm[0])
        assert abs(spm / (1.5 * g0**3 * bandwidth**2) - 1.0) <= 0.67 / n


def y_polarization(req):
    """The Y polarization's NLI PSD: the X PSD of the swapped input."""
    return nli_psd_x(replace(req, psd=req.psd.swapped()))


class TestIndependentReassembly:
    """Engine vs an absolute-coordinate reassembly of the same midpoint sum.

    At equal step the two share quadrature nodes up to rounding, so any
    structural defect (slot order, shift signs, the SPM factor 2, the kernel
    argument) shows up far above the 1e-9 comparison tolerance."""

    def setup_method(self):
        self.kernel = KernelModel(link=LinkProfile(spans=(lossy_span(),)))
        self.gx = RaisedCosinePsd(center_hz=0.5e9, bandwidth_hz=6e9,
                                  rolloff=0.3, height=1.2)
        self.gy = RectangularPsd(center_hz=-1e9, bandwidth_hz=4e9, height=0.7)
        self.psd = DualPolPsd(gx=self.gx, gy=self.gy, p0_w=2e-3)
        self.step = 0.25e9

    def request(self, grid):
        return GnRequest(psd=self.psd, kernel=self.kernel,
                         output_grid_hz=np.asarray(grid, dtype=float),
                         inner_grid_step_hz=self.step)

    def assert_terms_match(self, result, main, other):
        for i, f in enumerate(result.frequencies_hz):
            spm = 2.0 * brute_force_term(self.kernel, main, main, main, f,
                                         self.step)
            xpolm = brute_force_term(self.kernel, main, other, other, f,
                                     self.step)
            assert result.spm[i] == pytest.approx(spm, rel=1e-9)
            assert result.xpolm[i] == pytest.approx(xpolm, rel=1e-9)

    def test_x_polarization_terms(self):
        result = nli_psd_x(self.request([0.0, 0.7e9, -1.3e9]))
        self.assert_terms_match(result, self.gx, self.gy)

    def test_whole_cell_grid_split_into_several_runs(self):
        # rectangles on 0.25 GHz cells (24 and 16 of them) and a grid on the
        # same step: every shift is whole, so only the 2x table cap ends runs
        gx = RectangularPsd(center_hz=0.5e9, bandwidth_hz=6e9, height=1.2)
        psd = DualPolPsd(gx=gx, gy=self.gy, p0_w=2e-3)
        grid = -3e9 + self.step * np.arange(25)
        for shapes in ((gx, gx), (gx, self.gy)):
            axes = [_cell_axis(shape, self.step) for shape in shapes]
            runs = _runs(grid, axes)
            assert len(runs) >= 3 and all(len(idx) > 1 for idx, _ in runs)
        result = nli_psd_x(GnRequest(psd=psd, kernel=self.kernel,
                                     output_grid_hz=grid,
                                     inner_grid_step_hz=self.step))
        self.assert_terms_match(result, gx, self.gy)

    def test_mixed_whole_cell_and_fractional_shifts(self):
        # on the y rectangle's 0.25 GHz cells, the first run descends (negative
        # shifts), 0.13 GHz breaks it and starts a second; the raised cosine's
        # cells are the 0.25 GHz step too, so its whole-step points share the
        # same lattice and run together the same way
        grid = np.array([0.0, -0.5e9, -1.0e9, 0.13e9, 0.38e9, 0.63e9, 1.0e9])
        for shape in (self.gy, self.gx):
            runs = _runs(grid, [_cell_axis(shape, self.step)] * 2)
            assert [idx for idx, _ in runs] == [[0, 1, 2], [3, 4, 5], [6]]
        self.assert_terms_match(y_polarization(self.request(grid)), self.gy,
                                self.gx)
        self.assert_terms_match(nli_psd_x(self.request(grid)), self.gx, self.gy)

    def test_partner_on_the_main_lattice_shares_one_table(self):
        # rectangles on 0.25 GHz cells: X from -2.5 GHz, 24 cells; Y starts
        # 2 cells below X, or ends 6 cells above it, or both, so XPolM reads
        # cells of the shared table that SPM does not, on both sides of its
        # diagonal; at one output point there is one table
        gx = RectangularPsd(center_hz=0.5e9, bandwidth_hz=6e9, height=1.2)
        for gy in (RectangularPsd(-1e9, 4e9, 0.7),
                   RectangularPsd(2.5e9, 5e9, 0.7),
                   RectangularPsd(1e9, 10e9, 0.7)):
            psd = DualPolPsd(gx=gx, gy=gy, p0_w=2e-3)
            tables = []

            def counting_table(*args):
                tables.append(args)
                return eta2_table(*args)

            eta2_table = gn._eta2_table
            with mock.patch.object(gn, "_eta2_table", counting_table):
                result = nli_psd_x(GnRequest(
                    psd=psd, kernel=self.kernel, output_grid_hz=np.array([0.3e9]),
                    inner_grid_step_hz=self.step))
            assert len(tables) == 1
            self.assert_terms_match(result, gx, gy)

    def test_y_polarization_terms(self):
        grid = [0.4e9]
        result = y_polarization(self.request(grid))
        spm = 2.0 * brute_force_term(self.kernel, self.gy, self.gy, self.gy,
                                     0.4e9, self.step)
        xpolm = brute_force_term(self.kernel, self.gy, self.gx, self.gx,
                                 0.4e9, self.step)
        assert result.spm[0] == pytest.approx(spm, rel=1e-9)
        assert result.xpolm[0] == pytest.approx(xpolm, rel=1e-9)

    def test_step_refinement_is_converged(self):
        coarse = nli_psd_x(self.request([0.3e9]))
        fine = nli_psd_x(GnRequest(psd=self.psd, kernel=self.kernel,
                                   output_grid_hz=np.array([0.3e9]),
                                   inner_grid_step_hz=self.step / 2))
        assert fine.spm[0] == pytest.approx(coarse.spm[0], rel=2e-2)
        assert fine.xpolm[0] == pytest.approx(coarse.xpolm[0], rel=2e-2)


class TestEngineContracts:
    def setup_method(self):
        self.kernel = KernelModel(link=LinkProfile(spans=(lossy_span(),)))
        self.psd = DualPolPsd(gx=RectangularPsd(0.0, 8e9, 1.0),
                              gy=RectangularPsd(0.5e9, 6e9, 0.5), p0_w=1e-3)

    def request(self, psd=None, **kwargs):
        defaults = dict(psd=psd or self.psd, kernel=self.kernel,
                        output_grid_hz=np.linspace(-3e9, 3e9, 7),
                        inner_grid_step_hz=0.25e9)
        defaults.update(kwargs)
        return GnRequest(**defaults)

    def test_zero_y_power_kills_xpolm_everywhere(self):
        psd = DualPolPsd(gx=self.psd.gx,
                         gy=RectangularPsd(0.0, 1.0, 0.0), p0_w=1e-3)
        result = nli_psd_x(self.request(psd=psd))
        np.testing.assert_array_equal(result.xpolm, 0.0)
        assert np.all(result.spm > 0)

    def test_phase_column_and_total_flag(self):
        with_phase = nli_psd_x(self.request(include_phase_term=True))
        without = nli_psd_x(self.request(include_phase_term=False))
        coeff = phase_term_coefficient(self.psd.px_hat, self.psd.py_hat)
        expected_phase = coeff * self.psd.gx.evaluate(with_phase.frequencies_hz)
        np.testing.assert_allclose(with_phase.phase, expected_phase, rtol=1e-15)
        # the column is reported either way; only the total changes
        np.testing.assert_array_equal(without.phase, with_phase.phase)
        np.testing.assert_array_equal(
            with_phase.total, with_phase.spm + with_phase.xpolm + with_phase.phase)
        np.testing.assert_array_equal(without.total,
                                      without.spm + without.xpolm)

    def test_absolute_units_scaling(self):
        result = nli_psd_x(self.request())
        phi = self.psd.p0_w * self.kernel.k0.real
        np.testing.assert_allclose(
            result.total_absolute_w_per_hz,
            self.psd.p0_w * phi**2 * result.total, rtol=1e-15)

    def test_threads_do_not_change_bits(self):
        grid = np.linspace(-3e9, 3e9, 13)
        serial = nli_psd_x(self.request(output_grid_hz=grid))
        threaded = nli_psd_x(self.request(output_grid_hz=grid), threads=4)
        np.testing.assert_array_equal(serial.spm, threaded.spm)
        np.testing.assert_array_equal(serial.xpolm, threaded.xpolm)

    def test_request_validation(self):
        with pytest.raises(ValueError, match="inner grid step"):
            self.request(inner_grid_step_hz=1e9)  # > support/16
        with pytest.raises(ValueError, match="grid"):
            self.request(output_grid_hz=np.array([]))
        with pytest.raises(ValueError, match="step"):
            self.request(inner_grid_step_hz=0.0)


def deduplicated_row_block_table(kernel, lat1, lat2, starts, patterns,
                                 block_size):
    """The |eta|^2 table fill the engine replaced: row blocks of at most
    ``block_size`` elements, each deduplicated through ``np.unique``, with
    no band (``starts`` and ``patterns`` are not read), no triangle and no
    dispersion-free shortcut."""
    table = np.empty((lat1.size, lat2.size))
    block = max(1, block_size // lat2.size)
    for r in range(0, lat1.size, block):
        F = lat1[r:r + block, None] * lat2[None, :]
        uniq, inverse = np.unique(F.ravel(), return_inverse=True)
        eta = (kernel_closed_form(kernel, uniq) / kernel.k0)[inverse]
        table[r:r + block] = (eta.real**2 + eta.imag**2).reshape(F.shape)
    return table


LINKS = {
    "single": LinkProfile(spans=(lossy_span(),)),
    "three": LinkProfile(spans=(
        Span(80e3, ALPHA, -21.7e-27, 1.3e-3, 16.0),
        Span(60e3, 1.25 * ALPHA, 5.1e-27, 1.8e-3, 15.0),
        Span(100e3, 0.9 * ALPHA, -16.0e-27, 1.1e-3, 18.0)), xi_pre_s2=3e-24),
    "flat": LinkProfile(spans=(lossy_span(beta2=0.0),)),
}


# the cell width of the shared-lattice cases, exact in binary
LATTICE_STEP = 2.0**28


@st.composite
def small_gn_inputs(draw):
    """Small raised-cosine, rectangular and tabulated requests on the three
    links; the grid step is sometimes a whole number of cells, so runs share
    tables.  A table's nodes are often 0, inside it (holes) and at its ends,
    so its third factor is 0 on parts of its support as well as outside.

    In a third of the cases Y lies on X's cell lattice (cells of
    LATTICE_STEP, support starts a whole number of cells apart) and reaches
    outside X at one end or both, so both terms read one table and XPolM
    reads cells that SPM does not: a rectangle or tabulated shape spans a
    whole number of cells, a raised cosine half a cell more, so it takes
    cells of exactly the step."""
    node_values = st.floats(0.1, 2.0) | st.just(0.0)

    def lattice_shape(lo, cells):
        kind = draw(st.sampled_from(["rectangular", "raised_cosine",
                                     "tabulated"]))
        height = draw(st.floats(0.1, 2.0))
        if kind == "rectangular":
            width = cells * LATTICE_STEP
            return RectangularPsd(lo + 0.5 * width, width, height)
        if kind == "tabulated":
            values = draw(st.lists(node_values, min_size=2, max_size=9)
                          .filter(any))
            return TabulatedPsd(
                lo + cells * LATTICE_STEP * np.linspace(0.0, 1.0, len(values)),
                height * np.array(values))
        width = (cells + 0.5) * LATTICE_STEP
        rolloff = draw(st.sampled_from([0.3, 1.0]) | st.floats(1e-3, 1.0))
        return RaisedCosinePsd(lo + 0.5 * width, width / (1.0 + rolloff),
                               rolloff, height)

    def shape():
        center = draw(st.floats(-1e9, 1e9))
        bandwidth = draw(st.floats(3e9, 8e9))
        height = draw(st.floats(0.1, 2.0))
        kind = draw(st.sampled_from(["rectangular", "raised_cosine",
                                     "tabulated"]))
        if kind == "rectangular":
            return RectangularPsd(center, bandwidth, height)
        if kind == "tabulated":
            nodes = draw(st.integers(2, 9))
            values = draw(st.lists(node_values, min_size=nodes,
                                   max_size=nodes).filter(any))
            return TabulatedPsd(
                center + bandwidth * np.linspace(-0.5, 0.5, nodes),
                height * np.array(values))
        rolloff = draw(st.sampled_from([0.0, 1e-3, 0.3, 1.0])
                       | st.floats(0.0, 1.0))
        return RaisedCosinePsd(center, bandwidth, rolloff, height)

    if draw(st.integers(0, 2)) == 0:
        cells_x, cells_y = draw(st.integers(16, 28)), draw(st.integers(16, 36))
        lo_x = 0.5 * LATTICE_STEP * draw(st.integers(-16, 8))
        # Y starts below X, or ends above it
        offset = draw(st.integers(-6, -1)
                      | st.integers(cells_x - cells_y + 1, cells_x - cells_y + 6))
        gx = lattice_shape(lo_x, cells_x)
        gy = lattice_shape(lo_x + offset * LATTICE_STEP, cells_y)
        step = LATTICE_STEP
    else:
        gx = shape()
        gy = gx if draw(st.booleans()) else shape()
        widths = [s.support[1] - s.support[0] for s in (gx, gy)]
        step = min(widths) / draw(st.sampled_from([16, 19, 24]))
    spacing = step * draw(st.sampled_from([1.0, 2.0, 0.37]))
    grid = draw(st.floats(-2e9, 2e9)) \
        + spacing * np.arange(draw(st.integers(1, 6)))
    kernel = KernelModel(link=LINKS[draw(st.sampled_from(sorted(LINKS)))])
    return GnRequest(psd=DualPolPsd(gx, gy, 1e-3), kernel=kernel,
                     output_grid_hz=grid, inner_grid_step_hz=step)


def gapped_request(psd, grid_ghz, step):
    return GnRequest(psd=psd, kernel=KernelModel(link=LINKS["three"]),
                     output_grid_hz=np.asarray(grid_ghz) * 1e9,
                     inner_grid_step_hz=step)


# requests whose windows leave cells with a zero third factor between them
# (points several cells apart) or inside them (a tabulated hole), so that
# filling each table row on the hull of its nonzero read cells evaluates
# cells that no window reads as nonzero; all three are on criterion 1's
# 3-span link

# the demo rectangles on the GN grid of the demo montecarlo: 65 points 1 GHz
# apart on cells of 125 MHz, 8 cells apart; the row hulls evaluated 672 more
# cells in the first table
GAPPED_DEMO_MONTECARLO = gapped_request(
    DualPolPsd(RectangularPsd(0.0, 31e9, 1.0),
               RectangularPsd(0.0, 21e9, 0.6), 1e-3),
    np.arange(-32, 33), 0.125e9)
# a tabulated Y that is 0 from -4 to -3 GHz, inside its support; the row
# hulls evaluated 100 and 110 more cells in the two shared tables
GAPPED_TABULATED_HOLE = gapped_request(
    DualPolPsd(RectangularPsd(0.0, 4e9, 1.0),
               TabulatedPsd(np.array([-8, -6, -4, -3, -2, -1, 8]) * 1e9,
                            np.array([0, 1, 0, 0, 1, 0, 0.0])), 1e-3),
    [-9, -8.75, 0, 0.25, 0.5, 7, 7.25, 7.5], 0.25e9)
# the three_span_rc raised cosines, 4 cells of the step apart; the row hulls
# evaluated 60 more cells in the first table
GAPPED_RAISED_COSINE = gapped_request(
    DualPolPsd(RaisedCosinePsd(0.0, 28e9, 0.1, 1.0),
               RaisedCosinePsd(0.0, 20e9, 0.2, 0.6), 1e-3),
    np.arange(-20, 21), 0.25e9)


class TestTableFillBitContract:
    @settings(max_examples=60)
    @given(req=small_gn_inputs())
    def test_psd_equals_deduplicated_row_block_fill(self, req):
        result = nli_psd_x(req)
        with mock.patch.object(gn, "_eta2_table", deduplicated_row_block_table):
            reference = nli_psd_x(req)
        np.testing.assert_array_equal(result.spm, reference.spm)
        np.testing.assert_array_equal(result.xpolm, reference.xpolm)
        np.testing.assert_array_equal(result.total, reference.total)

    @settings(max_examples=60)
    @given(req=small_gn_inputs())
    @example(req=GAPPED_DEMO_MONTECARLO)
    @example(req=GAPPED_TABULATED_HOLE)
    @example(req=GAPPED_RAISED_COSINE)
    def test_unevaluated_cells_have_zero_third_factor(self, req):
        # and every evaluated cell is read against a nonzero one, so the
        # fill evaluates exactly the read cells.  eta is replaced by ones, so
        # a table cell reads 1 where the fill evaluated or mirrored it and 0
        # where it left it; a dispersion-free table is a broadcast constant
        # and is skipped.  A cell is read when some window of some term
        # multiplies it by a nonzero third factor, which each window
        # evaluates from the term's axes as _integrate_run does: on the
        # run's anti-diagonals when both cell widths are equal, else at the
        # point's own f + f1 + f2.  The read cells are closed under
        # transposition when the table's axes are equal.
        if req.kernel.flat:
            return
        runs, tables = [], []

        def recording_run(kernel, axes, terms, grid, run):
            runs.append((terms, grid, run))
            return integrate_run(kernel, axes, terms, grid, run)

        def recording_table(kernel, lat1, lat2, *args):
            tables.append((lat1, lat2, eta2_table(kernel, lat1, lat2, *args)))
            return tables[-1][2]

        integrate_run, eta2_table = gn._integrate_run, gn._eta2_table
        with mock.patch.object(gn, "_integrate_run", recording_run), \
                mock.patch.object(gn, "_eta2_table", recording_table), \
                mock.patch.object(gn, "normalized_kernel_grid",
                                  lambda kernel, F: np.ones(F.shape)):
            nli_psd_x(req)
        assert len(runs) == len(tables) > 0
        for (terms, grid, run), (lat1, lat2, table) in zip(runs, tables):
            idx, shifts = run
            top = max(shifts)
            f0 = float(grid[idx[0]])
            read = np.zeros(table.shape, dtype=bool)
            for term in terms:
                (lo1, h1, off1), (lo2, h2, off2) = term.axes
                d1, d2 = term.cells
                for k, shift in zip(idx, shifts):
                    if h1 == h2:
                        diagonal = np.arange(off1.size)[:, None] \
                            + np.arange(off2.size) + 1 - shift
                        c = term.third.evaluate((lo1 + lo2 - f0)
                                                + diagonal * h1)
                    else:
                        f = float(grid[k])
                        c = term.third.evaluate(f + ((lo1 - f) + off1)[:, None]
                                                + ((lo2 - f) + off2))
                    r = top - shift
                    window = read[d1 + r:d1 + r + off1.size,
                                  d2 + r:d2 + r + off2.size]
                    assert window.shape == c.shape
                    window |= c != 0
            if np.array_equal(lat1, lat2):
                read |= read.T
            np.testing.assert_array_equal(table != 0, read)

    def test_runs_that_read_only_zero_third_factors_evaluate_nothing(self):
        # X rectangular on [-2, 2] GHz; Y tabulated on [-8, 8] GHz, on X's
        # 250 MHz lattice, 0 at -8 and -4 GHz and from -1 GHz up.  At f = -9
        # and -8.75 GHz every cell that a window reads has f + f1 + f2 above
        # X's support and at or above -1 GHz, so both terms are +0 and their
        # run evaluates no kernel product (470 on the band of the supports
        # widened by a cell); at 7-7.5 GHz SPM is +0 and XPolM reads Y's
        # nonzero part
        gx = RectangularPsd(0.0, 4e9, 1.0)
        gy = TabulatedPsd(np.array([-8, -6, -4, -2, -1, 8]) * 1e9,
                          np.array([0, 1, 0, 1, 0, 0.0]))
        kernel = KernelModel(link=LINKS["single"])
        grid = np.array([-9, -8.75, 0, 7, 7.25, 7.5]) * 1e9
        req = GnRequest(psd=DualPolPsd(gx, gy, 1e-3), kernel=kernel,
                        output_grid_hz=grid, inner_grid_step_hz=0.25e9)
        products, counted = {}, []

        def recording_run(kernel, axes, terms, grid, run):
            counted.clear()
            values = integrate_run(kernel, axes, terms, grid, run)
            products[tuple(run[0])] = sum(counted)
            return values

        def counting(kernel, F):
            counted.append(np.size(F))
            return normalized_kernel_grid(kernel, F)

        integrate_run = gn._integrate_run
        with mock.patch.object(gn, "_integrate_run", recording_run), \
                mock.patch.object(gn, "normalized_kernel_grid", counting):
            result = nli_psd_x(req)
        assert products[0, 1] == 0
        assert 0 < products[3, 4, 5] <= 410
        outer = [0, 1, 3, 4, 5]
        assert np.all(result.spm[outer] == 0.0)
        assert not np.any(np.signbit(result.spm[outer]))
        assert np.all(result.xpolm[:2] == 0.0)
        assert not np.any(np.signbit(result.xpolm[:2]))
        assert np.all(result.xpolm[3:] > 0)
        for i, f in enumerate(grid):
            assert result.xpolm[i] == pytest.approx(
                brute_force_term(kernel, gx, gy, gy, f, 0.25e9), rel=1e-9)
        with mock.patch.object(gn, "_eta2_table", deduplicated_row_block_table):
            reference = nli_psd_x(req)
        np.testing.assert_array_equal(result.spm, reference.spm)
        np.testing.assert_array_equal(result.xpolm, reference.xpolm)


class TestPowerScaling:
    """The outputs are normalized to Phi_NL^2, so scaling P0 by lam moves
    only the absolute PSD, P0 Phi_NL^2 total, as lam^3."""

    @settings(max_examples=30)
    @given(req=small_gn_inputs(),
           lam=st.sampled_from([0.5, 2.0, 10.0]) | st.floats(1e-3, 1e3),
           seed=st.integers(0, 2**64 - 1))
    def test_normalized_outputs_do_not_move(self, req, lam, seed):
        psd = req.psd
        scaled = replace(req, psd=replace(psd, p0_w=lam * psd.p0_w))
        base, moved = nli_psd_x(req), nli_psd_x(scaled)
        for name in ("spm", "xpolm", "phase", "total"):
            np.testing.assert_array_equal(getattr(moved, name),
                                          getattr(base, name))
        np.testing.assert_allclose(moved.total_absolute_w_per_hz,
                                   lam**3 * base.total_absolute_w_per_hz,
                                   rtol=1e-12, atol=0.0)

        cfg = TrialConfig(spacing_hz=1e9, num_lines=32, num_trials=3,
                          seed=seed)
        np.testing.assert_array_equal(
            estimate_nli_psd(cfg, scaled.psd, req.kernel).mean,
            estimate_nli_psd(cfg, psd, req.kernel).mean)


class TestPolarizationSwap:
    """Y is X of the swapped input; swapping twice gives back the input's
    X PSD to the bit."""

    @settings(max_examples=30)
    @given(req=small_gn_inputs())
    def test_double_swap_is_exact(self, req):
        base = nli_psd_x(req)
        twice = nli_psd_x(replace(req, psd=req.psd.swapped().swapped()))
        for name in ("spm", "xpolm", "phase", "total",
                     "total_absolute_w_per_hz"):
            np.testing.assert_array_equal(getattr(twice, name),
                                          getattr(base, name))


# criterion 1's 3-span link with raised-cosine spectra whose X support,
# 30.8 GHz, is not a whole number of 250 MHz steps
THREE_SPAN_RC_YAML = """
link:
  xi_pre_ps2: 3.0
  spans:
    - {length_km: 80.0, alpha_db_per_km: 0.2, beta2_ps2_per_km: -21.7,
       gamma_per_w_km: 1.3, lumped_gain_db: 16.0}
    - {length_km: 60.0, alpha_db_per_km: 0.25, beta2_ps2_per_km: 5.1,
       gamma_per_w_km: 1.8, lumped_gain_db: 15.0}
    - {length_km: 100.0, alpha_db_per_km: 0.18, beta2_ps2_per_km: -16.0,
       gamma_per_w_km: 1.1, lumped_gain_db: 18.0}
signal:
  p0_w: 1.0e-3
  x: {kind: raised_cosine, bandwidth_hz: 28.0e9, rolloff: 0.1, height: 1.0}
  y: {kind: raised_cosine, bandwidth_hz: 20.0e9, rolloff: 0.2, height: 0.6}
psd:
  include_phase_term: true
  inner_grid_step_hz: 2.5e8
  output_min_hz: -20.0e9
  output_max_hz: 20.0e9
  output_points: 81
"""


class TestWorkCount:
    """Kernel products that the |eta|^2 tables evaluate, the tables they
    fill, and the PSD values each run evaluates.

    The demo ``psd``: 133,583 products when every cell was filled, 81,355
    on the band, 72,890 in 8 tables on the band cells that some point's
    window reads, 31,438 in 4 tables once XPolM reads SPM's table (Y lies
    on X's lattice), 30,697 with each row filled on the hull of its cells
    that windows read as nonzero (the band widened by one cell took
    31,438), 30,680 on the cells that some window reads against a nonzero
    third factor; a fill that evaluates other cells, or a table per term,
    fails.  The GN prediction of the demo ``montecarlo``: 353,857 products
    in 11 tables with a table per term, 154,738 in 5 shared ones, 145,644
    on the row hulls of the nonzero read cells, 144,784 on those cells, all
    at step f0/8; 2,314 in 5 tables as the exact mean on line-centred
    cells of width f0.
    The 3-span raised-cosine request: 162 one-point tables and 891,693
    products on support-aligned cells of 248.4 MHz, 8 tables and 87,758
    products on cells of the 250 MHz step, 78,465 on the read band cells,
    76,365 on the row hulls of the nonzero read cells, 76,303 on those
    cells; an axis whose cells the 0.5 GHz output spacing does not divide
    fails.
    Its X and Y supports start 13.6 cells apart, so each term keeps its own
    tables."""

    DEMO = Path(__file__).resolve().parent.parent / "demos" / "single_span.yaml"
    DEMO_PSD_PRODUCTS = 30_680
    DEMO_PSD_TABLES = 4
    DEMO_MONTECARLO_PRODUCTS = 2_314
    RC_PSD_PRODUCTS = 76_303
    RC_PSD_TABLES = 8

    def count(self, config, tmp_path, *argv):
        """(products, tables) of one run of the config; ``psd`` by default."""
        counted, tables = [], []

        def counting(kernel, F):
            counted.append(np.size(F))
            return normalized_kernel_grid(kernel, F)

        def counting_table(*args):
            tables.append(args)
            return eta2_table(*args)

        eta2_table = gn._eta2_table
        with mock.patch.object(gn, "normalized_kernel_grid", counting), \
                mock.patch.object(gn, "_eta2_table", counting_table):
            assert run(["--config", str(config), "--output",
                        str(tmp_path / "out.csv"), *(argv or ("psd",))]) == 0
        return sum(counted), len(tables)

    def test_demo_psd_evaluates_only_the_band(self, tmp_path):
        products, tables = self.count(self.DEMO, tmp_path)
        assert 0 < products <= self.DEMO_PSD_PRODUCTS
        assert 0 < tables <= self.DEMO_PSD_TABLES

    def test_montecarlo_prediction_shares_tables(self, tmp_path):
        # the trial count does not reach the GN prediction
        products, _ = self.count(self.DEMO, tmp_path, "montecarlo",
                                 "--trials", "16")
        assert 0 < products <= self.DEMO_MONTECARLO_PRODUCTS

    def test_raised_cosine_points_share_tables(self, tmp_path):
        config = tmp_path / "three_span_rc.yaml"
        config.write_text(THREE_SPAN_RC_YAML)
        products, tables = self.count(config, tmp_path)
        assert 0 < products <= self.RC_PSD_PRODUCTS
        assert 0 < tables <= self.RC_PSD_TABLES

    def test_third_factor_is_evaluated_once_per_run(self, tmp_path):
        # the demo's cells are 250 MHz on both axes, so inside a run the
        # only PSD evaluation is the third factor's, on each term's n1 + n2
        # - 1 + spread anti-diagonals; point by point it took n1*n2 per
        # point and term
        bounds, counts, active = [], [], []

        def recording_run(kernel, axes, terms, grid, run):
            spread = max(run[1]) - min(run[1])
            bounds.append(sum(term.axes[0][2].size + term.axes[1][2].size - 1
                              + spread for term in terms))
            counts.append(0)
            active.append(run)
            try:
                return integrate_run(kernel, axes, terms, grid, run)
            finally:
                active.pop()

        def counting_evaluate(shape, f):
            if active:
                counts[-1] += np.size(f)
            return evaluate(shape, f)

        integrate_run, evaluate = gn._integrate_run, RaisedCosinePsd.evaluate
        with mock.patch.object(gn, "_integrate_run", recording_run), \
                mock.patch.object(RaisedCosinePsd, "evaluate",
                                  counting_evaluate):
            assert run(["--config", str(self.DEMO), "--output",
                        str(tmp_path / "psd.csv"), "psd"]) == 0
        assert len(counts) > 0
        assert all(0 < count <= bound for count, bound in zip(counts, bounds))


def per_element_term(kernel, shapes, axes, f):
    """One GN term at f as the engine summed it point by point before the
    anti-diagonal layout: every factor at the point's own coordinates,
    |eta|^2 at the same midpoint products, one element-wise sum."""
    main, partner, third = shapes
    (lo1, h1, off1), (lo2, h2, off2) = axes
    f1 = (lo1 - f) + off1
    f2 = (lo2 - f) + off2
    eta = normalized_kernel_grid(kernel, f1[:, None] * f2)
    return h1 * h2 * np.sum(main.evaluate(f + f1)[:, None]
                            * partner.evaluate(f + f2)[None, :]
                            * third.evaluate(f + f1[:, None] + f2[None, :])
                            * (eta.real**2 + eta.imag**2))


class TestUnequalCellWidths:
    """X rectangular 30.8 GHz takes 124 support-aligned cells of 248.4 MHz
    and Y rectangular 21 GHz 84 cells of the 250 MHz step, so XPolM's axes
    have different widths and its third factor is taken at each point's own
    f + f1 + f2; no two points of the 0.5 GHz grid share an X lattice, so
    each of the 162 runs is one point.  SPM's axes are equal, so its third
    factor is taken on anti-diagonals; at f = 0 the 62nd of them lies on
    the X support's lower edge in exact arithmetic, where the anti-diagonal
    value is 0, as the strict edge test gives, while the point's own sums
    round 10 of its cells inside.  SPM is compared off that edge only.

    Each one-point table is filled only on the cells where the point's own
    third factor is nonzero: 773,890 kernel products, 787,158 on the band
    of the supports widened by one cell; filling whole windows fails."""

    PRODUCTS = 773_890

    def test_engine_matches_per_element_reassembly(self):
        kernel = KernelModel(link=LINKS["three"])
        gx = RectangularPsd(0.0, 30.8e9, 1.0)
        gy = RectangularPsd(0.0, 21e9, 0.6)
        step = 0.25e9
        grid = np.linspace(-20e9, 20e9, 81)
        axes = (_cell_axis(gx, step), _cell_axis(gy, step))
        assert axes[0][1] != axes[1][1]
        assert len(_runs(grid, (axes[0], axes[0]))) == len(_runs(grid, axes)) \
            == grid.size
        counted = []

        def counting(kernel, F):
            counted.append(np.size(F))
            return normalized_kernel_grid(kernel, F)

        with mock.patch.object(gn, "normalized_kernel_grid", counting):
            result = nli_psd_x(GnRequest(psd=DualPolPsd(gx, gy, 1e-3),
                                         kernel=kernel, output_grid_hz=grid,
                                         inner_grid_step_hz=step))
        assert 0 < sum(counted) <= self.PRODUCTS
        for i, f in enumerate(grid):
            spm = 2.0 * per_element_term(kernel, (gx, gx, gx),
                                         (axes[0], axes[0]), f)
            xpolm = per_element_term(kernel, (gx, gy, gy), axes, f)
            assert result.xpolm[i] == pytest.approx(xpolm, rel=1e-13, abs=0.0)
            if f != 0.0:
                assert result.spm[i] == pytest.approx(spm, rel=1e-13, abs=0.0)


# criterion 2's zero-dispersion request on 1024 cells of 31.25 MHz, the
# largest per-point sum of any test
ZERO_DISPERSION_YAML = """
link:
  spans:
    - {length_km: 80.0, alpha_db_per_km: 0.2, beta2_ps2_per_km: 0.0,
       gamma_per_w_km: 1.3}
signal:
  p0_w: 1.0e-3
  x: {kind: rectangular, bandwidth_hz: 32.0e9, height: 1.3}
  y: {kind: none}
psd:
  include_phase_term: false
  inner_grid_step_hz: 3.125e7
  output_min_hz: 0.0
  output_max_hz: 1.0e9
  output_points: 2
"""

# psd of each configuration argv[3:] at --threads argv[1], written to
# argv[2] + ".<k>.csv" for the k-th configuration
PSD_SCRIPT = textwrap.dedent("""
    import sys
    from gnmodel.cli import run
    threads, out, *configs = sys.argv[1:]
    for k, config in enumerate(configs):
        assert run(["--config", config, "--output", f"{out}.{k}.csv",
                    "--threads", threads, "psd"]) == 0
""")


def test_psd_bits_do_not_depend_on_threads_or_blas_pool(tmp_path):
    # each point's sum is a GEMV, which a BLAS pool of 2 may split between
    # BLAS threads in a serial run; the worker pool pins BLAS to one
    # on the dispersion-free link, the per-term tables of the raised cosines
    # and the one table that the demo's rectangles share
    configs = [TestWorkCount.DEMO]
    for name, text in (("zero_dispersion", ZERO_DISPERSION_YAML),
                       ("three_span_rc", THREE_SPAN_RC_YAML)):
        configs.append(tmp_path / f"{name}.yaml")
        configs[-1].write_text(text)
    outputs = {}
    for threads in (1, 2, 4):
        for blas in (1, 2):
            out = tmp_path / f"t{threads}-blas{blas}"
            subprocess.run([sys.executable, "-c", PSD_SCRIPT, str(threads),
                            str(out), *map(str, configs)],
                           env=pool_env(blas), check=True, timeout=120)
            outputs[threads, blas] = [Path(f"{out}.{k}.csv").read_bytes()
                                      for k in range(len(configs))]
    assert all(files == outputs[1, 1] for files in outputs.values())
