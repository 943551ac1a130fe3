"""Monte Carlo line model: draws, perturbation sums, estimators, invariants.

The engine's own per-shift GEMM block (``_perturbation_rows`` over a block
of trials drawn by ``_draw_rows``) is checked against a literal triple loop
over parent line indices written straight from the discrete RP1 formula,
with scalar kernel lookups and a different summation order.
"""
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gnmodel
from gnmodel import (ConfigError, DualPolPsd, KernelModel, LinkProfile,
                     PsdEstimate, RaisedCosinePsd, RectangularPsd, Span,
                     TrialConfig, discrete_powers, estimate_nli_psd,
                     in_band_mask, in_band_verdict, load_config,
                     normalized_kernel, run_paired_trials,
                     validate_grid_coverage)
from gnmodel.montecarlo import (_draw_rows, _line_amplitudes, _per_trial_values,
                                _perturbation_rows, _shift_sums)
from gnmodel.rng import POL_X, POL_Y, FieldStreams, complex_normals, field_stream

ALPHA = 0.2 * math.log(10.0) / 1.0e4

# one paired run in a fresh interpreter, whose BLAS pool size is set by the
# environment; saves the six estimate arrays to argv[1]
BLAS_POOL_SCRIPT = textwrap.dedent(f"""
    import sys
    import numpy as np
    from gnmodel import (DualPolPsd, KernelModel, LinkProfile,
                         RectangularPsd, Span, TrialConfig, run_paired_trials)
    span = Span(length_m=80e3, alpha_per_m={ALPHA!r},
                beta2_s2_per_m=-21.7e-27, gamma_per_w_m=1.3e-3)
    kernel = KernelModel(link=LinkProfile(spans=(span,)))
    psd = DualPolPsd(RectangularPsd(0.0, 41e9, 1.0),
                     RectangularPsd(1e9, 30e9, 0.5), 1e-3)
    cfg = TrialConfig(spacing_hz=1e9, num_lines=64, num_trials=600, seed=5)
    p = run_paired_trials(cfg, psd, kernel)
    np.savez(sys.argv[1], *[getattr(e, a) for e in (p.rp1, p.erp1, p.difference)
                            for a in ("mean", "stderr")])
""")


def span_kernel():
    span = Span(length_m=80e3, alpha_per_m=ALPHA, beta2_s2_per_m=-21.7e-27,
                gamma_per_w_m=1.3e-3)
    return KernelModel(link=LinkProfile(spans=(span,)))


def zero_shape():
    return RectangularPsd(center_hz=0.0, bandwidth_hz=1.0, height=0.0)


def draw_block(cfg, psd, trial_lo, trial_hi):
    """The (trials, lines) X and Y line matrices of a trial range."""
    streams = FieldStreams(cfg.seed)
    return tuple(_draw_rows(streams, _line_amplitudes(cfg, shape), pol,
                            trial_lo, trial_hi)
                 for shape, pol in ((psd.gx, POL_X), (psd.gy, POL_Y)))


def double_sums(x, y, cfg, psd, kernel):
    """The engine's RP1 double sums (B_x, B_y) of a block; B_y is B_x of the
    swapped input."""
    return (_perturbation_rows(x, y, _shift_sums(cfg, psd, kernel)),
            _perturbation_rows(y, x, _shift_sums(cfg, psd.swapped(), kernel)))


class TestTrialConfig:
    def test_rejects_bad_parameters(self, tmp_path):
        # the ranges are the configuration schema's: each value fails on load
        path = tmp_path / "mc.yaml"
        for key, value, match in (("spacing_hz", 0.0, "> 0"),
                                  ("spacing_hz", ".inf", "finite"),
                                  ("num_lines", 15, "even"),
                                  ("num_lines", 6, "even"),
                                  ("num_trials", 1, "at least 2"),
                                  ("seed", -1, r"\[0, 2\*\*64\)"),
                                  ("seed", 2**64, r"\[0, 2\*\*64\)"),
                                  ("mode", "rp2", "one of rp1, erp1"),
                                  ("edge_margin", 0.5, r"\[0, 0.5\)")):
            path.write_text(f"montecarlo:\n  {key}: {value}\n")
            with pytest.raises(ConfigError, match=f"montecarlo.{key} must be "
                                                  f".*{match}"):
                load_config(str(path))

    def test_grid_layout(self):
        cfg = TrialConfig(spacing_hz=2e9, num_lines=8, num_trials=1, seed=0)
        assert cfg.half_lines == 4
        np.testing.assert_array_equal(cfg.grid_indices, np.arange(-4, 5))
        np.testing.assert_allclose(cfg.frequencies_hz,
                                   np.arange(-4, 5) * 2e9, rtol=0, atol=0)


class TestDrawField:
    def test_bit_reproducible_per_trial_index(self):
        cfg = TrialConfig(spacing_hz=1e9, num_lines=16, num_trials=10, seed=7)
        psd = DualPolPsd(RectangularPsd(0.0, 9e9, 1.0),
                         RectangularPsd(1e9, 6e9, 0.5), 1e-3)
        block = draw_block(cfg, psd, 0, 6)
        alone = draw_block(cfg, psd, 3, 4)
        for rows, row in zip(block, alone):
            np.testing.assert_array_equal(rows[3], row[0])
            assert not np.array_equal(rows[3], rows[4])
        assert block[0].shape == (6, cfg.grid_indices.size)

    def test_zero_psd_gives_zero_lines(self):
        cfg = TrialConfig(spacing_hz=1e9, num_lines=16, num_trials=1, seed=7)
        psd = DualPolPsd(zero_shape(), RectangularPsd(0.0, 6e9, 0.5), 1e-3)
        x, y = draw_block(cfg, psd, 0, 1)
        assert np.all(x == 0)
        assert np.any(y != 0)

    def test_line_statistics_match_psd(self):
        # normalized lines xi_k = line_k / sqrt(Ghat/f0) are standard circular
        # Gaussian: E|xi|^2 = 1 (Var 1) and E[xi^2] = 0, checked at 4 sigma
        cfg = TrialConfig(spacing_hz=1e9, num_lines=16, num_trials=1, seed=42)
        psd = DualPolPsd(RectangularPsd(0.0, 9e9, 1.3), zero_shape(), 1e-3)
        support = np.abs(cfg.frequencies_hz) < 4.5e9
        trials = 8000
        xi = draw_block(cfg, psd, 0, trials)[0][:, support] \
            / math.sqrt(1.3 / 1e9)
        sq = np.abs(xi) ** 2
        raw = xi**2
        n = sq.size
        assert abs(sq.mean() - 1.0) < 4.0 / math.sqrt(n)
        assert abs(raw.mean()) < 4.0 / math.sqrt(n)


class TestFieldStreams:
    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**64 - 1),
           # Philox(counter=[...]) in field_stream goes through a float64
           # array for words >= 2**63, so trial indices stay in int64 range,
           # which holds every trial a request can run
           keys=st.lists(st.tuples(st.integers(0, 2**63 - 1),
                                   st.sampled_from([POL_X, POL_Y]),
                                   st.integers(1, 70), st.integers(0, 3)),
                         min_size=1, max_size=8))
    def test_reused_generator_equals_field_stream(self, seed, keys):
        # after a partly used 64-bit buffer and a pending 32-bit half, the
        # next stream must still start where a new generator starts
        streams = FieldStreams(seed)
        for trial, pol, count, extra in keys:
            got = streams.at(trial, pol)
            want = field_stream(seed, trial, pol)
            np.testing.assert_array_equal(complex_normals(got, count),
                                          complex_normals(want, count))
            got.integers(0, 2**31, size=extra, dtype=np.uint32)
            got.random(extra)

    def test_draw_rows_use_the_field_stream_keys(self):
        cfg = TrialConfig(spacing_hz=1e9, num_lines=16, num_trials=3, seed=11)
        psd = DualPolPsd(RectangularPsd(0.0, 9e9, 1.0),
                         RectangularPsd(1e9, 6e9, 0.5), 1e-3)
        amps = [np.sqrt(shape.evaluate(cfg.frequencies_hz) / cfg.spacing_hz)
                / math.sqrt(2.0) for shape in (psd.gx, psd.gy)]
        x, y = draw_block(cfg, psd, 0, cfg.num_trials)
        for t in range(cfg.num_trials):
            for lines, pol, amp in ((x[t], POL_X, amps[0]),
                                    (y[t], POL_Y, amps[1])):
                ref = complex_normals(field_stream(11, t, pol), 17) * amp
                np.testing.assert_array_equal(lines, ref)


# the 16-line oracle grid holds supports out to 8 f0 / 1.5; a margin keeps
# rounding in the raised-cosine edges off the coverage bound
ORACLE_REACH_HZ = 5.3e9


@st.composite
def oracle_shapes(draw):
    """A rectangular or raised-cosine shape whose support the 16-line,
    1 GHz oracle grid covers."""
    half = draw(st.floats(0.2e9, ORACLE_REACH_HZ))
    center = draw(st.floats(half - ORACLE_REACH_HZ, ORACLE_REACH_HZ - half))
    height = draw(st.floats(0.1, 2.0))
    rolloff = draw(st.one_of(st.just(0.0), st.floats(0.05, 1.0)))
    if rolloff == 0.0:
        return RectangularPsd(center, 2.0 * half, height)
    return RaisedCosinePsd(center, 2.0 * half / (1.0 + rolloff), rolloff,
                           height)


class TestPerturbationOracle:
    cfg = TrialConfig(spacing_hz=1e9, num_lines=16, num_trials=3, seed=11)
    kernel = span_kernel()
    etas = {}

    def triple_loop(self, main, other):
        """Literal triple loop over parent indices i1, i2, i3 (i2 conjugated)
        for each row; i2 = i1 + i3 - i enforces the FWM frequency relation."""
        f0 = self.cfg.spacing_hz
        rows, count = main.shape
        out = np.zeros_like(main)
        for r in range(rows):
            x, y = main[r].tolist(), other[r].tolist()
            for i in range(count):
                acc = 0j
                for i1 in range(count):
                    for i3 in range(count):
                        i2 = i1 + i3 - i
                        if not 0 <= i2 < count:
                            continue
                        p = (i1 - i) * (i3 - i)
                        if p not in self.etas:
                            self.etas[p] = normalized_kernel(
                                self.kernel, p * f0 * f0)
                        acc += f0 * f0 * self.etas[p] * (
                            x[i1] * x[i2].conjugate() * x[i3]
                            + x[i1] * y[i2].conjugate() * y[i3])
                out[r, i] = acc
        return out

    @settings(max_examples=40)
    @given(gx=oracle_shapes(), gy=oracle_shapes(),
           seed=st.integers(0, 2**64 - 1), first=st.integers(0, 2**20),
           trials=st.integers(1, 3))
    @example(gx=RectangularPsd(0.0, 9e9, 1.0),
             gy=RaisedCosinePsd(1e9, 6e9, 0.3, 0.7), seed=11, first=4,
             trials=3)
    def test_rp1_matches_triple_loop(self, gx, gy, seed, first, trials):
        cfg = TrialConfig(spacing_hz=1e9, num_lines=16, num_trials=trials,
                          seed=seed)
        psd = DualPolPsd(gx, gy, 1e-3)
        validate_grid_coverage(cfg, psd)
        x, y = draw_block(cfg, psd, first, first + trials)
        bx, by = double_sums(x, y, cfg, psd, self.kernel)
        ref_x, ref_y = self.triple_loop(x, y), self.triple_loop(y, x)
        scale = max(np.max(np.abs(ref_x)), np.max(np.abs(ref_y)))
        np.testing.assert_allclose(bx, ref_x, rtol=1e-12, atol=1e-14 * scale)
        np.testing.assert_allclose(by, ref_y, rtol=1e-12, atol=1e-14 * scale)

    def test_single_line_closed_form(self):
        # only k = 0 populated: B(0) = |X0|^2 X0 f0^2 (eta(0) = 1)
        psd = DualPolPsd(RectangularPsd(0.0, 0.5e9, 1.7), zero_shape(), 2e-3)
        x, y = draw_block(self.cfg, psd, 0, 3)
        half = self.cfg.half_lines
        x0 = x[:, half]
        assert np.all(x0 != 0)
        assert np.count_nonzero(x) == 3
        bx, by = double_sums(x, y, self.cfg, psd, self.kernel)
        expected = np.abs(x0) ** 2 * x0 * self.cfg.spacing_hz**2
        np.testing.assert_allclose(bx[:, half], expected, rtol=1e-14)
        assert np.all(np.delete(bx, half, axis=1) == 0)
        assert np.all(by == 0)

    def test_three_lines_four_wave_mixing_product(self):
        # lines at k in {-2, 0, +2}: the only parent triple landing on k = 6
        # is (a, b, c) = (2, -2, 2), so B(6) = f0^2 eta(16 f0^2) X2^2 X-2*
        psd = DualPolPsd(RectangularPsd(0.0, 4.5e9, 1.0), zero_shape(), 1e-3)
        half = self.cfg.half_lines
        x = np.zeros((2, self.cfg.num_lines + 1), dtype=complex)
        x[:, half - 2] = 0.4 - 0.9j, -0.7 + 0.1j
        x[:, half] = 1.1 + 0.2j, 0.3 - 0.5j
        x[:, half + 2] = -0.3 + 0.8j, 0.9 + 0.6j
        bx, _ = double_sums(x, np.zeros_like(x), self.cfg, psd, self.kernel)
        f0 = self.cfg.spacing_hz
        eta = normalized_kernel(self.kernel, (2 - 6) * (2 - 6) * f0 * f0)
        expected = f0**2 * eta * x[:, half + 2] ** 2 * np.conj(x[:, half - 2])
        np.testing.assert_allclose(bx[:, half + 6], expected, rtol=1e-13)
        # beyond +/- 6 nothing can mix
        assert np.all(bx[:, half + 7:] == 0)
        assert np.all(bx[:, : half - 7] == 0)


class TestErp1:
    def setup_method(self):
        self.cfg = TrialConfig(spacing_hz=1e9, num_lines=16, num_trials=300,
                               seed=9)
        self.psd = DualPolPsd(RectangularPsd(0.0, 9e9, 1.0),
                              RectangularPsd(1e9, 6e9, 0.5), 1e-3)
        self.kernel = span_kernel()

    def assert_erp1_subtracts(self, psd, weight):
        """The engine's samples over a full and a short trial chunk are
        f0 |B|^2 and f0 |B - weight X|^2 of an independent draw and sum."""
        cfg = self.cfg
        v_rp1, v_erp1 = _per_trial_values(cfg, psd, self.kernel)
        x, y = draw_block(cfg, psd, 0, cfg.num_trials)
        b = _perturbation_rows(x, y, _shift_sums(cfg, psd, self.kernel))
        rp1 = cfg.spacing_hz * np.abs(b) ** 2
        erp1 = cfg.spacing_hz * np.abs(b - weight * x) ** 2
        np.testing.assert_allclose(v_rp1, rp1, rtol=1e-12,
                                   atol=1e-14 * rp1.max())
        np.testing.assert_allclose(v_erp1, erp1, rtol=1e-12,
                                   atol=1e-14 * erp1.max())
        assert not np.allclose(v_rp1, v_erp1)

    def test_difference_to_rp1_is_phase_rotation_term(self):
        px_d, py_d = discrete_powers(self.cfg, self.psd)
        self.assert_erp1_subtracts(self.psd, 2.0 * px_d + py_d)
        # Y is X of the swapped input: its weight is 2Py + Px
        self.assert_erp1_subtracts(self.psd.swapped(), py_d * 2.0 + px_d)

    def test_discrete_powers_are_grid_sums(self):
        px_d, py_d = discrete_powers(self.cfg, self.psd)
        fx = self.psd.gx.evaluate(self.cfg.frequencies_hz)
        fy = self.psd.gy.evaluate(self.cfg.frequencies_hz)
        assert px_d == pytest.approx(1e9 * float(np.sum(fx)), rel=1e-15)
        assert py_d == pytest.approx(1e9 * float(np.sum(fy)), rel=1e-15)
        # close to the continuous powers but not equal (grid quantization)
        assert px_d == pytest.approx(self.psd.px_hat, rel=0.2)

    def test_zero_partner_reduces_weight_to_2px(self):
        psd = DualPolPsd(self.psd.gx, zero_shape(), 1e-3)
        px_d, py_d = discrete_powers(self.cfg, psd)
        assert py_d == 0
        self.assert_erp1_subtracts(psd, 2.0 * px_d)


class TestEstimator:
    def setup_method(self):
        self.kernel = span_kernel()
        self.psd = DualPolPsd(RectangularPsd(0.0, 9e9, 1.0),
                              RectangularPsd(1e9, 6e9, 0.5), 1e-3)

    def cfg(self, **kwargs):
        base = dict(spacing_hz=1e9, num_lines=16, num_trials=40, seed=5)
        return TrialConfig(**{**base, **kwargs})

    def test_pass_through_recovers_input_psd(self):
        # the estimator normalization applied to the raw lines gives Ghat(k f0)
        cfg = self.cfg(num_trials=3000)
        ghat = self.psd.gx.evaluate(cfg.frequencies_hz)
        lines = draw_block(cfg, self.psd, 0, cfg.num_trials)[0]
        values = cfg.spacing_hz * np.abs(lines) ** 2
        mean = values.mean(axis=0)
        stderr = values.std(axis=0, ddof=1) / math.sqrt(cfg.num_trials)
        on = ghat > 0
        assert np.all(np.abs(mean[on] - ghat[on]) < 4.0 * stderr[on])
        assert np.all(mean[~on] == 0)

    def test_single_trial_zero_input(self):
        cfg = self.cfg(num_trials=1)
        psd = DualPolPsd(zero_shape(), zero_shape(), 1e-3)
        est = estimate_nli_psd(cfg, psd, self.kernel)
        assert est.num_trials == 1
        assert np.all(est.mean == 0)
        assert np.all(est.stderr == 0)

    def test_coverage_violation_raises_before_any_trial(self):
        # a ruinous trial count proves the check runs up front
        cfg = self.cfg(num_lines=8, num_trials=10**9)
        with pytest.raises(ConfigError, match="grid half-extent"):
            estimate_nli_psd(cfg, self.psd, self.kernel)

    def test_coverage_boundary_accepted(self):
        cfg = self.cfg()
        validate_grid_coverage(
            cfg, DualPolPsd(RectangularPsd(0.0, 32e9 / 3.0, 1.0),
                            zero_shape(), 1e-3))

    def test_thread_count_cannot_change_results(self, tmp_path):
        # the per-shift GEMMs run on the BLAS pool: a pool of 1 and of 2 must
        # give the same bits.  The 41-line X support makes the full 256-trial
        # chunks large enough for OpenBLAS to split them across threads.
        src = os.path.dirname(os.path.dirname(gnmodel.__file__))
        results = []
        for pool in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": pool,
                   "OMP_NUM_THREADS": pool,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH"))))}
            out = tmp_path / f"blas{pool}.npz"
            subprocess.run([sys.executable, "-c", BLAS_POOL_SCRIPT, str(out)],
                           env=env, check=True, timeout=120)
            with np.load(out) as arrays:
                results.append([arrays[k] for k in sorted(arrays.files)])
        one, two = results
        assert len(one) == 6
        for a, b in zip(one, two):
            np.testing.assert_array_equal(a, b)

    @settings(max_examples=25)
    @given(gx=oracle_shapes(), gy=oracle_shapes(),
           seed=st.integers(0, 2**64 - 1), trials=st.integers(1, 6),
           mode=st.sampled_from(["rp1", "erp1"]))
    @example(gx=RectangularPsd(0.0, 9e9, 1.0),
             gy=RectangularPsd(1e9, 6e9, 0.5), seed=5, trials=64, mode="rp1")
    def test_polarization_swap_is_exact(self, gx, gy, seed, trials, mode):
        cfg = self.cfg(num_trials=trials, seed=seed, mode=mode)
        psd = DualPolPsd(gx, gy, 1e-3)
        direct = estimate_nli_psd(cfg, psd, self.kernel, polarization="y")
        swapped = estimate_nli_psd(cfg, psd.swapped(), self.kernel,
                                   polarization="x")
        np.testing.assert_array_equal(direct.mean, swapped.mean)
        np.testing.assert_array_equal(direct.stderr, swapped.stderr)
        with pytest.raises(ValueError, match="polarization"):
            estimate_nli_psd(cfg, self.psd, self.kernel, polarization="z")

    def test_mode_selects_the_paired_component(self):
        cfg_rp1 = self.cfg(mode="rp1")
        cfg_erp1 = self.cfg(mode="erp1")
        paired = run_paired_trials(cfg_rp1, self.psd, self.kernel)
        np.testing.assert_array_equal(
            estimate_nli_psd(cfg_rp1, self.psd, self.kernel).mean,
            paired.rp1.mean)
        np.testing.assert_array_equal(
            estimate_nli_psd(cfg_erp1, self.psd, self.kernel).mean,
            paired.erp1.mean)


class TestInBandMask:
    def test_margin_trims_support_edges(self):
        f = np.arange(-8, 9) * 1e9
        shape = RectangularPsd(1e9, 10e9, 1.0)  # support [-4e9, 6e9]
        mask = in_band_mask(f, shape, edge_margin=0.1)
        # keep |f - 1e9| <= 4.5e9, i.e. -3.5e9 .. 5.5e9
        expected = (f >= -3.5e9 - 1) & (f <= 5.5e9 + 1)
        np.testing.assert_array_equal(mask, expected)

    def test_zero_margin_keeps_full_support(self):
        f = np.arange(-8, 9) * 1e9
        mask = in_band_mask(f, RectangularPsd(0.0, 8e9, 1.0), edge_margin=0.0)
        np.testing.assert_array_equal(mask, np.abs(f) <= 4e9)


class TestInBandVerdict:
    def verdict(self, edge_margin, shape=RectangularPsd(0.0, 40e9, 1.0)):
        cfg = TrialConfig(spacing_hz=1e9, num_lines=40, num_trials=2, seed=0,
                          edge_margin=edge_margin)
        f = cfg.frequencies_hz
        # z = 10 at +-19 and +-20 GHz, 3 (within) at 0, 4 at 5 GHz
        mean = np.where(np.abs(f) >= 19e9, 10.0, 0.0)
        mean[f == 0] = 3.0
        mean[f == 5e9] = 4.0
        estimate = PsdEstimate(f, mean, np.ones_like(f), 2)
        return in_band_verdict(cfg, shape, estimate, np.zeros_like(f))

    def test_reads_the_edge_margin_and_counts_z_3_as_within(self):
        # |f| <= 18 GHz: 36 of 37 within, and 36 >= 0.95 * 37
        assert self.verdict(0.1) == (36, 37, 4.0, True)
        # the whole support: 36 of 41, below 0.95 * 41 = 38.95
        assert self.verdict(0.0) == (36, 41, 10.0, False)

    def test_no_in_band_point_is_an_error(self):
        with pytest.raises(ValueError):
            self.verdict(0.1, RectangularPsd(0.5e9, 0.5e9, 1.0))


class TestEdgeOnLine:
    """Pins a known defect rather than hiding it: a line that falls exactly
    on a rectangle's edge gets amplitude 0 (``evaluate`` tests |x| < B/2
    strictly), so the grid loses one line per edge and the line powers fall
    short of the continuous ones, a gap first order in f0.  On the demo
    rectangles (X 31 GHz, Y 21 GHz) the edges are at ±15.5 and ±10.5 GHz:
    between lines at f0 = 1 GHz, on lines at f0 = 0.5 GHz.  A mend (line
    powers from cell-averaged PSDs) moves every Monte Carlo output and needs
    its own change; the spacing here must not move to hide the gap."""

    PSD = DualPolPsd(RectangularPsd(0.0, 31e9, 1.0),
                     RectangularPsd(0.0, 21e9, 0.6), 1e-3)

    @pytest.mark.parametrize("spacing_hz, num_lines, lines, powers", [
        (0.5e9, 128, (61, 41), (30.5e9, 12.3e9)),
        (1e9, 64, (31, 21), (31e9, 12.6e9)),
    ])
    def test_lines_and_powers(self, spacing_hz, num_lines, lines, powers):
        cfg = TrialConfig(spacing_hz=spacing_hz, num_lines=num_lines,
                          num_trials=1, seed=0)
        kept = [np.count_nonzero(_line_amplitudes(cfg, shape))
                for shape in (self.PSD.gx, self.PSD.gy)]
        assert kept == list(lines)
        assert discrete_powers(cfg, self.PSD) == pytest.approx(powers,
                                                               rel=1e-12)

    def test_edge_lines_are_dropped(self):
        cfg = TrialConfig(spacing_hz=0.5e9, num_lines=128, num_trials=1,
                          seed=0)
        amps = _line_amplitudes(cfg, self.PSD.gx)
        edge = np.abs(cfg.grid_indices) == 31     # ±15.5 GHz
        assert np.all(amps[edge] == 0)
        assert np.all(amps[np.abs(cfg.grid_indices) < 31] > 0)
        assert (self.PSD.px_hat, self.PSD.py_hat) == pytest.approx(
            (31e9, 12.6e9), rel=1e-15)
