"""Monte Carlo line model: draws, perturbation maps, estimators, invariants.

The perturbation map is checked against a literal triple loop over parent
line indices written straight from the discrete RP1 formula, with scalar
kernel lookups and a different summation order than the library's
per-shift GEMMs.
"""
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gnmodel
from gnmodel import (ConfigError, DualPolPsd, KernelModel, LinkProfile,
                     RaisedCosinePsd, RectangularPsd, Span, SpectralField,
                     TrialConfig, discrete_powers, draw_field,
                     erp1_perturbation, estimate_nli_psd, in_band_mask,
                     normalized_kernel, rp1_perturbation, run_paired_trials,
                     validate_grid_coverage)
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


class TestTrialConfig:
    def test_rejects_bad_parameters(self):
        good = dict(spacing_hz=1e9, num_lines=16, num_trials=10, seed=1)
        for spacing in (0.0, math.inf):
            with pytest.raises(ConfigError, match="spacing"):
                TrialConfig(**{**good, "spacing_hz": spacing})
        with pytest.raises(ConfigError, match="even"):
            TrialConfig(**{**good, "num_lines": 15})
        with pytest.raises(ConfigError, match="even"):
            TrialConfig(**{**good, "num_lines": 6})
        with pytest.raises(ConfigError, match="num_trials"):
            TrialConfig(**{**good, "num_trials": 0})
        with pytest.raises(ConfigError, match="seed"):
            TrialConfig(**{**good, "seed": -1})
        with pytest.raises(ConfigError, match="seed"):
            TrialConfig(**{**good, "seed": 2**64})
        with pytest.raises(ConfigError, match="mode"):
            TrialConfig(**{**good, "mode": "rp2"})
        with pytest.raises(ConfigError, match="margin"):
            TrialConfig(**{**good, "edge_margin": 0.5})

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
        a = draw_field(cfg, psd, 3)
        b = draw_field(cfg, psd, 3)
        np.testing.assert_array_equal(a.lines_x, b.lines_x)
        np.testing.assert_array_equal(a.lines_y, b.lines_y)
        c = draw_field(cfg, psd, 4)
        assert not np.array_equal(a.lines_x, c.lines_x)
        np.testing.assert_allclose(a.frequencies_hz, cfg.frequencies_hz,
                                   rtol=0, atol=0)

    def test_zero_psd_gives_zero_lines(self):
        cfg = TrialConfig(spacing_hz=1e9, num_lines=16, num_trials=1, seed=7)
        psd = DualPolPsd(zero_shape(), RectangularPsd(0.0, 6e9, 0.5), 1e-3)
        field = draw_field(cfg, psd, 0)
        assert np.all(field.lines_x == 0)
        assert np.any(field.lines_y != 0)

    def test_line_statistics_match_psd(self):
        # normalized lines xi_k = line_k / sqrt(Ghat/f0) are standard circular
        # Gaussian: E|xi|^2 = 1 (Var 1) and E[xi^2] = 0, checked at 4 sigma
        cfg = TrialConfig(spacing_hz=1e9, num_lines=16, num_trials=1, seed=42)
        psd = DualPolPsd(RectangularPsd(0.0, 9e9, 1.3), zero_shape(), 1e-3)
        support = np.abs(cfg.frequencies_hz) < 4.5e9
        trials = 8000
        sq = np.empty((trials, int(support.sum())))
        raw = np.empty_like(sq, dtype=complex)
        for t in range(trials):
            xi = draw_field(cfg, psd, t).lines_x[support] / math.sqrt(1.3 / 1e9)
            sq[t] = np.abs(xi) ** 2
            raw[t] = xi**2
        n = sq.size
        assert abs(sq.mean() - 1.0) < 4.0 / math.sqrt(n)
        assert abs(raw.mean()) < 4.0 / math.sqrt(n)


class TestFieldStreams:
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
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

    def test_draw_field_uses_the_field_stream_keys(self):
        cfg = TrialConfig(spacing_hz=1e9, num_lines=16, num_trials=3, seed=11)
        psd = DualPolPsd(RectangularPsd(0.0, 9e9, 1.0),
                         RectangularPsd(1e9, 6e9, 0.5), 1e-3)
        amps = [np.sqrt(shape.evaluate(cfg.frequencies_hz) / cfg.spacing_hz)
                / math.sqrt(2.0) for shape in (psd.gx, psd.gy)]
        for t in range(cfg.num_trials):
            field = draw_field(cfg, psd, t)
            for lines, pol, amp in ((field.lines_x, POL_X, amps[0]),
                                    (field.lines_y, POL_Y, amps[1])):
                ref = complex_normals(field_stream(11, t, pol), 17) * amp
                np.testing.assert_array_equal(lines, ref)


class TestPerturbationOracle:
    def brute_force(self, field, kernel, psd, cfg):
        """Literal triple loop over parent indices i1, i2, i3 (i2 conjugated);
        i2 = i1 + i3 - i enforces the FWM frequency relation."""
        f0 = cfg.spacing_hz
        phi = psd.p0_w * kernel.k0.real
        x, y = field.lines_x, field.lines_y
        count = x.size
        out_x = np.zeros(count, dtype=complex)
        out_y = np.zeros(count, dtype=complex)
        for i in range(count):
            for i1 in range(count):
                for i3 in range(count):
                    i2 = i1 + i3 - i
                    if not 0 <= i2 < count:
                        continue
                    eta = normalized_kernel(
                        kernel, (i1 - i) * (i3 - i) * f0 * f0)
                    w = -1j * phi * f0 * f0 * eta
                    out_x[i] += w * (x[i1] * np.conj(x[i2]) * x[i3]
                                     + x[i1] * np.conj(y[i2]) * y[i3])
                    out_y[i] += w * (y[i1] * np.conj(y[i2]) * y[i3]
                                     + y[i1] * np.conj(x[i2]) * x[i3])
        return out_x, out_y

    def test_rp1_matches_triple_loop(self):
        cfg = TrialConfig(spacing_hz=1e9, num_lines=16, num_trials=1, seed=11)
        psd = DualPolPsd(RectangularPsd(0.0, 9e9, 1.0),
                         RaisedCosinePsd(1e9, 6e9, 0.3, 0.7), 1e-3)
        kernel = span_kernel()
        field = draw_field(cfg, psd, 5)
        pert = rp1_perturbation(field, kernel, cfg, psd)
        ref_x, ref_y = self.brute_force(field, kernel, psd, cfg)
        scale = np.max(np.abs(ref_x))
        np.testing.assert_allclose(pert.lines_x, ref_x, rtol=1e-12,
                                   atol=1e-14 * scale)
        np.testing.assert_allclose(pert.lines_y, ref_y, rtol=1e-12,
                                   atol=1e-14 * scale)

    def test_single_line_closed_form(self):
        # only k = 0 populated: U(0) = -j Phi_NL |X0|^2 X0 f0^2 (eta(0) = 1)
        cfg = TrialConfig(spacing_hz=1e9, num_lines=16, num_trials=1, seed=2)
        psd = DualPolPsd(RectangularPsd(0.0, 0.5e9, 1.7), zero_shape(), 2e-3)
        kernel = span_kernel()
        field = draw_field(cfg, psd, 0)
        half = cfg.half_lines
        x0 = field.lines_x[half]
        assert x0 != 0
        assert np.count_nonzero(field.lines_x) == 1
        pert = rp1_perturbation(field, kernel, cfg, psd)
        phi = 2e-3 * kernel.k0.real
        expected = -1j * phi * abs(x0) ** 2 * x0 * cfg.spacing_hz**2
        assert pert.lines_x[half] == pytest.approx(expected, rel=1e-14)
        others = np.delete(pert.lines_x, half)
        assert np.all(others == 0)
        assert np.all(pert.lines_y == 0)

    def test_three_lines_four_wave_mixing_product(self):
        # lines at k in {-2, 0, +2}: the only parent triple landing on k = 6
        # is (a, b, c) = (2, -2, 2), so U(6) = -j Phi f0^2 eta(16 f0^2) X2^2 X-2*
        cfg = TrialConfig(spacing_hz=1e9, num_lines=16, num_trials=1, seed=3)
        psd = DualPolPsd(RectangularPsd(0.0, 4.5e9, 1.0), zero_shape(), 1e-3)
        kernel = span_kernel()
        half = cfg.half_lines
        lines_x = np.zeros(cfg.num_lines + 1, dtype=complex)
        lines_x[half - 2] = 0.4 - 0.9j
        lines_x[half] = 1.1 + 0.2j
        lines_x[half + 2] = -0.3 + 0.8j
        field = SpectralField(cfg.spacing_hz, lines_x,
                              np.zeros_like(lines_x))
        pert = rp1_perturbation(field, kernel, cfg, psd)
        phi = 1e-3 * kernel.k0.real
        f0 = cfg.spacing_hz
        eta = normalized_kernel(kernel, (2 - 6) * (2 - 6) * f0 * f0)
        expected = -1j * phi * f0**2 * eta \
            * lines_x[half + 2] ** 2 * np.conj(lines_x[half - 2])
        assert pert.lines_x[half + 6] == pytest.approx(expected, rel=1e-13)
        # beyond +/- 6 nothing can mix
        assert np.all(pert.lines_x[half + 7:] == 0)
        assert np.all(pert.lines_x[: half - 7] == 0)


class TestErp1:
    def setup_method(self):
        self.cfg = TrialConfig(spacing_hz=1e9, num_lines=16, num_trials=1,
                               seed=9)
        self.psd = DualPolPsd(RectangularPsd(0.0, 9e9, 1.0),
                              RectangularPsd(1e9, 6e9, 0.5), 1e-3)
        self.kernel = span_kernel()

    def test_difference_to_rp1_is_phase_rotation_term(self):
        field = draw_field(self.cfg, self.psd, 1)
        rp1 = rp1_perturbation(field, self.kernel, self.cfg, self.psd)
        erp1 = erp1_perturbation(field, self.kernel, self.cfg, self.psd)
        phi = self.psd.p0_w * self.kernel.k0.real
        px_d, py_d = discrete_powers(self.cfg, self.psd)
        diff_x = erp1.lines_x - rp1.lines_x
        diff_y = erp1.lines_y - rp1.lines_y
        np.testing.assert_allclose(
            diff_x, 1j * phi * (2.0 * px_d + py_d) * field.lines_x,
            rtol=1e-12, atol=1e-15 * np.max(np.abs(diff_x)))
        np.testing.assert_allclose(
            diff_y, 1j * phi * (py_d * 2.0 + px_d) * field.lines_y,
            rtol=1e-12, atol=1e-15 * np.max(np.abs(diff_x)))

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
        field = draw_field(self.cfg, psd, 1)
        rp1 = rp1_perturbation(field, self.kernel, self.cfg, psd)
        erp1 = erp1_perturbation(field, self.kernel, self.cfg, psd)
        phi = psd.p0_w * self.kernel.k0.real
        px_d, _ = discrete_powers(self.cfg, psd)
        on = field.lines_x != 0
        ratio = (erp1.lines_x[on] - rp1.lines_x[on]) \
            / (1j * phi * field.lines_x[on])
        np.testing.assert_allclose(ratio, 2.0 * px_d, rtol=1e-12)


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
        values = np.empty((cfg.num_trials, cfg.num_lines + 1))
        for t in range(cfg.num_trials):
            lines = draw_field(cfg, self.psd, t).lines_x
            values[t] = cfg.spacing_hz * np.abs(lines) ** 2
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

    def test_polarization_swap_is_exact(self):
        cfg = self.cfg(num_trials=64)
        direct = estimate_nli_psd(cfg, self.psd, self.kernel,
                                  polarization="y")
        swapped = estimate_nli_psd(cfg, self.psd.swapped(), self.kernel,
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
