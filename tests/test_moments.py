"""Gaussian moment machinery: pairing sums, sampling, process sets, checks."""
import math

import numpy as np
import pytest

from gnmodel import (CheckReport, ConfigError, GaussianEnsemble, MomentSpec,
                     StationaryProcessSet, cgmt_sum, mc_moment,
                     theorem1_discrete_check, theorem2_check,
                     theorem3_discrete_check)
from gnmodel import moments
from gnmodel.moments import _score
from gnmodel.rng import complex_normals, moment_stream
from gnmodel.stats import mean_stderr


class TestGaussianEnsemble:
    def test_factor_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            GaussianEnsemble(factor=np.ones(3))
        with pytest.raises(ValueError, match="2-D"):
            GaussianEnsemble(factor=np.ones((0, 2)))
        with pytest.raises(ValueError, match="finite"):
            GaussianEnsemble(factor=np.array([[1.0, np.inf]]))

    def test_covariance_is_hermitian_psd(self):
        ens = GaussianEnsemble.random(5, 3, seed=1)
        cov = ens.covariance
        np.testing.assert_allclose(cov, cov.conj().T, rtol=0, atol=1e-15)
        assert np.linalg.eigvalsh(cov).min() > -1e-12

    def test_random_and_sample_reproducible(self):
        a = GaussianEnsemble.random(4, 4, seed=9)
        b = GaussianEnsemble.random(4, 4, seed=9)
        np.testing.assert_array_equal(a.factor, b.factor)
        np.testing.assert_array_equal(a.sample(50, seed=3), b.sample(50, seed=3))
        assert a.sample(50, seed=3).shape == (4, 50)
        assert not np.array_equal(a.sample(50, seed=3), a.sample(50, seed=4))

    def test_sample_covariance_converges(self):
        ens = GaussianEnsemble.random(3, 3, seed=5)
        u = ens.sample(200_000, seed=8)
        emp = (u @ u.conj().T) / u.shape[1]
        np.testing.assert_allclose(emp, ens.covariance, atol=0.05)
        # circularity: the pseudo-covariance E[U U^T] vanishes
        pseudo = (u @ u.T) / u.shape[1]
        assert np.max(np.abs(pseudo)) < 0.05


class TestMomentSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="same nonzero number"):
            MomentSpec(conjugated=(0, 1), unconjugated=(0,))
        with pytest.raises(ValueError, match="same nonzero number"):
            MomentSpec(conjugated=(), unconjugated=())
        assert MomentSpec((0, 1, 2), (2, 1, 0)).order == 3


def fourth_moment_identity(ensemble, indices) -> complex:
    """The k = 2 oracle of cgmt_sum:
    E[U_i1* U_i2* U_i3 U_i4] = E[U_i1* U_i3] E[U_i2* U_i4]
                             + E[U_i1* U_i4] E[U_i2* U_i3]."""
    i1, i2, i3, i4 = (int(i) for i in indices)
    cov = ensemble.covariance
    return cov[i3, i1] * cov[i4, i2] + cov[i4, i1] * cov[i3, i2]


class TestCgmtSum:
    def test_order_one_is_covariance_entry(self):
        ens = GaussianEnsemble.random(4, 4, seed=2)
        spec = MomentSpec(conjugated=(1,), unconjugated=(3,))
        # E[U1* U3] = cov[3, 1]
        assert cgmt_sum(ens, spec) == ens.covariance[3, 1]

    def test_rejects_large_order_and_bad_indices(self):
        ens = GaussianEnsemble.random(2, 2, seed=2)
        big = MomentSpec(conjugated=(0,) * 9, unconjugated=(0,) * 9)
        with pytest.raises(ValueError, match="budget"):
            cgmt_sum(ens, big)
        off = MomentSpec(conjugated=(0,), unconjugated=(2,))
        with pytest.raises(ValueError, match="outside"):
            cgmt_sum(ens, off)

    def test_fourth_moment_identity_is_the_k2_sum(self):
        for trial in range(100):
            ens = GaussianEnsemble.random(5, 3, seed=100 + trial)
            rng = np.random.default_rng(trial)
            i1, i2, i3, i4 = rng.integers(0, 5, size=4)
            spec = MomentSpec(conjugated=(int(i1), int(i2)),
                              unconjugated=(int(i3), int(i4)))
            assert cgmt_sum(ens, spec) == fourth_moment_identity(
                ens, (i1, i2, i3, i4))

    def test_independent_components_factorize(self):
        factor = np.diag([1.5, 0.5 + 0.5j]).astype(complex)
        ens = GaussianEnsemble(factor=factor)
        s0 = abs(factor[0, 0]) ** 2
        s1 = abs(factor[1, 1]) ** 2
        spec = MomentSpec(conjugated=(0, 1), unconjugated=(1, 0))
        # E[U0* U1* U1 U0] = s0 s1 (single surviving pairing)
        assert cgmt_sum(ens, spec) == pytest.approx(s0 * s1, rel=1e-14)

    def test_absolute_moment_classics(self):
        ens = GaussianEnsemble(factor=np.array([[0.7 - 0.2j, 0.1 + 0.9j]]))
        s2 = ens.covariance[0, 0].real
        for k, coeff in ((2, 2.0), (3, 6.0), (4, 24.0)):
            spec = MomentSpec(conjugated=(0,) * k, unconjugated=(0,) * k)
            value = cgmt_sum(ens, spec)
            assert value.real == pytest.approx(coeff * s2**k, rel=1e-13)
            assert abs(value.imag) < 1e-13 * value.real

    def test_slot_relabeling_invariance(self):
        ens = GaussianEnsemble.random(6, 4, seed=44)
        spec = MomentSpec(conjugated=(0, 2, 4), unconjugated=(1, 3, 5))
        base = cgmt_sum(ens, spec)
        for conj, unconj in (((2, 4, 0), (1, 3, 5)),
                             ((0, 2, 4), (5, 1, 3))):
            other = cgmt_sum(ens, MomentSpec(conj, unconj))
            assert other == pytest.approx(base, rel=1e-13)

    def test_self_adjoint_spec_is_real(self):
        ens = GaussianEnsemble.random(4, 4, seed=13)
        spec = MomentSpec(conjugated=(0, 1, 2), unconjugated=(0, 1, 2))
        value = cgmt_sum(ens, spec)
        assert abs(value.imag) < 1e-13 * abs(value.real)


class TestMcMoment:
    def test_needs_at_least_two_trials(self):
        ens = GaussianEnsemble.random(2, 2, seed=0)
        spec = MomentSpec((0,), (1,))
        with pytest.raises(ValueError, match="2 trials"):
            mc_moment(ens, spec, trials=1, seed=0)

    def test_reproducible(self):
        ens = GaussianEnsemble.random(3, 3, seed=6)
        spec = MomentSpec((0, 1), (2, 2))
        assert mc_moment(ens, spec, 500, seed=4) == mc_moment(ens, spec, 500, seed=4)

    @pytest.mark.parametrize("trials", [2000, 40_000])
    def test_slot_product_gives_the_running_product(self, trials):
        # the shared slot product keeps the bits of a running product from
        # ones, conjugated slots first, below and above NumPy's elision size
        ens = GaussianEnsemble.random(6, 6, seed=5)
        u = ens.sample(trials, seed=8)
        for k in (1, 2, 3):
            spec = MomentSpec(tuple(range(k)), tuple(range(k, 2 * k)))
            running = np.ones(trials, dtype=complex)
            for i in spec.conjugated:
                running *= np.conj(u[i])
            for i in spec.unconjugated:
                running *= u[i]
            (re, re_err), (im, im_err) = (mean_stderr(running.real),
                                          mean_stderr(running.imag))
            assert mc_moment(ens, spec, trials, seed=8) \
                == (complex(re, im), complex(re_err, im_err))

    def test_agrees_with_pairing_sum_within_4_sigma(self):
        for k, seed in ((2, 21), (3, 22)):
            ens = GaussianEnsemble.random(2 * k, 2 * k, seed=seed)
            spec = MomentSpec(conjugated=tuple(range(k)),
                              unconjugated=tuple(range(k, 2 * k)))
            exact = cgmt_sum(ens, spec)
            est, stderr = mc_moment(ens, spec, 40_000, seed=seed + 100)
            assert abs(est.real - exact.real) < 4.0 * stderr.real
            assert abs(est.imag - exact.imag) < 4.0 * stderr.imag

    def test_zero_component_gives_exact_zero(self):
        factor = np.array([[1.0 + 0.0j, 0.0], [0.0, 0.0]])
        ens = GaussianEnsemble(factor=factor)
        spec = MomentSpec(conjugated=(1, 1), unconjugated=(1, 1))
        assert cgmt_sum(ens, spec) == 0
        est, stderr = mc_moment(ens, spec, 100, seed=0)
        assert est == 0 and stderr == 0


class TestNormals:
    @pytest.mark.parametrize("shape", [(1,), (7,), (3, 4), (2, 3, 17), (0, 4),
                                       (64, 1000)])
    @pytest.mark.parametrize("seed", [0, 1, 31, 7919, 424242, 2**63 + 5])
    def test_equals_complex_division(self, seed, shape):
        # the real-arithmetic scale against the complex division it replaces
        want = complex_normals(moment_stream(seed, 0),
                               math.prod(shape)).reshape(shape)
        want /= math.sqrt(2.0)
        got = moments._normals(seed, *shape)
        assert got.shape == shape and got.dtype == complex
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestScoring:
    def test_empty_report(self):
        report = CheckReport()
        assert report.all_passed
        assert report.max_z == 0.0

    def test_zero_stderr_with_mismatch_fails(self):
        bad = _score("x", estimate=1.0 + 0j, stderr=0.0 + 0j, expected=0.0 + 0j)
        assert not bad.passed and math.isinf(bad.z_score)
        good = _score("x", estimate=0.0 + 0j, stderr=0.0 + 0j, expected=0.0 + 0j)
        assert good.passed and good.z_score == 0.0

    def test_formula_gap_fails_independent_of_z(self):
        res = _score("x", estimate=1.0 + 0j, stderr=1.0 + 1.0j,
                     expected=1.0 + 0j, formula_gap=1e-6, gap_scale=1.0)
        assert res.z_score == 0.0 and not res.passed


class TestStationaryProcessSet:
    def test_filter_validation(self):
        with pytest.raises(ValueError, match="shape"):
            StationaryProcessSet(filters=np.ones((2, 3)))
        with pytest.raises(ValueError, match="finite"):
            StationaryProcessSet(filters=np.full((1, 1, 4), np.nan))

    def test_spectrum_definition_and_symmetry(self):
        procs = StationaryProcessSet.random(3, 2, 16, seed=7)
        f = procs.filters
        for p in range(3):
            for q in range(3):
                hand = np.array([sum(f[p, s, n] * np.conj(f[q, s, n])
                                     for s in range(2)) for n in range(16)])
                np.testing.assert_allclose(procs.spectrum(p, q), hand,
                                           rtol=1e-14)
                np.testing.assert_allclose(procs.spectrum(p, q),
                                           np.conj(procs.spectrum(q, p)),
                                           rtol=1e-14)
        assert np.all(procs.spectrum(1, 1).real > 0)

    def test_lines_share_repeated_and_aliased_bins(self):
        procs = StationaryProcessSet.random(2, 2, 8, seed=3)
        pattern = (0, 0, 0, 0, 1, 1, 1, 1)
        bins = (5, 5, 13, 2) * 2                     # 13 mod 8 = 5
        ens, rows = procs.lines(pattern, bins)
        assert rows == [0, 0, 0, 1, 2, 2, 2, 3]
        values = ens.sample(9, seed=10)[rows]
        np.testing.assert_array_equal(values[0], values[1])
        np.testing.assert_array_equal(values[0], values[2])
        np.testing.assert_array_equal(values[4], values[6])
        assert not np.array_equal(values[0], values[3])
        assert not np.array_equal(values[0], values[4])
        again, _ = procs.lines(pattern, bins)
        np.testing.assert_array_equal(ens.factor, again.factor)

    def test_lines_have_one_row_per_distinct_line(self):
        procs = StationaryProcessSet.random(6, 4, 32, seed=1004)
        for pattern, bins in (((0, 0), (3, 3)), ((2, 1), (7, 20)),
                              ((0, 1, 2, 3, 4, 5), (7, 10, 10, 39, 12, 44)),
                              ((0,) * 6, (7,) * 6), ((0, 1, 1, 0, 1, 1),
                                                     (9, 11, 9, 10, 12, 9))):
            ens, rows = procs.lines(pattern, bins)
            lines = [(p, b % 32) for p, b in zip(pattern, bins)]
            assert ens.dimension == len(set(lines))
            assert sorted(set(rows)) == list(range(ens.dimension))
            for i, j in np.ndindex(len(lines), len(lines)):
                assert (rows[i] == rows[j]) == (lines[i] == lines[j])
            # the columns: every source at every distinct bin
            assert ens.factor.shape[1] == 4 * len({b % 32 for b in bins})

    def test_line_rows_equal_the_per_bin_contraction(self):
        # reference: every process contracted at every distinct bin with the
        # (sources, bins, trials) draws, then gathered back to slot order
        small = StationaryProcessSet.random(2, 2, 8, seed=3)
        big = StationaryProcessSet.random(6, 4, 32, seed=1004)
        for procs, pattern, bins, trials, seed in (
                (small, (1, 0, 1, 0), (5, 5, 13, 2), 9, 10),
                (big, (0, 1, 2, 3, 4, 5), (7, 10, 10, 39, 12, 44), 5000, 7919)):
            b = np.mod(np.asarray(bins), procs.grid_size)
            uniq, inverse = np.unique(b, return_inverse=True)
            sources = procs.filters.shape[1]
            w = complex_normals(moment_stream(seed, 0),
                                sources * uniq.size * trials)
            w = w.reshape(sources, uniq.size, trials)
            w /= math.sqrt(2.0)
            full = np.einsum("psu,sut->put", procs.filters[:, :, uniq],
                             w)[:, inverse, :]
            want = np.stack([full[p, slot] for slot, p in enumerate(pattern)])
            ens, rows = procs.lines(pattern, bins)
            got = ens.sample(trials, seed)[rows]
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_sample_statistics_match_spectra(self):
        procs = StationaryProcessSet.random(3, 4, 16, seed=31)
        trials = 60_000
        ens, rows = procs.lines((0, 1, 2), (6, 6, 6))
        values = ens.sample(trials, seed=77)[rows]
        for p in range(3):
            for q in range(3):
                prod = values[p] * np.conj(values[q])
                stderr = max(prod.real.std(ddof=1), prod.imag.std(ddof=1)) \
                    / math.sqrt(trials)
                expected = complex(procs.spectrum(p, q)[6])
                assert abs(complex(prod.mean()) - expected) < 5.0 * stderr
                np.testing.assert_allclose(ens.covariance[p, q], expected,
                                           rtol=1e-14)

    def test_independent_pair_has_zero_cross_spectrum(self):
        procs = StationaryProcessSet.independent_pair(32, seed=5)
        assert np.all(procs.spectrum(0, 1) == 0)
        assert np.all(procs.spectrum(0, 0).real > 0)
        assert np.all(procs.spectrum(1, 1).real > 0)

    def test_independent_white_is_identity_spectrum(self):
        procs = StationaryProcessSet.independent_white(4, 16)
        for p in range(4):
            for q in range(4):
                expected = 1.0 if p == q else 0.0
                np.testing.assert_array_equal(procs.spectrum(p, q),
                                              np.full(16, expected))


class TestTheoremChecks:
    def test_theorem1_battery_passes(self):
        procs = StationaryProcessSet.random(3, 4, 32, seed=911)
        report = theorem1_discrete_check(procs, trials=40_000, seed=100)
        assert len(report.checks) == 4
        assert report.all_passed, [c.name for c in report.checks if not c.passed]
        by_name = {c.name: c for c in report.checks}
        for null in ("t1-auto-offdiagonal", "t1-cross-offdiagonal"):
            # +0j, not a product's -0.0
            assert str(by_name[null].expected) == "0j"
        assert by_name["t1-auto-diagonal"].expected.real > 0
        # CGMT on the sampled line ensemble agrees with G_pq(nu) kron(nu-mu)
        for c in report.checks:
            assert c.formula_gap <= 1e-10 * max(abs(c.expected), 1.0)

    @pytest.mark.parametrize("grid_size,name", [
        (6, "t1-auto-offdiagonal"), (13, "t1-cross-offdiagonal")])
    def test_theorem1_rejects_aliased_offdiagonal_bins(self, grid_size, name):
        # bins 3 and 9 share a line at N = 6, bins 7 and 20 at N = 13: the
        # off-diagonal null would read one line and test nothing
        procs = StationaryProcessSet.random(6, 4, grid_size, seed=911)
        with pytest.raises(ConfigError, match=f"grid size {grid_size} .*{name}"):
            theorem1_discrete_check(procs, trials=100, seed=0)

    def test_wrong_line_factor_fails_formula_gap(self, monkeypatch):
        # a line ensemble built wrong (one source column scaled) is caught by
        # CGMT on that ensemble against the literal formula, whatever z says
        procs = StationaryProcessSet.random(6, 4, 32, seed=515)
        right = StationaryProcessSet.lines

        def wrong(self, pattern, bins):
            ens, rows = right(self, pattern, bins)
            factor = ens.factor.copy()
            factor[:, 0] *= 1.01
            return GaussianEnsemble(factor=factor), rows

        monkeypatch.setattr(StationaryProcessSet, "lines", wrong)
        for check in (theorem1_discrete_check, theorem3_discrete_check):
            report = check(procs, trials=200, seed=4000)
            for c in report.checks:
                if c.expected != 0:
                    assert c.formula_gap > 1e-4 * abs(c.expected), c.name
                    assert not c.passed, c.name

    def test_theorem1_thread_count_is_invisible(self):
        procs = StationaryProcessSet.random(3, 4, 32, seed=911)
        one, three = (theorem1_discrete_check(procs, trials=4000, seed=100,
                                              threads=threads)
                      for threads in (1, 3))
        assert [c.name for c in three.checks] == [c.name for c in one.checks]
        for a, b in zip(one.checks, three.checks):
            assert (b.estimate, b.stderr) == (a.estimate, a.stderr)

    def test_theorem2_k_bounds(self):
        # the engine's own limits: no slot pair, and the permutation budget
        with pytest.raises(ValueError, match="same nonzero number"):
            theorem2_check(0, num_ensembles=1, trials=100, seed=0)
        with pytest.raises(ValueError, match="exceeds the permutation budget"):
            theorem2_check(9, num_ensembles=1, trials=100, seed=0)

    def test_theorem2_battery_passes(self):
        report = theorem2_check(2, num_ensembles=3, trials=60_000, seed=2024)
        assert len(report.checks) == 5  # 3 ensembles + two classics
        assert report.all_passed, [(c.name, c.z_score) for c in report.checks]
        classics = [c for c in report.checks if "abs-moment" in c.name]
        assert len(classics) == 2
        for c in classics:
            assert c.formula_gap <= 1e-10 * abs(c.expected)

    def test_theorem3_input_validation(self):
        small_grid = StationaryProcessSet.random(6, 2, 16, seed=0)
        with pytest.raises(ConfigError, match="grid size"):
            theorem3_discrete_check(small_grid, trials=100, seed=0)
        few = StationaryProcessSet.random(4, 2, 32, seed=0)
        with pytest.raises(ConfigError, match="6 processes"):
            theorem3_discrete_check(few, trials=100, seed=0)

    def test_theorem3_battery_passes(self):
        procs = StationaryProcessSet.random(6, 4, 32, seed=515)
        report = theorem3_discrete_check(procs, trials=30_000, seed=4000)
        assert len(report.checks) == 14
        assert report.all_passed, [(c.name, c.z_score, c.formula_gap)
                                   for c in report.checks if not c.passed]
        by_name = {c.name: c for c in report.checks}
        for null in ("t3-offdiagonal", "t3-diag-no-delta", "t3-xy-dead-delta",
                     "t3-white-independent"):
            assert by_name[null].expected == 0
        assert by_name["t3-all-equal-6G3"].expected != 0
        # every expected value is double-checked against the pairing sum
        for c in report.checks:
            assert c.formula_gap <= 1e-10 * max(abs(c.expected), 1.0)

    def test_theorem2_thread_count_cannot_change_results(self):
        one = theorem2_check(3, num_ensembles=5, trials=2000, seed=7, threads=1)
        three = theorem2_check(3, num_ensembles=5, trials=2000, seed=7,
                               threads=3)
        assert len(one.checks) == len(three.checks) == 7
        for a, b in zip(one.checks, three.checks):
            assert a.name == b.name
            assert a.estimate == b.estimate
            assert a.stderr == b.stderr

    def test_theorem3_thread_count_cannot_change_results(self):
        procs = StationaryProcessSet.random(6, 2, 32, seed=21)
        one = theorem3_discrete_check(procs, trials=2000, seed=7, threads=1)
        three = theorem3_discrete_check(procs, trials=2000, seed=7, threads=3)
        for a, b in zip(one.checks, three.checks):
            assert a.name == b.name
            assert a.estimate == b.estimate
            assert a.stderr == b.stderr
