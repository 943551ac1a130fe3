"""Acceptance gate: the seven end-to-end criteria, one test each.

Each test computes its verdict, records a CRITERION line for the terminal
summary, then asserts.  Tolerances and trial counts are fixed here and must
not be loosened; seeds are pre-registered constants.

Criteria 4 and 5 judge the Monte Carlo against its exact mean at the line
spacing f0 (``expected_request``), so no quadrature bias enters the
verdict: all 27 in-band points lie within 3 stderr, worst z 2.29 (RP1),
1.86 (DP-ERP1) and 2.19 (the paired difference).  That the exact mean
approaches the continuum GN integral is ``test_gn_oracle.TestLatticeLimit``.
"""
import math
import textwrap
import time

import numpy as np
import pytest

from conftest import record_criterion
from gnmodel import (DualPolPsd, GnRequest, KernelModel, LinkProfile,
                     RectangularPsd, Span, StationaryProcessSet, TrialConfig,
                     expected_request, in_band_verdict, kernel_closed_form,
                     kernel_quadrature, nli_psd_x, normalized_kernel,
                     phase_term_coefficient, run_paired_trials,
                     theorem2_check, theorem3_discrete_check)
from gnmodel.cli import run

ALPHA = 0.2 * math.log(10.0) / 1.0e4   # 0.2 dB/km in 1/m
MC_SEED = 20260823
MOMENT_SEED = 424242


def test_criterion_1_kernel_cross_validation():
    spans = (
        Span(length_m=80e3, alpha_per_m=ALPHA, beta2_s2_per_m=-21.7e-27,
             gamma_per_w_m=1.3e-3, lumped_gain_db=16.0),
        Span(length_m=60e3, alpha_per_m=1.25 * ALPHA, beta2_s2_per_m=5.1e-27,
             gamma_per_w_m=1.8e-3, lumped_gain_db=15.0),
        Span(length_m=100e3, alpha_per_m=0.9 * ALPHA, beta2_s2_per_m=-16.0e-27,
             gamma_per_w_m=1.1e-3, lumped_gain_db=18.0),
    )
    model = KernelModel(link=LinkProfile(spans=spans, xi_pre_s2=3.0e-24))
    grid = np.logspace(16.0, math.log10(3.0e22), 200)

    start = time.perf_counter()
    closed = kernel_closed_form(model, grid)
    worst = 0.0
    for f, c in zip(grid, closed):
        q = kernel_quadrature(model, float(f))
        worst = max(worst, abs(q - complex(c)) / abs(complex(c)))
    elapsed = time.perf_counter() - start

    eta0 = normalized_kernel(model, 0.0)
    hermitian = float(np.max(np.abs(kernel_closed_form(model, -grid)
                                    - np.conj(closed)) / np.abs(closed)))
    ok = (worst <= 1e-9 and eta0 == 1.0 + 0.0j and hermitian <= 1e-12
          and elapsed < 5.0)
    record_criterion(
        1, ok,
        f"3-span link, 200 log-spaced F: closed form vs quadrature worst rel "
        f"{worst:.2e} (limit 1e-09); eta(0) == 1 exact: "
        f"{eta0 == 1.0 + 0.0j}; Hermitian residual {hermitian:.1e} "
        f"(limit 1e-12); {elapsed:.1f} s (limit 5 s)")
    assert worst <= 1e-9
    assert eta0 == 1.0 + 0.0j
    assert hermitian <= 1e-12
    assert elapsed < 5.0


def test_criterion_2_zero_dispersion_oracle():
    bandwidth, g0 = 32e9, 1.3
    span = Span(length_m=80e3, alpha_per_m=ALPHA, beta2_s2_per_m=0.0,
                gamma_per_w_m=1.3e-3)
    model = KernelModel(link=LinkProfile(spans=(span,)))
    psd = DualPolPsd(RectangularPsd(0.0, bandwidth, g0),
                     RectangularPsd(0.0, 1.0, 0.0), 1e-3)
    request = GnRequest(psd=psd, kernel=model, output_grid_hz=np.array([0.0]),
                        inner_grid_step_hz=bandwidth / 1024.0,
                        include_phase_term=False)

    start = time.perf_counter()
    result = nli_psd_x(request)
    elapsed = time.perf_counter() - start

    analytic = 2.0 * 0.75 * g0**3 * bandwidth**2
    rel = abs(float(result.spm[0]) - analytic) / analytic
    ok = rel <= 1e-3 and elapsed < 10.0
    record_criterion(
        2, ok,
        f"zero-dispersion spm(0) = {float(result.spm[0]):.6e} vs hexagonal "
        f"overlap 1.5*G0^3*B^2 = {analytic:.6e}: rel {rel:.2e} "
        f"(limit 1e-03); {elapsed:.1f} s (limit 10 s)")
    assert rel <= 1e-3
    assert elapsed < 10.0


def test_criterion_3_phase_term_identity():
    rng = np.random.default_rng(MC_SEED)
    worst = 0.0
    for _ in range(1000):
        px, py = rng.uniform(0.0, 5.0, size=2)
        expected = 4.0 * px**2 + 4.0 * px * py + py**2
        got = phase_term_coefficient(px, py)
        worst = max(worst, abs(got - expected) / expected)
    ok = worst < 1e-13
    record_criterion(
        3, ok,
        f"(2Px+Py)^2 vs 4Px^2+4PxPy+Py^2 on 1000 random nonnegative pairs: "
        f"worst rel {worst:.1e} (machine precision)")
    assert worst < 1e-13


@pytest.fixture(scope="module")
def mc_run():
    """Criterion 4/5 workload: one paired 2000-trial run and its exact
    finite-f0 mean, the GN engine on cells centred on the lines."""
    span = Span(length_m=80e3, alpha_per_m=ALPHA, beta2_s2_per_m=-21.7e-27,
                gamma_per_w_m=1.3e-3)
    model = KernelModel(link=LinkProfile(spans=(span,)))
    psd = DualPolPsd(RectangularPsd(0.0, 31e9, 1.0),
                     RectangularPsd(0.0, 21e9, 0.6), 1e-3)
    cfg = TrialConfig(spacing_hz=1e9, num_lines=64, num_trials=2000,
                      seed=MC_SEED)
    paired = run_paired_trials(cfg, psd, model)
    exact = nli_psd_x(expected_request(cfg, psd, model))

    def verdict(estimate, reference):
        return in_band_verdict(cfg, psd.gx, estimate, reference)

    return {"paired": paired, "exact": exact, "verdict": verdict}


def test_criterion_4_rp1_matches_gn_with_phase(mc_run):
    hits, total, worst, ok = mc_run["verdict"](mc_run["paired"].rp1,
                                               mc_run["exact"].total)
    record_criterion(
        4, ok,
        f"RP1 Monte Carlo (M=64, 2000 trials) vs its exact finite-f0 mean "
        f"with phase term: {hits}/{total} in-band points within 3 stderr "
        f"(need >= 95%), worst z {worst:.2f}")
    assert ok


def test_criterion_5_erp1_cancels_phase_term(mc_run):
    exact = mc_run["exact"]
    hits, total, worst, ok = mc_run["verdict"](mc_run["paired"].erp1,
                                               exact.spm + exact.xpolm)
    d_hits, d_total, d_worst, d_ok = mc_run["verdict"](
        mc_run["paired"].difference, exact.phase)
    record_criterion(
        5, ok and d_ok,
        f"DP-ERP1 vs its exact finite-f0 mean without phase term: "
        f"{hits}/{total} within 3 stderr (worst z {worst:.2f}); paired "
        f"RP1-ERP1 difference vs Gx(k f0)(2Px+Py)^2 of the line powers: "
        f"{d_hits}/{d_total} within 3 stderr "
        f"(worst z {d_worst:.2f})")
    assert ok
    assert d_ok


# wrong references the criterion 4/5 verdict must reject on the same draws:
# (estimate, reference built from the terms of the exact mean).  In-band
# points within 3 stderr: 15, 13, 14, 3 and 0 of 27.  Scaling XPolM by 0.5
# stays inside the rule (26 of 27 points, worst z 3.13): the 3-sigma rule
# barely sees XPolM, which is 9.8 % of the in-band SPM + XPolM on this link.
NEGATIVE_CONTROLS = [
    pytest.param("erp1", lambda mean: 0.9 * mean.spm + mean.xpolm,
                 id="erp1-vs-0.9spm+xpolm"),
    pytest.param("erp1", lambda mean: 0.9 * (mean.spm + mean.xpolm),
                 id="erp1-vs-0.9(spm+xpolm)"),
    pytest.param("erp1", lambda mean: mean.spm, id="erp1-vs-spm-alone"),
    pytest.param("difference", lambda mean: 0.9 * mean.phase,
                 id="difference-vs-0.9phase"),
    pytest.param("rp1", lambda mean: mean.spm + mean.xpolm,
                 id="rp1-vs-no-phase"),
    pytest.param("erp1", lambda mean: mean.spm + 0.5 * mean.xpolm,
                 id="erp1-vs-spm+0.5xpolm",
                 marks=pytest.mark.xfail(
                     strict=True, reason="known blind spot: the rule accepts "
                     "0.5 x XPolM (26/27)")),
]


@pytest.mark.parametrize("estimate, reference", NEGATIVE_CONTROLS)
def test_verdict_rejects_wrong_reference(mc_run, estimate, reference):
    verdict = mc_run["verdict"](getattr(mc_run["paired"], estimate),
                                reference(mc_run["exact"]))
    assert verdict.passed is False, verdict


def test_criterion_6_moment_theorems():
    start = time.perf_counter()
    rep_k2 = theorem2_check(2, num_ensembles=20, trials=10**6,
                            seed=MOMENT_SEED)
    rep_k3 = theorem2_check(3, num_ensembles=20, trials=10**6,
                            seed=MOMENT_SEED)
    processes = StationaryProcessSet.random(6, 4, 32, MOMENT_SEED + 997)
    rep_t3 = theorem3_discrete_check(processes, trials=200_000,
                                     seed=MOMENT_SEED)
    elapsed = time.perf_counter() - start

    ok = rep_k2.all_passed and rep_k3.all_passed and rep_t3.all_passed
    record_criterion(
        6, ok,
        f"CGMT k=2: {len(rep_k2.checks)} checks max_z {rep_k2.max_z:.2f}; "
        f"k=3: {len(rep_k3.checks)} checks max_z {rep_k3.max_z:.2f} "
        f"(20 ensembles, 1e6 samples, incl. 2s^4/6s^6 classics); theorem 3 "
        f"N=32: {len(rep_t3.checks)} configs max_z {rep_t3.max_z:.2f} "
        f"(diagonal terms, off-diagonal null, X/Y two-term survival); all "
        f"within 4 stderr; {elapsed:.0f} s")
    for report in (rep_k2, rep_k3, rep_t3):
        failing = [(c.name, c.z_score) for c in report.checks if not c.passed]
        assert report.all_passed, failing


@pytest.fixture(scope="module")
def cli_config(tmp_path_factory):
    text = """
    link:
      spans:
        - length_km: 80.0
          alpha_db_per_km: 0.2
          beta2_ps2_per_km: -21.7
          gamma_per_w_km: 1.3
    signal:
      p0_w: 1.0e-3
      x:
        kind: rectangular
        bandwidth_hz: 31.0e9
        height: 1.0
      y:
        kind: rectangular
        bandwidth_hz: 21.0e9
        height: 0.6
    montecarlo:
      num_lines: 64
      spacing_hz: 1.0e9
      num_trials: 2000
      seed: 20260823
    moments:
      trials: 200000
      seed: 424242
    """
    path = tmp_path_factory.mktemp("c7") / "acceptance.yaml"
    path.write_text(textwrap.dedent(text))
    return str(path)


def test_criterion_7_thread_count_byte_identity(cli_config, tmp_path_factory):
    outdir = tmp_path_factory.mktemp("c7-out")
    reruns = [
        ("mc-rp1", ["montecarlo", "--mode", "rp1"]),
        ("mc-erp1", ["montecarlo", "--mode", "erp1"]),
        ("moments-t3", ["moments", "--theorem", "3"]),
        ("moments-t2k2", ["moments", "--theorem", "2", "--k", "2",
                          "--trials", "1000000"]),
        ("moments-t2k3", ["moments", "--theorem", "2", "--k", "3",
                          "--trials", "1000000"]),
    ]
    identical = {}
    for name, extra in reruns:
        contents = []
        for threads in ("1", "4"):
            out = outdir / f"{name}-threads{threads}.csv"
            code = run(["--config", cli_config, "--output", str(out),
                        "--threads", threads] + extra)
            assert code == 0, f"{name} with --threads {threads} exited {code}"
            contents.append(out.read_bytes())
        identical[name] = contents[0] == contents[1]
    ok = all(identical.values())
    record_criterion(
        7, ok,
        "criteria 4-6 reruns via the CLI byte-identical for --threads 1 vs "
        "4: " + ", ".join(f"{n}={'yes' if v else 'NO'}"
                          for n, v in identical.items()))
    assert ok, identical
