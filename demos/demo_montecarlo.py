"""Monte Carlo check of the GN-model PSD over Gaussian spectral lines.

Draws dual-polarization fields of M+1 circular-Gaussian lines, applies the
first-order perturbation map in both RP1 and DP-ERP1 modes, and compares
the estimated NLI PSDs against their exact mean at the line spacing f0,
with and without the phase-rotation term.  By CGMT that mean is the GN
model on cells of width f0 centred on the lines.  The paired per-trial
difference isolates the phase term itself.  Exits 1 if a comparison fails.

Run:  python3 demos/demo_montecarlo.py     (about a second)
"""
import math
import sys

from gnmodel import (DualPolPsd, KernelModel, LinkProfile, RectangularPsd,
                     Span, TrialConfig, expected_request, in_band_verdict,
                     nli_psd_x, run_paired_trials)

ALPHA = 0.2 * math.log(10.0) / 1.0e4


def main():
    span = Span(length_m=80e3, alpha_per_m=ALPHA, beta2_s2_per_m=-21.7e-27,
                gamma_per_w_m=1.3e-3)
    model = KernelModel(link=LinkProfile(spans=(span,)))
    psd = DualPolPsd(gx=RectangularPsd(0.0, 31e9, 1.0),
                     gy=RectangularPsd(0.0, 21e9, 0.6),
                     p0_w=1e-3)
    cfg = TrialConfig(spacing_hz=1e9, num_lines=64, num_trials=1500,
                      seed=20260823)
    print(f"M = {cfg.num_lines} line spacings at f0 = "
          f"{cfg.spacing_hz / 1e9:.1f} GHz, {cfg.num_trials} trials, "
          f"seed {cfg.seed}")

    paired = run_paired_trials(cfg, psd, model)
    exact = nli_psd_x(expected_request(cfg, psd, model))

    def report(label, estimate, reference):
        verdict = in_band_verdict(cfg, psd.gx, estimate, reference)
        print(f"  {label:36s} worst z {verdict.worst_z:5.2f}, "
              f"{verdict.within}/{verdict.points} points within 3 stderr")
        return verdict.passed

    print(f"in-band agreement ({cfg.edge_margin:.0%} edge margin):")
    passed = [
        report("RP1 vs exact mean with phase", paired.rp1, exact.total),
        report("DP-ERP1 vs exact mean without phase", paired.erp1,
               exact.spm + exact.xpolm),
        report("paired difference vs phase term", paired.difference,
               exact.phase),
    ]

    print("\nsample points (normalized to Phi_NL^2):")
    print(f"{'f [GHz]':>8} {'RP1 mean':>12} {'exact mean':>12} "
          f"{'ERP1 mean':>12} {'exact no-phase':>14}")
    for k in (-10, -5, 0, 5, 10):
        i = k + cfg.half_lines
        print(f"{cfg.frequencies_hz[i] / 1e9:8.1f} "
              f"{paired.rp1.mean[i]:12.5e} {exact.total[i]:12.5e} "
              f"{paired.erp1.mean[i]:12.5e} "
              f"{(exact.spm + exact.xpolm)[i]:14.5e}")
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
