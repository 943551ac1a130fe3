"""Monte Carlo check of the GN-model PSD over Gaussian spectral lines.

Draws dual-polarization fields of M+1 circular-Gaussian lines, applies the
first-order perturbation map in both RP1 and DP-ERP1 modes, and compares
the estimated NLI PSDs against the GN prediction with and without the
phase-rotation term.  The paired per-trial difference isolates the phase
term itself.

Run:  python3 demos/demo_montecarlo.py     (about a second)
"""
import math

from gnmodel import (DualPolPsd, KernelModel, LinkProfile, RectangularPsd,
                     Span, TrialConfig, in_band_verdict, nli_psd_x,
                     reference_request, run_paired_trials)

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
    gn = nli_psd_x(reference_request(cfg, psd, model))

    def report(label, estimate, reference):
        verdict = in_band_verdict(cfg, psd.gx, estimate, reference)
        print(f"  {label:34s} worst z {verdict.worst_z:5.2f}, "
              f"{verdict.within}/{verdict.points} points within 3 stderr")

    print(f"in-band agreement ({cfg.edge_margin:.0%} edge margin):")
    report("RP1 vs GN total with phase", paired.rp1, gn.total)
    report("DP-ERP1 vs GN total without phase", paired.erp1,
           gn.spm + gn.xpolm)
    report("paired difference vs phase term", paired.difference, gn.phase)

    print("\nsample points (normalized to Phi_NL^2):")
    print(f"{'f [GHz]':>8} {'RP1 mean':>12} {'GN total':>12} "
          f"{'ERP1 mean':>12} {'GN no-phase':>12}")
    for k in (-10, -5, 0, 5, 10):
        i = k + cfg.half_lines
        print(f"{cfg.frequencies_hz[i] / 1e9:8.1f} "
              f"{paired.rp1.mean[i]:12.5e} {gn.total[i]:12.5e} "
              f"{paired.erp1.mean[i]:12.5e} "
              f"{(gn.spm + gn.xpolm)[i]:12.5e}")


if __name__ == "__main__":
    main()
