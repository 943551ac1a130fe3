"""Four-wave-mixing kernel of a dispersion-uncompensated link.

Builds a single lossy span and a heterogeneous three-span link, then walks
the kernel K(F) from the flat small-F regime into the heavily oscillatory
tail, comparing the per-span closed form with adaptive Simpson quadrature.

Run:  python3 demos/demo_kernel.py
"""
import math

import numpy as np

from gnmodel import (KernelModel, LinkProfile, Span, kernel_closed_form,
                     kernel_quadrature, normalized_kernel_grid)

ALPHA = 0.2 * math.log(10.0) / 1.0e4      # 0.2 dB/km as power attenuation in 1/m


def single_span():
    span = Span(length_m=80e3, alpha_per_m=ALPHA, beta2_s2_per_m=-21.7e-27,
                gamma_per_w_m=1.3e-3)
    return KernelModel(link=LinkProfile(spans=(span,)))


def three_spans():
    spans = (
        Span(length_m=80e3, alpha_per_m=ALPHA, beta2_s2_per_m=-21.7e-27,
             gamma_per_w_m=1.3e-3, lumped_gain_db=16.0),
        Span(length_m=60e3, alpha_per_m=1.25 * ALPHA, beta2_s2_per_m=5.1e-27,
             gamma_per_w_m=1.8e-3, lumped_gain_db=15.0),
        Span(length_m=100e3, alpha_per_m=0.9 * ALPHA, beta2_s2_per_m=-16.0e-27,
             gamma_per_w_m=1.1e-3, lumped_gain_db=18.0),
    )
    return KernelModel(link=LinkProfile(spans=spans, xi_pre_s2=3.0e-24))


def main():
    model = single_span()
    # K(0) of a single span is the Manakov-weighted effective length
    l_eff = (1.0 - math.exp(-ALPHA * 80e3)) / ALPHA
    print("single 80 km span")
    print(f"  K(0)                 = {model.k0.real:.6f} 1/W")
    print(f"  (8/9) gamma L_eff    = {8.0 / 9.0 * 1.3e-3 * l_eff:.6f} 1/W")
    print(f"  Phi_NL at P0 = 1 mW  = {1e-3 * model.k0.real * 1e3:.4f} mrad")

    model = three_spans()
    print("\nthree heterogeneous spans (with pre-dispersion and amplifiers)")
    print(f"  K(0) = {model.k0.real:.6f} 1/W")
    grid = np.logspace(16, 22.5, 7)
    eta = normalized_kernel_grid(model, grid)
    print(f"  {'F [Hz^2]':>12} {'|eta(F)|':>10} {'closed vs quadrature':>22}")
    for f, e in zip(grid, eta):
        closed = complex(kernel_closed_form(model, float(f)))
        quad = kernel_quadrature(model, float(f))
        rel = abs(quad - closed) / abs(closed)
        print(f"  {f:12.3e} {abs(e):10.6f} {rel:22.3e}")
    print("  (F = f1*f2; |eta| -> 0 as cumulated dispersion dephases "
          "the mixing products)")


if __name__ == "__main__":
    main()
