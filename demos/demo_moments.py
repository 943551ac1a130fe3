"""Gaussian moment machinery behind the GN-model derivation.

Exercises the three verification layers: spectral-line uncorrelatedness of
stationary processes (discrete Theorem 1), the complex Gaussian moment
theorem as a k!-term pairing sum (Theorem 2), and the six-term collapse of
the six-field spectral moment (Theorem 3), each against plain Monte Carlo.
Exits 1 if a theorem check fails.

Run:  python3 demos/demo_moments.py     (about 5 s)
"""
import sys

from gnmodel import (GaussianEnsemble, MomentSpec, StationaryProcessSet,
                     cgmt_sum, mc_moment, theorem1_discrete_check,
                     theorem2_check, theorem3_discrete_check)


def show(title, report):
    print(f"\n{title}")
    for c in report.checks:
        verdict = "pass" if c.passed else "FAIL"
        print(f"  {c.name:24s} {verdict}  z = {c.z_score:5.2f}  "
              f"expected {c.expected:.4e}")
    print(f"  -> all passed: {report.all_passed} (max z {report.max_z:.2f})")
    return report.all_passed


def main():
    # one moment by hand: E[|U|^4] = 2 sigma^4 for circular Gaussians
    ens = GaussianEnsemble.random(dimension=1, rank=2, seed=3)
    sigma2 = ens.covariance[0, 0].real
    spec = MomentSpec(conjugated=(0, 0), unconjugated=(0, 0))
    exact = cgmt_sum(ens, spec)
    est, stderr = mc_moment(ens, spec, trials=200_000, seed=4)
    print(f"E[|U|^4]: pairing sum {exact.real:.5f}, "
          f"2 sigma^4 = {2 * sigma2**2:.5f}, "
          f"MC {est.real:.5f} +- {stderr.real:.5f}")

    processes = StationaryProcessSet.random(num_processes=6, num_sources=4,
                                            grid_size=32, seed=99)
    passed = [
        show("Theorem 1 (uncorrelated spectral lines):",
             theorem1_discrete_check(processes, trials=100_000, seed=1)),
        show("Theorem 2 (CGMT, k = 2):",
             theorem2_check(2, num_ensembles=4, trials=200_000, seed=2)),
        show("Theorem 3 (six-field moment, N = 32):",
             theorem3_discrete_check(processes, trials=100_000, seed=5)),
    ]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
