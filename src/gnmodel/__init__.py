"""Gaussian-noise model of fiber nonlinear interference.

Closed-form and adaptive-quadrature evaluation of the four-wave-mixing
kernel of a multi-span dispersion-uncompensated link, the dual-polarization
GN-model NLI PSD built on it, a Monte Carlo estimator over circular-Gaussian
spectral lines that reproduces the PSD from first principles, and
brute-force verification of the complex Gaussian moment theorems the model
rests on.
"""
from .config import RunConfig, load_config
from .errors import ConfigError
from .gn import (GnRequest, NliPsdResult, nli_psd_x, nli_psd_y,
                 phase_term_coefficient)
from .kernel import (KernelConvergenceError, KernelModel, NonlinearPhase,
                     kernel_closed_form, kernel_quadrature, nonlinear_phase,
                     normalized_kernel, normalized_kernel_grid)
from .link import LinkProfile, Span, cumulated_dispersion, power_gain
from .moments import (CheckReport, CheckResult, GaussianEnsemble, MomentSpec,
                      StationaryProcessSet, cgmt_sum, fourth_moment_identity,
                      mc_moment, theorem1_discrete_check, theorem2_check,
                      theorem3_discrete_check)
from .montecarlo import (MODE_DP_ERP1, MODE_RP1, PairedEstimates, PsdEstimate,
                         TrialConfig, discrete_powers, estimate_nli_psd,
                         in_band_mask, run_paired_trials,
                         validate_grid_coverage)
from .spectra import (DualPolPsd, PsdShape, RaisedCosinePsd, RectangularPsd,
                      TabulatedPsd, phase_rotation_weight)
from .version import __version__

__all__ = [
    "__version__",
    "ConfigError",
    "Span", "LinkProfile", "power_gain", "cumulated_dispersion",
    "PsdShape", "RectangularPsd", "RaisedCosinePsd", "TabulatedPsd",
    "DualPolPsd", "phase_rotation_weight",
    "KernelModel", "KernelConvergenceError", "NonlinearPhase",
    "kernel_closed_form", "kernel_quadrature", "normalized_kernel",
    "normalized_kernel_grid", "nonlinear_phase",
    "GnRequest", "NliPsdResult", "nli_psd_x", "nli_psd_y",
    "phase_term_coefficient",
    "MODE_RP1", "MODE_DP_ERP1", "TrialConfig", "PsdEstimate",
    "PairedEstimates", "estimate_nli_psd", "run_paired_trials",
    "discrete_powers", "in_band_mask",
    "validate_grid_coverage",
    "GaussianEnsemble", "MomentSpec", "CheckResult", "CheckReport",
    "StationaryProcessSet", "cgmt_sum", "mc_moment", "fourth_moment_identity",
    "theorem1_discrete_check", "theorem2_check", "theorem3_discrete_check",
    "RunConfig", "load_config",
]
