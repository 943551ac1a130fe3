"""Gaussian-noise model of fiber nonlinear interference.

Closed-form and adaptive-quadrature evaluation of the four-wave-mixing
kernel of a multi-span dispersion-uncompensated link, the dual-polarization
GN-model NLI PSD built on it, a Monte Carlo estimator over circular-Gaussian
spectral lines that reproduces the PSD from first principles, and
brute-force verification of the complex Gaussian moment theorems the model
rests on.

The package namespace is lazy (PEP 562): ``import gnmodel`` loads no
submodule.  A public name imports its defining module on first access and
is then bound here.  ``_EXPORTS`` lists the public names of each defining
module once; ``__all__`` and the name-to-module map are derived from it.
Every submodule name (``gnmodel.config``, ``gnmodel.gn``, ...) resolves as
an attribute too, so a process loads only the layers it touches.
"""
import importlib

# defining submodule -> the public names it exports through the package
_EXPORTS = {
    "version": ("__version__",),
    "errors": ("ConfigError",),
    "link": ("Span", "LinkProfile", "power_gain", "cumulated_dispersion"),
    "spectra": ("PsdShape", "RectangularPsd", "RaisedCosinePsd",
                "TabulatedPsd", "DualPolPsd", "phase_rotation_weight"),
    "kernel": ("KernelModel", "KernelConvergenceError", "kernel_closed_form",
               "kernel_quadrature", "normalized_kernel",
               "normalized_kernel_grid"),
    "gn": ("GnRequest", "NliPsdResult", "nli_psd_x",
           "phase_term_coefficient"),
    "montecarlo": ("MODE_RP1", "MODE_DP_ERP1", "TrialConfig", "PsdEstimate",
                   "PairedEstimates", "estimate_nli_psd", "run_paired_trials",
                   "discrete_powers", "in_band_mask", "validate_grid_coverage",
                   "InBandVerdict", "expected_request", "reference_request",
                   "in_band_verdict"),
    "moments": ("GaussianEnsemble", "MomentSpec", "CheckResult", "CheckReport",
                "StationaryProcessSet", "cgmt_sum", "mc_moment",
                "theorem1_discrete_check", "theorem2_check",
                "theorem3_discrete_check"),
    "config": ("RunConfig", "load_config"),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "parallel", "rng", "stats"}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__),
                        name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        # the import binds the submodule here as well
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
