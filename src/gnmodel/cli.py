"""Command-line entry point.

    gnmodel --config CFG.yaml --output OUT.csv [--threads N] <subcommand> ...

Subcommands
    kernel      evaluate K(F) and eta(F) on an F grid
                (--f-min-hz2, --f-max-hz2, --points, --spacing, --method)
    psd         GN-model NLI PSD of the X polarization on the configured
                output grid
    montecarlo  Monte Carlo NLI PSD estimate vs the GN prediction
                (--mode, --lines, --spacing-hz, --trials, --seed)
    moments     statistical checks of the moment machinery
                (--theorem {1,2,3}, --k, --trials, --seed)

Exit codes: 0 success; 1 configuration error; 2 numerical-convergence
failure; 3 statistical-check failure (moments).  Outputs are written
atomically (temp file in the target directory, then rename) and every file
starts with a comment header holding the tool version and the full resolved
configuration, so identical configurations produce byte-identical files
regardless of --threads.
"""
from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys
import tempfile

import numpy as np

from .config import RunConfig, load_config
from .errors import ConfigError
from .gn import GnRequest, nli_psd_x
from .kernel import (KernelConvergenceError, KernelModel, kernel_closed_form,
                     kernel_quadrature)
from .moments import (StationaryProcessSet, abs_z_score,
                      theorem1_discrete_check, theorem2_check,
                      theorem3_discrete_check)
from .montecarlo import MODE_RP1, TrialConfig, estimate_nli_psd
from .parallel import ordered_map
from .version import __version__

__all__ = ["run", "main"]


class _Parser(argparse.ArgumentParser):
    """Bad flags are configuration errors (exit 1), not SystemExit(2), and a
    signed decimal with an exponent (-2e22) is a value, not a flag: argparse
    by itself takes only -<digits> and -.<digits> as negative numbers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        raise ConfigError(message)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="gnmodel", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", required=True,
                        help="YAML configuration file")
    parser.add_argument("--output", required=True,
                        help="output file (written atomically)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker count of the GN integral, the kernel "
                             "quadrature points and the moment checks; never "
                             "affects results")
    sub = parser.add_subparsers(dest="command", required=True)

    kernel = sub.add_parser("kernel", help="evaluate the link kernel on an F grid")
    kernel.add_argument("--f-min-hz2", type=_finite_float, required=True)
    kernel.add_argument("--f-max-hz2", type=_finite_float, required=True)
    kernel.add_argument("--points", type=int, required=True)
    kernel.add_argument("--spacing", choices=("log", "linear"), default="log")
    kernel.add_argument("--method", choices=("closed-form", "quadrature"),
                        default="closed-form")

    sub.add_parser("psd", help="GN-model NLI PSD on the configured grid")

    mc = sub.add_parser("montecarlo", help="Monte Carlo NLI PSD estimate")
    mc.add_argument("--mode", choices=("rp1", "erp1"))
    mc.add_argument("--lines", type=int, dest="num_lines",
                    help="number of line spacings M")
    mc.add_argument("--spacing-hz", type=_finite_float, help="line spacing f0")
    mc.add_argument("--trials", type=int, dest="num_trials")
    mc.add_argument("--seed", type=int)

    mom = sub.add_parser("moments", help="moment-theorem statistical checks")
    mom.add_argument("--theorem", type=int, choices=(1, 2, 3))
    mom.add_argument("--k", type=int)
    mom.add_argument("--trials", type=int)
    mom.add_argument("--seed", type=int)
    return parser


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):    # NumPy float64 too: repr names its type
        return repr(float(value))
    return str(value)


def _csv(command: str, resolved: dict, columns: str, rows, footer=()) -> str:
    """An output file's text: the comment header (version, command, the
    resolved configuration), the column line, one line per row of values
    and the ``footer`` lines."""
    lines = [f"# gnmodel {__version__}", f"# command = {command}"]
    lines += [f"# {key} = {_fmt(resolved[key])}" for key in sorted(resolved)]
    lines.append(columns)
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    lines += footer
    return "\n".join(lines) + "\n"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gnmodel-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _merge_flags(args, cfg: RunConfig, section: str):
    """A section's parameters with every set flag applied (each flag's dest
    is its config key), and the resolved map updated to match."""
    params = dict(getattr(cfg, section))
    for key in params:
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    resolved = dict(cfg.resolved)
    resolved.update({f"{section}.{key}": value for key, value in params.items()})
    return params, resolved


def _kernel_model(cfg: RunConfig) -> KernelModel:
    return KernelModel(link=cfg.require_link(),
                       quadrature_tolerance=cfg.kernel_tolerance,
                       max_cells_per_span=cfg.kernel_max_cells)


def _run_kernel(args, cfg: RunConfig):
    if args.points < 1:
        raise ConfigError("kernel --points must be at least 1")
    if args.spacing == "log":
        if not 0 < args.f_min_hz2 < args.f_max_hz2:
            raise ConfigError("log spacing needs 0 < --f-min-hz2 < --f-max-hz2")
        grid = np.logspace(math.log10(args.f_min_hz2),
                           math.log10(args.f_max_hz2), args.points)
    else:
        if not args.f_min_hz2 < args.f_max_hz2:
            raise ConfigError("--f-min-hz2 must be below --f-max-hz2")
        grid = np.linspace(args.f_min_hz2, args.f_max_hz2, args.points)

    model = _kernel_model(cfg)
    if args.method == "closed-form":
        k_values = kernel_closed_form(model, grid)
        k0 = model.k0
    else:
        # each point is a pure function of (model, F), so order moves no bit;
        # F = 0 (the normalizer) rides last.  Workers start with the dearest
        # (largest |F|, most cells); one thread keeps grid order (faster)
        points = [*grid, 0.0]

        def point(i):
            try:
                return kernel_quadrature(model, points[i])
            except KernelConvergenceError as exc:
                return exc

        order = range(len(points))
        if args.threads > 1:
            order = sorted(order, key=lambda i: -abs(points[i]))
        done = dict(zip(order, ordered_map(point, order, args.threads)))
        values = [done[i] for i in range(len(points))]
        for value in values:    # the serial loop's error: first in grid order
            if isinstance(value, KernelConvergenceError):
                raise value
        k_values, k0 = np.array(values[:-1]), values[-1]
    eta = k_values / k0

    resolved = dict(cfg.resolved)
    resolved.update({f"cli.{key}": getattr(args, key) for key in
                     ("f_min_hz2", "f_max_hz2", "points", "spacing", "method")})
    rows = [(f, k.real, k.imag, e.real, e.imag, abs(e))
            for f, k, e in zip(grid, k_values, eta)]
    return _csv("kernel", resolved, "F_Hz2,re_K,im_K,re_eta,im_eta,abs_eta",
                rows), True


def _gn_request(psd, model, grid, step, include_phase_term):
    """The GN request for X; a request the engine rejects is a configuration
    error."""
    try:
        return GnRequest(psd=psd, kernel=model, output_grid_hz=grid,
                         inner_grid_step_hz=step,
                         include_phase_term=include_phase_term)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _run_psd(args, cfg: RunConfig):
    psd, grid = cfg.require_signal(), cfg.require_output_grid()
    request = _gn_request(psd, _kernel_model(cfg), grid,
                          cfg.inner_grid_step_hz, cfg.include_phase_term)
    result = nli_psd_x(request, threads=args.threads)

    rows = zip(result.frequencies_hz, result.spm, result.xpolm, result.phase,
               result.total, result.total_absolute_w_per_hz)
    return _csv("psd", cfg.resolved, "f_Hz,spm,xpolm,phase,total_normalized,"
                "total_absolute_W_per_Hz", rows), True


def _run_montecarlo(args, cfg: RunConfig):
    psd = cfg.require_signal()
    model = _kernel_model(cfg)
    params, resolved = _merge_flags(args, cfg, "montecarlo")
    trial_cfg = TrialConfig(**params)
    # continuum GN prediction on the same grid; the phase term belongs to the
    # RP1 PSD only and cancels in DP-ERP1.  Built first, so a step the GN
    # engine rejects fails before any trial runs.
    request = _gn_request(psd, model, trial_cfg.frequencies_hz,
                          trial_cfg.spacing_hz / 8.0,
                          trial_cfg.mode == MODE_RP1)
    estimate = estimate_nli_psd(trial_cfg, psd, model, polarization="x")
    analytic = nli_psd_x(request, threads=args.threads).total

    rows = [(f, mean, err, gn, abs_z_score(mean - gn, err)) for f, mean, err, gn
            in zip(estimate.frequencies_hz, estimate.mean, estimate.stderr,
                   analytic)]
    return _csv("montecarlo", resolved, "f_Hz,mc_mean,mc_stderr,analytic,"
                "abs_z_score", rows), True


def _run_moments(args, cfg: RunConfig):
    params, resolved = _merge_flags(args, cfg, "moments")
    theorem = params["theorem"]
    if theorem not in (1, 2, 3):
        raise ConfigError(f"moments.theorem must be 1, 2 or 3, got {theorem}")
    if params["trials"] < 2:
        raise ConfigError("moments.trials must be at least 2")
    if not 0 <= params["seed"] < 2**64:
        raise ConfigError(f"moments.seed must be a 64-bit unsigned integer, "
                          f"got {params['seed']}")
    for key in ("num_ensembles", "num_processes", "num_sources", "grid_size"):
        if params[key] < 1:
            raise ConfigError(f"moments.{key} must be at least 1, "
                              f"got {params[key]}")
    if theorem == 2:
        report = theorem2_check(params["k"], params["num_ensembles"],
                                params["trials"], params["seed"],
                                threads=args.threads)
    else:
        processes = StationaryProcessSet.random(
            params["num_processes"], params["num_sources"],
            params["grid_size"], params["seed"] + 997)
        check = theorem1_discrete_check if theorem == 1 \
            else theorem3_discrete_check
        report = check(processes, params["trials"], params["seed"],
                       threads=args.threads)

    rows = [(c.name, "pass" if c.passed else "FAIL", c.z_score,
             c.estimate.real, c.estimate.imag, c.expected.real,
             c.expected.imag, c.stderr.real, c.stderr.imag, c.formula_gap)
            for c in report.checks]
    verdict = "PASS" if report.all_passed else "FAIL"
    footer = [f"# RESULT: {verdict} (checks = {len(report.checks)}, "
              f"max_z = {_fmt(report.max_z)})"]
    return _csv("moments", resolved, "check,passed,z_score,re_estimate,"
                "im_estimate,re_expected,im_expected,re_stderr,im_stderr,"
                "formula_gap", rows, footer), report.all_passed


_COMMANDS = {
    "kernel": _run_kernel,
    "psd": _run_psd,
    "montecarlo": _run_montecarlo,
    "moments": _run_moments,
}


def run(argv=None) -> int:
    """Parse arguments, execute one subcommand, write one output file."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            raise ConfigError("--threads must be at least 1")
        cfg = load_config(args.config)
        text, ok = _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"gnmodel: configuration error: {exc}", file=sys.stderr)
        return 1
    except KernelConvergenceError as exc:
        print(f"gnmodel: convergence failure: {exc}", file=sys.stderr)
        return 2
    _atomic_write(args.output, text)
    return 0 if ok else 3


def main() -> None:
    sys.exit(run())
