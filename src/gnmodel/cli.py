"""Command-line entry point.

    gnmodel --config CFG.yaml --output OUT.csv [--threads N] <subcommand> ...

Subcommands
    kernel      evaluate K(F) and eta(F) on an F grid
                (--f-min-hz2, --f-max-hz2, --points, --spacing, --method)
    psd         GN-model NLI PSD of the X polarization on the configured
                output grid
    montecarlo  Monte Carlo NLI PSD estimate vs its exact finite-f0 mean
                (--mode, --lines, --spacing-hz, --trials, --seed)
    moments     statistical checks of the moment machinery
                (--theorem {1,2,3}, --k, --trials, --seed)

Each subcommand flag sets one key (``config.FLAGS``; the kernel grid's are
the ``cli`` keys), and its text is read as the same text in the file, YAML 1.1
included (``1e5`` is a string, ``010`` is 8).  Exit codes: 0 success; 1
configuration error (``<key> must be <range>, got <value>`` for a value in
any section of the file or in a flag, or a bad --output path; all checked
before any work); 2 numerical failure (a kernel quadrature that does not
converge, or an engine value that is not finite: nothing is written); 3
statistical-check failure (moments).  Outputs are written atomically (temp
file in the target directory, then rename) and every file starts with a
comment header holding the tool version and the full resolved configuration,
so identical configurations produce byte-identical files regardless of
--threads.
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

# the engines a subcommand runs (gn, montecarlo, moments) are imported inside
# its runner: a process loads only those, and each engine function is looked
# up in its defining module at call time, never held in this module
from .config import (FLAGS, RunConfig, construct, flag_name, load_config,
                     read_flags)
from .errors import ConfigError
from .kernel import (KernelConvergenceError, KernelModel, kernel_closed_form,
                     kernel_quadrature)
from .parallel import ordered_map
from .version import __version__

__all__ = ["run", "main"]


class _Parser(argparse.ArgumentParser):
    """Bad flags are configuration errors (exit 1), not SystemExit(2); a flag
    is only its declared spelling, never a prefix of it (--tri for --trials);
    and a signed decimal with an exponent (-2e22) is a value, not a flag:
    argparse by itself takes only -<digits> and -.<digits> as negative
    numbers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        raise ConfigError(message)


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

    for command, (_, summary) in _COMMANDS.items():
        section, keys = FLAGS[command]
        subparser = sub.add_parser(command, help=summary)
        for key in keys:
            subparser.add_argument(flag_name(section, key), dest=key,
                                   help=f"sets {section}.{key}")
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


class _NonFiniteResult(ArithmeticError):
    """An engine returned NaN or an infinity (exit 2, nothing written)."""


def _require_finite(**columns) -> None:
    """Raise _NonFiniteResult naming the first column that is not all finite."""
    for name, values in columns.items():
        bad = np.count_nonzero(~np.isfinite(values))
        if bad:
            raise _NonFiniteResult(f"{name} is not finite at {bad} of "
                                   f"{np.size(values)} points")


def _check_output(path: str) -> None:
    """An --output the atomic write could not create fails before any work."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ConfigError(f"--output {path}: directory {directory} does not "
                          f"exist")
    if os.path.isdir(path):
        raise ConfigError(f"--output {path} is a directory")


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


def _kernel_model(cfg: RunConfig) -> KernelModel:
    return KernelModel(link=cfg.require_link(),
                       quadrature_tolerance=cfg.kernel_tolerance,
                       max_cells_per_span=cfg.kernel_max_cells)


def _run_kernel(cfg: RunConfig, params, resolved, threads):
    f_min, f_max = params["f_min_hz2"], params["f_max_hz2"]
    if params["spacing"] == "log":
        if not 0 < f_min < f_max:
            raise ConfigError("log spacing needs 0 < --f-min-hz2 < --f-max-hz2")
        grid = np.logspace(math.log10(f_min), math.log10(f_max),
                           params["points"])
    else:
        if not f_min < f_max:
            raise ConfigError("--f-min-hz2 must be below --f-max-hz2")
        grid = np.linspace(f_min, f_max, params["points"])

    model = _kernel_model(cfg)
    if params["method"] == "closed-form":
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
        if threads > 1:
            order = sorted(order, key=lambda i: -abs(points[i]))
        done = dict(zip(order, ordered_map(point, order, threads)))
        values = [done[i] for i in range(len(points))]
        for value in values:    # the serial loop's error: first in grid order
            if isinstance(value, KernelConvergenceError):
                raise value
        k_values, k0 = np.array(values[:-1]), values[-1]
    eta = k_values / k0
    _require_finite(K=k_values, eta=eta)

    rows = [(f, k.real, k.imag, e.real, e.imag, abs(e))
            for f, k, e in zip(grid, k_values, eta)]
    return _csv("kernel", resolved, "F_Hz2,re_K,im_K,re_eta,im_eta,abs_eta",
                rows), True


def _run_psd(cfg: RunConfig, params, resolved, threads):
    from .gn import GnRequest, nli_psd_x
    psd, grid = cfg.require_signal(), cfg.require_output_grid()
    request = construct("psd", GnRequest, psd=psd, kernel=_kernel_model(cfg),
                        output_grid_hz=grid,
                        inner_grid_step_hz=cfg.inner_grid_step_hz,
                        include_phase_term=cfg.include_phase_term)
    result = nli_psd_x(request, threads=threads)
    _require_finite(spm=result.spm, xpolm=result.xpolm, phase=result.phase,
                    total_normalized=result.total,
                    total_absolute_W_per_Hz=result.total_absolute_w_per_hz)

    rows = zip(result.frequencies_hz, result.spm, result.xpolm, result.phase,
               result.total, result.total_absolute_w_per_hz)
    return _csv("psd", resolved, "f_Hz,spm,xpolm,phase,total_normalized,"
                "total_absolute_W_per_Hz", rows), True


def _run_montecarlo(cfg: RunConfig, params, resolved, threads):
    from .gn import nli_psd_x
    from .montecarlo import TrialConfig, estimate_nli_psd, expected_request
    from .stats import abs_z_score
    psd = cfg.require_signal()
    model = _kernel_model(cfg)
    trial_cfg = TrialConfig(**params)
    # built first, so a grid that cannot hold the exact mean fails before
    # any trial runs
    request = construct("montecarlo", expected_request, cfg=trial_cfg,
                        psd=psd, kernel=model)
    estimate = estimate_nli_psd(trial_cfg, psd, model, polarization="x")
    analytic = nli_psd_x(request, threads=threads).total
    _require_finite(mc_mean=estimate.mean, mc_stderr=estimate.stderr,
                    analytic=analytic)

    rows = [(f, mean, err, gn, abs_z_score(mean - gn, err)) for f, mean, err, gn
            in zip(estimate.frequencies_hz, estimate.mean, estimate.stderr,
                   analytic)]
    return _csv("montecarlo", resolved, "f_Hz,mc_mean,mc_stderr,analytic,"
                "abs_z_score", rows), True


def _run_moments(cfg: RunConfig, params, resolved, threads):
    from .moments import (StationaryProcessSet, theorem1_discrete_check,
                          theorem2_check, theorem3_discrete_check)
    theorem = params["theorem"]
    if theorem == 2:
        report = theorem2_check(params["k"], params["num_ensembles"],
                                params["trials"], params["seed"],
                                threads=threads)
    else:
        processes = StationaryProcessSet.random(
            params["num_processes"], params["num_sources"],
            params["grid_size"], params["seed"] + 997)
        check = theorem1_discrete_check if theorem == 1 \
            else theorem3_discrete_check
        report = check(processes, params["trials"], params["seed"],
                       threads=threads)

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


# subcommand -> (runner, --help line); its flags are declared in config.FLAGS
_COMMANDS = {
    "kernel": (_run_kernel, "evaluate the link kernel on an F grid"),
    "psd": (_run_psd, "GN-model NLI PSD on the configured grid"),
    "montecarlo": (_run_montecarlo, "Monte Carlo NLI PSD estimate"),
    "moments": (_run_moments, "moment-theorem statistical checks"),
}


def run(argv=None) -> int:
    """Parse arguments, execute one subcommand, write one output file."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            raise ConfigError("--threads must be at least 1")
        _check_output(args.output)
        cfg = load_config(args.config)
        params, resolved = read_flags(args.command, vars(args), cfg.resolved)
        # an engine overflow reaches _require_finite (exit 2) unannounced
        with np.errstate(all="ignore"):
            text, ok = _COMMANDS[args.command][0](cfg, params, resolved,
                                                  args.threads)
    except ConfigError as exc:
        print(f"gnmodel: configuration error: {exc}", file=sys.stderr)
        return 1
    except KernelConvergenceError as exc:
        print(f"gnmodel: convergence failure: {exc}", file=sys.stderr)
        return 2
    except _NonFiniteResult as exc:
        print(f"gnmodel: non-finite result: {exc}", file=sys.stderr)
        return 2
    _atomic_write(args.output, text)
    return 0 if ok else 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
