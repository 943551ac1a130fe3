"""One measuring process: passes of one workload at one thread count.

    python3 perfbench/worker.py --workload W --seed S --threads T \\
        --workdir DIR [--toy] [--reference-dir DIR]

``run.py`` starts it with the BLAS pool pinned to T through the environment
and the checkout's ``src`` on ``PYTHONPATH``, then drives it over stdin: each
line ``pass`` or ``traced`` runs one pass over the request list, untraced or
traced (an untraced pass is preceded by a run of the calibration kernel,
see ``calibration.py``), and each reply is one JSON line on stdout.  The
first reply, sent unasked, reports the machine facts.  Every request goes
through the correctness gate, outside the timed region.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
import traceback

import numpy as np

import calibration
import gnmodel.cli as cli
import gates
import spans
import workloads


def blas_pool_size():
    """Threads in the OpenBLAS pool NumPy loaded, or None if not found."""
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    umath = np._core._multiarray_umath
    simd = [name for name in umath.__cpu_dispatch__
            if umath.__cpu_features__.get(name)]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_pool": blas_pool_size(),
        "simd": "baseline " + "+".join(umath.__cpu_baseline__)
                + ", dispatch " + "+".join(simd),
    }


class Runner:
    """Sends a workload's request list through ``cli.run``, pass after pass."""

    def __init__(self, args):
        self.args = args
        self.requests = workloads.requests(args.workload, args.seed, args.toy)

    def one_pass(self, tracer=None):
        """Wall seconds, output bytes and failures of one pass over the
        request list; the tracer, if given, records the pass."""
        wall, written, errors = 0.0, 0, []
        for req in self.requests:
            out = os.path.join(self.args.workdir, f"{req.name}.t{self.args.threads}.csv")
            argv = ["--config", os.path.join(self.args.workdir, req.config),
                    "--output", out, "--threads", str(self.args.threads), *req.argv]
            # the gate must never read the previous pass's output
            with contextlib.suppress(FileNotFoundError):
                os.remove(out)
            if tracer:
                tracer.activate()
            start = time.perf_counter()
            try:
                code = tracer.call("cli.run", cli.run, argv) if tracer else cli.run(argv)
            except Exception:  # a crashing request is a failed request
                code = "exception: " + traceback.format_exc(limit=3)
            wall += time.perf_counter() - start
            if tracer:
                tracer.deactivate()
            error = gates.check(req, code, out, self.args.workdir,
                                self.args.reference_dir)
            if error is None:
                written += os.path.getsize(out)
            else:
                errors.append(f"{req.name}: {error}")
        return wall, written, errors


def reply(message: dict) -> None:
    print(json.dumps(message), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--reference-dir", default=gates.REFERENCE_DIR)
    args = parser.parse_args()

    runner = Runner(args)
    reply({"machine": machine_facts()})
    for line in sys.stdin:
        command = line.strip()
        if command == "pass":
            result = {"calibration_s": calibration.seconds()}
            wall, written, errors = runner.one_pass()
        elif command == "traced":
            tracer = spans.Tracer()
            tracer.install()
            try:
                wall, written, errors = runner.one_pass(tracer)
            finally:
                tracer.uninstall()
            layers = spans.layer_metrics(tracer.spans)
            layers["cli.output_bytes"] = (written, "bytes")
            result = {"layers": layers,
                      "top_level_s": spans.top_level_total(tracer.spans)}
        else:
            raise SystemExit(f"worker: unknown command {command!r}")
        result.update(wall_s=wall, attempted=len(runner.requests), errors=errors)
        # ru_maxrss is in KiB on Linux; after the first pass it is the peak
        # of a fresh process that has run the workload once
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        reply(result)


if __name__ == "__main__":
    main()
