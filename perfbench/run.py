"""gnmodel benchmark: the four CLI subcommands, end to end and per layer.

    python3 perfbench/run.py [--workload NAME[,NAME...]] [--seed N]
        [--seconds S] [--trace 0|1] [--toy] [--reference-dir DIR]

Run from anywhere; the program is imported from the ``src`` directory next
to this one.  Without ``--workload`` every workload runs, and without
``--trace`` each runs untraced and then traced.  Every metric is printed by
name with its unit and sample count; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s`` / ``wall_t2_s`` -- median wall time of one pass over the
  workload's request list through ``gnmodel.cli.run``, at ``--threads 1``
  with a BLAS pool of 1, and at ``--threads 2`` with a pool of 2;
* ``setup_s`` -- median time from starting a fresh interpreter until the
  first request is ready (``import gnmodel``, ``load_config``,
  ``KernelModel``), one start per round;
* ``peak_rss_mb`` -- peak RSS of a fresh process after one pass.

The three timings are reported at a reference host speed (see
``calibration.py``); the raw medians are printed too.

``--trace 1`` reports, at each thread count, the per-layer metrics of the
traced pass with the median wall time (``t2.`` prefixes the timings at two
threads), the tracing overhead (median traced minus median untraced pass)
and ``fail_ratio``.  Passes at both thread counts, traced and untraced, and
the set-up probes take turns for ``--seconds``.  Working files go to
``.bench_build/perfbench`` under the checkout and are removed at exit.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import calibration
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_build", "perfbench")

SETUP_TIMEOUT_S = 60
# kills the workers of a run that hangs, well inside the 180 s limit
WATCHDOG_S = 150


def child_env(threads: int) -> dict:
    """Environment with the BLAS pool pinned and the checkout's src first."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def setup_seconds(config_path: str) -> dict:
    """Fresh interpreter start until the set-up probe reports ready, and
    the probe's calibration time."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, os.path.join(HERE, "setup_probe.py"),
                           config_path], stdout=subprocess.PIPE, text=True,
                          env=child_env(1)) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait(timeout=SETUP_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return {"wall_s": elapsed, "calibration_s": float(rest)}


class Worker:
    """A worker process at one thread count, driven line by line."""

    def __init__(self, args, workload, threads, workdir):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--threads", str(threads), "--workdir", workdir]
        if args.toy:
            cmd.append("--toy")
        if args.reference_dir:
            cmd += ["--reference-dir", os.path.abspath(args.reference_dir)]
        self.threads = threads
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     env=child_env(threads))

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker at {self.threads} threads exited "
                               f"({self.proc.wait()})")
        return json.loads(line)

    def send(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self):
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def cache_sizes() -> str:
    facts = []
    for label, name in (("l2_bytes", "LEVEL2_CACHE_SIZE"),
                        ("l3_bytes", "LEVEL3_CACHE_SIZE")):
        try:
            out = subprocess.run(["getconf", name], capture_output=True,
                                 text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            out = ""
        facts.append(f"{label}={out or 'unknown'}")
    return " ".join(facts)


def median_pass(records):
    """The pass whose wall time is the median (lower middle when even)."""
    ordered = sorted(records, key=lambda r: r["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def measure(args, workload, trace, workdir) -> dict:
    """Rounds until the next would end after ``--seconds``.

    A round is one pass at each thread count (in trace mode an untraced and
    a traced one) and, untraced, one set-up probe, so every metric samples
    the whole run, and a slow phase of a shared machine hits all alike.
    """
    setup_config = os.path.join(workdir, workloads.requests(
        workload, args.seed, args.toy)[0].config)
    samples = {"setup": [], 1: [], 2: [], "traced1": [], "traced2": []}
    facts, attempted, errors, peak_rss = {}, 0, [], None
    with contextlib.ExitStack() as stack:
        workers = []
        for threads in (1, 2):
            worker = Worker(args, workload, threads, workdir)
            stack.callback(worker.close)
            workers.append(worker)
        watchdog = threading.Timer(WATCHDOG_S, lambda: [w.proc.kill() for w in workers])
        watchdog.start()
        stack.callback(watchdog.cancel)
        for worker in workers:
            facts[worker.threads] = worker.read()["machine"]
        start, rounds = time.perf_counter(), []
        while True:
            began = time.perf_counter()
            for worker in workers:
                for command in ("pass", "traced") if trace else ("pass",):
                    result = worker.send(command)
                    key = worker.threads if command == "pass" else f"traced{worker.threads}"
                    samples[key].append(result)
                    attempted += result["attempted"]
                    errors += result["errors"]
                    if peak_rss is None:
                        peak_rss = result["peak_rss_mb"]
            if not trace:
                samples["setup"].append(setup_seconds(setup_config))
            rounds.append(time.perf_counter() - began)
            if time.perf_counter() - start + statistics.median(rounds) > args.seconds:
                break
    return {"samples": samples, "facts": facts, "attempted": attempted,
            "errors": errors, "peak_rss_mb": peak_rss}


def calibrated(records) -> float:
    """Median timing at the reference host speed (see calibration.py)."""
    return calibration.REFERENCE_S * statistics.median(
        r["wall_s"] / r["calibration_s"] for r in records)


def end_to_end(run) -> dict:
    s = run["samples"]
    return {
        "wall_s": (calibrated(s[1]), "s", len(s[1])),
        "wall_t2_s": (calibrated(s[2]), "s", len(s[2])),
        "setup_s": (calibrated(s["setup"]), "s", len(s["setup"])),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", 1),
    }


def per_layer(run) -> tuple:
    """Per-layer metrics, plus the trace accounting lines to print."""
    metrics, notes = {}, []
    for threads in (1, 2):
        traced = run["samples"][f"traced{threads}"]
        chosen = median_pass(traced)
        untraced = statistics.median(r["wall_s"] for r in run["samples"][threads])
        traced_median = statistics.median(r["wall_s"] for r in traced)
        layers = dict(chosen["layers"])
        layers["trace.overhead_s"] = (traced_median - untraced, "s")
        for name, (value, unit) in layers.items():
            if threads == 1:
                metrics[name] = (value, unit, len(traced))
            elif unit in ("s", "1/s"):
                metrics[f"t2.{name}"] = (value, unit, len(traced))
        notes.append(
            f"trace accounting, threads {threads}: top-level spans "
            f"{chosen['top_level_s']:.6f} s, traced wall {chosen['wall_s']:.6f} s, "
            f"untraced wall {untraced:.6f} s, overhead "
            f"{layers['trace.overhead_s'][0]:.6f} s")
    metrics["fail_ratio"] = (len(run["errors"]) / run["attempted"], "1", run["attempted"])
    return metrics, notes


def run_one(args, workload, trace, workdir) -> dict:
    """Measure one workload in one mode; print its lines; return its result."""
    print(f"== workload {workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {int(trace)}")
    run = measure(args, workload, trace, workdir)
    attempted, errors = run["attempted"], run["errors"]
    facts = run["facts"][1]
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()
                                 if k != "blas_pool")
          + f" {cache_sizes()} blas_pool_t1={facts['blas_pool']}"
          f" blas_pool_t2={run['facts'][2]['blas_pool']}")
    for threads, fact in run["facts"].items():
        if fact["blas_pool"] not in (None, threads):
            print(f"warning: BLAS pool is {fact['blas_pool']}, pinned {threads}")
    if trace:
        metrics, notes = per_layer(run)
        for note in notes:
            print(note)
    else:
        metrics = end_to_end(run)
        for name, key in (("wall_s", 1), ("wall_t2_s", 2), ("setup_s", "setup")):
            records = run["samples"][key]
            raw = [r["wall_s"] for r in records]
            cal = statistics.median(r["calibration_s"] for r in records)
            print(f"{name} raw: median {statistics.median(raw):.6f} s, min "
                  f"{min(raw):.6f} s, max {max(raw):.6f} s; calibration median "
                  f"{cal:.6f} s")
        print(f"fail_ratio = {len(errors) / attempted:.6g} "
              f"({len(errors)} of {attempted})")
    for name, (value, unit, n) in metrics.items():
        print(f"{name} = {value!r} {unit} (n={n})")
    for error in errors[:10]:
        print(f"FAILED {error}")
    return {"correct": not errors, "attempted": attempted, "failed": len(errors),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in metrics.items()}}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("--workload", default=",".join(workloads.WORKLOADS),
                        help="comma-separated workload filter (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: both)")
    parser.add_argument("--toy", action="store_true",
                        help="toy request sizes (smoke test)")
    parser.add_argument("--reference-dir",
                        help="psd reference CSVs (default: perfbench/reference)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "gnmodel", "cli.py")):
        sys.exit(f"perfbench: no gnmodel sources at {SRC}")
    names = args.workload.split(",")
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        sys.exit(f"perfbench: unknown workload(s) {unknown}")
    modes = (bool(args.trace),) if args.trace is not None else (False, True)

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        workloads.write_configs(workdir)
        results = {(name, trace): run_one(args, name, trace, workdir)
                   for name in names for trace in modes}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for (name, _), r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))


if __name__ == "__main__":
    main()
