"""Regenerate the psd_sweep reference CSVs and their tolerances.

    python3 perfbench/make_reference.py

Runs each reference request of ``psd_sweep`` through ``gnmodel.cli.run``
at the workload's inner step and at a step four times finer, stores the
first in ``reference/<request>.csv`` and writes ``reference/tolerances.json``.
A request's tolerance is three times the largest column-wise gap
max|a - b| / max|b| between the two steps: an integrator whose own
discretization error at the workload's step is no worse than this one's
stays within it, for first-order as well as second-order convergence.
The stored files come from the commit that introduced the benchmark; regenerate
them only when a change is meant to alter the GN results.
"""
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from gnmodel.cli import run  # noqa: E402

import gates  # noqa: E402
import workloads  # noqa: E402
from run import WORK_ROOT  # noqa: E402

FINER = 4
SAFETY = 3.0


def main():
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    tolerances = {}
    try:
        for name, config in workloads.REFERENCE_REQUESTS.items():
            text = workloads.CONFIGS[config]
            step = "inner_grid_step_hz: 2.5e8"
            if step not in text:
                sys.exit(f"{config}: no '{step}' line to refine")
            finer = f"inner_grid_step_hz: {2.5e8 / FINER!r}"
            outputs = []
            for label, body in (("base", text),
                                ("fine", text.replace(step, finer))):
                cfg = os.path.join(workdir, f"{label}-{config}")
                out = os.path.join(workdir, f"{label}-{name}.csv")
                with open(cfg, "w", encoding="utf-8") as handle:
                    handle.write(body)
                if run(["--config", cfg, "--output", out, "psd"]) != 0:
                    sys.exit(f"{name}: gnmodel psd failed")
                outputs.append(gates.read_csv(out))
            gap = gates.compare_columns(*outputs[0], *outputs[1])
            tolerances[name] = {"tolerance": SAFETY * gap,
                                "gap_to_4x_finer_step": gap}
            shutil.copyfile(os.path.join(workdir, f"base-{name}.csv"),
                            os.path.join(gates.REFERENCE_DIR, f"{name}.csv"))
            print(f"{name}: gap {gap:.3e}, tolerance {SAFETY * gap:.3e}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(gates.REFERENCE_DIR, "tolerances.json"), "w",
              encoding="utf-8") as handle:
        json.dump(tolerances, handle, indent=2)
        handle.write("\n")


if __name__ == "__main__":
    main()
