"""Set-up probe: what a fresh interpreter does before its first request.

    python3 perfbench/setup_probe.py CONFIG.yaml

Imports the CLI, loads the configuration and builds the kernel model when
the configuration has a link, then prints ``ready``.  ``run.py`` times it
from process start to that line.  Afterwards it prints the time of one run
of the calibration kernel, after a first, untimed one.  The checkout's ``src`` must be on
``PYTHONPATH``.
"""
import sys

import gnmodel.cli  # noqa: F401  (the entry point's import cost)
from gnmodel import KernelModel, load_config

cfg = load_config(sys.argv[1])
if cfg.link is not None:
    KernelModel(link=cfg.link, quadrature_tolerance=cfg.kernel_tolerance,
                max_cells_per_span=cfg.kernel_max_cells)
print("ready", flush=True)

import calibration  # noqa: E402  (after the timed part)

calibration.seconds()
print(calibration.seconds(), flush=True)
