"""Host-speed calibration of the end-to-end timings.

On a shared machine the host's speed drifts by up to 2x within minutes,
and CPU time moves with wall time, so the drift is slower execution, not
waiting; medians within one run cannot remove a drift that outlasts it.
Each process that times something (a worker before every pass, the set-up
probe after its start) also times this fixed kernel, which never touches
``gnmodel``, and the end-to-end timings are reported as

    REFERENCE_S * median(measured time / calibration time)

that is, in seconds at the host speed where the kernel takes REFERENCE_S.
A change to the program moves them as it moves raw wall time; the host's
drift mostly cancels.  Raw medians are printed next to them.
"""
import time

import numpy as np

# the kernel's median time on the 2-core machine the benchmark was written
# on, in a quiet phase
REFERENCE_S = 0.040

_INPUT = np.random.default_rng(0).standard_normal(100_000)


def seconds() -> float:
    """Time of one run of the calibration kernel: NumPy sort, complex exp
    and unique on 100,000 values, plus a pure-Python loop."""
    start = time.perf_counter()
    for _ in range(4):
        np.sort(_INPUT)
        np.exp(1j * _INPUT)
        np.unique(np.round(_INPUT, 3))
        total = 0
        for i in range(30_000):
            total += i * i
    return time.perf_counter() - start
