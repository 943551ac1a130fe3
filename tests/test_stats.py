"""The shared statistics helper behind the Monte Carlo and moment checks."""
import math

import numpy as np

from gnmodel.stats import mean_stderr


def test_mean_stderr_is_the_ddof1_standard_error():
    values = np.random.default_rng(3).standard_normal((257, 9)) * 1e-3 + 2.0
    mean, stderr = mean_stderr(values)
    assert mean.tobytes() == values.mean(axis=0).tobytes()
    want = values.std(axis=0, ddof=1) / math.sqrt(values.shape[0])
    assert stderr.tobytes() == want.tobytes()


def test_single_sample_has_zero_stderr():
    values = np.array([[-1.5, 0.0, 2.5]])
    mean, stderr = mean_stderr(values)
    assert np.array_equal(mean, values[0])
    # +0.0 in every column, whatever the sign of the mean
    assert stderr.tobytes() == np.zeros(3).tobytes()
