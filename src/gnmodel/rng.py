"""Counter-based random streams for reproducible parallel sampling.

Every stochastic component draws from a Philox counter-based generator whose
counter words encode *what* is being drawn rather than *when*: the user seed
goes into the key, and the identifying indices (trial number, polarization,
check number, ...) go into the high counter words.  Distinct index tuples can
never overlap (draws only advance the low word), so trials may be computed in
any order, in any number of worker threads, and still produce bit-identical
results.
"""
from __future__ import annotations

from numpy.random import Generator, Philox

# polarization tags used in field-draw streams
POL_X = 0
POL_Y = 1

# domain tags keeping independent subsystems on disjoint streams even for
# equal seeds
_DOMAIN_FIELD = 0
_DOMAIN_MOMENT = 1


def field_stream(seed: int, trial_index: int, pol_tag: int) -> Generator:
    """Private stream for one (trial, polarization) block of line draws.

    Line k of the block occupies positions (2k, 2k+1) of the stream's
    standard-normal sequence, so a draw is a pure function of
    (seed, trial_index, polarization, k).
    """
    bits = Philox(key=seed, counter=[0, _DOMAIN_FIELD, trial_index, pol_tag])
    return Generator(bits)


def moment_stream(seed: int, check_index: int) -> Generator:
    """Private stream for one moment-lab sampling task."""
    bits = Philox(key=seed, counter=[0, _DOMAIN_MOMENT, check_index, 0])
    return Generator(bits)


def complex_normals(generator: Generator, count: int):
    """``count`` complex values whose real and imaginary parts are
    consecutive standard normals of ``generator`` (so E|z|^2 = 2; callers
    scale by 1/sqrt(2) themselves).

    Viewing the (2 count) normals as complex pairs is bit-identical to
    ``n[0::2] + 1j * n[1::2]`` and costs no copy.
    """
    return generator.standard_normal(2 * count).view(complex)
