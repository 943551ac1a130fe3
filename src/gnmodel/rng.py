"""Counter-based random streams for reproducible parallel sampling.

Every stochastic component draws from a Philox counter-based generator whose
counter words encode *what* is being drawn rather than *when*: the user seed
goes into the key, and the identifying indices (trial number, polarization,
check number, ...) go into the high counter words.  Distinct index tuples can
never overlap (draws only advance the low word), so trials may be computed in
any order, in any number of worker threads, and still produce bit-identical
results.  Because a stream is fully named by its key and counter, one
generator can serve many streams by being moved between them
(``FieldStreams``): the stream keys, and so the draws, stay the same.
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


class FieldStreams:
    """Every field stream of one seed, served by one reusable generator.

    ``at(trial_index, pol_tag)`` moves the generator to the start of that
    stream: the key and counter of ``field_stream`` with an empty output
    buffer, which is the state a newly built generator starts in.  Its draws
    are therefore bit-identical to those of ``field_stream(seed,
    trial_index, pol_tag)``, without building and seeding one Philox
    generator per (trial, polarization).  The generator is shared by every
    ``at`` call, so one object serves one thread.
    """

    def __init__(self, seed: int):
        bits = Philox(key=seed)
        self._generator = Generator(bits)
        # a copy of the new generator's state, kept unchanged but for the
        # counter: empty output buffer, no pending 32-bit half
        self._fresh = bits.state

    def at(self, trial_index: int, pol_tag: int) -> Generator:
        self._fresh["state"]["counter"] = [0, _DOMAIN_FIELD, trial_index, pol_tag]
        self._generator.bit_generator.state = self._fresh
        return self._generator


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
