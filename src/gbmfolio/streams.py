"""Word-addressed random streams shared by the Monte Carlo layers.

A stream is a PCG64DXSM generator (O'Neill, "PCG: A Family of Simple
Fast Space-Efficient Statistically Good Algorithms for Random Number
Generation", 2014) seeded by SeedSequence(seed), one uniform double per
64-bit word. Row i of `width` uniforms is words i * width onwards,
reached by advance(i * width), so it depends on (seed, i) alone, and any
block of rows is one Generator.random call. advance wraps modulo 2**128
words, which no run nears: 13 assets would need over 2**124 trials.
"""

# imported with this module, not lazily by the first draw: a SIGINT that
# lands in numpy.random's first import is lost there, and the run goes on
from numpy.random import PCG64DXSM, Generator, SeedSequence

STREAMS = "pcg64dxsm-advance-v2"


def uniform_rows(seed, first, count, width):
    """Rows first .. first+count-1 of the stream, as a (count, width) array.

    Needs seed >= 0, first >= 0, count >= 1 and width >= 1. Uniforms lie
    in [0, 1). The array is fresh and C-contiguous, and callers may
    change it in place.
    """
    bitgen = PCG64DXSM(SeedSequence(seed))
    bitgen.advance(first * width)
    return Generator(bitgen).random((count, width))
