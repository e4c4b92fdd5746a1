"""Word-addressed random streams shared by the Monte Carlo layers.

A stream is a PCG64DXSM generator (O'Neill, "PCG: A Family of Simple
Fast Space-Efficient Statistically Good Algorithms for Random Number
Generation", 2014) seeded by SeedSequence(seed), one uniform double per
64-bit word. Row i of `width` uniforms is words i * width onwards,
reached by advance(i * width), so it depends on (seed, i) alone, and any
block of rows is one Generator.random call. advance wraps modulo 2**128
words, which no run nears: 13 assets would need over 2**124 trials.
"""

import numpy as np
# imported with this module, not lazily by the first draw: a SIGINT that
# lands in numpy.random's first import is lost there, and the run goes on
from numpy.random import PCG64DXSM, Generator, SeedSequence

from .errors import DataError

STREAMS = "pcg64dxsm-advance-v1"


def uniform_rows(seed, first, count, width, out=None):
    """Rows first .. first+count-1 of the stream, as a (count, width) array.

    Uniforms lie in [0, 1). The block is drawn into `out`, a C-contiguous
    float64 array of that shape, when one is given, and into a fresh one
    otherwise; that array is returned, and callers may change it in place.
    """
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    if first < 0 or count < 1 or width < 1:
        raise DataError("need first >= 0, count >= 1 and width >= 1")
    if out is None:
        out = np.empty((count, width))
    elif out.shape != (count, width):
        raise DataError(f"out has shape {out.shape}, need {(count, width)}")
    bitgen = PCG64DXSM(SeedSequence(seed))
    bitgen.advance(first * width)
    Generator(bitgen).random(out=out)
    return out
