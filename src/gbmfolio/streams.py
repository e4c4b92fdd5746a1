"""Counter-addressed random streams shared by the Monte Carlo layers.

A stream is a Philox counter generator (Salmon et al., "Parallel Random
Numbers: As Easy as 1, 2, 3", SC'11) keyed by SeedSequence(seed). Row i
of a stream of `width` uniforms starts at counter i * ceil(width / 4):
each counter yields four 64-bit words, one uniform double per word, and
the words past `width` pad the row to a whole number of counters. Row i
is therefore a function of (seed, i) alone, and any block of rows is
one Generator.random call.
"""

import numpy as np

from .errors import DataError

STREAMS = "philox-counter-v1"
WORDS_PER_COUNTER = 4


def padded_width(width):
    """Words a row of `width` uniforms takes in the stream: whole counters."""
    return WORDS_PER_COUNTER * -(-width // WORDS_PER_COUNTER)


def uniform_rows(seed, first, count, width, out=None):
    """Rows first .. first+count-1 of the stream, as a (count, width) array.

    Uniforms lie in [0, 1). The array is a view of the padded block, so
    callers may transform it in place. The block is drawn into `out`, a
    C-contiguous float64 array of shape (count, padded_width(width)), when
    one is given, and into a fresh array otherwise.
    """
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    if first < 0 or count < 1 or width < 1:
        raise DataError("need first >= 0, count >= 1 and width >= 1")
    shape = (count, padded_width(width))
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise DataError(f"out has shape {out.shape}, need {shape}")
    bitgen = np.random.Philox(key=np.random.SeedSequence(seed).generate_state(2, np.uint64))
    bitgen.advance(first * (shape[1] // WORDS_PER_COUNTER))
    np.random.Generator(bitgen).random(out=out)
    return out[:, :width]
