"""Counter-based random number streams.

All randomness in the library flows through Philox generators keyed by
``(seed, stream, index)``.  Philox is a counter-based generator, so two
generators with different keys produce statistically independent streams
and the same key reproduces the same stream bit-for-bit on every platform.
Monte-Carlo replicates therefore do not depend on the order in which they
are computed: replicate ``i`` always draws from the stream keyed by its own
index.
"""

import numpy as np

# Stream identifiers: one per purpose so that e.g. the design draw of a
# replicate never aliases its noise draw.
DESIGN_STREAM = 1
NOISE_STREAM = 2
PERTURBATION_STREAM = 3
SOURCE_STREAM = 4
GENERIC_STREAM = 5

_INDEX_BITS = 40  # replicate indices fit in 40 bits, stream ids in the rest


def generator(seed, stream=GENERIC_STREAM, index=0):
    """Return a ``numpy.random.Generator`` keyed by (seed, stream, index).

    ``seed`` is any 64-bit integer (negative values are wrapped), ``stream``
    one of the module constants, ``index`` typically a replicate number.
    """
    if index < 0 or index >= (1 << _INDEX_BITS):
        raise ValueError(f"stream index out of range: {index}")
    word = (int(stream) << _INDEX_BITS) | int(index)
    key = np.array([np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(word & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
