"""Counter-based random number streams.

All randomness in the library flows through Philox generators keyed by
``(seed, stream, index)``.  Philox is a counter-based generator, so two
generators with different keys produce statistically independent streams
and the same key reproduces the same stream bit-for-bit on every platform.
Monte-Carlo replicates therefore do not depend on the order in which they
are computed: replicate ``i`` always draws from the stream keyed by its own
index.

``rekey`` moves an existing generator to the start of another key's stream:
it sets the same key as ``generator`` would, a zero counter and an empty
buffer, so the draws that follow are those of a new generator with that
key.  Rekeying keeps the (seed, stream, index) layout bit for bit; a loop
over replicates holds one generator per stream instead of building one per
replicate.
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


_WORD = (1 << 64) - 1

# A new Philox's zero counter and empty 4-word buffer.  The state setter
# reads these entry by entry, so plain tuples serve.
_ZEROS = (0, 0, 0, 0)


def _key(seed, stream, index):
    """The two 64-bit Philox key words of (seed, stream, index), as Python
    ints."""
    if index < 0 or index >= (1 << _INDEX_BITS):
        raise ValueError(f"stream index out of range: {index}")
    word = (int(stream) << _INDEX_BITS) | int(index)
    return int(seed) & _WORD, word & _WORD


def generator(seed, stream=GENERIC_STREAM, index=0):
    """Return a ``numpy.random.Generator`` keyed by (seed, stream, index).

    ``seed`` is any 64-bit integer (negative values are wrapped), ``stream``
    one of the module constants, ``index`` typically a replicate number.
    """
    key = np.array(_key(seed, stream, index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def rekey(rng, seed, stream, index):
    """Restart the Philox generator ``rng`` on the (seed, stream, index)
    stream and return it.

    Its next draws equal those of ``generator(seed, stream, index)``: the
    state is set to that key with a zero counter, an empty 4-word buffer
    and no pending 32-bit half, as ``Philox(key=...)`` leaves it.  The
    key words stay Python ints: no array is built per call.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": _key(seed, stream, index)},
        "buffer": _ZEROS, "buffer_pos": len(_ZEROS),
        "has_uint32": 0, "uinteger": 0}
    return rng
