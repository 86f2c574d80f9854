"""Counter-based streams: a rekeyed generator draws what a new one draws.

``streams.rekey`` restarts one Philox generator on another (seed, stream,
index) key; every draw that follows must be bit-identical to that of
``streams.generator`` with the same key, whatever the generator drew
before, so the replicate loops that rekey keep the stream layout.
"""

import numpy as np
import pytest

from rkhs_invlab import streams

DRAWS = 1000
LAST_INDEX = (1 << 40) - 1


def draws(rng):
    """The first DRAWS doubles, normals and 32-bit integers, in that order.

    The 32-bit draws come last: a half word left pending by a draw before
    a rekey would show in them and in no other draw.
    """
    return (rng.random(DRAWS), rng.standard_normal(DRAWS),
            rng.integers(0, 1 << 32, size=DRAWS, dtype=np.uint32))


def assert_same_draws(rekeyed, fresh):
    for got, want in zip(draws(rekeyed), draws(fresh)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("seed, stream, index", [
    (7, streams.NOISE_STREAM, 0),
    (7, streams.NOISE_STREAM, LAST_INDEX),
    (-12345, streams.DESIGN_STREAM, 3),
    ((1 << 63) + 5, streams.DESIGN_STREAM, 3),
    ((1 << 64) - 1, streams.GENERIC_STREAM, LAST_INDEX),
], ids=["index-0", "index-last", "seed-negative", "seed-2^63", "all-ones"])
def test_rekey_draws_like_a_new_generator(seed, stream, index):
    rng = streams.generator(1, streams.NOISE_STREAM, 1)
    rng.standard_normal(5)  # mid-buffer, counter advanced
    assert streams.rekey(rng, seed, stream, index) is rng
    assert_same_draws(rng, streams.generator(seed, stream, index))


def test_rekey_drops_a_pending_32_bit_half():
    rng = streams.generator(2, streams.NOISE_STREAM, 0)
    rng.integers(0, 1 << 32, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    streams.rekey(rng, 2, streams.NOISE_STREAM, 9)
    assert_same_draws(rng, streams.generator(2, streams.NOISE_STREAM, 9))


@pytest.mark.parametrize("index", [-1, LAST_INDEX + 1])
def test_out_of_range_index_is_refused(index):
    with pytest.raises(ValueError):
        streams.generator(0, streams.NOISE_STREAM, index)
    rng = streams.generator(0, streams.NOISE_STREAM, 0)
    with pytest.raises(ValueError):
        streams.rekey(rng, 0, streams.NOISE_STREAM, index)
