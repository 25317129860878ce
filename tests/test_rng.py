import numpy as np
import pytest

from rmclass.errors import InvalidInputError
from rmclass.rng import Draws, stream

BOUNDS = [1, 2, 3, 7, 64, 255, 256, (1 << 31) + 5, (1 << 32) - 3, 1 << 32]


@pytest.mark.parametrize("seed", [0, 5, (1 << 64) - 1])
def test_stream_counter_is_the_jumped_master(seed):
    # stream i starts its counter where the master would be after i jumps
    for index in (0, 1, 77, (1 << 32) + 3, 1 << 62, (1 << 63) - 1):
        ours = stream(seed, index).bit_generator.random_raw(8)
        jumped = np.random.Philox(key=seed).jumped(index).random_raw(8)
        assert ours.tolist() == jumped.tolist(), index


def test_stream_refuses_an_index_outside_its_range():
    for index in (-1, 1 << 63):
        with pytest.raises(InvalidInputError):
            stream(0, index)


@pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 64) + 7, -(1 << 64) + 7])
def test_stream_refuses_a_seed_outside_64_bits(seed):
    # keyed modulo 2^64, such a seed would run the search of another seed
    with pytest.raises(InvalidInputError, match="seed must be in 0..2"):
        stream(seed)


@pytest.mark.parametrize("seed", range(6))
def test_below_is_generator_integers(seed):
    # chained scalar and size=k calls over every bound, past several refills
    # of 128 words; bound 1 uses no word on either side, and 2^31+5 rejects
    # about half its words
    draws, ref = Draws(stream(seed).bit_generator), stream(seed)
    worded = 0  # draws with a bound above 1, each at least one word
    for k in (None, 1, 3, 6):
        for n in BOUNDS:
            if k is None:
                assert [draws.below(n) for _ in range(20)] == [int(ref.integers(n)) for _ in range(20)]
            else:
                assert [draws.below(n) for _ in range(k)] == ref.integers(0, n, size=k).tolist()
            worded += (20 if k is None else k) * (n > 1)
    assert worded > 2 * 128
    assert draws.below(1 << 30) == int(ref.integers(1 << 30))


def test_below_refuses_a_bound_outside_1_to_2_pow_32():
    draws = Draws(stream(0).bit_generator)
    for n in (0, -1, (1 << 32) + 1):
        with pytest.raises(InvalidInputError):
            draws.below(n)
