"""Reproducible randomness: counter-based Philox streams under one 64-bit seed.

Stream i of a seed is the Philox generator keyed by the seed whose counter
starts at i * 2^128, where the seed's master generator would be after i
jumps.  Distinct workers or repetitions so draw from disjoint counter ranges
while the whole run stays a pure function of the seed.  Draws is the one
bounded draw, equal to Generator.integers without a numpy call per draw.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

_WORD = 1 << 32
_LOW = _WORD - 1


def check_seed(seed: int) -> None:
    """Refuse a seed outside 0..2^64-1, which Philox would key modulo 2^64."""
    if not 0 <= seed < 1 << 64:
        raise InvalidInputError(f"seed must be in 0..2^64-1, got {seed}")


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator number `index` (0 <= index < 2^63) of the family
    keyed by `seed` (0 <= seed < 2^64)."""
    check_seed(seed)
    if not 0 <= index < 1 << 63:
        raise InvalidInputError(f"stream index must be in 0..2^63-1, got {index}")
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, index, 0]))


class Draws:
    """Uniform bounded integers from one Philox bit generator.

    The generator is read 64 raw 64-bit words at a time; each gives two
    32-bit words, low half first, the order in which Philox hands numpy its
    32-bit words.  So the generator's own state runs ahead of the draws.
    """

    __slots__ = ("_bitgen", "_words")

    def __init__(self, bitgen: np.random.Philox):
        self._bitgen = bitgen
        self._words: list = []  # the words still to be used, the next one last

    def _refill(self) -> int:
        """Read the next block and return its first word."""
        raw = self._bitgen.random_raw(64)[::-1]
        halves = np.column_stack((raw >> np.uint64(32), raw & np.uint64(_LOW)))
        self._words.extend(halves.ravel().tolist())
        return self._words.pop()

    def below(self, n: int) -> int:
        """A uniform integer in 0..n-1 for 1 <= n <= 2^32, equal to
        Generator.integers(n) on the same words: Lemire's multiply-and-reject
        on 32-bit words.  n = 1 uses no word."""
        if not 1 < n <= _WORD:
            if n == 1:
                return 0
            raise InvalidInputError(f"need 1 <= n <= 2^32, got {n}")
        words = self._words
        x = (words.pop() if words else self._refill()) * n
        if x & _LOW < n:
            floor = (_WORD - n) % n
            while x & _LOW < floor:
                x = (words.pop() if words else self._refill()) * n
        return x >> 32
