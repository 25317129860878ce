"""Boolean functions on m variables: truth tables, algebraic normal form
and Walsh spectra.

Conventions (fixed once, used everywhere):
  * point i of F_2^m has coordinates the binary digits of i, bit j-1 <-> x_j;
  * a truth table is a 2^m-bit int, bit i = f(point i);
  * an ANF vector is a 2^m-bit int, bit S = coefficient of the monomial
    X_S = prod_{j in S} x_j, where S is an m-bit mask.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .bits import hex_of_bits
from .errors import InvalidInputError

MAX_M = 8


@lru_cache(maxsize=None)
def _halfmasks(n: int) -> tuple:
    """For each axis i < n: the 2^n-bit mask of points whose bit i is 0."""
    out = []
    for i in range(n):
        block = (1 << (1 << i)) - 1
        period = 1 << (i + 1)
        mask = 0
        for base in range(0, 1 << n, period):
            mask |= block << base
        out.append(mask)
    return tuple(out)


def mobius(bits: int, length: int) -> int:
    """Binary Moebius transform (subset-sum butterfly over GF(2)).

    Converts a truth table to its ANF vector and back; it is an involution.
    """
    if length <= 0 or length & (length - 1):
        raise InvalidInputError(f"vector length {length} is not a power of two")
    if bits < 0 or bits >> length:
        raise InvalidInputError(f"vector does not fit in {length} bits")
    n = length.bit_length() - 1
    for i, mask in enumerate(_halfmasks(n)):
        bits ^= (bits & mask) << (1 << i)
    return bits


@lru_cache(maxsize=None)
def monomial_truth_table(mask: int, m: int) -> int:
    """Truth table of X_S for S given as an m-bit mask."""
    if mask >> m:
        raise InvalidInputError(f"monomial mask {mask:#x} has variables beyond m={m}")
    tt = (1 << (1 << m)) - 1
    half = _halfmasks(m)
    for i in range(m):
        if (mask >> i) & 1:
            tt &= ~half[i]
    return tt


class BooleanFunction:
    """Immutable Boolean function carrying both representations lazily.

    Either the truth table or the ANF may be supplied; the other is derived
    on demand through the Moebius transform.
    """

    __slots__ = ("m", "_tt", "_anf")

    def __init__(self, m: int, truth_table: int | None = None, anf: int | None = None):
        if not 1 <= m <= MAX_M:
            raise InvalidInputError(f"m={m} outside supported range 1..{MAX_M}")
        if truth_table is None and anf is None:
            raise InvalidInputError("need a truth table or an ANF vector")
        n = 1 << m
        for v in (truth_table, anf):
            if v is not None and (v < 0 or v >> n):
                raise InvalidInputError(f"vector does not fit in {n} bits")
        self.m = m
        self._tt = truth_table
        self._anf = anf

    @classmethod
    def zero(cls, m: int) -> "BooleanFunction":
        return cls(m, truth_table=0, anf=0)

    @property
    def truth_table(self) -> int:
        if self._tt is None:
            self._tt = mobius(self._anf, 1 << self.m)
        return self._tt

    @property
    def anf(self) -> int:
        if self._anf is None:
            self._anf = mobius(self._tt, 1 << self.m)
        return self._anf

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BooleanFunction)
            and self.m == other.m
            and self.anf == other.anf
        )

    def __hash__(self) -> int:
        return hash((self.m, self.anf))

    def anf_hex(self) -> str:
        return hex_of_bits(self.anf, 1 << self.m)

    def __repr__(self) -> str:
        return f"BooleanFunction(m={self.m}, anf={self.anf_hex()!r})"


@lru_cache(maxsize=None)
def hadamard(m: int) -> np.ndarray:
    """The read-only 2^m x 2^m Sylvester matrix H[x, a] = (-1)^(a.x), float32.

    Every spectrum in the library is rows @ hadamard(m).  float32 is exact
    there: each Walsh value and each partial sum is an integer of magnitude
    <= 2^m <= 256 < 2^24, and the matmul runs through BLAS.
    """
    h = np.ones((1, 1), dtype=np.float32)
    for _ in range(m):
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


def signs(tt: int, m: int) -> np.ndarray:
    """(-1)^f(x) for x = 0..2^m-1 as an int8 vector, f given by its truth table."""
    n = 1 << m
    raw = np.frombuffer(tt.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return 1 - 2 * np.unpackbits(raw, count=n, bitorder="little").view(np.int8)


def span_signs(tts: Sequence[int], m: int) -> np.ndarray:
    """Sign rows of every GF(2) combination of the given truth tables, int8:
    row i is signs of the XOR of tts[j] over the set bits j of i."""
    out = np.empty((1 << len(tts), 1 << m), dtype=np.int8)
    out[0] = 1
    for j, tt in enumerate(tts):
        np.multiply(out[: 1 << j], signs(tt, m), out=out[1 << j : 2 << j])
    return out
