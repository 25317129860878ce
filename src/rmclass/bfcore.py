"""Boolean functions on m variables: truth tables, algebraic normal form,
degree and valuation, Reed-Muller reductions, Walsh spectra and pairings.

Conventions (fixed once, used everywhere):
  * point i of F_2^m has coordinates the binary digits of i, bit j-1 <-> x_j;
  * a truth table is a 2^m-bit int, bit i = f(point i);
  * an ANF vector is a 2^m-bit int, bit S = coefficient of the monomial
    X_S = prod_{j in S} x_j, where S is an m-bit mask;
  * the zero function has degree -1 and valuation +infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .bits import degree_mask, hex_of_bits, masks_in_range, space_dimension
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


def mobius_np(arr: np.ndarray, m: int) -> np.ndarray:
    """Moebius transform applied to an array of packed 2^m-bit vectors (m <= 6)."""
    if m > 6:
        raise InvalidInputError("packed vectorized transform supports m <= 6 only")
    out = arr.astype(np.uint64, copy=True)
    for i, mask in enumerate(_halfmasks(m)):
        np_mask = np.uint64(mask)
        out ^= (out & np_mask) << np.uint64(1 << i)
    return out


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

    @classmethod
    def monomial(cls, m: int, mask: int) -> "BooleanFunction":
        """The monomial X_S for an m-bit subset mask (mask 0 is the constant 1)."""
        if mask >> m:
            raise InvalidInputError(f"monomial mask {mask:#x} needs more than m={m} variables")
        return cls(m, anf=1 << mask)

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

    def degree(self) -> int:
        """Largest |S| with a_S = 1; -1 for the zero function."""
        a = self.anf
        best = -1
        while a:
            low = a & -a
            best = max(best, (low.bit_length() - 1).bit_count())
            a ^= low
        return best

    def valuation(self) -> float:
        """Smallest |S| with a_S = 1; +infinity for the zero function."""
        a = self.anf
        if a == 0:
            return math.inf
        best = self.m + 1
        while a:
            low = a & -a
            best = min(best, (low.bit_length() - 1).bit_count())
            a ^= low
        return best

    def weight(self) -> int:
        return self.truth_table.bit_count()

    def __add__(self, other: "BooleanFunction") -> "BooleanFunction":
        if self.m != other.m:
            raise InvalidInputError("cannot add functions on different m")
        if self._anf is not None and other._anf is not None:
            return BooleanFunction(self.m, anf=self._anf ^ other._anf)
        return BooleanFunction(self.m, truth_table=self.truth_table ^ other.truth_table)

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
        return f"BooleanFunction(m={self.m}, anf={self.anf_str()!r})"

    def anf_str(self) -> str:
        """Human-readable polynomial, e.g. '1 + x1*x3'."""
        a = self.anf
        if a == 0:
            return "0"
        terms = []
        for mask in range(1 << self.m):
            if (a >> mask) & 1:
                if mask == 0:
                    terms.append("1")
                else:
                    factors = [f"x{j + 1}" for j in range(self.m) if (mask >> j) & 1]
                    terms.append("*".join(factors))
        return " + ".join(terms)


@dataclass(frozen=True)
class SpaceSpec:
    """The space B(s,t,m): valuation >= s and degree <= t."""

    m: int
    s: int
    t: int

    def __post_init__(self):
        if not (0 <= self.s and self.t <= self.m):
            raise InvalidInputError(f"need 0 <= s and t <= m, got {self}")

    @property
    def dimension(self) -> int:
        return space_dimension(self.m, self.s, self.t)

    @property
    def monomials(self) -> tuple:
        return masks_in_range(self.m, self.s, self.t)

    def contains(self, f: BooleanFunction) -> bool:
        return f.m == self.m and f.valuation() >= self.s and f.degree() <= self.t


def reduce_mod_rm(f: BooleanFunction, r: int) -> BooleanFunction:
    """Clear all ANF coefficients of degree <= r (r = -1 is the identity)."""
    if not -1 <= r <= f.m:
        raise InvalidInputError(f"reduction order r={r} outside -1..{f.m}")
    if r == -1:
        return f
    return BooleanFunction(f.m, anf=f.anf & degree_mask(f.m, r + 1, f.m))


def homogeneous_part(f: BooleanFunction, r: int) -> BooleanFunction:
    """Keep exactly the ANF coefficients of degree r."""
    if not 0 <= r <= f.m:
        raise InvalidInputError(f"degree r={r} outside 0..{f.m}")
    return BooleanFunction(f.m, anf=f.anf & degree_mask(f.m, r, r))


@dataclass(frozen=True)
class WalshSpectrum:
    """Signed spectrum value[a] = sum_x (-1)^(f(x) + a.x)."""

    m: int
    values: np.ndarray

    def parseval_holds(self) -> bool:
        return int(np.sum(self.values.astype(np.int64) ** 2)) == 1 << (2 * self.m)

    def magnitudes(self) -> set:
        return set(int(v) for v in np.abs(self.values))


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


def walsh(f: BooleanFunction) -> WalshSpectrum:
    """Walsh spectrum: the sign row of f times the cached Sylvester matrix."""
    values = signs(f.truth_table, f.m) @ hadamard(f.m)
    return WalshSpectrum(f.m, values.astype(np.int32))


def is_near_bent(f: BooleanFunction) -> bool:
    """Odd m only: spectrum magnitudes all in {0, 2^((m+1)/2)}."""
    if f.m % 2 == 0:
        raise InvalidInputError("near-bent is defined for odd m only")
    amp = 1 << ((f.m + 1) // 2)
    return walsh(f).magnitudes() <= {0, amp}


def inner_product(f: BooleanFunction, g: BooleanFunction) -> int:
    """Parity of sum_x f(x) g(x)."""
    if f.m != g.m:
        raise InvalidInputError("inner product needs functions on the same m")
    return (f.truth_table & g.truth_table).bit_count() & 1


def complement_transform(f: BooleanFunction) -> BooleanFunction:
    """Send every monomial X_S to X_{complement of S}; an involution.

    Maps B(s,t,m) onto B(m-t,m-s,m).
    """
    full = (1 << f.m) - 1
    a = f.anf
    out = 0
    while a:
        low = a & -a
        mask = low.bit_length() - 1
        out |= 1 << (full ^ mask)
        a ^= low
    return BooleanFunction(f.m, anf=out)
