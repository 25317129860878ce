"""Small GF(2) helpers on ints used as bit vectors.

A Boolean vector of length L is an int whose bit i is entry i.  A GF(2)
matrix is a list of row ints.  Everything here is pure and allocation-light;
the hot loops elsewhere rely on these staying simple.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import List, Sequence

from .errors import InvalidInputError


def rank_gf2(rows: Sequence[int]) -> int:
    """Rank of a GF(2) matrix given as a sequence of row ints."""
    basis: List[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    return len(basis)


def is_invertible_gf2(rows: Sequence[int], n: int) -> bool:
    """Whether an n x n matrix over GF(2) has full rank."""
    return len(rows) == n and rank_gf2(rows) == n


@lru_cache(maxsize=None)
def masks_of_degree(m: int, r: int) -> tuple:
    """All m-bit masks with popcount r, ascending (the degree-r monomials)."""
    return tuple(x for x in range(1 << m) if x.bit_count() == r)


@lru_cache(maxsize=None)
def masks_in_range(m: int, s: int, t: int) -> tuple:
    """All m-bit masks with popcount in [s, t], ascending."""
    if s > t:
        return ()
    return tuple(x for x in range(1 << m) if s <= x.bit_count() <= t)


@lru_cache(maxsize=None)
def degree_mask(m: int, lo: int, hi: int) -> int:
    """The 2^m-bit mask of the monomials of degree lo..hi (0 when lo > hi)."""
    mask = 0
    for x in masks_in_range(m, lo, hi):
        mask |= 1 << x
    return mask


def space_dimension(m: int, s: int, t: int) -> int:
    """Dimension of the span of monomials of degree s..t in m variables."""
    if s > t:
        return 0
    return sum(comb(m, k) for k in range(max(s, 0), min(t, m) + 1))


def hex_of_bits(value: int, nbits: int) -> str:
    """Lowercase hex of an nbits-wide vector, least significant digit last."""
    ndigits = max(1, nbits // 4)
    if value < 0 or value >> nbits:
        raise InvalidInputError(f"value does not fit in {nbits} bits")
    return format(value, f"0{ndigits}x")


def bits_of_hex(text: str, nbits: int) -> int:
    """Inverse of hex_of_bits, with width validation."""
    value = int(text, 16)
    if value >> nbits:
        raise InvalidInputError(f"hex value {text!r} exceeds {nbits} bits")
    return value
