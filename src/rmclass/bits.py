"""Small GF(2) helpers on ints used as bit vectors.

A Boolean vector of length L is an int whose bit i is entry i.  A GF(2)
matrix is a list of row ints.  Everything here is pure and allocation-light;
the hot loops elsewhere rely on these staying simple.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Dict, Sequence

from .errors import InvalidInputError


def pivots_gf2(rows: Sequence[int]) -> Dict[int, int]:
    """An echelon basis of the row span of a GF(2) matrix given as row ints,
    keyed by leading bit (its bit_length); the rank is its length.  Each row
    is reduced by the pivot of its leading bit until it has none, and joins
    the pivots then, or reaches zero."""
    pivots: Dict[int, int] = {}
    for row in rows:
        while row:
            pivot = pivots.setdefault(row.bit_length(), row)
            if pivot == row:
                break
            row ^= pivot
    return pivots


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


@lru_cache(maxsize=None)
def hex_spec(nbits: int) -> str:
    """The format spec of an nbits-wide vector in hex: max(1, nbits/4) digits."""
    return f"0{max(1, nbits // 4)}x"


def hex_of_bits(value: int, nbits: int) -> str:
    """Lowercase hex of an nbits-wide vector, least significant digit last."""
    if value < 0 or value >> nbits:
        raise InvalidInputError(f"value does not fit in {nbits} bits")
    return format(value, hex_spec(nbits))


def bits_of_hex(text: str, nbits: int) -> int:
    """Inverse of hex_of_bits, with width validation."""
    value = int(text, 16)
    if value >> nbits:
        raise InvalidInputError(f"hex value {text!r} exceeds {nbits} bits")
    return value
