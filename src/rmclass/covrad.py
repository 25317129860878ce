"""Randomized small-weight coset-word search for Reed-Muller codes, plus the
exact coset minimum weight by enumeration that validates it at small m.

The search is one-sided: a found word of weight w certifies that the coset
minimum weight is <= w (for the whole level orbit of the input function,
since the code is invariant under affine substitutions), while running out
of trials proves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .bits import space_dimension
from .bfcore import BooleanFunction, monomial_truth_table
from .classify import ClassRecord
from .errors import InvalidInputError, ResourceRefusedError
from .group import act, random_affine
from .rng import stream

MAX_ITER_DEFAULT = 2048


def rm_generator_matrix(r: int, m: int) -> List[int]:
    """Rows of a generator matrix of RM(r,m) as 2^m-bit ints: the truth
    tables of the monomials of degree <= r, ordered by (degree, mask)."""
    if not 0 <= r <= m:
        raise InvalidInputError(f"need 0 <= r <= m, got r={r} m={m}")
    masks = sorted(range(1 << m), key=lambda x: (x.bit_count(), x))
    return [monomial_truth_table(s, m) for s in masks if s.bit_count() <= r]


def pivoting(rows: List[int], rng: np.random.Generator) -> List[int]:
    """In-place Gauss-Jordan elimination choosing a uniformly random pivot
    column on every row; preserves the row space.  Returns the pivots:
    pivots[i] is the column where row i is the only 1, so every row then has
    weight at most n-k+1."""
    k = len(rows)
    pivots = []
    for i in range(k):
        row = rows[i]
        if row == 0:
            raise InvalidInputError("generator matrix rows are linearly dependent")
        nbits = row.bit_count()
        pick = int(rng.integers(nbits))
        v = row
        for _ in range(pick):
            v &= v - 1
        p = (v & -v).bit_length() - 1
        pivots.append(p)
        for j in range(k):
            if j != i and ((rows[j] >> p) & 1):
                rows[j] ^= row
    return pivots


def reduce(g: int, rows: Sequence[int], pivots: Sequence[int]) -> int:
    """Add to g the row of each pivot position where g has a 1; the result is
    in the same coset and vanishes on every pivot, so weight <= n-k."""
    for row, p in zip(rows, pivots):
        if (g >> p) & 1:
            g ^= row
    return g


@dataclass
class TrialReport:
    """One search: trials run, best weight seen, the threshold and whether
    best <= threshold.  The threshold is the caller's; it stays a field
    because perfbench/selftest.py builds reports from all four."""

    trials: int
    best: int
    threshold: int
    hit: bool


def distance(
    f: BooleanFunction,
    rows: List[int],
    threshold: int,
    max_iter: int = MAX_ITER_DEFAULT,
    *,
    rng: np.random.Generator,
) -> TrialReport:
    """Randomized search for a word of weight <= threshold in the coset f+C,
    drawing every random choice from rng.

    Each trial substitutes a random affine map into f, re-pivots the rows
    in place at random and reduces; the best weight seen certifies an upper bound on the coset
    minimum weight of f's whole orbit.  Never a lower bound.
    """
    m = f.m
    score = 1 << m
    trials = 0
    while score > threshold and trials < max_iter:
        g = act(f, random_affine(m, rng)).truth_table
        pivots = pivoting(rows, rng)
        w = reduce(g, rows, pivots).bit_count()
        if w < score:
            score = w
        trials += 1
    return TrialReport(trials, score, threshold, score <= threshold)


def exact_coset_min_weight(f: BooleanFunction, r: int, m: int) -> int:
    """Minimum weight of f + RM(r,m) by enumerating all 2^k codewords: the
    span of the first min(k, 20) rows is one numpy block, XORed with each
    word of a Gray walk over the other rows; refused when k exceeds 28."""
    if f.m != m:
        raise InvalidInputError("function does not live on m variables")
    k = space_dimension(m, 0, r)
    if k > 28:
        raise ResourceRefusedError(
            f"RM({r},{m}) has dimension {k} > 28; full coset enumeration refused"
        )
    rows = rm_generator_matrix(r, m)
    words = ((1 << m) + 63) // 64
    lo_rows, hi_rows = rows[:20], rows[20:]

    def to_words(value: int) -> np.ndarray:
        return np.array(
            [(value >> (64 * w)) & ((1 << 64) - 1) for w in range(words)], dtype=np.uint64
        )

    block = np.zeros((1, words), dtype=np.uint64)
    for row in lo_rows:
        block = np.vstack([block, block ^ to_words(row)])
    cur = to_words(f.truth_table)
    best = 1 << m
    for i in range(1 << len(hi_rows)):
        if i:
            cur = cur ^ to_words(hi_rows[(i & -i).bit_length() - 1])
        w = int(np.bitwise_count(block ^ cur).sum(axis=1).min())
        if w < best:
            best = w
    return best


def check_level(level: int, r: int, m: int) -> None:
    """Refuse records at a level above r: the search certifies nothing there."""
    if level > r:
        raise InvalidInputError(
            f"records at level {level} are classes modulo RM({level},{m}), on which the "
            f"coset minimum weight modulo RM({r},{m}) is not constant; need level <= r"
        )


def covering_radius_bound(
    records: Sequence[ClassRecord],
    r: int,
    threshold: int,
    max_iter: int = MAX_ITER_DEFAULT,
    seed: int = 0,
) -> List[TrialReport]:
    """Run the randomized search on every orbit representative, with stream
    i of seed for record i; returns their reports in order.

    Coset minimum weight modulo RM(r,m) is constant along the orbits of a
    classification at a level L <= r, so hits on all representatives certify
    the covering-radius bound over the whole ambient space it covers; records
    at a level above r are refused.  A non-hit only means 'not found'.
    """
    if not records:
        raise InvalidInputError("no representatives supplied")
    m = records[0].m
    check_level(max(rec.level for rec in records), r, m)
    base = rm_generator_matrix(r, m)
    return [
        distance(rec.rep, list(base), threshold, max_iter, rng=stream(seed, i))
        for i, rec in enumerate(records)
    ]
