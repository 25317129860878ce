"""Randomized small-weight coset-word search for Reed-Muller codes, plus the
exact brute-force oracles that validate it at small m.

The search is one-sided: a found word of weight w certifies that the coset
minimum weight is <= w (for the whole level orbit of the input function,
since the code is invariant under affine substitutions), while running out
of trials proves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .bits import space_dimension
from .bfcore import BooleanFunction, hadamard, monomial_truth_table, span_signs
from .classify import ClassRecord
from .errors import InvalidInputError, ResourceRefusedError
from .group import act, random_affine
from .rng import stream

MAX_ITER_DEFAULT = 2048


@dataclass
class GeneratorMatrix:
    """k x n generator matrix over GF(2), rows as n-bit ints.

    After pivoting, pivots[i] is the column where row i is the only 1; every
    row then has weight at most n-k+1.
    """

    m: int
    r: int
    rows: List[int]
    pivots: Optional[List[int]] = None

    @property
    def n(self) -> int:
        return 1 << self.m

    @property
    def k(self) -> int:
        return len(self.rows)

    def copy(self) -> "GeneratorMatrix":
        return GeneratorMatrix(self.m, self.r, list(self.rows),
                               list(self.pivots) if self.pivots else None)


def rm_generator_matrix(r: int, m: int) -> GeneratorMatrix:
    """Generator matrix of RM(r,m): truth tables of the monomials of degree
    <= r, ordered by (degree, mask)."""
    if not 0 <= r <= m:
        raise InvalidInputError(f"need 0 <= r <= m, got r={r} m={m}")
    masks = sorted(range(1 << m), key=lambda x: (x.bit_count(), x))
    rows = [monomial_truth_table(s, m) for s in masks if s.bit_count() <= r]
    return GeneratorMatrix(m, r, rows)


def pivoting(G: GeneratorMatrix, rng: np.random.Generator) -> None:
    """In-place Gauss-Jordan elimination choosing a uniformly random pivot
    column on every row; preserves the row space."""
    rows = G.rows
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
    G.pivots = pivots


def reduce(g: int, G: GeneratorMatrix) -> int:
    """Add to g the row of each pivot position where g has a 1; the result is
    in the same coset and vanishes on every pivot, so weight <= n-k."""
    if G.pivots is None:
        raise InvalidInputError("matrix must be pivoted before reducing")
    for row, p in zip(G.rows, G.pivots):
        if (g >> p) & 1:
            g ^= row
    return g


@dataclass
class TrialReport:
    trials: int
    best: int
    threshold: int
    hit: bool
    seed: Optional[int] = None


def distance(
    f: BooleanFunction,
    G: GeneratorMatrix,
    threshold: int,
    max_iter: int = MAX_ITER_DEFAULT,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> TrialReport:
    """Randomized search for a word of weight <= threshold in the coset f+C.

    Each trial substitutes a random affine map into f, re-pivots G at random
    and reduces; the best weight seen certifies an upper bound on the coset
    minimum weight of f's whole orbit.  Never a lower bound.
    """
    if rng is None:
        rng = stream(seed if seed is not None else 0)
    m = f.m
    score = G.n
    trials = 0
    while score > threshold and trials < max_iter:
        g = act(f, random_affine(m, rng)).truth_table
        pivoting(G, rng)
        w = reduce(g, G).bit_count()
        if w < score:
            score = w
        trials += 1
    return TrialReport(trials, score, threshold, score <= threshold, seed)


def exact_coset_min_weight(f: BooleanFunction, r: int, m: int) -> int:
    """Minimum weight of f + RM(r,m) by enumerating all codewords (Gray
    order); refused when the code dimension exceeds 28."""
    if f.m != m:
        raise InvalidInputError("function does not live on m variables")
    k = space_dimension(m, 0, r)
    if k > 28:
        raise ResourceRefusedError(
            f"RM({r},{m}) has dimension {k} > 28; full coset enumeration refused"
        )
    rows = rm_generator_matrix(r, m).rows
    if k <= 20:
        best = f.truth_table.bit_count()
        c = f.truth_table
        for i in range(1, 1 << k):
            c ^= rows[(i & -i).bit_length() - 1]
            w = c.bit_count()
            if w < best:
                best = w
        return best
    return _exact_min_weight_big(f, rows, m)


def _exact_min_weight_big(f: BooleanFunction, rows: List[int], m: int) -> int:
    """Same enumeration with a vectorized 2^20 block and an outer Gray walk."""
    n = 1 << m
    words = (n + 63) // 64
    base_bits = 20
    lo_rows, hi_rows = rows[:base_bits], rows[base_bits:]

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


def exact_covering_radius_rm1(m: int) -> int:
    """Covering radius of RM(1,m) by sweeping one representative per coset
    and reading the distance off the Walsh spectrum; m <= 5.

    The representatives are the functions that vanish on the independent
    points 0 and e_i.  Each is a low part on the first 16 free points plus a
    tail on the rest; the tail's signs scale the rows of the Sylvester
    matrix, (low * tail) @ H = low @ (tail[:, None] * H), so the low sign
    rows are built once.
    """
    if m > 5:
        raise ResourceRefusedError("full coset sweep of RM(1,m) is limited to m <= 5")
    n = 1 << m
    piv = [0] + [1 << i for i in range(m)]  # independent columns of [1; x_i]
    free = [1 << x for x in range(n) if x not in piv]  # truth tables of single points
    low = span_signs(free[:16], m).astype(np.float32)
    h = hadamard(m)
    peak = n  # smallest max |W| over the representatives
    for tail in span_signs(free[16:], m):
        w = low @ (tail[:, None] * h)
        peak = min(peak, int(np.abs(w).max(axis=1).min()))
    return (n - peak) // 2


@dataclass
class CoverReport:
    m: int
    r: int
    threshold: int
    max_iter: int
    seed: int
    reports: List[TrialReport]
    certified: bool
    mean_trials: float
    stddev_trials: float

    def summary(self) -> str:
        verdict = (
            f"covering radius of RM({self.r},{self.m}) within the classified space "
            f"<= {self.threshold} CERTIFIED"
            if self.certified
            else "INCONCLUSIVE (at least one representative never hit the threshold)"
        )
        return (
            f"{verdict}; {len(self.reports)} representatives, "
            f"mean trials {self.mean_trials:.1f}, stddev {self.stddev_trials:.2f}"
        )


def covering_radius_bound(
    records: Sequence[ClassRecord],
    r: int,
    threshold: int,
    max_iter: int = MAX_ITER_DEFAULT,
    seed: int = 0,
) -> CoverReport:
    """Run the randomized search on every orbit representative.

    Coset minimum weight is constant along orbits, so hits on all
    representatives certify the covering-radius bound over the whole ambient
    space the classification covers.  A non-hit only means 'not found'.
    """
    if not records:
        raise InvalidInputError("no representatives supplied")
    m = records[0].m
    base = rm_generator_matrix(r, m)
    reports = []
    for i, rec in enumerate(records):
        G = base.copy()
        rng = stream(seed, i)
        reports.append(distance(rec.rep, G, threshold, max_iter, rng, seed=seed))
    trials = np.array([rep.trials for rep in reports], dtype=np.float64)
    certified = all(rep.hit for rep in reports)
    return CoverReport(
        m,
        r,
        threshold,
        max_iter,
        seed,
        reports,
        certified,
        float(trials.mean()),
        float(trials.std()),  # population formula
    )
