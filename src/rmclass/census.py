"""Independent class counting (Burnside over the full group), the duality
relation n(s,t,m) = n(m-t,m-s,m), and the near-bent census.

Burnside here deliberately enumerates every group element rather than
conjugacy classes: it is exact, cheap for m <= 4 and serves as a second
method against the descending classification.  The per-element fixed-space
dimensions are computed in numpy batches (bit-packed rows, vectorized
Gaussian elimination), so the 322560 elements of AGL(4,2) take seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bits import degree_mask, masks_in_range, masks_of_degree, space_dimension
from .bfcore import BooleanFunction, hadamard, mobius_np, monomial_truth_table, signs, span_signs
from .classify import ClassRecord, classify_space
from .errors import (
    DependencyMissingError,
    InternalConsistencyError,
    InvalidInputError,
)
from .group import AffineMap, enumerate_agl, group_order


# -- batched Burnside ---------------------------------------------------------


def _pmap_batch(maps: Sequence[AffineMap], m: int) -> np.ndarray:
    n = 1 << m
    out = np.empty((len(maps), n), dtype=np.uint8)
    for i, g in enumerate(maps):
        out[i] = np.frombuffer(g.pmap, dtype=np.uint8)
    return out


def _fix_log_batch(s: int, t: int, m: int, pmaps: np.ndarray) -> np.ndarray:
    """log2 of the fixed-space size for a batch of point maps."""
    basis = masks_in_range(m, s, t)
    dim = len(basis)
    n = 1 << m
    batch = pmaps.shape[0]
    rows = np.zeros((batch, dim), dtype=np.uint64)
    keep = ~np.uint64(degree_mask(m, 0, s - 1))
    for j, mask in enumerate(basis):
        tt = np.uint64(monomial_truth_table(mask, m))
        gathered = np.zeros(batch, dtype=np.uint64)
        for x in range(n):
            gathered |= ((tt >> pmaps[:, x].astype(np.uint64)) & np.uint64(1)) << np.uint64(x)
        image = (mobius_np(gathered, m) ^ np.uint64(1 << mask)) & keep
        row = np.zeros(batch, dtype=np.uint64)
        for jj, other in enumerate(basis):
            row |= ((image >> np.uint64(other)) & np.uint64(1)) << np.uint64(jj)
        rows[:, j] = row
    rank = _rank_batch(rows, dim)
    return dim - rank


def _rank_batch(rows: np.ndarray, dim: int) -> np.ndarray:
    """GF(2) rank of each row-set in a (batch, dim) array of bit-mask rows."""
    batch = rows.shape[0]
    pivot = np.zeros((batch, dim), dtype=np.uint64)  # pivot[b, p]: row leading at bit p
    rank = np.zeros(batch, dtype=np.int64)
    for j in range(rows.shape[1]):
        v = rows[:, j].copy()
        for p in range(dim - 1, -1, -1):
            hit = ((v >> np.uint64(p)) & np.uint64(1)).astype(bool)
            if hit.any():
                v[hit] ^= pivot[hit, p]
        live = v != 0
        for p in range(dim - 1, -1, -1):
            lead = live & (((v >> np.uint64(p)) & np.uint64(1)).astype(bool))
            if lead.any():
                pivot[lead, p] = v[lead]
                rank[lead] += 1
                live &= ~lead
        if not live.any():
            continue
    return rank


BURNSIDE_CHUNK = 1 << 15


def burnside_count(
    s: int,
    t: int,
    m: int,
    allow_long: bool = False,
    chunk: int = BURNSIDE_CHUNK,
) -> int:
    """Class number of B(s,t,m) by averaging fixed-point counts over the
    whole group.  m <= 4 runs in seconds; m = 5 iterates ~3.2e8 elements and
    is refused unless allow_long is set."""
    if not (0 <= s <= t <= m):
        raise InvalidInputError(f"need 0 <= s <= t <= m, got s={s} t={t} m={m}")
    if m > 5 or (m == 5 and not allow_long):
        raise InvalidInputError(
            "full-group Burnside is supported for m <= 4; m = 5 enumerates "
            "319979520 elements and needs allow_long=True (hours of runtime); "
            "larger m is out of reach by design"
        )
    total = 0
    bucket: List[AffineMap] = []
    dim = space_dimension(m, s, t)
    for g in enumerate_agl(m):
        bucket.append(g)
        if len(bucket) == chunk:
            total += _bucket_total(s, t, m, bucket, dim)
            bucket = []
    if bucket:
        total += _bucket_total(s, t, m, bucket, dim)
    order = group_order(m)
    if total % order:
        raise InternalConsistencyError("Burnside sum is not divisible by the group order")
    return total // order


def _bucket_total(s, t, m, bucket, dim):
    logs = _fix_log_batch(s, t, m, _pmap_batch(bucket, m))
    counts = np.bincount(logs, minlength=dim + 1)
    return sum(int(c) << k for k, c in enumerate(counts) if c)


# -- the class-number table and duality ---------------------------------------


@dataclass
class ClassCountTable:
    """Upper-triangular table of class numbers n(s,t,m); missing = not computed."""

    m: int
    entries: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def set(self, s: int, t: int, value: int) -> None:
        if not (0 <= s <= t <= self.m):
            raise InvalidInputError(f"cell ({s},{t}) outside the m={self.m} triangle")
        self.entries[(s, t)] = value

    def get(self, s: int, t: int) -> Optional[int]:
        return self.entries.get((s, t))

    def dual_cell(self, s: int, t: int) -> Tuple[int, int]:
        return (self.m - t, self.m - s)


@dataclass
class DualityReport:
    checked_pairs: List[Tuple[Tuple[int, int], Tuple[int, int]]]
    violations: List[Tuple[Tuple[int, int], int, Tuple[int, int], int]]

    @property
    def ok(self) -> bool:
        return not self.violations


def duality_check(table: ClassCountTable) -> DualityReport:
    """Verify n(s,t,m) = n(m-t,m-s,m) on every pair of computed cells."""
    checked = []
    violations = []
    seen = set()
    for (s, t), value in sorted(table.entries.items()):
        ds, dt = table.dual_cell(s, t)
        if (ds, dt) not in table.entries or frozenset(((s, t), (ds, dt))) in seen:
            continue
        seen.add(frozenset(((s, t), (ds, dt))))
        dual_value = table.entries[(ds, dt)]
        checked.append(((s, t), (ds, dt)))
        if value != dual_value:
            violations.append(((s, t), value, (ds, dt), dual_value))
    return DualityReport(checked, violations)


def table_render(table: ClassCountTable, pow_threshold: int = 10 ** 6) -> str:
    """Render the triangle; entries at or above the threshold appear as
    rounded powers of ten."""
    m = table.m
    cols = list(range(1, m + 1))
    width = 10
    lines = ["s\\t |" + "".join(f"{t:>{width}}" for t in cols)]
    lines.append("-" * (5 + width * len(cols)))
    for s in range(0, m + 1):
        cells = []
        for t in cols:
            v = table.get(s, t)
            if v is None or s > t:
                cells.append(f"{'':>{width}}")
            elif v >= pow_threshold:
                cells.append(f"{'10^%.1f' % np.log10(float(v)):>{width}}")
            else:
                cells.append(f"{v:>{width}}")
        lines.append(f"{s:>3} |" + "".join(cells))
    return "\n".join(lines)


# -- near-bent census ----------------------------------------------------------


@dataclass
class NearBentPerRep:
    rep: BooleanFunction
    n_quadratics: int
    orbit_size: int


@dataclass
class NearBentCensus:
    """Count of near-bent functions in m variables.

    weighted_sum counts the near-bent functions of valuation >= 2 (each
    level-2 orbit representative contributes N(f) quadratic completions times
    its orbit size); total multiplies by 2^(m+1) for the affine part, which
    near-bentness ignores.
    """

    m: int
    per_rep: List[NearBentPerRep]
    weighted_sum: int
    total: int


@lru_cache(maxsize=1)
def _quadratic_sign_matrix(m: int) -> np.ndarray:
    """Read-only signs (-1)^q(x) of all 2^C(m,2) quadratic forms q; row i is
    the form whose bit j selects the j-th degree-2 monomial, masks ascending.
    Built once for the last m asked (256 MiB at m=7)."""
    out = span_signs([monomial_truth_table(mask, m) for mask in masks_of_degree(m, 2)], m)
    out.flags.writeable = False
    return out


def count_near_bent_completions(f: BooleanFunction) -> int:
    """N(f): quadratic forms q with f+q near-bent, by full enumeration.

    The spectrum of f+q is (signs(q) * signs(f)) @ H = signs(q) @ H_f with
    H_f = signs(f)[:, None] * H, so f scales the matrix once.
    """
    m = f.m
    if m % 2 == 0:
        raise InvalidInputError("near-bent needs odd m")
    amp = 1 << ((m + 1) // 2)
    h_f = signs(f.truth_table, m)[:, None] * hadamard(m)
    q_signs = _quadratic_sign_matrix(m)
    count = 0
    block = 1 << 14
    for lo in range(0, q_signs.shape[0], block):
        a = np.abs(q_signs[lo : lo + block] @ h_f)
        count += int((((a == 0) | (a == amp)).all(axis=1)).sum())
    return count


def near_bent_census(
    m: int,
    records: Optional[Sequence[ClassRecord]] = None,
    config=None,
) -> NearBentCensus:
    """Weighted count of near-bent functions from the level-2 classification
    of B(3,(m+1)/2,m)."""
    if m % 2 == 0:
        raise InvalidInputError("near-bent census needs odd m")
    d = (m + 1) // 2
    if records is None:
        if m > 5:
            raise DependencyMissingError(
                f"near-bent census for m={m} needs the classification of "
                f"B(3,{d},{m}) passed in as records (long-run artifact)"
            )
        records = classify_space(3, d, m, config)
    order = group_order(m)
    per_rep = []
    weighted = 0
    for rec in records:
        if rec.level != 2:
            raise InvalidInputError("records are not a level-2 classification")
        n_q = count_near_bent_completions(rec.rep)
        orbit = order // rec.stab_order
        per_rep.append(NearBentPerRep(rec.rep, n_q, orbit))
        weighted += n_q * orbit
    return NearBentCensus(m, per_rep, weighted, weighted << (m + 1))
