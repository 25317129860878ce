"""Independent class counting (Burnside over the conjugacy classes of
GL(m,2)), the duality relation n(s,t,m) = n(m-t,m-s,m), and the near-bent
census.

Burnside: n(s,t,m) = |AGL|^-1 sum_g 2^fix(g), fix(g) the dimension of the
subspace of B(s,t,m) that g fixes.  fix is a class function, and the
translation by c conjugates x -> xA + b to x -> xA + b + c(A - I); so the
sum runs over one A per class of GL(m,2), times the class size, and one b
per coset of Im(A - I), times |Im(A - I)| (Hou, J. Algebra, 1995).  No
group element is enumerated, and nothing is shared with the descent.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .bits import degree_mask, echelon_gf2, masks_in_range, masks_of_degree, rank_gf2
from .bfcore import MAX_M, BooleanFunction, hadamard, monomial_truth_table, signs, span_signs
from .classify import ClassRecord, classify_space
from .errors import (
    DependencyMissingError,
    InternalConsistencyError,
    InvalidInputError,
)
from .group import _affine_pmap, group_order, substitute_anf
from .group import enumerate_agl  # noqa: F401 (unused; perfbench/layers.py wraps it by name)


# -- Burnside over the conjugacy classes of GL(m,2) ----------------------------
# A polynomial over GF(2) is an int, bit i = coefficient of x^i.


def _clmul(a: int, b: int) -> int:
    """Product of two GF(2) polynomials."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a, b = a << 1, b >> 1
    return out


def _elementary_divisors(m: int) -> List[Tuple[int, int, int]]:
    """(p, i, p^i) for each irreducible p other than x and each i >= 1 with
    deg(p^i) <= m, p ascending."""
    reducible = {
        _clmul(a, b) for a in range(2, 1 << m) for b in range(2, 1 << (m + 2 - a.bit_length()))
    }
    out = []
    for p in range(3, 2 << m):
        if p in reducible:
            continue
        f, i = p, 1
        while f.bit_length() <= m + 1:
            out.append((p, i, f))
            f, i = _clmul(f, p), i + 1
    return out


def _class_types(divisors: Sequence[tuple], m: int, start: int = 0) -> Iterator[list]:
    """Multisets of divisors[start:] whose degrees sum to m: the elementary
    divisors of each conjugacy class of GL(m,2) once."""
    if m == 0:
        yield []
        return
    for k in range(start, len(divisors)):
        d = divisors[k][2].bit_length() - 1
        if d <= m:
            for rest in _class_types(divisors, m - d, k):
                yield [divisors[k]] + rest


def _centralizer_order(divisors: Sequence[tuple]) -> int:
    """|C(A)| from the elementary divisors of A (Macdonald, Symmetric
    Functions and Hall Polynomials, ch. IV): the product over p, with
    q = 2^deg p, lam the partition of the p^i and m_i the multiplicity of
    the part i, of q^(sum_j lam'_j^2 - sum_i m_i(m_i+1)/2) prod_i
    prod_{j<=m_i} (q^j - 1)."""
    order = 1
    for p in {p for p, _, _ in divisors}:
        q = 1 << (p.bit_length() - 1)
        lam = [i for r, i, _ in divisors if r == p]
        mult = [lam.count(i) for i in set(lam)]
        conj2 = sum(sum(i >= j for i in lam) ** 2 for j in range(1, max(lam) + 1))
        order *= q ** (conj2 - sum(k * (k + 1) // 2 for k in mult))
        for k in mult:
            for j in range(1, k + 1):
                order *= q**j - 1
    return order


def gl_classes(m: int) -> List[Tuple[List[int], int]]:
    """(rows, class size) for each conjugacy class of GL(m,2).

    The representative is block diagonal with one companion matrix of f,
    multiplication by x on GF(2)[x]/(f), per elementary divisor f = p^i.
    Certificate: the sizes |GL|/|C(A)| are integers and sum to |GL(m,2)|.
    """
    gl_order = group_order(m) >> m
    classes = []
    for divisors in _class_types(_elementary_divisors(m), m):
        centralizer = _centralizer_order(divisors)
        if gl_order % centralizer:
            raise InternalConsistencyError(f"centralizer order {centralizer} does not divide |GL|")
        rows: List[int] = []
        for _, _, f in divisors:
            n, at = f.bit_length() - 1, len(rows)
            rows += [1 << (at + j + 1) for j in range(n - 1)] + [(f ^ (1 << n)) << at]
        classes.append((rows, gl_order // centralizer))
    if sum(size for _, size in classes) != gl_order:
        raise InternalConsistencyError(f"class sizes do not sum to |GL({m},2)|")
    return classes


def fix_dimension(s: int, t: int, m: int, pmap: bytes) -> int:
    """Dimension of the subspace of B(s,t,m) that the substitution with point
    map pmap fixes modulo RM(s-1,m): dim B minus the rank of g - 1."""
    high = degree_mask(m, s, m)
    rows = [
        (substitute_anf(monomial_truth_table(mask, m), pmap) ^ (1 << mask)) & high
        for mask in masks_in_range(m, s, t)
    ]
    return len(rows) - rank_gf2(rows)


def burnside_count(s: int, t: int, m: int) -> int:
    """Class number of B(s,t,m), any m <= MAX_M.  Certificate: the Burnside
    sum is divisible by |AGL(m,2)|."""
    if not (0 <= s <= t <= m and 1 <= m <= MAX_M):
        raise InvalidInputError(f"need 0 <= s <= t <= m, 1 <= m <= {MAX_M}; got s={s} t={t} m={m}")
    total = 0
    for rows, size in gl_classes(m):
        image = echelon_gf2([r ^ (1 << i) for i, r in enumerate(rows)])
        leads = sum(1 << (v.bit_length() - 1) for v in image)
        # the b without a leading bit of the image's echelon basis: one per coset
        fixed = sum(
            1 << fix_dimension(s, t, m, _affine_pmap(rows, b))
            for b in range(1 << m)
            if not b & leads
        )
        total += size * fixed << len(image)
    order = group_order(m)
    if total % order:
        raise InternalConsistencyError("Burnside sum is not divisible by the group order")
    return total // order


# -- the class-number table and duality ---------------------------------------


def duality_check(m: int, counts: Dict[Tuple[int, int], int]) -> Tuple[list, list]:
    """n(s,t,m) = n(m-t,m-s,m) on every pair of cells of counts, {(s, t): n}.

    Returns the pairs checked, ((s, t), (m-t, m-s)) once each, and the
    violations, ((s, t), n, (m-t, m-s), n') with n != n'."""
    checked, violations = [], []
    for (s, t), n in sorted(counts.items()):
        dual = (m - t, m - s)
        if dual not in counts or dual < (s, t):
            continue
        checked.append(((s, t), dual))
        if n != counts[dual]:
            violations.append(((s, t), n, dual, counts[dual]))
    return checked, violations


def table_render(m: int, counts: Dict[Tuple[int, int], int]) -> str:
    """Render the triangle of counts, {(s, t): n}; entries of 10^6 and above
    appear as rounded powers of ten."""
    cols = list(range(1, m + 1))
    width = 10
    lines = ["s\\t |" + "".join(f"{t:>{width}}" for t in cols)]
    lines.append("-" * (5 + width * len(cols)))
    for s in range(0, m + 1):
        cells = []
        for t in cols:
            v = counts.get((s, t))
            if v is None or s > t:
                cells.append(f"{'':>{width}}")
            elif v >= 10**6:
                cells.append(f"{'10^%.1f' % np.log10(float(v)):>{width}}")
            else:
                cells.append(f"{v:>{width}}")
        lines.append(f"{s:>3} |" + "".join(cells))
    return "\n".join(lines)


# -- near-bent census ----------------------------------------------------------


def count_near_bent_completions(f: BooleanFunction) -> int:
    """N(f): quadratic forms q with f+q near-bent, by a split on x_m.

    With q = q' + x_m*l, q' quadratic and l linear in x_1..x_{m-1}, and f0,
    f1 the halves of f on x_m = 0 and 1, W_{f+q}(a', a_m) = X + (-1)^a_m Y
    for X = W_{f0+q'}(a') and Y = W_{f1+q'}(a' ^ l) (Carlet, Boolean
    Functions for Cryptography and Coding Theory, 2021).  Both |X +- Y| lie
    in {0, A}, A = 2^((m+1)/2), iff |X| and |Y| lie in {0, A/2, A} and
    |X| + |Y| lies in {0, A}.  The 2^C(m-1,2) sign rows of q' take 2 MiB at m=7.
    """
    m = f.m
    if m % 2 == 0:
        raise InvalidInputError("near-bent needs odd m")
    amp, half = 1 << ((m + 1) // 2), 1 << (m - 1)
    q_signs = span_signs([monomial_truth_table(k, m - 1) for k in masks_of_degree(m - 1, 2)], m - 1)
    halves = (f.truth_table & ((1 << half) - 1), f.truth_table >> half)
    w = np.abs(np.stack([q_signs @ (signs(g, m - 1)[:, None] * hadamard(m - 1)) for g in halves]))
    keep = ((w == 0) | (w == amp // 2) | (w == amp)).all(axis=(0, 2))
    w0, w1 = w.astype(np.int8).compress(keep, axis=1)  # |W| <= 2^(m-1) <= 64
    idx, count = np.arange(half), 0
    for lin in range(half):
        s = w0 + w1[:, idx ^ lin]
        count += int(((s == 0) | (s == amp)).all(axis=1).sum())
    return count


def near_bent_census(
    m: int,
    records: Optional[Sequence[ClassRecord]] = None,
    mem_limit: int = 2 << 30,
) -> List[Tuple[BooleanFunction, int, int]]:
    """(rep, N(rep), orbit size) for each level-2 orbit of B(3,(m+1)/2,m),
    classified here (within mem_limit bytes) unless given.

    The sum of N(rep) times orbit size counts the near-bent functions of
    valuation >= 2; times 2^(m+1), for the affine part, which near-bentness
    ignores, it counts every near-bent function in m variables."""
    if m % 2 == 0:
        raise InvalidInputError("near-bent census needs odd m")
    d = (m + 1) // 2
    if records is None:
        if m > 5:
            raise DependencyMissingError(
                f"near-bent census for m={m} needs the classification of "
                f"B(3,{d},{m}) passed in as records (long-run artifact)"
            )
        records = classify_space(3, d, m, mem_limit)
    order = group_order(m)
    rows = []
    for rec in records:
        if rec.m != m:
            raise InvalidInputError(f"records are for m={rec.m}, not m={m}")
        if rec.level != 2:
            raise InvalidInputError("records are not a level-2 classification")
        rows.append((rec.rep, count_near_bent_completions(rec.rep), order // rec.stab_order))
    return rows
