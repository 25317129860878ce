"""Brute-force reference implementations used only by the tests.

Everything here is written for obviousness, not speed, and deliberately
avoids the library's fast paths (bit butterflies, Schreier chains, boundary
tables) so that agreement between the two is meaningful evidence.  Two
exceptions are the library's former routes, kept as the references the new
ones must match: generator_set_by_chain, the harvest before element sets,
pivoting_by_rows, the row-list elimination before packed rows, and
random_affine_by_integers, the map drawn by Generator.integers calls.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import product

import numpy as np

from rmclass.bfcore import BooleanFunction, hadamard, monomial_truth_table, signs, span_signs
from rmclass.bits import hex_of_bits, masks_in_range
from rmclass.errors import InternalConsistencyError, InvalidInputError, ResourceRefusedError
from rmclass.group import _PAD, AffineMap, SubgroupOracle, enumerate_agl


def echelon_gf2(rows) -> list:
    """A basis of the row span with distinct leading bits, largest first."""
    basis = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    return basis


def rank_gf2(rows) -> int:
    """Rank of a GF(2) matrix given as row ints: the size of its echelon basis."""
    return len(echelon_gf2(rows))


def point_bits(x: int, m: int):
    return [(x >> j) & 1 for j in range(m)]


def anf_by_definition(tt: int, m: int) -> int:
    """a_S = parity of f over the subcube below S, straight from the sum."""
    anf = 0
    for s in range(1 << m):
        acc = 0
        for x in range(1 << m):
            if x & ~s == 0:
                acc ^= (tt >> x) & 1
        anf |= acc << s
    return anf


def walsh_by_definition(f: BooleanFunction):
    """W(a) = sum_x (-1)^(f(x) + a.x), evaluated term by term."""
    m = f.m
    tt = f.truth_table
    out = []
    for a in range(1 << m):
        acc = 0
        for x in range(1 << m):
            bit = ((tt >> x) & 1) ^ ((a & x).bit_count() & 1)
            acc += 1 - 2 * bit
        out.append(acc)
    return out


def compose(a: AffineMap, b: AffineMap) -> AffineMap:
    """The product "a then b" of the right action: act(f, compose(a, b)) =
    act(act(f, a), b), so its point map is x -> a.pmap[b.pmap[x]]."""
    if a.m != b.m:
        raise InvalidInputError("cannot compose maps on different m")
    return AffineMap(a.m, bytes(a.pmap[b.pmap[x]] for x in range(1 << a.m)))


def affine_rows(s: AffineMap) -> list:
    """The matrix rows of x -> xA + b: row i is the image of e_i minus b."""
    b = s.pmap[0]
    return [s.pmap[1 << i] ^ b for i in range(s.m)]


def affine_translation(s: AffineMap) -> int:
    """The translation b of x -> xA + b, the image of 0."""
    return s.pmap[0]


def affine_image(rows, b: int, x: int) -> int:
    """xA + b through coordinates: b plus row i for every bit i of x."""
    y = b
    for i, row in enumerate(rows):
        if (x >> i) & 1:
            y ^= row
    return y


def act_by_definition(f: BooleanFunction, s: AffineMap) -> BooleanFunction:
    """Evaluate f(sigma(x)) pointwise through coordinates."""
    rows, b = affine_rows(s), affine_translation(s)
    tt = 0
    for x in range(1 << f.m):
        tt |= ((f.truth_table >> affine_image(rows, b, x)) & 1) << x
    return BooleanFunction(f.m, truth_table=tt)


def affine_text_by_formula(s: AffineMap) -> str:
    """Record text of a map field by field: its matrix rows, most significant
    first, then its translation, each through hex_of_bits."""
    fields = [hex_of_bits(r, s.m) for r in reversed(affine_rows(s))]
    fields.append(hex_of_bits(affine_translation(s), s.m))
    return ":".join(fields)


def record_line_by_formula(rec) -> str:
    """Record text field by field: the level, the representative through
    hex_of_bits, the stabilizer order, the generator count, then each
    generator through affine_text_by_formula."""
    fields = [
        format(rec.level, "d"),
        hex_of_bits(rec.rep.anf, 1 << rec.rep.m),
        format(rec.stab_order, "d"),
        format(len(rec.stab_gens), "d"),
    ]
    fields.extend(affine_text_by_formula(g) for g in rec.stab_gens)
    return " ".join(fields)


def reduce_anf(anf: int, m: int, r: int) -> int:
    """Clear coefficients of degree <= r."""
    out = 0
    for s in range(1 << m):
        if s.bit_count() > r and (anf >> s) & 1:
            out |= 1 << s
    return out


def degree(f: BooleanFunction) -> int:
    """Largest |S| with a_S = 1; -1 for the zero function."""
    a = f.anf
    best = -1
    while a:
        low = a & -a
        best = max(best, (low.bit_length() - 1).bit_count())
        a ^= low
    return best


def valuation(f: BooleanFunction) -> float:
    """Smallest |S| with a_S = 1; +infinity for the zero function."""
    a = f.anf
    if a == 0:
        return math.inf
    best = f.m + 1
    while a:
        low = a & -a
        best = min(best, (low.bit_length() - 1).bit_count())
        a ^= low
    return best


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


def coset_min_weight_by_gray_walk(tt: int, rows) -> int:
    """Minimum weight of tt plus the span of rows, one codeword at a time in
    Gray order (2^len(rows) steps)."""
    best, c = tt.bit_count(), tt
    for i in range(1, 1 << len(rows)):
        c ^= rows[(i & -i).bit_length() - 1]
        best = min(best, c.bit_count())
    return best


def pivoting_by_rows(rows, rng) -> list:
    """covrad.pivoting as a row-list elimination: on row i draw a uniform
    index among its set bits, pivot on that bit and add row i to every other
    row holding it; rows change in place and the pivots are returned."""
    pivots = []
    for i, row in enumerate(rows):
        if row == 0:
            raise InvalidInputError("generator matrix rows are linearly dependent")
        pick = int(rng.integers(row.bit_count()))
        v = row
        for _ in range(pick):
            v &= v - 1
        p = (v & -v).bit_length() - 1
        pivots.append(p)
        for j in range(len(rows)):
            if j != i and (rows[j] >> p) & 1:
                rows[j] ^= row
    return pivots


def random_affine_by_integers(m: int, rng) -> AffineMap:
    """group.random_affine with its draws made by Generator.integers: m
    rows at a time until the matrix is invertible, then the translation."""
    n = 1 << m
    while True:
        rows = rng.integers(0, n, size=m).tolist()
        if rank_gf2(rows) == m:
            break
    return AffineMap.from_matrix(m, rows, int(rng.integers(0, n)))


def orbit_partition_bruteforce(s: int, t: int, m: int):
    """Partition B(s,t,m) under the full group, acting one function at a
    time with explicit reduction; returns sorted orbit-minimum ANFs and the
    orbit sizes.  Only feasible for m <= 3."""
    if m > 3:
        raise ValueError("full-group brute force is m <= 3 only")
    group = list(enumerate_agl(m))
    basis = [mask for mask in range(1 << m) if s <= mask.bit_count() <= t]
    space = []
    for choice in product((0, 1), repeat=len(basis)):
        anf = 0
        for bit, mask in zip(choice, basis):
            if bit:
                anf |= 1 << mask
        space.append(anf)
    seen = set()
    orbits = []
    for anf in sorted(space):
        if anf in seen:
            continue
        f = BooleanFunction(m, anf=anf)
        orbit = set()
        for g in group:
            img = act_by_definition(f, g)
            orbit.add(reduce_anf(img.anf, m, s - 1))
        orbits.append((min(orbit), len(orbit)))
        seen |= orbit
    return orbits


def stabilizer_order_bruteforce(f: BooleanFunction, level: int) -> int:
    """Count substitutions fixing f modulo degree <= level (m <= 3)."""
    m = f.m
    count = 0
    for g in enumerate_agl(m):
        diff = act_by_definition(f, g).anf ^ f.anf
        if reduce_anf(diff, m, level) == 0:
            count += 1
    return count


def fixed_function_count_bruteforce(s: int, t: int, m: int, sigma: AffineMap) -> int:
    """#{f in B(s,t,m) : f o sigma = f mod RM(s-1,m)} by scanning the space."""
    basis = [mask for mask in range(1 << m) if s <= mask.bit_count() <= t]
    count = 0
    for choice in range(1 << len(basis)):
        anf = 0
        for j, mask in enumerate(basis):
            if (choice >> j) & 1:
                anf |= 1 << mask
        f = BooleanFunction(m, anf=anf)
        diff = act_by_definition(f, sigma).anf ^ anf
        if reduce_anf(diff, m, s - 1) == 0:
            count += 1
    return count


def boundary_act(u: int, g: AffineMap, ctx) -> int:
    """Image of a form under one stabilizer element of a boundary action
    context, straight from the function action: act on f + u pointwise, take
    the difference to f and check that it has no part above degree ctx.r."""
    fu = BooleanFunction(ctx.m, anf=ctx.form_to_anf(u) ^ ctx.f.anf)
    image = act_by_definition(fu, g).anf ^ ctx.f.anf
    if reduce_anf(image, ctx.m, ctx.r):
        raise ValueError("map is not in the stabilizer at this level")
    return ctx.anf_to_form(image)


def generator_set_by_chain(u: int, s_u: int, ctx) -> list:
    """The harvest of classify.generator_set with every membership decided
    by a stabilizer chain: the same breadth-first transversal and candidate
    order, the chain told s_u, the sweep stopped only between forms."""
    if s_u == 1:
        return []
    m = ctx.m
    oracle = SubgroupOracle(m, s_u)
    harvested = []
    visited = {u: (_PAD, _PAD)}
    queue = deque([u])
    while oracle.order() < s_u:
        if not queue:
            raise InternalConsistencyError(f"Schreier sweep exhausted at order {oracle.order()}")
        x = queue.popleft()
        rx, rx_inv = visited[x]
        for gi, lam in enumerate(ctx.gens):
            y = ctx.apply(x, gi)
            t = lam.table.translate(rx)
            ry = visited.get(y)
            if ry is None:
                visited[y] = (t, rx_inv.translate(ctx.inv_tables[gi]))
                queue.append(y)
            else:
                cand = ry[1].translate(t)
                if not oracle.contains_perm(cand):
                    oracle.add_perm(cand)
                    harvested.append(AffineMap(m, cand[: 1 << m]))
    if oracle.order() != s_u:
        raise InternalConsistencyError(f"harvested subgroup has order {oracle.order()}")
    return harvested


def orbit_partition_by_action(ctx):
    """Orbits of a boundary action as (minimum, size) pairs in increasing
    order: scan the forms in increasing order and close the orbit of each
    unseen one by a scalar search over ctx.apply, one orbit at a time."""
    seen = set()
    orbits = []
    for seed in range(1 << ctx.dim):
        if seed in seen:
            continue
        orbit = {seed}
        stack = [seed]
        while stack:
            x = stack.pop()
            for gi in range(len(ctx.gens)):
                y = ctx.apply(x, gi)
                if y not in orbit:
                    orbit.add(y)
                    stack.append(y)
        seen |= orbit
        orbits.append((seed, len(orbit)))
    return orbits


def gl_conjugacy_classes_bruteforce(m: int):
    """The conjugacy classes of GL(m,2), m <= 4, as sets of row tuples: the
    linear parts of enumerate_agl split into orbits by a breadth-first search
    under conjugation by the elementary transvections e_i -> e_i + e_j, which
    generate GL(m,2) and are their own inverses."""
    if m > 4:
        raise ValueError("brute-force conjugacy classes are m <= 4 only")

    def matmul(a, b):
        # row i of ab is the sum of the rows of b that row i of a selects
        out = []
        for row in a:
            acc = 0
            for k in range(m):
                if (row >> k) & 1:
                    acc ^= b[k]
            out.append(acc)
        return tuple(out)

    units = [1 << i for i in range(m)]
    transvections = []
    for i in range(m):
        for j in range(m):
            if i != j:
                rows = list(units)
                rows[i] ^= units[j]
                transvections.append(tuple(rows))
    unseen = {tuple(affine_rows(g)) for g in enumerate_agl(m) if affine_translation(g) == 0}
    orbits = []
    while unseen:
        start = min(unseen)
        orbit, frontier = {start}, [start]
        while frontier:
            a = frontier.pop()
            for x in transvections:
                c = matmul(matmul(x, a), x)
                if c not in orbit:
                    orbit.add(c)
                    frontier.append(c)
        unseen -= orbit
        orbits.append(orbit)
    return orbits


def near_bent_completions_by_enumeration(f: BooleanFunction) -> int:
    """Quadratic forms q with f+q near-bent (odd m), from the spectrum of
    f+q for every one of the 2^C(m,2) forms.

    The spectrum is (signs(q) * signs(f)) @ H.  The sign rows of the forms
    on the first 14 degree-2 monomials are built once, and each form on the
    rest scales the rows of H instead: (low * tail) @ H = low @ (tail[:, None] * H).
    """
    m = f.m
    amp = 1 << ((m + 1) // 2)
    forms = [monomial_truth_table(mask, m) for mask in masks_in_range(m, 2, 2)]
    low = span_signs(forms[:14], m)
    h_f = signs(f.truth_table, m)[:, None] * hadamard(m)
    count = 0
    for tail in span_signs(forms[14:], m):
        a = np.abs(low @ (tail[:, None] * h_f))
        count += int(((a == 0) | (a == amp)).all(axis=1).sum())
    return count


def walsh(f: BooleanFunction) -> np.ndarray:
    """Signed spectrum W[a] = sum_x (-1)^(f(x) + a.x) as int32: the sign row
    of f times the cached Sylvester matrix."""
    return (signs(f.truth_table, f.m) @ hadamard(f.m)).astype(np.int32)


def is_near_bent(f: BooleanFunction) -> bool:
    """Odd m only: spectrum magnitudes all in {0, 2^((m+1)/2)}."""
    if f.m % 2 == 0:
        raise InvalidInputError("near-bent is defined for odd m only")
    a = np.abs(walsh(f))
    return bool(((a == 0) | (a == 1 << ((f.m + 1) // 2))).all())


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
