"""Descending classification of B(s,t,m) under AGL(m,2).

One descent step turns a complete classification at level r into one at
level r-1.  For each representative f with stabilizer generators L:

  phase 1: enumerate the orbits of the degree-r homogeneous forms under the
           boundary action u |-> hom_r(u o g) + hom_r(f o g + f), g in <L>;
           the orbit/stabilizer formula gives each child stabilizer order;
  phase 2: for every orbit seed u, harvest Schreier generators over a fresh
           breadth-first transversal until the known order is reached, which
           yields generators of the stabilizer of f+u at level r-1.  An
           orbit of size 1 is fixed by all of <L>, so its child inherits L
           once L is certified (see descend_iter).

Forms of degree r are ints over the C(m,r) monomial coefficients, monomial
masks ascending.  The boundary action of one generator is applied through
byte-sliced XOR lookup tables, forward only: the Schreier transversal keeps
each visited form's group element and its inverse instead of inverting the
action.  Phase 1 is one sweep over a 1-byte label per form: a batched
multi-seed BFS that expands up to 253 seeds' waves together, a few array
operations per generator and BFS level, and joins waves that meet in a
union-find over the batch.  A space of at most 253 forms is a single batch
with every form as a seed, closed in one BFS level.  Phase 2's stabilizer
chain knows the order it is building, and stops closing once its orbits
reach it.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .bits import bits_of_hex, degree_mask, hex_of_bits, masks_of_degree, space_dimension
from .bfcore import BooleanFunction, monomial_truth_table
from .errors import InternalConsistencyError, InvalidInputError, ResourceRefusedError
from .group import AffineMap, SubgroupOracle, generators_stu, group_order, substitute_anf

_UNSEEN = 255
_BLOCK = 1 << 18


@dataclass
class ClassRecord:
    """One orbit at a given level: representative, stabilizer order and a
    generator set of the stabilizer.

    certified is True only on records that descend_iter yields: this run has
    proved with a stabilizer chain that stab_gens generate a group of order
    stab_order.  It is not serialized, not compared, and not a constructor
    argument, so a record read from a file, built by hand or copied with
    dataclasses.replace is not certified.
    """

    level: int
    rep: BooleanFunction
    stab_order: int
    stab_gens: List[AffineMap]
    certified: bool = field(default=False, init=False, repr=False, compare=False)

    @property
    def m(self) -> int:
        return self.rep.m

    def to_line(self) -> str:
        # rep.anf has 2^m bits by construction, so no width check here
        width = max(1, (1 << self.m) // 4)
        fields = [f"{self.level} {self.rep.anf:0{width}x} {self.stab_order} {len(self.stab_gens)}"]
        fields.extend(g.serialize() for g in self.stab_gens)
        return " ".join(fields)

    @classmethod
    def from_line(cls, m: int, line: str) -> "ClassRecord":
        parts = line.split()
        if len(parts) < 4:
            raise InvalidInputError(f"malformed record line: {line!r}")
        try:
            level, order, ngens = int(parts[0]), int(parts[2]), int(parts[3])
            rep = BooleanFunction(m, anf=bits_of_hex(parts[1], 1 << m))
            gens = [AffineMap.parse(m, p) for p in parts[4:]]
        except ValueError as err:
            raise InvalidInputError(f"malformed record line ({err}): {line!r}") from None
        if len(parts) != 4 + ngens:
            raise InvalidInputError(f"record line announces {ngens} generators: {line!r}")
        return cls(level, rep, order, gens)


class BoundaryAction:
    """The affine action of a level-r stabilizer on degree-r forms.

    For each generator g the linear part u |-> hom_r(u o g) is precomputed
    columnwise on the monomial basis and folded into one XOR table per byte
    of the form index, 2^min(8, dim - 8c) entries for byte c; the shift
    hom_r(f o g + f) is one constant, folded into the first byte's table.
    """

    def __init__(self, f: BooleanFunction, r: int, gens: Sequence[AffineMap]):
        if not 0 <= r <= f.m:
            raise InvalidInputError(f"boundary level r={r} outside 0..{f.m}")
        if len(gens) > 253:
            raise InternalConsistencyError("more than 253 stabilizer generators")
        self.f = f
        self.r = r
        self.m = f.m
        self.monomials = masks_of_degree(f.m, r)
        self.dim = len(self.monomials)
        self.index = {mask: i for i, mask in enumerate(self.monomials)}
        self.gens = list(gens)
        self.inv_tables = [g.inverse().table for g in self.gens]
        self._fwd = [self._tables_for(g) for g in self.gens]
        self._np_fwd = [[np.array(t, dtype=np.int64) for t in tabs] for tabs in self._fwd]

    # -- representation changes ------------------------------------------

    def form_to_anf(self, u: int) -> int:
        anf = 0
        while u:
            low = u & -u
            anf |= 1 << self.monomials[low.bit_length() - 1]
            u ^= low
        return anf

    def anf_to_form(self, anf: int) -> int:
        u = 0
        masked = anf & degree_mask(self.m, self.r, self.r)
        while masked:
            low = masked & -masked
            u |= 1 << self.index[low.bit_length() - 1]
            masked ^= low
        return u

    # -- action tables ----------------------------------------------------

    def _tables_for(self, g: AffineMap) -> List[List[int]]:
        if g.m != self.m:
            raise InvalidInputError("generator has wrong m")
        pmap = g.pmap
        cols = [
            self.anf_to_form(substitute_anf(monomial_truth_table(mask, self.m), pmap))
            for mask in self.monomials
        ]
        shifted = substitute_anf(self.f.truth_table, pmap) ^ self.f.anf
        if shifted & degree_mask(self.m, self.r + 1, self.m):
            raise InvalidInputError(
                "map is not in the level-%d stabilizer of the representative" % self.r
            )
        delta = self.anf_to_form(shifted)
        tables = []
        for base in range(0, self.dim, 8):
            tab = [delta if base == 0 else 0]
            for col in cols[base : base + 8]:
                tab += [v ^ col for v in tab]
            tables.append(tab)
        return tables

    # -- applying the action ---------------------------------------------

    def apply(self, u: int, gi: int) -> int:
        acc = 0
        for c, tab in enumerate(self._fwd[gi]):
            acc ^= tab[(u >> (8 * c)) & 255]
        return acc

    def apply_block(self, arr: np.ndarray, gi: int) -> np.ndarray:
        tables = self._np_fwd[gi]
        if len(tables) == 1:  # dim <= 8: the forms index the one table
            return tables[0].take(arr)
        by_byte = np.ascontiguousarray(arr, dtype="<i8").view(np.uint8).reshape(-1, 8)
        acc = tables[0].take(by_byte[:, 0])
        for c in range(1, len(tables)):
            acc ^= tables[c].take(by_byte[:, c])
        return acc


# -- orbit enumeration ------------------------------------------------------

_MAX_BATCH = 253  # labels 0..252 name one batch's seeds; 255 marks unseen
_SMALL_ORBIT = 4096  # batches keep doubling while no orbit found is larger


def estimate_orbit_bytes(dim: int) -> int:
    """Peak memory of orbit_enumerate over 2^dim forms.

    1 B/form of labels.  One BFS level holds the int64 frontier with its
    uint8 labels, the next level's int64 parts and their concatenation; the
    two levels are disjoint sets of forms, so together at most 16 B/form.
    Per-block temporaries of apply_block and the label gathers stay under
    48 B per block element, plus a fixed base for the interpreter and numpy.
    """
    return 17 * (1 << dim) + 48 * _BLOCK + (64 << 20)


def check_memory(m: int, t: int, target: int, mem_limit: int) -> None:
    """Pre-flight of a descent from level t down to level target: refuse
    before the first sweep if the boundary space of any level r in
    (target, t] needs more than mem_limit bytes by estimate_orbit_bytes.
    The message rounds the estimate up and the limit down to whole MiB, so
    the one printed is always the larger."""
    for r in range(t, target, -1):
        need = estimate_orbit_bytes(comb(m, r))
        if need > mem_limit:
            raise ResourceRefusedError(
                f"level {r} needs a 2^{comb(m, r)}-element form space "
                f"(~{-(-need >> 20)} MiB > limit {mem_limit >> 20} MiB); "
                f"rerun with a higher --mem-limit on suitable hardware"
            )


def orbit_enumerate(ctx: BoundaryAction) -> List[Tuple[int, int]]:
    """Partition the form space into orbits under the boundary action:
    (seed, size) per orbit, the seed its numerically smallest member.

    One batched multi-seed BFS over a uint8 label array (255 = unseen).
    Each batch labels the next k unseen forms, in increasing order, with
    0..k-1 and expands all their waves together, one apply_block call per
    generator and level.  A wave that reaches a form another wave labelled
    joins the two seeds in a union-find over the batch, and each class is
    one orbit.  Every member of an orbit is unseen until its batch, so the
    orbit minimum is one of the batch's seeds: seeds come out as the
    numerically smallest member of each orbit, in increasing order.

    A space of at most 253 forms is one batch with every form as a seed:
    its waves close in one BFS level, one apply_block and at most one join
    per generator.  In a larger space k starts at 1 and doubles up to 253
    while a batch finds no orbit larger than 4096 forms, and falls back to 1
    after one that is, so spaces of many tiny orbits run in wide batches and
    spaces of a few huge ones as single-seed BFS.  Memory is not checked
    here: check_memory refuses a run up front.
    """
    space = 1 << ctx.dim
    labels = np.full(space, _UNSEEN, dtype=np.uint8)
    orbits: List[Tuple[int, int]] = []
    scan, total = 0, 0
    k = space if space <= _MAX_BATCH else 1
    while total < space:
        seeds = _next_unseen(labels, scan, k)
        if not seeds.size:
            break
        scan = int(seeds[-1]) + 1
        found = _sweep_batch(ctx, labels, seeds)
        orbits.extend(found)
        sizes = [size for _seed, size in found]
        total += sum(sizes)
        k = min(2 * k, _MAX_BATCH) if max(sizes) <= _SMALL_ORBIT else 1
    if total != space:
        raise InternalConsistencyError(f"orbit sizes sum to {total}, expected {space}")
    return orbits


def _next_unseen(labels: np.ndarray, start: int, k: int) -> np.ndarray:
    """The k smallest unseen forms from start on (fewer at the end).  The
    scan window grows from 4 Ki to 64 Ki forms, so that finding a few seeds
    among many unseen forms does not index a whole 64 Ki window."""
    parts = []
    pos, window = start, 1 << 12
    while k and pos < labels.shape[0]:
        hits = (labels[pos : pos + window] == _UNSEEN).nonzero()[0][:k] + pos
        parts.append(hits)
        k -= hits.size
        pos += window
        window = min(2 * window, 1 << 16)
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def _sweep_batch(
    ctx: BoundaryAction, labels: np.ndarray, seeds: np.ndarray
) -> List[Tuple[int, int]]:
    """Close the orbits of one batch of seeds; returns (seed, size) by seed."""
    k = seeds.size
    # union-find over the batch, kept fully compressed: rep[i] is the
    # smallest seed index joined to i so far
    rep = np.arange(k, dtype=np.uint8)
    labels[seeds] = rep
    counts = np.zeros(k, dtype=np.int64)
    frontier = seeds
    while frontier.size:
        if k > 1:
            src = labels[frontier]
            counts += np.bincount(src, minlength=k)
        else:  # a lone wave is all label 0 and needs no per-form labels
            counts[0] += frontier.size
        parts = []
        for gi in range(len(ctx.gens)):
            for lo in range(0, frontier.size, _BLOCK):
                imgs = ctx.apply_block(frontier[lo : lo + _BLOCK], gi)
                got = labels[imgs]
                fresh = got == _UNSEEN
                if k > 1:
                    mine = src[lo : lo + _BLOCK]
                    meet = got != mine
                    if fresh.any():
                        meet &= ~fresh
                        new = imgs.compress(fresh)
                        labels[new] = mine.compress(fresh)
                        parts.append(new)
                    if meet.any():
                        rep = _join(rep, rep[mine.compress(meet)], rep[got.compress(meet)])
                else:
                    new = imgs.compress(fresh)
                    labels[new] = 0
                    parts.append(new)
        frontier = np.concatenate(parts) if parts else seeds[:0]
    roots = rep.tolist()
    sizes = [0] * k
    for r, c in zip(roots, counts.tolist()):
        sizes[r] += c
    return [(s, sizes[i]) for i, s in enumerate(seeds.tolist()) if roots[i] == i]


def _join(rep: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Join the classes of the roots a[i] and b[i]: hook each larger root
    onto the smaller one, then pointer-jump until every entry is a root."""
    while True:
        keep = a != b
        if not keep.any():
            return rep
        a, b = a[keep], b[keep]
        # of several hooks onto one root one wins; the rest retry next round
        rep[np.maximum(a, b)] = np.minimum(a, b)
        while True:
            hop = rep[rep]
            if np.array_equal(hop, rep):
                break
            rep = hop
        a, b = rep[a], rep[b]


# -- stabilizer orders and generators ---------------------------------------


def stab_order_from_class_formula(parent_order: int, orbit_size: int) -> int:
    """Order of the child stabilizer: parent order divided by orbit size."""
    if orbit_size <= 0 or parent_order % orbit_size:
        raise InternalConsistencyError(
            f"orbit size {orbit_size} does not divide parent order {parent_order}"
        )
    return parent_order // orbit_size


def generator_set(
    u: int,
    L: Sequence[AffineMap],
    s_u: int,
    ctx: BoundaryAction,
) -> List[AffineMap]:
    """Generators of the stabilizer of a form u under the group spanned by L,
    given the stabilizer order.

    Breadth-first sweep of the orbit of u carrying a transversal R, stored
    as R[y] and R[y]^-1 per visited form y, set when y is first reached
    from x by lam: R[y] = R[x] * lam and R[y]^-1 = lam^-1 * R[x]^-1, where
    the product a * b is b.table.translate(a.table).  Every already-seen
    edge (x, lam) yields the candidate R[x] * lam * R[x o lam]^-1, which
    fixes u; candidates not already inside the harvested subgroup are kept,
    and the sweep stops as soon as the subgroup order matches s_u.  The
    chain is told s_u, so the closure after the last kept candidate stops
    once the chain's orbits reach that order (see SubgroupOracle).
    """
    if list(L) != ctx.gens:
        raise InvalidInputError("generator list does not match the action context")
    if s_u == 1:
        return []
    m = ctx.m
    oracle = SubgroupOracle(m, s_u)
    harvested: List[AffineMap] = []
    ident = AffineMap.identity(m).table
    visited: Dict[int, Tuple[bytes, bytes]] = {u: (ident, ident)}  # padded tables
    queue = deque([u])
    while oracle.order() < s_u:
        if not queue:
            raise InternalConsistencyError(
                f"Schreier sweep exhausted at order {oracle.order()} < {s_u}"
            )
        x = queue.popleft()
        rx, rx_inv = visited[x]
        for gi, lam in enumerate(ctx.gens):
            y = ctx.apply(x, gi)
            t = lam.table.translate(rx)  # R[x] * lam
            ry = visited.get(y)
            if ry is None:
                visited[y] = (t, rx_inv.translate(ctx.inv_tables[gi]))
                queue.append(y)
            else:
                cand = ry[1].translate(t)  # (R[x] * lam) * R[y]^-1
                if not oracle.contains_perm(cand):
                    oracle._add_perm(cand)
                    harvested.append(AffineMap(m, cand[: 1 << m]))
    if oracle.order() != s_u:
        raise InternalConsistencyError(
            f"harvested subgroup has order {oracle.order()}, expected {s_u}"
        )
    return harvested


# -- the descent -------------------------------------------------------------


def level_mass(records: Sequence[ClassRecord]) -> int:
    """The mass of one level's records, the sum of |AGL(m,2)| / stab_order:
    the number of elements of the space that their orbits cover."""
    if not records:
        raise InternalConsistencyError("empty classification level")
    level = records[0].level
    order = group_order(records[0].m)
    total = 0
    for rec in records:
        if rec.level != level:
            raise InternalConsistencyError("records from mixed levels")
        if rec.stab_order < 1 or order % rec.stab_order:
            raise InternalConsistencyError(
                f"stabilizer order {rec.stab_order} does not divide the group order"
            )
        total += order // rec.stab_order
    return total


def verify_level_mass(records: Sequence[ClassRecord], k: int) -> None:
    """Orbit masses must partition the acted-on space exactly."""
    total = level_mass(records)
    level = records[0].level
    dim = space_dimension(records[0].m, level + 1, k)
    if total != 1 << dim:
        raise InternalConsistencyError(f"mass check failed at level {level}: {total} != 2^{dim}")


def descend_iter(
    records: Sequence[ClassRecord],
    k: int,
) -> Iterator[Tuple[int, ClassRecord, List[ClassRecord]]]:
    """Yield (parent index, parent record, children) for one descent step.

    k, the top degree t of the space, is not needed for one step: it is
    kept so that descend_iter(records, k) takes the arguments of
    descend(records, k), which does use it, and the benchmark in perfbench/
    calls it in that form.

    An orbit of size 1 is fixed by the whole parent stabilizer <L>, so its
    child has <L> itself as stabilizer, and the harvest from it tries exactly
    the candidates L, in order: its result depends on (L, order) alone.  A
    certified L comes back from it unchanged and is inherited without a
    harvest; any other L is proved by the first such harvest, whose result
    the parent's later orbits of size 1 reuse.  The fix check runs on every
    child.

    An InternalConsistencyError from the sweep, the class formula, the
    harvest or the fix check is re-raised naming the level and the parent.
    """
    if not records:
        raise InvalidInputError("cannot descend from an empty classification")
    r = records[0].level
    if r < 0:
        raise InvalidInputError("already at level -1; nothing to descend")
    for idx, rec in enumerate(records):
        if rec.level != r:
            raise InvalidInputError("records from mixed levels")
        ctx = BoundaryAction(rec.rep, r, rec.stab_gens)
        fixed_gens = list(rec.stab_gens) if rec.certified else None
        try:
            children = []
            for seed, size in orbit_enumerate(ctx):
                child_order = stab_order_from_class_formula(rec.stab_order, size)
                if size == 1 and fixed_gens is not None:
                    gens = list(fixed_gens)
                else:
                    gens = generator_set(seed, rec.stab_gens, child_order, ctx)
                    if size == 1:
                        fixed_gens = gens
                child_rep = BooleanFunction(rec.m, anf=rec.rep.anf ^ ctx.form_to_anf(seed))
                _check_record_fix(child_rep, r - 1, gens)
                child = ClassRecord(r - 1, child_rep, child_order, gens)
                child.certified = True
                children.append(child)
        except InternalConsistencyError as err:
            parent = hex_of_bits(rec.rep.anf, 1 << rec.m)
            raise InternalConsistencyError(f"level {r} parent {parent}: {err}") from err
        yield idx, rec, children


def _check_record_fix(rep: BooleanFunction, level: int, gens: Sequence[AffineMap]) -> None:
    """Every stabilizer generator must fix the representative at its level."""
    high = degree_mask(rep.m, level + 1, rep.m)
    for g in gens:  # the truth table is read, and so built, only for a generator
        if (substitute_anf(rep.truth_table, g.pmap) ^ rep.anf) & high:
            raise InternalConsistencyError(
                "harvested generator does not fix the representative at its level"
            )


def descend(records: Sequence[ClassRecord], k: int) -> List[ClassRecord]:
    """One full descent step with the mass check replayed on the output."""
    out: List[ClassRecord] = []
    for _idx, _parent, children in descend_iter(records, k):
        out.extend(children)
    verify_level_mass(out, k)
    return out


def top_record(m: int, t: int) -> ClassRecord:
    """The starting point: the zero class at level t, stabilized by everything.
    It is certified by _stu_generates_agl, one chain per m."""
    rec = ClassRecord(t, BooleanFunction.zero(m), group_order(m), generators_stu(m))
    rec.certified = _stu_generates_agl(m)
    return rec


@lru_cache(maxsize=None)
def _stu_generates_agl(m: int) -> bool:
    """Whether S, T, U generate AGL(m,2), by one stabilizer chain closed up
    to the known order |AGL(m,2)|, which bounds <S,T,U> from above."""
    oracle = SubgroupOracle(m, group_order(m))
    for g in generators_stu(m):
        oracle.add(g)
    return oracle.order() == group_order(m)


def classify_levels(
    s: int, t: int, m: int, mem_limit: int = 2 << 30
) -> Iterator[Tuple[int, List[ClassRecord]]]:
    """Yield (s', classification of B(s',t,m) at level s'-1) for s' = t+1,
    t, ..., s, all from one descent: each item is the last one descended by
    one level.  check_memory runs against mem_limit (bytes) first."""
    if not (0 <= s <= m and t <= m):
        raise InvalidInputError(f"need 0 <= s <= m and t <= m, got s={s} t={t} m={m}")
    if s > t + 1:
        raise InvalidInputError(f"B({s},{t},{m}) with s > t+1 has no canonical start")
    check_memory(m, t, s - 1, mem_limit)
    records = [top_record(m, t)]
    yield t + 1, records
    for r in range(t, s - 1, -1):
        records = descend(records, t)
        yield r, records


def classify_space(s: int, t: int, m: int, mem_limit: int = 2 << 30) -> List[ClassRecord]:
    """Complete classification of B(s,t,m) at level s-1, in t-s+1 descents."""
    for _s, records in classify_levels(s, t, m, mem_limit):
        pass
    return records


def stab_histogram(records: Sequence[ClassRecord]) -> Dict[int, int]:
    """Multiplicity of each stabilizer order."""
    return dict(sorted(Counter(rec.stab_order for rec in records).items()))
