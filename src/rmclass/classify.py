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
byte-sliced XOR lookup tables, forward only: the Schreier transversal walks
stored parent pointers instead of inverting the action.  Phase 1 is one
sweep over a 1-byte label per form: a batched multi-seed BFS that expands up
to 253 seeds' waves together, a few array operations per generator and BFS
level, and joins waves that meet in a union-find over the batch.
"""

from __future__ import annotations

import os
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .bits import bits_of_hex, degree_mask, hex_of_bits, masks_of_degree, space_dimension
from .bfcore import BooleanFunction, mobius, monomial_truth_table
from .errors import (
    InternalConsistencyError,
    InvalidInputError,
    ResourceRefusedError,
)
from .group import AffineMap, SubgroupOracle, generators_stu, group_order, substitute

_UNSEEN = 255
_BLOCK = 1 << 18


@dataclass
class OrbitConfig:
    """Resource policy for orbit enumeration."""

    mem_limit_bytes: int = 2 << 30


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

    def orbit_size(self) -> int:
        return group_order(self.m) // self.stab_order

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
        level = int(parts[0])
        rep = BooleanFunction(m, anf=bits_of_hex(parts[1], 1 << m))
        order = int(parts[2])
        ngens = int(parts[3])
        if len(parts) != 4 + ngens:
            raise InvalidInputError(f"record line announces {ngens} generators: {line!r}")
        gens = [AffineMap.parse(m, p) for p in parts[4:]]
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

    def _image_anf(self, tt: int, pmap: bytes) -> int:
        return mobius(substitute(tt, pmap), 1 << self.m)

    def _tables_for(self, g: AffineMap) -> List[List[int]]:
        if g.m != self.m:
            raise InvalidInputError("generator has wrong m")
        pmap = g.pmap
        cols = [
            self.anf_to_form(self._image_anf(monomial_truth_table(mask, self.m), pmap))
            for mask in self.monomials
        ]
        shifted = self._image_anf(self.f.truth_table, pmap) ^ self.f.anf
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
        by_byte = np.ascontiguousarray(arr, dtype="<i8").view(np.uint8).reshape(-1, 8)
        acc = tables[0].take(by_byte[:, 0])
        for c in range(1, len(tables)):
            acc ^= tables[c].take(by_byte[:, c])
        return acc


# -- orbit enumeration ------------------------------------------------------

_MAX_BATCH = 253  # labels 0..252 name one batch's seeds; 255 marks unseen
_SMALL_ORBIT = 4096  # batches keep doubling while no orbit found is larger


@dataclass(slots=True)
class OrbitSet:
    """One orbit: seed (the numerically smallest member) and size."""

    seed: int
    size: int


def estimate_orbit_bytes(dim: int) -> int:
    """Peak memory of orbit_enumerate over 2^dim forms.

    1 B/form of labels.  One BFS level holds the int64 frontier with its
    uint8 labels, the next level's int64 parts and their concatenation; the
    two levels are disjoint sets of forms, so together at most 16 B/form.
    Per-block temporaries of apply_block and the label gathers stay under
    48 B per block element, plus a fixed base for the interpreter and numpy.
    """
    return 17 * (1 << dim) + 48 * _BLOCK + (64 << 20)


def orbit_enumerate(
    ctx: BoundaryAction,
    config: Optional[OrbitConfig] = None,
) -> List[OrbitSet]:
    """Partition the form space into orbits under the boundary action.

    One batched multi-seed BFS over a uint8 label array (255 = unseen).
    Each batch labels the next k unseen forms, in increasing order, with
    0..k-1 and expands all their waves together, one apply_block call per
    generator and level.  A wave that reaches a form another wave labelled
    joins the two seeds in a union-find over the batch, and each class is
    one orbit.  Every member of an orbit is unseen until its batch, so the
    orbit minimum is one of the batch's seeds: seeds come out as the
    numerically smallest member of each orbit, in increasing order.

    k doubles up to 253 while a batch finds no orbit larger than 4096 forms
    and falls back to 1 after one that is, so spaces of many tiny orbits run
    in wide batches and spaces of a few huge ones as single-seed BFS.
    """
    config = config or OrbitConfig()
    need = estimate_orbit_bytes(ctx.dim)
    if need > config.mem_limit_bytes:
        raise ResourceRefusedError(
            f"orbit enumeration over 2^{ctx.dim} forms needs about {need} bytes; "
            f"limit is {config.mem_limit_bytes} (raise --mem-limit to allow)"
        )
    space = 1 << ctx.dim
    labels = np.full(space, _UNSEEN, dtype=np.uint8)
    orbits: List[OrbitSet] = []
    scan, k, total = 0, 1, 0
    while total < space:
        seeds = _next_unseen(labels, scan, k)
        if not seeds.size:
            break
        scan = int(seeds[-1]) + 1
        found = _sweep_batch(ctx, labels, seeds)
        orbits.extend(found)
        sizes = [o.size for o in found]
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


def _sweep_batch(ctx: BoundaryAction, labels: np.ndarray, seeds: np.ndarray) -> List[OrbitSet]:
    """Close the orbits of one batch of seeds; returns them by seed."""
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
                new = imgs.compress(fresh)
                if k > 1:
                    mine = src[lo : lo + _BLOCK]
                    meet = (got != mine) & ~fresh
                    if meet.any():
                        rep = _join(rep, rep[mine.compress(meet)], rep[got.compress(meet)])
                    labels[new] = mine.compress(fresh)
                else:
                    labels[new] = 0
                parts.append(new)
        frontier = np.concatenate(parts) if parts else seeds[:0]
    roots = rep.tolist()
    sizes = [0] * k
    for r, c in zip(roots, counts.tolist()):
        sizes[r] += c
    return [OrbitSet(s, sizes[i]) for i, s in enumerate(seeds.tolist()) if roots[i] == i]


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
    as (generator index, parent form) per visited form.  Every already-seen
    edge (x, lam) yields the candidate R[x] * lam * R[x o lam]^-1, which
    fixes u; candidates not already inside the harvested subgroup are kept,
    and the sweep stops as soon as the subgroup order matches s_u.
    """
    if list(L) != ctx.gens:
        raise InvalidInputError("generator list does not match the action context")
    if s_u == 1:
        return []
    m = ctx.m
    oracle = SubgroupOracle(m)
    harvested: List[AffineMap] = []
    visited: Dict[int, Tuple[int, int]] = {u: (-1, u)}  # the walk stops at u
    queue = deque([u])
    ident = AffineMap.identity(m).table
    elem_cache: Dict[int, Tuple[bytes, bytes]] = {u: (ident, ident)}

    def elem_of(x: int) -> Tuple[bytes, bytes]:
        # R[x] and R[x]^-1 as padded permutation tables; R[child] = R[parent]
        # * lam and R[child]^-1 = lam^-1 * R[parent]^-1, where compose(a, b)
        # is b.table.translate(a.table).
        got = elem_cache.get(x)
        if got is None:
            rev = []
            y = x
            while y != u:
                gi, y = visited[y]
                rev.append(gi)
                cached = elem_cache.get(y)
                if cached is not None:
                    break
            else:
                cached = elem_cache[u]
            fwd, inv = cached
            for gi in reversed(rev):
                fwd = ctx.gens[gi].table.translate(fwd)
                inv = inv.translate(ctx.inv_tables[gi])
            got = elem_cache[x] = (fwd, inv)
        return got

    while oracle.order() < s_u:
        if not queue:
            raise InternalConsistencyError(
                f"Schreier sweep exhausted at order {oracle.order()} < {s_u}"
            )
        x = queue.popleft()
        rx = None
        for gi, lam in enumerate(ctx.gens):
            y = ctx.apply(x, gi)
            if y not in visited:
                visited[y] = (gi, x)
                queue.append(y)
            else:
                if rx is None:
                    rx = elem_of(x)[0]
                t = lam.table.translate(rx)  # R[x] * lam
                cand = elem_of(y)[1].translate(t)  # (R[x] * lam) * R[y]^-1
                if not oracle.contains_perm(cand):
                    oracle._add_perm(cand)
                    harvested.append(AffineMap(m, cand[: 1 << m]))
    if oracle.order() != s_u:
        raise InternalConsistencyError(
            f"harvested subgroup has order {oracle.order()}, expected {s_u}"
        )
    return harvested


# -- the descent -------------------------------------------------------------


def verify_level_mass(records: Sequence[ClassRecord], k: int) -> None:
    """Orbit masses must partition the acted-on space exactly."""
    if not records:
        raise InternalConsistencyError("empty classification level")
    m = records[0].m
    level = records[0].level
    total = 0
    order = group_order(m)
    for rec in records:
        if rec.level != level:
            raise InternalConsistencyError("records from mixed levels")
        if order % rec.stab_order:
            raise InternalConsistencyError("stabilizer order does not divide the group order")
        total += order // rec.stab_order
    dim = space_dimension(m, level + 1, k)
    if total != 1 << dim:
        raise InternalConsistencyError(f"mass check failed at level {level}: {total} != 2^{dim}")


def descend_iter(
    records: Sequence[ClassRecord],
    k: int,
    config: Optional[OrbitConfig] = None,
) -> Iterator[Tuple[int, ClassRecord, List[ClassRecord]]]:
    """Yield (parent index, parent record, children) for one descent step.

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
    config = config or OrbitConfig()
    for idx, rec in enumerate(records):
        if rec.level != r:
            raise InvalidInputError("records from mixed levels")
        ctx = BoundaryAction(rec.rep, r, rec.stab_gens)
        fixed_gens = list(rec.stab_gens) if rec.certified else None
        try:
            children = []
            for orb in orbit_enumerate(ctx, config=config):
                child_order = stab_order_from_class_formula(rec.stab_order, orb.size)
                if orb.size == 1 and fixed_gens is not None:
                    gens = list(fixed_gens)
                else:
                    gens = generator_set(orb.seed, rec.stab_gens, child_order, ctx)
                    if orb.size == 1:
                        fixed_gens = gens
                child_rep = BooleanFunction(rec.m, anf=rec.rep.anf ^ ctx.form_to_anf(orb.seed))
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
    tt, anf, n = rep.truth_table, rep.anf, 1 << rep.m
    for g in gens:
        if (mobius(substitute(tt, g.pmap), n) ^ anf) & high:
            raise InternalConsistencyError(
                "harvested generator does not fix the representative at its level"
            )


def descend(
    records: Sequence[ClassRecord],
    k: int,
    config: Optional[OrbitConfig] = None,
) -> List[ClassRecord]:
    """One full descent step with the mass check replayed on the output."""
    out: List[ClassRecord] = []
    for _idx, _parent, children in descend_iter(records, k, config):
        out.extend(children)
    verify_level_mass(out, k)
    return out


def top_record(m: int, t: int) -> ClassRecord:
    """The starting point: the zero class at level t, stabilized by everything."""
    return ClassRecord(t, BooleanFunction.zero(m), group_order(m), generators_stu(m))


def classify_levels(
    s: int,
    t: int,
    m: int,
    config: Optional[OrbitConfig] = None,
) -> Iterator[Tuple[int, List[ClassRecord]]]:
    """Yield (s', classification of B(s',t,m) at level s'-1) for s' = t+1,
    t, ..., s, all from one descent: each item is the last one descended by
    one level."""
    if not (0 <= s <= m and t <= m):
        raise InvalidInputError(f"need 0 <= s <= m and t <= m, got s={s} t={t} m={m}")
    if s > t + 1:
        raise InvalidInputError(f"B({s},{t},{m}) with s > t+1 has no canonical start")
    records = [top_record(m, t)]
    yield t + 1, records
    for r in range(t, s - 1, -1):
        records = descend(records, t, config)
        yield r, records


def classify_space(
    s: int,
    t: int,
    m: int,
    config: Optional[OrbitConfig] = None,
) -> List[ClassRecord]:
    """Complete classification of B(s,t,m) at level s-1, in t-s+1 descents."""
    for _s, records in classify_levels(s, t, m, config):
        pass
    return records


def stab_histogram(records: Sequence[ClassRecord]) -> Dict[int, int]:
    """Multiplicity of each stabilizer order."""
    return dict(sorted(Counter(rec.stab_order for rec in records).items()))


# -- record files -------------------------------------------------------------


def write_level_file(path, records: Sequence[ClassRecord]) -> None:
    """One record per line; header carries m and level, trailer the count.
    Written to a temporary file beside the target and renamed over it, so a
    crash never leaves a partial level file."""
    if not records:
        raise InvalidInputError("refusing to write an empty level file")
    m = records[0].m
    level = records[0].level
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        fh.write(f"# rmclass m={m} level={level}\n")
        for rec in records:
            fh.write(rec.to_line() + "\n")
        fh.write(f"# complete {len(records)}\n")
    os.replace(tmp, path)


def read_level_file(path) -> List[ClassRecord]:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# rmclass m="):
            raise InvalidInputError(f"{path}: not a level file")
        fields = dict(kv.split("=") for kv in header[2:].split() if "=" in kv)
        m = int(fields["m"])
        records = []
        complete = None
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("# complete"):
                complete = int(line.split()[2])
                break
            records.append(ClassRecord.from_line(m, line))
    if complete is None:
        raise InvalidInputError(f"{path}: missing completion marker (truncated run?)")
    if complete != len(records):
        raise InvalidInputError(f"{path}: trailer says {complete} records, found {len(records)}")
    return records
