"""Descending classification of B(s,t,m) under AGL(m,2).

One descent step turns a complete classification at level r into one at
level r-1.  For each representative f with stabilizer generators L:

  phase 1: enumerate the orbits of the degree-r homogeneous forms under the
           boundary action u |-> hom_r(u o g) + hom_r(f o g + f), g in <L>;
           the orbit/stabilizer formula gives each child stabilizer order;
  phase 2: for every orbit seed u, harvest Schreier generators over a fresh
           breadth-first transversal until the known order is reached, which
           yields generators of the stabilizer of f+u at level r-1.  Once
           L is trusted (see descend_iter), an orbit of size 1, fixed by
           all of <L>, is not harvested: its child inherits L, and a table
           lookup per generator checks that it fixes the child.

Forms of degree r are ints over the C(m,r) monomial coefficients, monomial
masks ascending.  The boundary action of one generator is applied through
byte-sliced XOR lookup tables, forward only: the Schreier transversal keeps
each visited form's group element and its inverse instead of inverting the
action.  Phase 1 has three regimes.  A space of two forms (level 0 or
level m, one monomial) is read off the tables: it is one orbit when some
generator swaps its forms.  A space of at most 2^15 forms is swept in one
step: a union-find over a 2-byte label per form joins each form with its
image under each generator.  A larger space is swept by lone waves, one
BFS per orbit over a 1-byte label per form, on a sweep list: L less the
generators that act trivially, or, for a certified parent, a shorter set
that a known-order chain proves to generate <L> (_sweep_context).  In
every regime each orbit's seed is its minimum.  Only the sweeps read
numpy copies of the tables, built on a context's first apply_block.
Phase 2 keeps a candidate that is not yet in the harvested subgroup.  Up
to order 128 that subgroup is the set of its elements, grown by Dimino's
coset closure; above it is a stabilizer chain that knows the order it is
building and stops closing once its orbits reach it.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .bits import bits_of_hex, degree_mask, hex_spec, masks_in_range
from .bfcore import MAX_M, BooleanFunction, monomial_truth_table
from .errors import InternalConsistencyError, InvalidInputError, ResourceRefusedError
from .group import (
    _PAD, AffineMap, SubgroupOracle, generators_stu, group_order, subgroup_order, substitute_anf
)

_UNSEEN = 255
_BLOCK = 1 << 17
_SMALL_STAB = 128  # stabilizers up to this order are harvested as element sets


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
        # rep.anf has 2^m bits by construction, so anf_hex's width check is skipped
        spec = hex_spec(1 << self.rep.m)
        head = f"{self.level} {self.rep.anf:{spec}} {self.stab_order} {len(self.stab_gens)}"
        return " ".join([head, *[g.serialize() for g in self.stab_gens]])

    @classmethod
    def from_line(cls, m: int, line: str, maps: Dict[str, AffineMap]) -> "ClassRecord":
        """The record of a to_line text; maps (text -> map) is shared by a
        reader's lines, so that each generator text parses once."""
        parts = line.split()
        if len(parts) < 4:
            raise InvalidInputError(f"malformed record line: {line!r}")
        try:
            level, order, ngens = int(parts[0]), int(parts[2]), int(parts[3])
            rep = BooleanFunction(m, anf=bits_of_hex(parts[1], 1 << m))
            gens = [maps[p] if p in maps else maps.setdefault(p, AffineMap.parse(m, p))
                    for p in parts[4:]]
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
    The columns depend on g and r only (see _StepAction); the shift, and
    the refusal of a g outside the level-r stabilizer of f, are per context.

    apply and a harvest read the tables as Python lists.  The numpy copies
    that apply_block reads are built on its first call, so a context whose
    space orbit_enumerate reads off the tables (two forms) or skips (no
    generator) never builds them.
    """

    def __init__(self, f: BooleanFunction, r: int, gens: Sequence[AffineMap]):
        if not 0 <= r <= f.m:
            raise InvalidInputError(f"boundary level r={r} outside 0..{f.m}")
        self.f = f
        self.r = r
        self.m = f.m
        self.monomials = masks_in_range(f.m, r, r)
        self.dim = len(self.monomials)
        self.index = {mask: i for i, mask in enumerate(self.monomials)}
        self.gens = list(gens)
        self._fwd = [self._tables_for(gi, g) for gi, g in enumerate(self.gens)]

    @cached_property
    def _np_fwd(self) -> List[List[np.ndarray]]:
        """The XOR tables as int64 arrays, built on the first apply_block."""
        return [[np.array(t, dtype=np.int64) for t in tabs] for tabs in self._fwd]

    @cached_property
    def inv_tables(self) -> List[bytes]:
        """The generators' inverses as padded tables; only a harvest reads them."""
        return [g.inverse().table for g in self.gens]

    @cached_property
    def _edges(self) -> List[tuple]:
        """What a harvest reads per generator: the XOR table of the form's
        low byte, (shift, table) for each higher byte, and the generator and
        its inverse as padded tables."""
        return [
            (tabs[0], [(8 * c, tab) for c, tab in enumerate(tabs[1:], 1)], g.table, inv)
            for tabs, g, inv in zip(self._fwd, self.gens, self.inv_tables)
        ]

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

    def _tables_for(self, gi: int, g: AffineMap) -> List[List[int]]:
        if g.m != self.m:
            raise InvalidInputError(f"generator {gi} has wrong m")
        pmap = g.pmap
        cols = self._columns_for(pmap)
        shifted = substitute_anf(self.f.truth_table, pmap) ^ self.f.anf
        if shifted & degree_mask(self.m, self.r + 1, self.m):
            raise InvalidInputError(
                f"generator {gi} is not in the level-{self.r} stabilizer of the representative"
            )
        delta = self.anf_to_form(shifted)
        tables = []
        for base in range(0, self.dim, 8):
            tab = [delta if base == 0 else 0]
            for col in cols[base : base + 8]:
                tab += [v ^ col for v in tab]
            tables.append(tab)
        return tables

    def _columns_for(self, pmap: bytes) -> List[int]:
        """The linear part's columns: hom_r(x^S o g) for each degree-r S."""
        return [
            self.anf_to_form(substitute_anf(monomial_truth_table(mask, self.m), pmap))
            for mask in self.monomials
        ]

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


class _StepAction(BoundaryAction):
    """The BoundaryAction of one parent in a descent step.  Its columns come
    from the dict that the step's contexts share (pmap -> columns), and the
    first context with a generator fills its entry, so each distinct
    generator's columns are computed once per step.  BoundaryAction keeps
    its (f, r, gens) constructor, by which perfbench's tracer names the
    tables span."""

    def __init__(self, f: BooleanFunction, r: int, gens: Sequence[AffineMap], columns: dict):
        self._columns = columns
        super().__init__(f, r, gens)

    def _columns_for(self, pmap: bytes) -> List[int]:
        cols = self._columns.get(pmap)
        if cols is None:
            cols = self._columns[pmap] = super()._columns_for(pmap)
        return cols


# -- orbit enumeration ------------------------------------------------------

_WHOLE_SPACE = 1 << 15  # up to this many forms a space is one uint16 union-find
MEM_BUDGET = 2 << 30  # bytes: the default mem_limit, and that of --mem-limit in MiB


def estimate_orbit_bytes(dim: int) -> int:
    """Peak memory of orbit_enumerate over 2^dim forms.

    A lone wave keeps 1 B/form of labels.  Its BFS holds two levels as
    int64 chunks, the next one joined from its parts about every
    _BLOCK = 2^17 forms, and drops each chunk once expanded: the two
    levels are disjoint sets of forms, so together at most 8 B/form.  The
    estimate keeps the 16 B/form of the unchunked frontier, since it does
    not yet cover a harvest over such a space.  Per-block temporaries of
    apply_block, the label gathers and a chunk's join stay under 48 B per
    block element.  A whole-space union-find over at most 2^15 <= _BLOCK
    forms holds its int64 forms and images, its uint16 labels and the
    join's temporaries, under 48 B per form, so inside that allowance.
    Plus a fixed base for the interpreter and numpy.
    """
    return 17 * (1 << dim) + 48 * _BLOCK + (64 << 20)


def check_cell(s: int, t: int, m: int) -> None:
    """The one cell rule, of burnside_count and of every command that takes
    s and t: 1 <= m <= MAX_M and 0 <= s <= t <= m."""
    if not 1 <= m <= MAX_M:
        raise InvalidInputError(f"m={m} outside supported range 1..{MAX_M}")
    if not 0 <= s <= t <= m:
        raise InvalidInputError(f"cell ({s},{t}) outside the m={m} triangle")


def check_memory(m: int, t: int, target: int, mem_limit: int) -> None:
    """Pre-flight of a descent from level t down to level target: refuse
    before the first sweep if the boundary space of any level r in
    (target, t] needs more than mem_limit bytes by estimate_orbit_bytes.
    The message rounds the estimate up and the limit down to whole MiB, so
    the one printed is always the larger."""
    for r in range(t, target, -1):
        dim = len(masks_in_range(m, r, r))
        need = estimate_orbit_bytes(dim)
        if need > mem_limit:
            raise ResourceRefusedError(
                f"level {r} needs a 2^{dim}-element form space "
                f"(~{-(-need >> 20)} MiB > limit {mem_limit >> 20} MiB); "
                f"rerun with a higher --mem-limit on suitable hardware"
            )


def orbit_enumerate(ctx: BoundaryAction) -> List[Tuple[int, int]]:
    """Partition the form space into orbits under the boundary action:
    (seed, size) per orbit, the seed its numerically smallest member, in
    increasing order.  Three regimes, by the size of the space:

    - two forms (level 0, or the top level m): read off the tables.  The
      one column is 1, as a linear bijection of a 1-dimensional space is
      the identity, so generator g's table is [delta, delta ^ 1]; the
      space is one orbit if some delta is 1, else two fixed forms;
    - at most 2^15 forms: _whole_space, one union-find over every form;
    - more: one _lone_wave per orbit over a uint8 label array (255 =
      unseen), seeded at the smallest unseen form.  Every member of an
      orbit is unseen until its wave, so that form is the orbit minimum.

    Memory is not checked here: check_memory refuses a run up front.  A
    space with no generator, whose every form is its own orbit, is not
    swept.
    """
    space = 1 << ctx.dim
    if not ctx.gens:
        return [(u, 1) for u in range(space)]
    if space == 2:  # each table is [delta, delta ^ 1]: delta = 1 swaps the forms
        if any(tabs[0][0] for tabs in ctx._fwd):
            return [(0, 2)]
        return [(0, 1), (1, 1)]
    if space <= _WHOLE_SPACE:
        return _whole_space(ctx)
    labels = np.full(space, _UNSEEN, dtype=np.uint8)
    orbits: List[Tuple[int, int]] = []
    seed, total = 0, 0
    while total < space:
        seed = _next_unseen(labels, seed)
        if seed is None:
            break
        orbits.append((seed, _lone_wave(ctx, labels, seed)))
        total += orbits[-1][1]
    if total != space:
        raise InternalConsistencyError(f"orbit sizes sum to {total}, expected {space}")
    return orbits


def _next_unseen(labels: np.ndarray, start: int) -> Optional[int]:
    """The smallest unseen form from start on, or None.  The scan window
    grows from 4 Ki to 64 Ki forms, so that a seed found close to start
    does not index a whole 64 Ki window."""
    pos, window = start, 1 << 12
    while pos < labels.shape[0]:
        hits = (labels[pos : pos + window] == _UNSEEN).nonzero()[0]
        if hits.size:
            return pos + int(hits[0])
        pos += window
        window = min(2 * window, 1 << 16)
    return None


def _whole_space(ctx: BoundaryAction) -> List[Tuple[int, int]]:
    """The orbits of a space of at most 2^15 forms, (seed, size) by seed.

    The uint16 labels start as the forms themselves and are a union-find:
    joining each form with its image under each generator leaves every
    form labelled with its orbit minimum.  The roots are the orbit minima,
    and a bincount of the labels gives each orbit's size.
    """
    forms = np.arange(1 << ctx.dim)
    labels = forms.astype(np.uint16)
    for gi in range(len(ctx.gens)):
        labels = _join(labels, labels, labels.take(ctx.apply_block(forms, gi)))
    roots = (labels == forms).nonzero()[0]
    sizes = np.bincount(labels)[roots]
    return list(zip(roots.tolist(), sizes.tolist()))


def _lone_wave(ctx: BoundaryAction, labels: np.ndarray, seed: int) -> int:
    """Label the orbit of seed 0 in the uint8 labels by a BFS, one
    apply_block call per generator, chunk and block; returns its size.
    A BFS level is a list of int64 chunks, joined about every _BLOCK new
    forms; each chunk is dropped once expanded (see estimate_orbit_bytes)."""
    labels[seed] = 0
    size, level = 0, [np.array([seed])]
    while level:
        chunks, parts, pending = [], [], 0
        while level:
            chunk = level.pop()
            size += chunk.size
            for gi in range(len(ctx.gens)):
                for lo in range(0, chunk.size, _BLOCK):
                    imgs = ctx.apply_block(chunk[lo : lo + _BLOCK], gi)
                    new = imgs.compress(labels[imgs] == _UNSEEN)
                    labels[new] = 0
                    parts.append(new)
                    pending += new.size
                    if pending >= _BLOCK:
                        chunks.append(np.concatenate(parts))
                        parts, pending = [], 0
        if pending:
            chunks.append(np.concatenate(parts))
        level = chunks
    return size


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
            hop = rep.take(rep)
            if np.array_equal(hop, rep):
                break
            rep = hop
        a, b = rep.take(a), rep.take(b)


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
    and the sweep stops at the candidate that brings the subgroup order to
    s_u.

    Membership is exact on both routes.  Up to order 128 the harvested
    subgroup is held as the set of its elements, grown by Dimino's coset
    closure after each kept candidate (_closure), and its order is the size
    of that set.  Above, a stabilizer chain is told s_u, so the closure
    after the last kept candidate stops once the chain's orbits reach that
    order (see SubgroupOracle).
    """
    if list(L) != ctx.gens:
        raise InvalidInputError("generator list does not match the action context")
    if s_u == 1:
        return []
    m = ctx.m
    small = s_u <= _SMALL_STAB
    if small:
        elements = {_PAD}
        kept: List[bytes] = []
    else:
        oracle = SubgroupOracle(m, s_u)
    order = 1
    harvested: List[AffineMap] = []
    edges = ctx._edges
    visited: Dict[int, Tuple[bytes, bytes]] = {u: (_PAD, _PAD)}  # padded tables
    queue = deque([u])
    while order < s_u:
        if not queue:
            raise InternalConsistencyError(f"Schreier sweep exhausted at order {order} < {s_u}")
        x = queue.popleft()
        rx, rx_inv = visited[x]
        for low, high, lam, lam_inv in edges:  # y = ctx.apply(x, gi), inlined
            y = low[x & 255]
            for shift, tab in high:
                y ^= tab[(x >> shift) & 255]
            t = lam.translate(rx)  # R[x] * lam
            ry = visited.get(y)
            if ry is None:
                visited[y] = (t, rx_inv.translate(lam_inv))
                queue.append(y)
                continue
            cand = ry[1].translate(t)  # (R[x] * lam) * R[y]^-1
            if small:
                if cand in elements:
                    continue
                kept.append(cand)
                elements = _closure(elements, kept, s_u)
                order = len(elements)
            else:
                if oracle.contains_perm(cand):
                    continue
                oracle.add_perm(cand)
                order = oracle.order()
            harvested.append(AffineMap(m, cand[: 1 << m]))
            if order >= s_u:
                break
    if order != s_u:
        raise InternalConsistencyError(
            f"harvested subgroup has order at least {order}, expected {s_u}"
        )
    return harvested


def _closure(elements: Set[bytes], gens: Sequence[bytes], cap: int) -> Set[bytes]:
    """The elements of <H, gens[-1]> from those of H = <gens[:-1]>, by
    Dimino's algorithm (Butler, Fundamental Algorithms for Permutation
    Groups, 1991): the union of the right cosets H * r, where each new coset
    representative r is a product rep * g of an earlier one and a generator
    that falls outside the union.  A union closed under every such product
    is the group.  Stops early once it holds more than cap elements."""
    old = list(elements)
    grown = set(elements)
    reps = [_PAD]
    for rep in reps:  # reps grows while it is read
        for g in gens:
            e = g.translate(rep)  # rep * g
            if e not in grown:
                grown.update([e.translate(h) for h in old])  # h * e
                if len(grown) > cap:
                    return grown
                reps.append(e)
    return grown


# -- the descent -------------------------------------------------------------


def level_cell(records: Sequence[ClassRecord]) -> Tuple[int, int, int]:
    """(m, L, t) of the space B(L+1,t,m) whose orbits one level's records are:
    they share m and an L >= -1, their representatives are distinct, every
    stab_order divides |AGL(m,2)|, and their mass, the sum of
    |AGL(m,2)| / stab_order, is 2^dim B(L+1,t,m) for a t >= L+1.  The
    dimension grows with t, so at most one t matches, and every
    representative must lie in that B(L+1,t,m)."""
    if not records:
        raise InternalConsistencyError("empty classification level")
    m, level = records[0].m, records[0].level
    if level < -1:
        raise InternalConsistencyError(f"level {level} is below -1")
    order = group_order(m)
    mass = support = 0
    for rec in records:
        support |= rec.rep.anf
        if rec.level != level or rec.rep.m != m:
            raise InternalConsistencyError("records from mixed levels or m")
        if rec.stab_order < 1 or order % rec.stab_order:
            raise InternalConsistencyError(
                f"stabilizer order {rec.stab_order} does not divide the group order"
            )
        mass += order // rec.stab_order
    if len({rec.rep.anf for rec in records}) != len(records):
        raise InternalConsistencyError(f"a level-{level} representative appears twice")
    for t in range(level + 1, m + 1):
        if mass == 1 << len(masks_in_range(m, level + 1, t)):
            if support & ~degree_mask(m, level + 1, t):
                raise InternalConsistencyError(
                    f"a level-{level} representative lies outside B({level + 1},{t},{m})"
                )
            return m, level, t
    raise InternalConsistencyError(
        f"mass {mass} of the level-{level} records is not 2^dim "
        f"B({level + 1},t,{m}) for any t (records missing?)"
    )


def verify_level_mass(records: Sequence[ClassRecord], k: int) -> None:
    """Orbit masses must partition the acted-on space B(L+1,k,m) exactly."""
    _m, level, t = level_cell(records)
    if t != k:
        raise InternalConsistencyError(f"mass check failed at level {level}: t={t}, not {k}")


def descend_iter(
    records: Sequence[ClassRecord], k: int, start: int = 0
) -> Iterator[Tuple[int, ClassRecord, List[ClassRecord]]]:
    """Yield (parent index, parent record, children) for one descent step,
    from the parent at index start on.

    The records are the level-r orbits of B(r+1,k,m): a representative
    with a monomial outside degrees r+1..k is refused.

    An orbit of size 1 is fixed by the whole parent stabilizer <L>, so its
    child has <L> itself as stabilizer, and the harvest from it tries exactly
    the candidates L, in order.  A parent is trusted if it is certified, or
    once such a harvest returns L unchanged, which proves that <L> has the
    parent's order; a trusted parent's orbits of size 1 inherit L and are
    fix-checked by table lookups (_check_inherited_fix), and every other
    orbit is harvested and fix-checked by substitution (_check_record_fix).

    The step's contexts share their columns (_StepAction).  Phase 1 sweeps
    the context _sweep_context gives; the harvest, the class formula and
    the fix checks use ctx and L.  An InvalidInputError from a parent's
    context, or an InternalConsistencyError from the sweep, the class
    formula, the harvest or the fix check, is re-raised naming the level
    and the parent.
    """
    if not records:
        raise InvalidInputError("cannot descend from an empty classification")
    r = records[0].level
    if r < 0:
        raise InvalidInputError("already at level -1; nothing to descend")
    space = degree_mask(records[0].m, r + 1, k)
    columns: Dict[bytes, List[int]] = {}  # one step's boundary columns, by generator
    for idx, rec in enumerate(records[start:], start):
        if rec.level != r:
            raise InvalidInputError("records from mixed levels")
        trusted = rec.certified
        try:
            if rec.rep.anf & ~space:
                raise InvalidInputError(f"outside B({r + 1},{k},{rec.m})")
            ctx = _StepAction(rec.rep, r, rec.stab_gens, columns)
            children = []
            for seed, size in orbit_enumerate(_sweep_context(ctx, rec, columns)):
                child_order = stab_order_from_class_formula(rec.stab_order, size)
                child_rep = BooleanFunction(rec.m, anf=rec.rep.anf ^ ctx.form_to_anf(seed))
                if size == 1 and trusted:
                    gens = list(rec.stab_gens)
                    _check_inherited_fix(ctx, seed)
                else:
                    gens = generator_set(seed, rec.stab_gens, child_order, ctx)
                    _check_record_fix(child_rep, r - 1, gens)
                    if size == 1:
                        trusted = gens == rec.stab_gens
                child = ClassRecord(r - 1, child_rep, child_order, gens)
                child.certified = True
                children.append(child)
        except (InvalidInputError, InternalConsistencyError) as err:
            parent = rec.rep.anf_hex()
            raise type(err)(f"level {r} parent {parent}: {err}") from err
        yield idx, rec, children


_PR_SLOTS, _PR_SCRAMBLE, _PR_PRODUCTS = 10, 50, 64  # product replacement: state, warm-up, tries


def _sweep_context(ctx: _StepAction, rec: ClassRecord, columns: dict) -> BoundaryAction:
    """The context phase 1 sweeps rec's space with: ctx, unless lone waves
    sweep it.  Then L less the generators with the identity's tables, or,
    if rec is certified (|<L>| = stab_order) and at least 3 are left, the
    _short_generators of L when they are fewer.  Those are products of L,
    and their chain reached stab_order, so they generate <L> itself: the
    same orbits, minima and sizes."""
    if 1 << ctx.dim <= _WHOLE_SPACE:
        return ctx
    identity = [list(range(0, 1 << min(ctx.dim, base + 8), 1 << base))
                for base in range(0, ctx.dim, 8)]  # the tables of u |-> u
    gens = [g for g, tabs in zip(ctx.gens, ctx._fwd) if tabs != identity]
    if rec.certified and len(gens) >= 3:
        short = _short_generators(rec.m, rec.stab_order, ctx.gens)
        if short is not None and len(short) < len(gens):
            gens = short
    return ctx if gens == ctx.gens else _StepAction(rec.rep, ctx.r, gens, columns)


def _short_generators(
    m: int, order: int, gens: Sequence[AffineMap]
) -> Optional[List[AffineMap]]:
    """Generators of <gens>, a group of the given order, by product
    replacement (Celler, Leedham-Green, Murray, Niemeyer and O'Brien,
    Generating random elements of a finite group, 1995) on the 256-byte
    tables, with an accumulator.  After _PR_SCRAMBLE steps each product
    that the known-order chain does not yet contain is kept, until the
    chain reaches order; None if _PR_PRODUCTS products do not.  The draws
    are the standard library's (numpy.random would add about 5 MiB to a
    process), from a fixed seed, so the set depends on gens alone."""
    slots = [g.table for g in gens]
    slots = [slots[i % len(slots)] for i in range(max(_PR_SLOTS, len(slots)))]
    acc, draws, oracle = _PAD, random.Random(0), SubgroupOracle(m, order)
    short: List[AffineMap] = []
    for step in range(_PR_SCRAMBLE + _PR_PRODUCTS):
        i, j = draws.randrange(len(slots)), draws.randrange(len(slots) - 1)
        j += j >= i
        slots[i] = slots[j].translate(slots[i])  # slots[i] * slots[j]
        acc = slots[i].translate(acc)  # acc * slots[i]
        if step < _PR_SCRAMBLE or oracle.contains_perm(acc):
            continue
        oracle.add_perm(acc)
        short.append(AffineMap(m, acc[: 1 << m]))
        if oracle.order() == order:
            return short
    return None


def _check_record_fix(rep: BooleanFunction, level: int, gens: Sequence[AffineMap]) -> None:
    """Every harvested generator must fix the representative at its level."""
    high = degree_mask(rep.m, level + 1, rep.m)
    for i, g in enumerate(gens):  # the truth table is read, and so built, only for a generator
        if (substitute_anf(rep.truth_table, g.pmap) ^ rep.anf) & high:
            raise InternalConsistencyError(
                f"harvested generator {i} does not fix the representative at its level"
            )


def _check_inherited_fix(ctx: BoundaryAction, u: int) -> None:
    """The parent's generators, inherited by the child f+u, must fix it at
    level r-1.  Building ctx has proved that each g fixes f above degree r,
    and g preserves the degree of u, so (f+u) o g + f + u has degree at most
    r; its degree-r part is apply(u) + u.  So g fixes f+u at level r-1
    exactly when it fixes u under the boundary action."""
    for gi in range(len(ctx.gens)):
        if ctx.apply(u, gi) != u:
            raise InternalConsistencyError(
                f"inherited generator {gi} does not fix the representative at its level"
            )


def descend(
    records: Sequence[ClassRecord], k: int, blocks: Sequence[List[ClassRecord]] = (),
    on_block: Optional[Callable[[int, List[ClassRecord]], None]] = None,
) -> List[ClassRecord]:
    """One full descent step, the one loop over a level's parents: every
    parent's children, in parent order, with the mass check replayed on the
    level.  blocks are the children of the first parents, already known;
    on_block(index, children) gets each other parent's as it finishes."""
    out = [rec for children in blocks for rec in children]
    for idx, _parent, children in descend_iter(records, k, len(blocks)):
        out.extend(children)
        if on_block is not None:
            on_block(idx, children)
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
    """Whether S, T, U generate AGL(m,2), by their chain order."""
    return subgroup_order(generators_stu(m)) == group_order(m)


def classify_levels(
    s: int, t: int, m: int, mem_limit: int = MEM_BUDGET
) -> Iterator[Tuple[int, List[ClassRecord]]]:
    """Yield (s', classification of B(s',t,m) at level s'-1) for s' = t+1 (the
    top record), t, ..., s, all from one descent: each item is the last one
    descended by one level.  check_cell, and then check_memory against
    mem_limit bytes, run before the first item."""
    check_cell(s, t, m)
    check_memory(m, t, s - 1, mem_limit)
    records = [top_record(m, t)]
    yield t + 1, records
    for r in range(t, s - 1, -1):
        records = descend(records, t)
        yield r, records


def classify_space(s: int, t: int, m: int, mem_limit: int = MEM_BUDGET) -> List[ClassRecord]:
    """Complete classification of B(s,t,m) at level s-1, in t-s+1 descents."""
    for _s, records in classify_levels(s, t, m, mem_limit):
        pass
    return records


def stab_histogram(records: Sequence[ClassRecord]) -> Dict[int, int]:
    """Multiplicity of each stabilizer order."""
    return dict(sorted(Counter(rec.stab_order for rec in records).items()))
