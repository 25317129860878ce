"""The affine general linear group AGL(m,2) and its action on Boolean functions.

An element x |-> xA + b is stored as its point permutation of F_2^m, a bytes
object of length 2^m (values fit a byte for m <= 8).  Composition is then a
single C-level bytes.translate, which is what keeps the Schreier machinery
cheap.  The matrix rows and the translation are recovered from the
permutation when needed.

Composition convention: compose(s, t) is "s then t" in the sense of the
right action on functions,

    act(f, compose(s, t)) = act(act(f, s), t),

equivalently compose(s, t).point_map[x] = s.point_map[t.point_map[x]].
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, List, Sequence

import numpy as np

from .bits import is_invertible_gf2, rank_gf2
from .errors import InvalidInputError
from .bfcore import BooleanFunction

_PAD = bytes(range(256))


def _pad256(pmap: bytes) -> bytes:
    """Extend a 2^m-point permutation to 256 bytes (identity on the tail)."""
    return pmap + _PAD[len(pmap):]


def _invert_perm(perm: bytes) -> bytes:
    """Inverse of a permutation of 0..len-1, as a 256-byte table (identity
    on the tail)."""
    return bytes.maketrans(perm, _PAD[: len(perm)])


def _affine_pmap(rows: Sequence[int], translation: int) -> bytes:
    """Point map of x -> xA + b, A given by its rows (row i = image of e_i)."""
    n = 1 << len(rows)
    pmap = bytearray(n)
    pmap[0] = translation
    for x in range(1, n):
        low = x & -x
        pmap[x] = pmap[x ^ low] ^ rows[low.bit_length() - 1]
    return bytes(pmap)


def substitute(tt: int, pmap: bytes) -> int:
    """Truth table of f o s from that of f: bit x is bit pmap[x] of tt.

    The bits go through ASCII '0'/'1' strings, so the gather is one C-level
    bytes.translate and the conversions are format and int.
    """
    n = len(pmap)
    points = format(tt, f"0{n}b").encode()[::-1].ljust(256, b"0")  # char p = bit p
    return int(pmap.translate(points)[::-1], 2)


class AffineMap:
    """An invertible affine substitution of F_2^m."""

    __slots__ = ("m", "pmap", "_tbl", "_text")

    def __init__(self, m: int, pmap: bytes):
        n = 1 << m
        if len(pmap) != n:
            raise InvalidInputError(f"point map has {len(pmap)} entries, expected {n}")
        self.m = m
        self.pmap = pmap
        self._tbl = None
        self._text = None

    @property
    def table(self) -> bytes:
        if self._tbl is None:
            self._tbl = _pad256(self.pmap)
        return self._tbl

    @classmethod
    def from_matrix(cls, m: int, rows: Sequence[int], translation: int) -> "AffineMap":
        """Build from m row masks (row i = image of basis point e_i minus b)."""
        if len(rows) != m:
            raise InvalidInputError(f"expected {m} matrix rows, got {len(rows)}")
        if not is_invertible_gf2(tuple(rows), m):
            raise InvalidInputError("matrix is singular over GF(2)")
        if translation >> m:
            raise InvalidInputError("translation does not fit in m bits")
        return cls(m, _affine_pmap(rows, translation))

    @classmethod
    def identity(cls, m: int) -> "AffineMap":
        return cls(m, bytes(range(1 << m)))

    @property
    def translation(self) -> int:
        return self.pmap[0]

    @property
    def rows(self) -> List[int]:
        b = self.pmap[0]
        return [self.pmap[1 << i] ^ b for i in range(self.m)]

    def compose(self, other: "AffineMap") -> "AffineMap":
        if self.m != other.m:
            raise InvalidInputError("cannot compose maps on different m")
        return AffineMap(self.m, other.pmap.translate(self.table))

    __mul__ = compose

    def inverse(self) -> "AffineMap":
        return AffineMap(self.m, _invert_perm(self.pmap)[: 1 << self.m])

    def __eq__(self, other) -> bool:
        return isinstance(other, AffineMap) and self.m == other.m and self.pmap == other.pmap

    def __hash__(self) -> int:
        return hash((self.m, self.pmap))

    def __repr__(self) -> str:
        return f"AffineMap(m={self.m}, {self.serialize()!r})"

    def serialize(self) -> str:
        """Hex fields 'row_{m-1}:...:row_0:translation' (most significant row
        first).  Computed once per map: pmap is never reassigned."""
        if self._text is None:
            spec = f"0{max(1, self.m // 4)}x"
            fields = [format(v, spec) for v in (*reversed(self.rows), self.translation)]
            self._text = ":".join(fields)
        return self._text

    @classmethod
    def parse(cls, m: int, text: str) -> "AffineMap":
        fields = text.split(":")
        if len(fields) != m + 1:
            raise InvalidInputError(f"expected {m + 1} fields in affine map {text!r}")
        values = [int(fld, 16) for fld in fields]
        rows = list(reversed(values[:m]))
        return cls.from_matrix(m, rows, values[m])


def identity(m: int) -> AffineMap:
    return AffineMap.identity(m)


def compose(s: AffineMap, t: AffineMap) -> AffineMap:
    return s.compose(t)


def inverse(s: AffineMap) -> AffineMap:
    return s.inverse()


def group_order(m: int) -> int:
    """|AGL(m,2)| = 2^m prod_{i<m} (2^m - 2^i)."""
    if m < 1:
        raise InvalidInputError("m must be >= 1")
    order = 1 << m
    for i in range(m):
        order *= (1 << m) - (1 << i)
    return order


def generators_stu(m: int) -> List[AffineMap]:
    """The shift S (cyclic variable rotation), the transvection T
    (x1 += x2) and the translation U (x += e1); they generate AGL(m,2)."""
    if m < 2:
        raise InvalidInputError("S, T, U generators need m >= 2")
    n = 1 << m
    full = n - 1
    shift = bytes(((x << 1) | (x >> (m - 1))) & full for x in range(n))
    transvect = bytes(x ^ ((x >> 1) & 1) for x in range(n))
    translate = bytes(x ^ 1 for x in range(n))
    return [AffineMap(m, shift), AffineMap(m, transvect), AffineMap(m, translate)]


def random_affine(m: int, rng: np.random.Generator) -> AffineMap:
    """Uniform over AGL(m,2): rejection-sample an invertible matrix, then a
    uniform translation.  The map is built from its point map, not through
    from_matrix, whose rank check would repeat the one above."""
    n = 1 << m
    while True:
        rows = [int(v) for v in rng.integers(0, n, size=m)]
        if rank_gf2(rows) == m:
            break
    return AffineMap(m, _affine_pmap(rows, int(rng.integers(0, n))))


def act(f: BooleanFunction, s: AffineMap) -> BooleanFunction:
    """f composed with the substitution: truth_table'[x] = truth_table[s(x)]."""
    if f.m != s.m:
        raise InvalidInputError("function and map live on different m")
    return BooleanFunction(f.m, truth_table=substitute(f.truth_table, s.pmap))


class SubgroupOracle:
    """Exact order and membership for a subgroup of AGL(m,2) given by
    generators, via a stabilizer chain over the 2^m points.

    Internally permutations are 256-byte tables (identity tail) so that all
    products are bytes.translate calls.  A generator assigned to level l
    fixes the first l base points, hence also acts at every level i <= l;
    orbits are maintained incrementally under that nested visibility.
    """

    def __init__(self, m: int):
        self.m = m
        self.n = 1 << m
        self._id = _PAD
        # per level: base point, {point: transversal}, {point: inverse}, [gens]
        self._levels: List[dict] = []
        self._order = 1

    def order(self) -> int:
        return self._order

    def _strip(self, perm: bytes, start: int = 0):
        """Sift through the chain from level start on (perm must fix the
        earlier base points); returns (residue, deepest level reached)."""
        for i in range(start, len(self._levels)):
            lv = self._levels[i]
            u_inv = lv["inv"].get(perm[lv["base"]])
            if u_inv is None:
                return perm, i
            # residue = u^-1 * perm still maps earlier bases to themselves
            perm = perm.translate(u_inv)
        return perm, len(self._levels)

    def contains_perm(self, perm: bytes) -> bool:
        residue, _ = self._strip(perm)
        return residue == self._id

    def contains(self, s: AffineMap) -> bool:
        return self.contains_perm(_pad256(s.pmap))

    __contains__ = contains

    def add(self, s: AffineMap) -> bool:
        """Add a generator; returns True if the group grew."""
        return self._add_perm(_pad256(s.pmap))

    def _add_perm(self, perm: bytes) -> bool:
        grew = False
        # (perm, first level to sift from): a Schreier residue formed at
        # level i fixes base points 0..i, where sifting would be the identity
        queue = [(perm, 0)]
        while queue:
            residue, lvl = self._strip(*queue.pop())
            if residue == self._id:
                continue
            grew = True
            if lvl == len(self._levels):
                base = next(x for x in range(self.n) if residue[x] != x)
                self._levels.append(
                    {"base": base, "orbit": {base: self._id}, "inv": {base: self._id}, "gens": []}
                )
            self._levels[lvl]["gens"].append(residue)
            # the new generator is visible at its own level and all shallower ones
            for i in range(lvl, -1, -1):
                queue.extend((res, i + 1) for res in self._close_incremental(i, residue))
        if grew:
            self._order = 1
            for lv in self._levels:
                self._order *= len(lv["orbit"])
        return grew

    def _visible_gens(self, lvl: int) -> List[bytes]:
        return [g for lv in self._levels[lvl:] for g in lv["gens"]]

    def _close_incremental(self, lvl: int, fresh: bytes) -> List[bytes]:
        """Extend the orbit at a level after one new visible generator.

        Applies the fresh generator to the whole current orbit, then expands
        any newly reached points under all visible generators.  Returns the
        Schreier residues that do not sift to the identity.
        """
        lv = self._levels[lvl]
        orbit, inv = lv["orbit"], lv["inv"]
        residues = []
        new_pts = []

        def edge(x: int, ux: bytes, g: bytes):
            y = g[x]
            uy_inv = inv.get(y)
            if uy_inv is None:
                # transversal for y is g * u_x (maps base -> y)
                uy = ux.translate(g)
                orbit[y] = uy
                inv[y] = _invert_perm(uy)
                new_pts.append(y)
            else:
                schreier = ux.translate(g).translate(uy_inv)
                if schreier != self._id:
                    residues.append(schreier)

        for x in list(orbit.keys()):
            edge(x, orbit[x], fresh)
        gens = self._visible_gens(lvl)
        while new_pts:
            x = new_pts.pop()
            ux = orbit[x]
            for g in gens:
                edge(x, ux, g)
        return residues


def subgroup_order(maps: Iterable[AffineMap]) -> int:
    """Exact order of the subgroup generated by the given maps."""
    maps = list(maps)
    if not maps:
        return 1
    m = maps[0].m
    oracle = SubgroupOracle(m)
    for s in maps:
        if s.m != m:
            raise InvalidInputError("generators live on different m")
        oracle.add(s)
    return oracle.order()


@lru_cache(maxsize=8)
def _agl_matrices(m: int) -> tuple:
    """All invertible m x m matrices over GF(2) as row tuples (m <= 4 sized)."""
    mats = []

    def build(rows: tuple):
        if len(rows) == m:
            mats.append(rows)
            return
        span = {0}
        for r in rows:
            span |= {v ^ r for v in span}
        for cand in range(1, 1 << m):
            if cand not in span:
                build(rows + (cand,))

    build(())
    return tuple(mats)


def enumerate_agl(m: int):
    """Yield every element of AGL(m,2) exactly once (full enumeration)."""
    if m > 5:
        raise InvalidInputError("full group enumeration is limited to m <= 5")
    for rows in _agl_matrices(m):
        for b in range(1 << m):
            yield AffineMap.from_matrix(m, rows, b)
