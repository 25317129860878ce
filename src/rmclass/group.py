"""The affine general linear group AGL(m,2) and its action on Boolean functions.

An element x |-> xA + b is stored as its point permutation of F_2^m, a bytes
object of length 2^m (values fit a byte for m <= 8).  Composition is then a
single C-level bytes.translate, which is what keeps the Schreier machinery
cheap.  The matrix rows and the translation are recovered from the
permutation when needed.

Composition convention: the product st of two maps is "s then t" in the
sense of the right action on functions,

    act(f, st) = act(act(f, s), t),

equivalently st.pmap[x] = s.pmap[t.pmap[x]], which is
t.pmap.translate(s.table).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Dict, Iterable, List, Sequence

from .bits import hex_of_bits, pivots_gf2
from .errors import InvalidInputError
from .bfcore import BooleanFunction, mobius
from .rng import Draws

_PAD = bytes(range(256))


def _pad256(pmap: bytes) -> bytes:
    """Extend a 2^m-point permutation to 256 bytes (identity on the tail)."""
    return pmap + _PAD[len(pmap):]


def _invert_perm(perm: bytes) -> bytes:
    """Inverse of a permutation of 0..len-1, as a 256-byte table (identity
    on the tail)."""
    return bytes.maketrans(perm, _PAD[: len(perm)])


def _affine_pmap(rows: Sequence[int], translation: int) -> bytes:
    """Point map of x -> xA + b, A given by its rows (row i = image of e_i,
    each below 256), by doubling: the images of the points below 2^(i+1)
    are those below 2^i followed by the same XOR row i.  The map is kept as
    a little-endian int of bytes, so that XOR is one product by the int of
    n bytes 0x01 and one int XOR."""
    pmap, n = translation, 1
    for row in rows:
        pmap |= (pmap ^ row * ((1 << 8 * n) // 255)) << 8 * n
        n <<= 1
    return pmap.to_bytes(n, "little")


def substitute(tt: int, pmap: bytes) -> int:
    """Truth table of f o s from that of f: bit x is bit pmap[x] of tt.

    The bits go through ASCII '0'/'1' strings, so the gather is one C-level
    bytes.translate and the conversions are format and int.
    """
    n = len(pmap)
    points = format(tt, f"0{n}b").encode()[::-1].ljust(256, b"0")  # char p = bit p
    return int(pmap.translate(points)[::-1], 2)


def substitute_anf(tt: int, pmap: bytes) -> int:
    """ANF of f o s from the truth table of f: substitute, then Moebius."""
    return mobius(substitute(tt, pmap), len(pmap))


@lru_cache(maxsize=None)
def _hex_fields(m: int) -> tuple:
    """The record text of every m-bit value, as hex_of_bits(v, m) writes it."""
    return tuple(hex_of_bits(v, m) for v in range(1 << m))


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
        if len(pivots_gf2(rows)) != m:
            raise InvalidInputError("matrix is singular over GF(2)")
        if any(v >> m for v in (*rows, translation)):
            raise InvalidInputError("a matrix row or the translation does not fit in m bits")
        return cls(m, _affine_pmap(rows, translation))

    @property
    def translation(self) -> int:
        return self.pmap[0]

    @property
    def rows(self) -> List[int]:
        b = self.pmap[0]
        return [self.pmap[1 << i] ^ b for i in range(self.m)]

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
        first), each read from _hex_fields(m).  Computed once per map: pmap
        is never reassigned."""
        if self._text is None:
            hexes, pmap = _hex_fields(self.m), self.pmap
            b = pmap[0]  # the translation; row i is pmap[e_i] ^ b
            fields = [hexes[pmap[1 << i] ^ b] for i in range(self.m - 1, -1, -1)]
            fields.append(hexes[b])
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
    (x1 += x2) and the translation U (x += e1); they generate AGL(m,2).
    At m = 1 S and T are the identity, and U alone is returned."""
    if m < 1:
        raise InvalidInputError("m must be >= 1")
    n = 1 << m
    full = n - 1
    shift = bytes(((x << 1) | (x >> (m - 1))) & full for x in range(n))
    transvect = bytes(x ^ ((x >> 1) & 1) for x in range(n))
    translate = bytes(x ^ 1 for x in range(n))
    maps = [AffineMap(m, shift), AffineMap(m, transvect), AffineMap(m, translate)]
    return maps if m > 1 else maps[2:]


def random_affine(m: int, draws: Draws) -> AffineMap:
    """Uniform over AGL(m,2): rejection-sample an invertible matrix, then a
    uniform translation.  The map is built from its point map, not through
    from_matrix, whose rank check would repeat the one above."""
    n = 1 << m
    while True:
        rows = [draws.below(n) for _ in range(m)]
        if len(pivots_gf2(rows)) == m:
            break
    return AffineMap(m, _affine_pmap(rows, draws.below(n)))


def act(f: BooleanFunction, s: AffineMap) -> BooleanFunction:
    """f composed with the substitution: truth_table'[x] = truth_table[s(x)]."""
    if f.m != s.m:
        raise InvalidInputError("function and map live on different m")
    return BooleanFunction(f.m, truth_table=substitute(f.truth_table, s.pmap))


class SubgroupOracle:
    """Exact order and membership for a subgroup H of AGL(m,2) given by
    generators, via a stabilizer chain over the 2^m points.

    Internally permutations are 256-byte tables (identity tail) so that all
    products are bytes.translate calls.  Level l keeps its base point, its
    transversal and the inverses (point -> element mapping the base there),
    and the generators visible at it: a residue assigned to level l fixes the
    first l base points, so it joins the lists of levels 0..l.  Orbits grow
    incrementally under each new visible generator.

    known_order is the order of a group known to contain every generator
    added; |AGL(m,2)| always is one.  Each orbit found is part of a basic
    orbit of H, so the product P of the orbit lengths is at most
    |H| <= known_order.  When P reaches known_order, H is that group, the
    orbits are its basic orbits and sifting decides membership exactly, so
    add_perm stops closing there: the known-order Schreier-Sims of Seress,
    Permutation Group Algorithms (2003), ch. 4.
    """

    def __init__(self, m: int, known_order: int):
        self.m = m
        self.n = 1 << m
        self._known = known_order
        self._bases: List[int] = []
        self._trans: List[Dict[int, bytes]] = []
        self._invs: List[Dict[int, bytes]] = []
        self._gens: List[List[bytes]] = []
        self._order = 1

    def order(self) -> int:
        return self._order

    def _strip(self, perm: bytes, start: int = 0):
        """Sift through the chain from level start on (perm must fix the
        earlier base points); returns (residue, deepest level reached)."""
        bases, invs = self._bases, self._invs
        for i in range(start, len(bases)):
            u_inv = invs[i].get(perm[bases[i]])
            if u_inv is None:
                return perm, i
            # residue = u^-1 * perm still maps earlier bases to themselves
            perm = perm.translate(u_inv)
        return perm, len(bases)

    def contains_perm(self, perm: bytes) -> bool:
        residue, _ = self._strip(perm)
        return residue == _PAD

    def add_perm(self, perm: bytes) -> None:
        """Add a generator, a 256-byte table."""
        # (perm, first level to sift from): a Schreier residue formed at
        # level i fixes base points 0..i, where sifting would be the identity
        queue = [(perm, 0)]
        while queue:
            residue, lvl = self._strip(*queue.pop())
            if residue == _PAD:
                continue
            if lvl == len(self._bases):
                base = next(x for x in range(self.n) if residue[x] != x)
                self._bases.append(base)
                self._trans.append({base: _PAD})
                self._invs.append({base: _PAD})
                self._gens.append([])
            for i in range(lvl, -1, -1):
                self._gens[i].append(residue)
                found = self._close(i, residue)
                if found is None:
                    return
                queue.extend((res, i + 1) for res in found)

    def _close(self, lvl: int, fresh: bytes):
        """Extend the orbit at a level after one new visible generator.

        Applies the fresh generator to the whole current orbit, then expands
        any newly reached points under all visible generators.  Returns the
        Schreier residues that are not the identity, or None once the order
        reaches known_order.
        """
        trans, inv, gens = self._trans[lvl], self._invs[lvl], self._gens[lvl]
        residues = []
        todo = [(x, (fresh,)) for x in trans]
        while todo:
            x, applied = todo.pop()
            ux = trans[x]
            for g in applied:
                y = g[x]
                uy = ux.translate(g)  # maps base -> y
                uy_inv = inv.get(y)
                if uy_inv is None:
                    trans[y] = uy
                    inv[y] = _invert_perm(uy)
                    size = len(trans)
                    self._order = self._order // (size - 1) * size
                    if self._order >= self._known:
                        return None
                    todo.append((y, gens))
                else:
                    schreier = uy.translate(uy_inv)
                    if schreier != _PAD:
                        residues.append(schreier)
        return residues


def subgroup_order(maps: Iterable[AffineMap]) -> int:
    """Exact order of the subgroup generated by the given maps."""
    maps = list(maps)
    if not maps:
        return 1
    m = maps[0].m
    oracle = SubgroupOracle(m, group_order(m))
    for s in maps:
        if s.m != m:
            raise InvalidInputError("generators live on different m")
        oracle.add_perm(s.table)
    return oracle.order()


def enumerate_agl(m: int):
    """Yield every element of AGL(m,2) exactly once, matrix rows in
    lexicographic order: the tests' brute-force reference."""
    if m > 5:
        raise InvalidInputError("full group enumeration is limited to m <= 5")
    for rows in product(range(1 << m), repeat=m):
        if len(pivots_gf2(rows)) == m:
            for b in range(1 << m):
                yield AffineMap(m, _affine_pmap(rows, b))
