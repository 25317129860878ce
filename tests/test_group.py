import hashlib

import numpy as np
import pytest

from rmclass.bfcore import BooleanFunction
from rmclass.bits import degree_mask, masks_in_range
from rmclass.errors import InvalidInputError
from rmclass.group import (
    AffineMap,
    SubgroupOracle,
    act,
    enumerate_agl,
    generators_stu,
    group_order,
    random_affine,
    subgroup_order,
)
from rmclass.rng import stream

from oracles import act_by_definition, affine_text_by_formula, compose, degree


def test_group_order_values():
    assert group_order(1) == 2
    assert group_order(3) == 1344
    expected = (1 << 7)
    for i in range(7):
        expected *= (1 << 7) - (1 << i)
    assert group_order(7) == expected


def test_identity_and_compose_inverse():
    rng = stream(20)
    for m in range(1, 9):
        identity = AffineMap.identity(m)
        for _ in range(100):
            s = random_affine(m, rng)
            assert compose(s, identity) == s
            assert compose(identity, s) == s
            assert compose(s, s.inverse()) == identity
            assert compose(s.inverse(), s) == identity


def test_right_action_law_bruteforce():
    # every m, so the substitution is checked with and without table padding
    rng = stream(21)
    for m in range(1, 9):
        for _ in range(30):
            tt = int.from_bytes(rng.bytes(32), "little") & ((1 << (1 << m)) - 1)
            f = BooleanFunction(m, truth_table=tt)
            s = random_affine(m, rng)
            t = random_affine(m, rng)
            via_compose = act(f, compose(s, t))
            stepwise = act(act(f, s), t)
            assert via_compose == stepwise
            assert act_by_definition(f, s) == act(f, s)


def test_act_examples():
    m = 2
    f = BooleanFunction(m, anf=1 << 0b01)  # x1
    swap = AffineMap.from_matrix(m, [0b10, 0b01], 0)
    assert act(f, swap).anf == 1 << 0b10  # x2
    assert act(f, AffineMap.identity(m)) == f


def test_act_roundtrip_inverse():
    rng = stream(22)
    for m in (3, 5, 7):
        for _ in range(50):
            f = BooleanFunction(m, truth_table=int.from_bytes(rng.bytes((1 << m) // 8), "little"))
            s = random_affine(m, rng)
            assert act(act(f, s), s.inverse()) == f


def test_generators_stu_span_group():
    for m in range(2, 8):
        assert subgroup_order(generators_stu(m)) == group_order(m)


def test_translation_only_adds_constants():
    for m in (3, 5):
        _, _, u = generators_stu(m)
        x1 = BooleanFunction(m, anf=1 << 1)
        image = act(x1, u)
        assert image.anf in (1 << 1, (1 << 1) | 1)  # x1 or x1 + 1


def test_subgroup_oracle_small_cases():
    assert subgroup_order([]) == 1
    s, t, u = generators_stu(3)
    assert subgroup_order([u]) == 2  # translation is an involution
    oracle = SubgroupOracle(3)
    oracle.add(u)
    assert oracle.contains_perm(u.table)
    assert not oracle.contains_perm(s.table)


def test_subgroup_oracle_vs_explicit_closure():
    # membership and order must match an explicit multiplication closure,
    # for a chain closed in full and for one told the order it is building,
    # which stops closing once its orbit lengths multiply to that order
    rng = stream(23)
    m = 3
    agl = [g.table for g in enumerate_agl(m)]
    for _ in range(10):
        gens = [random_affine(m, rng) for _ in range(2)]
        closure = {AffineMap.identity(m).pmap}
        frontier = list(closure)
        while frontier:
            nxt = []
            for p in frontier:
                for g in gens:
                    q = p.translate(g.table)
                    if q not in closure:
                        closure.add(q)
                        nxt.append(q)
            frontier = nxt
        assert subgroup_order(gens) == len(closure)
        for oracle in (SubgroupOracle(m), SubgroupOracle(m, len(closure))):
            for g in gens:
                oracle.add(g)
            assert oracle.order() == len(closure)
            assert [oracle.contains_perm(p) for p in agl] == [p[:8] in closure for p in agl]


def test_enumerate_agl_sizes():
    assert sum(1 for _ in enumerate_agl(2)) == group_order(2)
    assert sum(1 for _ in enumerate_agl(3)) == group_order(3)


def test_random_affine_invertible_and_rate():
    from rmclass.bits import rank_gf2

    rng = stream(24)
    m = 4
    for _ in range(200):
        g = random_affine(m, rng)
        assert rank_gf2(tuple(g.rows)) == m
    # acceptance rate of the rejection sampler ~ prod (1 - 2^-i)
    n_try = 20000
    raw = rng.integers(0, 1 << m, size=(n_try, m))
    ok = sum(1 for rows in raw if rank_gf2(tuple(int(v) for v in rows)) == m)
    expected = 1.0
    for i in range(1, m + 1):
        expected *= 1.0 - 2.0 ** (-i)
    assert abs(ok / n_try - expected) < 0.02


def test_random_affine_uniform_chi_square():
    # 1e6 draws over the 1344 elements of AGL(3,2): every cell within 5 sigma
    rng = stream(25)
    m = 3
    draws = 1_000_000
    counts = {}
    for _ in range(draws):
        g = random_affine(m, rng)
        counts[g.pmap] = counts.get(g.pmap, 0) + 1
    assert len(counts) == 1344
    p = 1.0 / 1344
    mu = draws * p
    sigma = (draws * p * (1 - p)) ** 0.5
    worst = max(abs(c - mu) for c in counts.values())
    assert worst <= 5 * sigma, f"worst deviation {worst} > 5 sigma {5 * sigma}"


def test_random_affine_draws_are_pinned():
    # the maps a seeded stream yields are part of every seeded search: rows
    # are drawn until the matrix has full rank, then the translation
    pins = {
        3: "9432176143b37805088f5f5ba739feb4e8714a4bd553148d1ea09df3e908f6bb",
        6: "f1ac33e7b7147ff86a260504cf2de62d006dd9cd7763f0ba4aabf1cff3696f05",
    }
    for m, pin in pins.items():
        rng = stream(28)
        pmaps = b"".join(random_affine(m, rng).pmap for _ in range(2000))
        assert hashlib.sha256(pmaps).hexdigest() == pin


def test_act_is_linear_bijection_on_quotient():
    # acting then reducing is additive and invertible on B(s,t,m) mod RM(s-1)
    rng = stream(26)
    for m in (4, 6):
        s_val, t_val = 2, m - 1
        basis = masks_in_range(m, s_val, t_val)
        sigma = random_affine(m, rng)
        for _ in range(50):
            a1 = 0
            a2 = 0
            for mask in basis:
                if rng.integers(2):
                    a1 |= 1 << mask
                if rng.integers(2):
                    a2 |= 1 << mask
            f1, f2 = BooleanFunction(m, anf=a1), BooleanFunction(m, anf=a2)
            both = BooleanFunction(m, anf=a1 ^ a2)
            img = lambda f: act(f, sigma).anf & degree_mask(m, s_val, m)
            assert img(both) == img(f1) ^ img(f2)
            assert degree(act(f1, sigma)) == degree(f1)


def test_serialization_round_trip_and_format():
    # maps drawn directly and built by compose and inverse; the second
    # serialize call returns the text cached by the first
    rng = stream(27)
    for m in range(1, 9):
        for _ in range(50):
            a = random_affine(m, rng)
            for g in (a, compose(a, random_affine(m, rng)), a.inverse()):
                text = g.serialize()
                assert text == affine_text_by_formula(g)
                assert g.serialize() == text
                assert len(text.split(":")) == m + 1
                again = AffineMap.parse(m, text)
                assert again == g and again.serialize() == text
    with pytest.raises(InvalidInputError):
        AffineMap.parse(3, "1:2:3")  # missing translation field


def test_from_matrix_rejects_singular():
    with pytest.raises(InvalidInputError):
        AffineMap.from_matrix(3, [1, 2, 3], 0)  # row3 = row1 ^ row2
