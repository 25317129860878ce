import math

import numpy as np
import pytest

from rmclass.bfcore import (
    BooleanFunction,
    hadamard,
    mobius,
    monomial_truth_table,
    signs,
    span_signs,
)
from rmclass.bits import degree_mask, masks_in_range
from rmclass.errors import InvalidInputError
from rmclass.group import act, random_affine
from rmclass.rng import Draws, stream

from oracles import (
    complement_transform,
    degree,
    inner_product,
    is_near_bent,
    reduce_anf,
    valuation,
    walsh,
    walsh_by_definition,
)

X = lambda *vars_: sum(1 << (v - 1) for v in vars_)  # monomial mask from variable ids


def bf(m, *monomials):
    anf = 0
    for mask in monomials:
        anf ^= 1 << mask
    return BooleanFunction(m, anf=anf)


def reduced(f, r):
    """The ANF of f modulo RM(r,m), by the library's mask, checked against
    the coefficient-by-coefficient oracle."""
    anf = f.anf & degree_mask(f.m, r + 1, f.m)
    assert anf == reduce_anf(f.anf, f.m, r)
    return anf


def monomial(m, mask):
    return BooleanFunction(m, anf=1 << mask)


# -- mobius -------------------------------------------------------------------


def test_mobius_zero():
    assert mobius(0, 8) == 0


def test_mobius_known_quadratic():
    # truth table of x1*x2 on m=2 has only point 3 set; ANF has only mask 3
    f = BooleanFunction(2, truth_table=0b1000)
    assert f.anf == 0b1000


def test_mobius_matches_definition_small():
    from oracles import anf_by_definition

    rng = stream(11)
    for m in (2, 3, 4):
        for _ in range(25):
            tt = int(rng.integers(0, 1 << (1 << m)))
            assert mobius(tt, 1 << m) == anf_by_definition(tt, m)


def test_mobius_involution_m7():
    rng = stream(1)
    n = 1 << 7
    for _ in range(1000):
        v = int.from_bytes(rng.bytes(n // 8), "little")
        assert mobius(mobius(v, n), n) == v


def test_mobius_rejects_bad_length():
    with pytest.raises(InvalidInputError):
        mobius(0, 12)
    with pytest.raises(InvalidInputError):
        mobius(1 << 9, 8)


# -- degree / valuation ---------------------------------------------------------


def test_degree_zero_function():
    assert degree(BooleanFunction.zero(5)) == -1


def test_degree_reads_anf():
    f = bf(7, X(1, 2, 3), X(1))
    assert degree(f) == 3


def test_degree_affine_invariant_random():
    rng = stream(2)
    draws = Draws(rng.bit_generator)
    for m in (3, 5, 7):
        for _ in range(1000 if m == 7 else 200):
            f = BooleanFunction(m, truth_table=int.from_bytes(rng.bytes((1 << m) // 8), "little"))
            s = random_affine(m, draws)
            assert degree(act(f, s)) == degree(f)


def test_valuation_conventions():
    assert valuation(BooleanFunction.zero(3)) == math.inf
    assert valuation(bf(3, 0, X(1, 2))) == 0  # 1 + x1x2
    assert valuation(bf(3, X(1, 2), X(1, 2, 3))) == 2


# -- reductions -----------------------------------------------------------------


def test_reduce_mod_rm_examples():
    f = bf(3, X(1), X(1, 2, 3))
    assert reduced(f, 1) == 1 << X(1, 2, 3)
    assert reduced(f, 3) == 0
    assert reduced(f, -1) == f.anf


def test_reduce_mod_rm_quotient_action_well_defined():
    # reducing then acting then reducing equals acting then reducing, up to
    # any degree-<=r perturbation
    rng = stream(3)
    draws = Draws(rng.bit_generator)
    m, r = 5, 2
    low_masks = masks_in_range(m, 0, r)
    for _ in range(100):
        f = BooleanFunction(m, truth_table=int.from_bytes(rng.bytes(4), "little"))
        s = random_affine(m, draws)
        g_anf = 0
        for mask in low_masks:
            if rng.integers(2):
                g_anf |= 1 << mask
        lhs = reduced(act(f, s), r)
        perturbed = BooleanFunction(m, anf=reduced(f, r) ^ g_anf)
        rhs = reduced(act(perturbed, s), r)
        assert lhs == rhs


def test_homogeneous_part():
    # the degree-r part is the ANF masked by degree_mask(m, r, r)
    f = bf(3, X(1), X(2, 3))
    assert f.anf & degree_mask(3, 2, 2) == 1 << X(2, 3)
    rng = stream(4)
    for _ in range(50):
        f = BooleanFunction(4, truth_table=int(rng.integers(0, 1 << 16)))
        total = 0
        for r in range(5):
            total ^= f.anf & degree_mask(4, r, r)
        assert total == f.anf
        for r in range(1, 5):
            assert f.anf & degree_mask(4, r, r) == reduced(f, r - 1) ^ reduced(f, r)


# -- walsh ------------------------------------------------------------------------


def test_walsh_zero_function():
    spec = walsh(BooleanFunction.zero(3))
    assert spec.tolist() == [8, 0, 0, 0, 0, 0, 0, 0]


def test_walsh_matches_definition():
    rng = stream(5)
    for m in range(1, 9):
        for _ in range(20):
            tt = int.from_bytes(rng.bytes(32), "little") >> (256 - (1 << m))
            f = BooleanFunction(m, truth_table=tt)
            spec = walsh(f)
            assert spec.dtype == np.int32
            assert spec.tolist() == walsh_by_definition(f)
        h = hadamard(m)
        assert not h.flags.writeable
        with pytest.raises(ValueError):
            h[0, 0] = 0


def test_span_signs_rows_are_signs_of_combinations():
    # signs(tt, m)[x] = (-1)^bit x of tt, for m = 1, 2 too (fewer than 8 points)
    rng = stream(7)
    for m in range(1, 6):
        tts = [int.from_bytes(rng.bytes(4), "little") >> (32 - (1 << m)) for _ in range(4)]
        rows = span_signs(tts, m)
        assert rows.shape == (16, 1 << m) and rows.dtype == np.int8
        for i in range(16):
            tt = 0
            for j in range(4):
                if (i >> j) & 1:
                    tt ^= tts[j]
            assert rows[i].tolist() == [1 - 2 * ((tt >> x) & 1) for x in range(1 << m)]
            assert rows[i].tolist() == signs(tt, m).tolist()


def test_walsh_rank4_quadratic_magnitudes():
    f = bf(5, X(1, 2), X(3, 4))
    assert set(np.abs(walsh(f)).tolist()) == {0, 8}


def test_walsh_parseval_random_m7():
    rng = stream(6)
    for _ in range(1000):
        f = BooleanFunction(7, truth_table=int.from_bytes(rng.bytes(16), "little"))
        assert int((walsh(f).astype(np.int64) ** 2).sum()) == 1 << 14


def test_near_bent():
    assert is_near_bent(bf(5, X(1, 2), X(3, 4)))
    assert not is_near_bent(BooleanFunction.zero(5))
    assert is_near_bent(bf(7, X(1, 2), X(3, 4), X(5, 6)))
    with pytest.raises(InvalidInputError):
        is_near_bent(BooleanFunction.zero(4))


# -- pairings ----------------------------------------------------------------------


def test_inner_product_with_zero():
    rng = stream(7)
    zero = BooleanFunction.zero(5)
    for _ in range(20):
        f = BooleanFunction(5, truth_table=int(rng.integers(0, 1 << 32)))
        assert inner_product(f, zero) == 0


def test_inner_product_monomial_complement():
    for m in range(2, 8):
        full = (1 << m) - 1
        for s in range(1 << m):
            xs = monomial(m, s)
            xsbar = monomial(m, full ^ s)
            assert inner_product(xs, xsbar) == 1


def test_inner_product_adjoint():
    rng = stream(8)
    draws = Draws(rng.bit_generator)
    for _ in range(100):
        m = 5
        f = BooleanFunction(m, truth_table=int(rng.integers(0, 1 << 32)))
        g = BooleanFunction(m, truth_table=int(rng.integers(0, 1 << 32)))
        s = random_affine(m, draws)
        assert inner_product(act(f, s), g) == inner_product(f, act(g, s.inverse()))


def test_inner_product_mismatched_m():
    with pytest.raises(InvalidInputError):
        inner_product(BooleanFunction.zero(3), BooleanFunction.zero(4))


def test_duality_pairing_exhaustive_small():
    # every nonzero g in B(m-t,m-s,m) pairs to 1 with some monomial of B(s,t,m)
    for m in (2, 3, 4):
        for s in range(m + 1):
            for t in range(s, m + 1):
                dual = masks_in_range(m, m - t, m - s)
                mono = [monomial(m, x) for x in masks_in_range(m, s, t)]
                for choice in range(1, 1 << len(dual)):
                    anf = 0
                    for j, mask in enumerate(dual):
                        if (choice >> j) & 1:
                            anf |= 1 << mask
                    g = BooleanFunction(m, anf=anf)
                    assert any(inner_product(x, g) == 1 for x in mono)


@pytest.mark.parametrize("m", [5, 6, 7])
def test_duality_pairing_random(m):
    rng = stream(9 + m)
    for _ in range(100):
        s = int(rng.integers(0, m + 1))
        t = int(rng.integers(s, m + 1))
        dual = masks_in_range(m, m - t, m - s)
        if not dual:
            continue
        anf = 0
        while anf == 0:
            for mask in dual:
                anf |= int(rng.integers(2)) << mask
        g = BooleanFunction(m, anf=anf)
        assert any(
            inner_product(monomial(m, x), g) == 1
            for x in masks_in_range(m, s, t)
        )


# -- complement transform ------------------------------------------------------------


def test_complement_examples():
    f = bf(3, X(1))
    assert complement_transform(f).anf == 1 << X(2, 3)


def test_complement_involution():
    rng = stream(10)
    for _ in range(200):
        f = BooleanFunction(6, truth_table=int.from_bytes(rng.bytes(8), "little"))
        assert complement_transform(complement_transform(f)) == f


def test_complement_maps_spaces():
    # B(2,4,7) onto B(3,5,7)
    rng = stream(11)
    basis = masks_in_range(7, 2, 4)
    for _ in range(1000):
        anf = 0
        for mask in basis:
            if rng.integers(2):
                anf |= 1 << mask
        g = complement_transform(BooleanFunction(7, anf=anf))
        assert valuation(g) >= 3 and degree(g) <= 5


# -- space bookkeeping ----------------------------------------------------------------


def test_monomial_truth_table():
    # X_{1,2} on m=3: true exactly at points with bits 0 and 1 set
    tt = monomial_truth_table(0b011, 3)
    assert tt == sum(1 << x for x in range(8) if x & 3 == 3)


def test_hex_round_trip():
    rng = stream(12)
    for m in (3, 6, 7):
        for _ in range(20):
            f = BooleanFunction(m, truth_table=int.from_bytes(rng.bytes((1 << m) // 8), "little"))
            assert len(f.anf_hex()) == max(1, (1 << m) // 4)
            assert BooleanFunction(m, anf=int(f.anf_hex(), 16)) == f
