import pytest

from rmclass.bfcore import BooleanFunction
from rmclass.bits import rank_gf2
from rmclass.classify import classify_space
from rmclass.covrad import (
    covering_radius_bound,
    distance,
    exact_coset_min_weight,
    pivoting,
    reduce,
    rm_generator_matrix,
)
from rmclass.errors import InvalidInputError, ResourceRefusedError
from rmclass.group import act, random_affine
from rmclass.rng import stream

from oracles import coset_min_weight_by_gray_walk, exact_covering_radius_rm1, walsh

X = lambda *vars_: sum(1 << (v - 1) for v in vars_)

BENT_M5 = BooleanFunction(5, anf=(1 << X(1, 2)) ^ (1 << X(3, 4)) ^ (1 << X(5)))


# -- generator matrices ------------------------------------------------------------


def test_rm_generator_matrix_shapes():
    assert rm_generator_matrix(0, 3) == [0xFF]
    rows = rm_generator_matrix(3, 7)
    assert len(rows) == 64 and rows[0] == (1 << 128) - 1 == max(rows)  # n = 128
    rows = rm_generator_matrix(1, 5)
    assert len(rows) == 6 and rows[0] == (1 << 32) - 1 == max(rows)


def test_pivoting_identity_like_stays_sparse():
    rows = [0b0001, 0b0010, 0b0100, 0b1000]
    pivoted = list(rows)
    pivots = pivoting(pivoted, stream(50))
    assert sorted(pivoted) == sorted(rows)  # weight-1 rows can only permute
    assert sorted(pivots) == [0, 1, 2, 3]


def test_pivoting_weight_bound_and_rowspace():
    rng = stream(51)
    m = 3
    rows = rm_generator_matrix(1, m)
    original_rows = tuple(rows)
    for _ in range(1000):
        pivots = pivoting(rows, rng)
        bound = (1 << m) - len(rows) + 1
        assert all(r.bit_count() <= bound for r in rows)
        # row space preserved: stacking old and new rows does not raise rank
        assert rank_gf2(original_rows + tuple(rows)) == rank_gf2(original_rows)
        # reduced echelon: each pivot column is a singleton
        for i, p in enumerate(pivots):
            assert all(((r >> p) & 1) == (j == i) for j, r in enumerate(rows))


def test_pivoting_rejects_dependent_rows():
    rows = [0b0011, 0b0101, 0b0110]  # row3 = row1 ^ row2
    with pytest.raises(InvalidInputError):
        pivoting(rows, stream(52))


# -- reduce ---------------------------------------------------------------------------


def test_reduce_codeword_to_zero():
    rng = stream(53)
    rows = rm_generator_matrix(2, 4)
    pivots = pivoting(rows, rng)
    assert reduce(0, rows, pivots) == 0
    for _ in range(100):
        word = 0
        for row in rm_generator_matrix(2, 4):
            if rng.integers(2):
                word ^= row
        assert reduce(word, rows, pivots) == 0


def test_reduce_weight_bound_and_coset():
    rng = stream(54)
    rows = rm_generator_matrix(1, 5)
    plain = tuple(rm_generator_matrix(1, 5))
    for _ in range(500):
        pivots = pivoting(rows, rng)
        g = int(rng.integers(0, 1 << 32))
        red = reduce(g, rows, pivots)
        assert red.bit_count() <= (1 << 5) - len(rows)  # zero at every pivot
        for p in pivots:
            assert not (red >> p) & 1
        # stays in the same coset
        assert rank_gf2(plain + (red ^ g,)) == rank_gf2(plain)


# -- exact oracles ---------------------------------------------------------------------


def test_exact_min_weight_of_codewords_is_zero():
    rng = stream(55)
    rows = rm_generator_matrix(2, 5)
    for _ in range(10):
        word = 0
        for row in rows:
            if rng.integers(2):
                word ^= row
        assert exact_coset_min_weight(BooleanFunction(5, truth_table=word), 2, 5) == 0


def test_exact_min_weight_bent_case():
    assert exact_coset_min_weight(BENT_M5, 1, 5) == 12
    # cross-check through the spectrum: distance to RM(1,5) = (32 - max|W|)/2
    spectral = (32 - max(abs(v) for v in walsh(BENT_M5))) // 2
    assert spectral == 12


def test_exact_min_weight_budget():
    with pytest.raises(ResourceRefusedError):
        exact_coset_min_weight(BooleanFunction.zero(7), 4, 7)  # dim 99


def test_exact_min_weight_orbit_invariance():
    rng = stream(56)
    for _ in range(10):
        f = BooleanFunction(5, truth_table=int(rng.integers(0, 1 << 32)))
        w = exact_coset_min_weight(f, 2, 5)
        sigma = random_affine(5, rng)
        assert exact_coset_min_weight(act(f, sigma), 2, 5) == w


def test_big_enumeration_path_matches_small():
    # the block enumeration against a plain Gray walk over all codewords,
    # for codes of dimension 1 to 16 (all rows in the block)
    rng = stream(61)
    bent_rows = rm_generator_matrix(1, 5)
    assert coset_min_weight_by_gray_walk(BENT_M5.truth_table, bent_rows) == 12
    for r, m in [(0, 3), (1, 3), (2, 3), (1, 4), (2, 4), (1, 5), (2, 5), (1, 6), (1, 7)]:
        rows = rm_generator_matrix(r, m)
        for _ in range(3):
            tt = int.from_bytes(rng.bytes(16), "little") >> (128 - (1 << m))
            exact = exact_coset_min_weight(BooleanFunction(m, truth_table=tt), r, m)
            assert exact == coset_min_weight_by_gray_walk(tt, rows)
    # RM(2,6) has dimension 22: 2^20 words in the block, a walk over the
    # other 2; a codeword has weight 0, and a codeword with one point
    # flipped weight 1 (the minimum distance is 16)
    rows = rm_generator_matrix(2, 6)
    word = rows[0] ^ rows[5] ^ rows[20] ^ rows[21]
    assert exact_coset_min_weight(BooleanFunction(6, truth_table=word), 2, 6) == 0
    assert exact_coset_min_weight(BooleanFunction(6, truth_table=word ^ (1 << 37)), 2, 6) == 1


# -- randomized search ------------------------------------------------------------------


def test_distance_hits_zero_for_codeword():
    rng = stream(57)
    rows = rm_generator_matrix(2, 5)
    word = rows[3] ^ rows[7]
    rep = distance(BooleanFunction(5, truth_table=word), rm_generator_matrix(2, 5), 0, rng=rng)
    assert rep.hit and rep.best == 0


def test_distance_finds_bent_distance():
    rep = distance(BENT_M5, rm_generator_matrix(1, 5), 12, rng=stream(58))
    assert rep.hit and rep.best == 12


def test_distance_never_below_exact():
    rng = stream(59)
    for seed in range(10):
        f = BooleanFunction(5, truth_table=int(rng.integers(0, 1 << 32)))
        exact = exact_coset_min_weight(f, 2, 5)
        rep = distance(f, rm_generator_matrix(2, 5), exact, max_iter=256, rng=stream(seed))
        assert rep.best >= exact


def test_distance_respects_max_iter():
    rep = distance(BENT_M5, rm_generator_matrix(1, 5), 0, max_iter=16, rng=stream(60))
    assert rep.trials == 16 and not rep.hit and rep.best >= 12


def test_covering_radius_rm1_m3():
    # covering radius of RM(1,3) is 2 (odd m, quadratic bound); at even m it
    # is the bent distance 2^(m-1) - 2^(m/2-1); m=1 has a single coset
    assert exact_covering_radius_rm1(3) == 2
    assert [exact_covering_radius_rm1(m) for m in (1, 2, 4)] == [0, 1, 6]


def test_covering_radius_rm1_m5_from_classes():
    # B(2,5,5) holds one function per coset of RM(1,5), and the coset minimum
    # weight (32 - max|W|)/2 is constant on each AGL(5,2) class: the maximum
    # over the 48 representatives is the covering radius the exhaustive
    # sweep in acceptance criterion 8 finds.
    records = classify_space(2, 5, 5)
    assert len(records) == 48
    assert max((32 - int(abs(walsh(rec.rep)).max())) // 2 for rec in records) == 12


def test_covering_radius_bound_report():
    records = classify_space(3, 3, 5)
    worst = max(exact_coset_min_weight(rec.rep, 2, 5) for rec in records)
    reports = covering_radius_bound(records, 2, worst, seed=5)
    assert all(tr.hit for tr in reports)
    assert len(reports) == len(records)
    assert sum(tr.trials for tr in reports) >= len(reports)  # mean trials >= 1
    inconclusive = covering_radius_bound(records, 2, worst - 1, max_iter=8, seed=5)
    assert not all(tr.hit for tr in inconclusive)
    # a miss ran out of trials: the verdict is inconclusive, not a lower bound
    assert all(tr.trials == 8 and tr.best > worst - 1 for tr in inconclusive if not tr.hit)
