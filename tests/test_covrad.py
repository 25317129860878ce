import pytest

from rmclass.bfcore import BooleanFunction, walsh
from rmclass.bits import rank_gf2
from rmclass.classify import classify_space
from rmclass.covrad import (
    GeneratorMatrix,
    covering_radius_bound,
    distance,
    exact_coset_min_weight,
    exact_covering_radius_rm1,
    pivoting,
    reduce,
    rm_generator_matrix,
)
from rmclass.errors import InvalidInputError, ResourceRefusedError
from rmclass.group import act, random_affine
from rmclass.rng import stream

X = lambda *vars_: sum(1 << (v - 1) for v in vars_)

BENT_M5 = BooleanFunction(5, anf=(1 << X(1, 2)) ^ (1 << X(3, 4)) ^ (1 << X(5)))


# -- generator matrices ------------------------------------------------------------


def test_rm_generator_matrix_shapes():
    g = rm_generator_matrix(0, 3)
    assert g.k == 1 and g.rows == [0xFF]
    g = rm_generator_matrix(3, 7)
    assert (g.k, g.n) == (64, 128)
    g = rm_generator_matrix(1, 5)
    assert (g.k, g.n) == (6, 32)


def test_pivoting_identity_like_stays_sparse():
    rows = [0b0001, 0b0010, 0b0100, 0b1000]
    G = GeneratorMatrix(2, 1, list(rows))
    pivoting(G, stream(50))
    assert sorted(G.rows) == sorted(rows)  # weight-1 rows can only permute
    assert sorted(G.pivots) == [0, 1, 2, 3]


def test_pivoting_weight_bound_and_rowspace():
    rng = stream(51)
    G = rm_generator_matrix(1, 3)
    original_rows = tuple(G.rows)
    for _ in range(1000):
        pivoting(G, rng)
        bound = G.n - G.k + 1
        assert all(r.bit_count() <= bound for r in G.rows)
        # row space preserved: stacking old and new rows does not raise rank
        assert rank_gf2(original_rows + tuple(G.rows)) == rank_gf2(original_rows)
        # reduced echelon: each pivot column is a singleton
        for i, p in enumerate(G.pivots):
            assert all(((r >> p) & 1) == (j == i) for j, r in enumerate(G.rows))


def test_pivoting_rejects_dependent_rows():
    G = GeneratorMatrix(2, 1, [0b0011, 0b0101, 0b0110])  # row3 = row1 ^ row2
    with pytest.raises(InvalidInputError):
        pivoting(G, stream(52))


# -- reduce ---------------------------------------------------------------------------


def test_reduce_codeword_to_zero():
    rng = stream(53)
    G = rm_generator_matrix(2, 4)
    pivoting(G, rng)
    assert reduce(0, G) == 0
    for _ in range(100):
        word = 0
        for row in rm_generator_matrix(2, 4).rows:
            if rng.integers(2):
                word ^= row
        assert reduce(word, G) == 0


def test_reduce_weight_bound_and_coset():
    rng = stream(54)
    G = rm_generator_matrix(1, 5)
    plain = rm_generator_matrix(1, 5)
    for _ in range(500):
        pivoting(G, rng)
        g = int(rng.integers(0, 1 << 32))
        red = reduce(g, G)
        assert red.bit_count() <= G.n - G.k  # zero at every pivot
        for p in G.pivots:
            assert not (red >> p) & 1
        # stays in the same coset
        assert rank_gf2(tuple(plain.rows) + (red ^ g,)) == rank_gf2(tuple(plain.rows))


def test_reduce_requires_pivoting():
    with pytest.raises(InvalidInputError):
        reduce(1, rm_generator_matrix(1, 3))


# -- exact oracles ---------------------------------------------------------------------


def test_exact_min_weight_of_codewords_is_zero():
    rng = stream(55)
    rows = rm_generator_matrix(2, 5).rows
    for _ in range(10):
        word = 0
        for row in rows:
            if rng.integers(2):
                word ^= row
        assert exact_coset_min_weight(BooleanFunction(5, truth_table=word), 2, 5) == 0


def test_exact_min_weight_bent_case():
    assert exact_coset_min_weight(BENT_M5, 1, 5) == 12
    # cross-check through the spectrum: distance to RM(1,5) = (32 - max|W|)/2
    spectral = (32 - max(abs(v) for v in walsh(BENT_M5).values)) // 2
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
    # force the vectorized 2^20-block route and compare against Gray scan
    f = BENT_M5
    from rmclass.covrad import _exact_min_weight_big

    rows = rm_generator_matrix(1, 5).rows
    assert _exact_min_weight_big(f, rows, 5) == 12


# -- randomized search ------------------------------------------------------------------


def test_distance_hits_zero_for_codeword():
    rng = stream(57)
    rows = rm_generator_matrix(2, 5).rows
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
    assert max((32 - int(abs(walsh(rec.rep).values).max())) // 2 for rec in records) == 12


def test_covering_radius_bound_report():
    records = classify_space(3, 3, 5)
    worst = max(exact_coset_min_weight(rec.rep, 2, 5) for rec in records)
    report = covering_radius_bound(records, 2, worst, seed=5)
    assert report.certified
    assert len(report.reports) == len(records)
    assert report.mean_trials >= 1.0
    inconclusive = covering_radius_bound(records, 2, worst - 1, max_iter=8, seed=5)
    assert not inconclusive.certified
    assert "INCONCLUSIVE" in inconclusive.summary()
