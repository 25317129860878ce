import hashlib

import pytest

from rmclass import cli
from rmclass.bfcore import BooleanFunction
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
from rmclass.rng import Draws, stream

from oracles import (
    coset_min_weight_by_gray_walk,
    exact_covering_radius_rm1,
    pivoting_by_rows,
    rank_gf2,
    walsh,
)

X = lambda *vars_: sum(1 << (v - 1) for v in vars_)

BENT_M5 = BooleanFunction(5, anf=(1 << X(1, 2)) ^ (1 << X(3, 4)) ^ (1 << X(5)))


@pytest.fixture(scope="module")
def b366():
    """The 205 classes of B(3,6,6): one representative per orbit of the
    cosets of RM(2,6)."""
    return classify_space(3, 6, 6)


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
    pivots = pivoting(pivoted, Draws(stream(50).bit_generator))
    assert sorted(pivoted) == sorted(rows)  # weight-1 rows can only permute
    assert sorted(pivots) == [0, 1, 2, 3]


def test_pivoting_weight_bound_and_rowspace():
    draws = Draws(stream(51).bit_generator)
    m = 3
    rows = rm_generator_matrix(1, m)
    original_rows = tuple(rows)
    for _ in range(1000):
        pivots = pivoting(rows, draws)
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
        pivoting(rows, Draws(stream(52).bit_generator))
    assert rows == [0b0011, 0b0101, 0b0110]  # rows are written back only on success
    with pytest.raises(InvalidInputError):
        pivoting_by_rows(rows, stream(52))


def test_pivoting_draws_are_pinned():
    # the pivots a seeded stream yields are part of every seeded search:
    # row i draws one index among its set bits, chained over 2000 calls
    pins = {
        (1, 3): "4d36d553afebf3b0e85e302f92af3a29ab80173501be5bd49c1511abef2c7c00",
        (2, 6): "9f703b734b0ed09fc617eb57615473b64bb0bc1a50fd0bffb035b1195f419c99",
        (3, 7): "cc4ce7e5d0ec39daf6b106d9913a13f1c69e599b80e4dc6df89802679cafe03e",
    }
    for (r, m), pin in pins.items():
        draws = Draws(stream(29).bit_generator)
        rows = rm_generator_matrix(r, m)
        digest = hashlib.sha256()
        for _ in range(2000):
            pivots = pivoting(rows, draws)
            digest.update(repr((pivots, rows)).encode())
        assert digest.hexdigest() == pin


@pytest.mark.parametrize("rows", [
    [0b0001, 0b0010, 0b0100, 0b1000],
    rm_generator_matrix(1, 3),
    rm_generator_matrix(2, 6),
    rm_generator_matrix(3, 7),
    [],
], ids=["identity-like", "rm13", "rm26", "rm37", "empty"])
def test_pivoting_matches_row_list_elimination(rows):
    # the packed elimination against the row-list one, on chained calls:
    # the same draws, the same pivots and the same rows in place
    packed, by_rows = list(rows), list(rows)
    draws, ref_rng = Draws(stream(62).bit_generator), stream(62)
    for _ in range(20):
        assert pivoting(packed, draws) == pivoting_by_rows(by_rows, ref_rng)
        assert packed == by_rows
    assert draws.below(1 << 30) == int(ref_rng.integers(1 << 30))


# -- reduce ---------------------------------------------------------------------------


def test_reduce_codeword_to_zero():
    rng = stream(53)
    draws = Draws(rng.bit_generator)
    rows = rm_generator_matrix(2, 4)
    pivots = pivoting(rows, draws)
    assert reduce(0, rows, pivots) == 0
    for _ in range(100):
        word = 0
        for row in rm_generator_matrix(2, 4):
            if rng.integers(2):
                word ^= row
        assert reduce(word, rows, pivots) == 0


def test_reduce_weight_bound_and_coset():
    rng = stream(54)
    draws = Draws(rng.bit_generator)
    rows = rm_generator_matrix(1, 5)
    plain = tuple(rm_generator_matrix(1, 5))
    for _ in range(500):
        pivots = pivoting(rows, draws)
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


@pytest.mark.parametrize("r", [6, -1])
def test_exact_min_weight_refuses_an_order_outside_0_to_m_as_input(r):
    # RM(6,5) would count as dimension 32, over the budget, if the
    # dimension were counted before the order is checked
    with pytest.raises(InvalidInputError, match=rf"need 0 <= r <= m, got r={r} m=5"):
        exact_coset_min_weight(BooleanFunction.zero(5), r, 5)


def test_exact_min_weight_orbit_invariance():
    rng = stream(56)
    draws = Draws(rng.bit_generator)
    for _ in range(10):
        f = BooleanFunction(5, truth_table=int(rng.integers(0, 1 << 32)))
        w = exact_coset_min_weight(f, 2, 5)
        sigma = random_affine(5, draws)
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


def test_covering_radius_rm2_m6_is_18(b366):
    # every coset of RM(2,6) has an affine image in one of the 205 cosets
    # the classes of B(3,6,6) stand for, and coset minimum weight is
    # constant on orbits: the maximum is the covering radius (Schatz 1981)
    assert len(b366) == 205
    assert max(exact_coset_min_weight(rec.rep, 2, 6) for rec in b366) == 18


def test_distance_stdout_is_pinned_at_m6(b366, tmp_path, capsys):
    # the seeded search's whole output over B(3,6,6): every draw of
    # random_affine and pivoting reaches these lines
    path = tmp_path / "b366.txt"
    cli.write_level_file(path, b366)
    argv = ["distance", "--r", "2", "--reps", str(path), "--threshold", "18", "--seed", "5"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    pin = "91e637d8d7cd95734416c4b0dfbe8593a8b424092db06c1823bbebed9f17fbd8"
    assert hashlib.sha256(out.encode()).hexdigest() == pin


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
