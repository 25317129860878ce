import pytest

from rmclass.bfcore import BooleanFunction, is_near_bent
from rmclass.census import (
    ClassCountTable,
    _fix_log_batch,
    _pmap_batch,
    burnside_count,
    count_near_bent_completions,
    duality_check,
    near_bent_census,
    table_render,
)
from rmclass.classify import classify_space
from rmclass.errors import DependencyMissingError, InvalidInputError
from rmclass.group import AffineMap, act, enumerate_agl, group_order, identity, random_affine
from rmclass.bfcore import reduce_mod_rm
from rmclass.bits import rank_gf2, space_dimension
from rmclass.rng import stream

from oracles import fixed_function_count_bruteforce


# -- fixed-space sizes of the batched Burnside kernel ------------------------------


def fix_count(s, t, m, sigma):
    """Number of f in B(s,t,m) with f o sigma = f modulo RM(s-1,m), through
    the kernel burnside_count runs on its batches."""
    return 1 << int(_fix_log_batch(s, t, m, _pmap_batch([sigma], m))[0])


def test_fix_count_identity():
    for (s, t, m) in [(2, 2, 3), (0, 3, 3), (1, 4, 4)]:
        assert fix_count(s, t, m, identity(m)) == 1 << space_dimension(m, s, t)


def test_fix_count_swap_m2():
    swap = AffineMap.from_matrix(2, [0b10, 0b01], 0)
    assert fix_count(2, 2, 2, swap) == 2  # 0 and x1x2


def test_fix_count_matches_bruteforce_all_sigma_m2():
    for s, t in [(0, 1), (1, 2), (2, 2), (0, 2)]:
        for sigma in enumerate_agl(2):
            assert fix_count(s, t, 2, sigma) == fixed_function_count_bruteforce(s, t, 2, sigma)


def test_fix_count_matches_bruteforce_all_sigma_m3():
    for s, t in [(2, 2), (1, 3)]:
        for sigma in enumerate_agl(3):
            assert fix_count(s, t, 3, sigma) == fixed_function_count_bruteforce(s, t, 3, sigma)


# -- burnside ---------------------------------------------------------------------


def test_burnside_known_values():
    assert burnside_count(2, 2, 3) == 2
    assert burnside_count(0, 1, 2) == 3


def test_burnside_refuses_large_m():
    with pytest.raises(InvalidInputError):
        burnside_count(2, 2, 5)
    with pytest.raises(InvalidInputError):
        burnside_count(0, 0, 6, allow_long=True)


def test_burnside_equals_classification_m3():
    for s in range(4):
        for t in range(s, 4):
            assert burnside_count(s, t, 3) == len(classify_space(s, t, 3))


# -- duality ----------------------------------------------------------------------


def test_duality_check_reports_violation():
    table = ClassCountTable(4)
    table.set(0, 1, 3)
    table.set(3, 4, 99)
    report = duality_check(table)
    assert not report.ok
    assert report.violations[0][1] != report.violations[0][3]


def test_duality_check_m4_classification():
    table = ClassCountTable(4)
    for s in range(5):
        for t in range(s, 5):
            table.set(s, t, len(classify_space(s, t, 4)))
    report = duality_check(table)
    assert report.ok
    assert len(report.checked_pairs) > 0


def test_table_cells_validation():
    table = ClassCountTable(4)
    with pytest.raises(InvalidInputError):
        table.set(3, 2, 1)


# -- table rendering -----------------------------------------------------------------


def test_table_render_published_row():
    table = ClassCountTable(7)
    for (s, t), v in {
        (4, 4): 12, (4, 5): 179, (4, 6): 1890, (4, 7): 3486,
        (7, 7): 2, (2, 4): 118140881980,
    }.items():
        table.set(s, t, v)
    text = table_render(table)
    row4 = next(line for line in text.splitlines() if line.startswith("  4 |"))
    for v in ("12", "179", "1890", "3486"):
        assert v in row4
    row7 = next(line for line in text.splitlines() if line.startswith("  7 |"))
    assert "2" in row7
    row2 = next(line for line in text.splitlines() if line.startswith("  2 |"))
    assert "10^11.1" in row2  # log10(118140881980) = 11.07


def test_table_render_empty():
    text = table_render(ClassCountTable(5))
    lines = text.splitlines()
    assert lines[0].startswith("s\\t")
    assert len(lines) == 2 + 6  # header, rule, six s-rows
    for line in lines[2:]:
        assert line.split("|")[1].strip() == ""  # no entries rendered


# -- near-bent census ------------------------------------------------------------------


def test_near_bent_census_m3_exhaustive():
    exhaustive = sum(
        1 for tt in range(256) if is_near_bent(BooleanFunction(3, truth_table=tt))
    )
    census = near_bent_census(3)
    assert census.total == exhaustive == 112
    assert census.weighted_sum == 7  # the seven rank-2 quadratic forms


def test_near_bent_census_requires_odd_m():
    with pytest.raises(InvalidInputError):
        near_bent_census(4)


def test_near_bent_census_m7_needs_records():
    with pytest.raises(DependencyMissingError):
        near_bent_census(7)


def test_completion_count_is_orbit_invariant():
    # N(f) must agree across level-2-equivalent functions
    rng = stream(40)
    records = classify_space(3, 3, 5)
    for rec in records:
        n0 = count_near_bent_completions(rec.rep)
        for _ in range(3):
            sigma = random_affine(5, rng)
            moved = reduce_mod_rm(act(rec.rep, sigma), 2)
            assert count_near_bent_completions(moved) == n0


def alternating_count_by_enumeration(m, rank):
    """m x m alternating GF(2) matrices of the given rank, one bit per
    entry above the diagonal."""
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    count = 0
    for bits in range(1 << len(pairs)):
        rows = [0] * m
        for k, (i, j) in enumerate(pairs):
            if (bits >> k) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        count += rank_gf2(rows) == rank
    return count


def alternating_count_closed_form(m, rank):
    """Number of m x m alternating matrices over GF(q=2) of rank 2k:
    q^(k(k-1)) prod_{i<k} (q^(m-2i) - 1)(q^(m-2i-1) - 1) / (q^(2i+2) - 1)."""
    k = rank // 2
    num, den = 1 << (k * (k - 1)), 1
    for i in range(k):
        num *= ((1 << (m - 2 * i)) - 1) * ((1 << (m - 2 * i - 1)) - 1)
        den *= (1 << (2 * i + 2)) - 1
    assert num % den == 0
    return num // den


def test_zero_function_completions_are_rank_m_minus_1_alternating_matrices():
    # q is near-bent exactly when its alternating form has the largest odd-m
    # rank, m-1; m=7 is the census's kernel at the paper's size.  m=7 runs
    # first so that the cached m=7 sign matrix (256 MiB) is evicted by m=3.
    expected = {7: 1763776, 5: 868, 3: 7}
    for m in (3, 5):
        assert alternating_count_by_enumeration(m, m - 1) == expected[m]
    for m, count in expected.items():
        assert alternating_count_closed_form(m, m - 1) == count
        assert count_near_bent_completions(BooleanFunction.zero(m)) == count


def test_census_weights_are_orbit_sizes():
    census = near_bent_census(5)
    records = classify_space(3, 3, 5)
    assert [pr.orbit_size for pr in census.per_rep] == [
        group_order(5) // rec.stab_order for rec in records
    ]
