import pytest

from rmclass.bfcore import BooleanFunction
import rmclass.census as census
from rmclass.census import (
    burnside_count,
    count_near_bent_completions,
    duality_check,
    fix_dimension,
    gl_classes,
    near_bent_census,
    table_render,
)
from rmclass.classify import classify_space
from rmclass.errors import DependencyMissingError, InternalConsistencyError, InvalidInputError
from rmclass.group import AffineMap, act, enumerate_agl, group_order, random_affine
from rmclass.bits import degree_mask, rank_gf2, space_dimension
from rmclass.rng import stream

from oracles import (
    degree,
    fixed_function_count_bruteforce,
    gl_conjugacy_classes_bruteforce,
    is_near_bent,
    near_bent_completions_by_enumeration,
)


# -- fixed-space sizes -------------------------------------------------------------


def fix_count(s, t, m, sigma):
    """Number of f in B(s,t,m) with f o sigma = f modulo RM(s-1,m), through
    the fixed-space dimension burnside_count sums over."""
    return 1 << fix_dimension(s, t, m, sigma.pmap)


def test_fix_count_identity():
    for (s, t, m) in [(2, 2, 3), (0, 3, 3), (1, 4, 4)]:
        assert fix_count(s, t, m, AffineMap.identity(m)) == 1 << space_dimension(m, s, t)


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
    assert burnside_count(2, 5, 5) == 48
    for s, t, m in [(0, 0, 9), (0, 0, 0), (3, 2, 4)]:
        with pytest.raises(InvalidInputError):
            burnside_count(s, t, m)


def test_gl_classes_are_the_conjugation_orbits():
    # every representative in its own orbit, each class size that orbit's
    for m in range(1, 5):
        orbits = gl_conjugacy_classes_bruteforce(m)
        where = {a: k for k, orbit in enumerate(orbits) for a in orbit}
        classes = gl_classes(m)
        hit = [where[tuple(rows)] for rows, _ in classes]
        assert len(set(hit)) == len(hit) == len(orbits)
        assert [size for _, size in classes] == [len(orbits[k]) for k in hit]


def test_burnside_class_sum_equals_element_sum_m3():
    group = list(enumerate_agl(3))
    for s in range(4):
        for t in range(s, 4):
            element_sum = sum(1 << fix_dimension(s, t, 3, g.pmap) for g in group)
            assert element_sum == burnside_count(s, t, 3) * group_order(3)


def test_burnside_certificates_catch_tampered_class_sizes(monkeypatch):
    true_classes = gl_classes(3)
    true_order = census._centralizer_order
    # halving the even centralizer orders keeps every size an integer but
    # breaks the class equation; doubling them breaks integrality
    def halve_even(divisors):
        order = true_order(divisors)
        return order // 2 if order % 2 == 0 else order

    monkeypatch.setattr(census, "_centralizer_order", halve_even)
    with pytest.raises(InternalConsistencyError, match="sum"):
        burnside_count(2, 2, 3)
    monkeypatch.setattr(census, "_centralizer_order", lambda d: 2 * true_order(d))
    with pytest.raises(InternalConsistencyError, match="divide"):
        burnside_count(2, 2, 3)
    # one class one element too large: the Burnside sum over B(0,0,3), all
    # 2 |AGL(3,2)| before, grows by 2^(m+1) = 16, which |AGL(3,2)| does not divide
    tampered = [(rows, size + (k == 0)) for k, (rows, size) in enumerate(true_classes)]
    monkeypatch.setattr(census, "gl_classes", lambda m: tampered)
    with pytest.raises(InternalConsistencyError, match="divisible"):
        burnside_count(0, 0, 3)


def test_burnside_equals_classification_m3():
    for s in range(4):
        for t in range(s, 4):
            assert burnside_count(s, t, 3) == len(classify_space(s, t, 3))


# -- duality ----------------------------------------------------------------------


def test_duality_check_reports_violation():
    checked, violations = duality_check(4, {(0, 1): 3, (3, 4): 99})
    assert checked == [((0, 1), (3, 4))]
    assert violations
    assert violations[0][1] != violations[0][3]


def test_duality_check_m4_classification():
    counts = {(s, t): len(classify_space(s, t, 4)) for s in range(5) for t in range(s, 5)}
    checked, violations = duality_check(4, counts)
    assert not violations
    assert len(checked) > 0


# -- table rendering -----------------------------------------------------------------


def test_table_render_published_row():
    text = table_render(7, {
        (4, 4): 12, (4, 5): 179, (4, 6): 1890, (4, 7): 3486,
        (7, 7): 2, (2, 4): 118140881980,
    })
    row4 = next(line for line in text.splitlines() if line.startswith("  4 |"))
    for v in ("12", "179", "1890", "3486"):
        assert v in row4
    row7 = next(line for line in text.splitlines() if line.startswith("  7 |"))
    assert "2" in row7
    row2 = next(line for line in text.splitlines() if line.startswith("  2 |"))
    assert "10^11.1" in row2  # log10(118140881980) = 11.07


def test_table_render_empty():
    text = table_render(5, {})
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
    weighted = sum(n_q * orbit for _rep, n_q, orbit in near_bent_census(3))
    assert weighted << 4 == exhaustive == 112  # times 2^(m+1) for the affine part
    assert weighted == 7  # the seven rank-2 quadratic forms


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
            moved = BooleanFunction(5, anf=act(rec.rep, sigma).anf & degree_mask(5, 3, 5))
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
    # rank, m-1; m=7 is the census's kernel at the paper's size
    expected = {3: 7, 5: 868, 7: 1763776}
    for m in (3, 5):
        assert alternating_count_by_enumeration(m, m - 1) == expected[m]
    for m, count in expected.items():
        assert alternating_count_closed_form(m, m - 1) == count
        assert count_near_bent_completions(BooleanFunction.zero(m)) == count


def maiorana_mcfarland_bent(n, rng):
    """Truth table of x.pi(y) + g(y) in 2n variables, bent: x is the low n
    bits of the point index, y the high n, pi a random permutation of
    F_2^n and g a random function of y."""
    perm, g = rng.permutation(1 << n), rng.integers(0, 2, 1 << n)
    tt = 0
    for p in range(1 << (2 * n)):
        x, y = p & ((1 << n) - 1), p >> n
        tt |= ((int(x & perm[y]).bit_count() + int(g[y])) & 1) << p
    return tt


def concatenation(b1, b2, n):
    """(1 + x_m) b1 + x_m b2 in m = n+1 variables: b1 on x_m = 0, b2 on x_m = 1."""
    return BooleanFunction(n + 1, truth_table=b1 | b2 << (1 << n))


def test_completions_match_full_enumeration_m3_m5():
    # every function at m=3; at m=5 random functions and concatenations of
    # bent functions in 4 variables, which have many completions
    funcs = [BooleanFunction(3, truth_table=tt) for tt in range(256)]
    rng = stream(41)
    funcs += [BooleanFunction(5, truth_table=int(rng.integers(1 << 32))) for _ in range(60)]
    concats = [concatenation(maiorana_mcfarland_bent(2, rng), maiorana_mcfarland_bent(2, rng), 4)
               for _ in range(50)]
    counts = {}
    for f in funcs + concats:
        counts[f] = count_near_bent_completions(f)
        assert counts[f] == near_bent_completions_by_enumeration(f), f
    assert min(counts[f] for f in concats) > 0
    assert len({counts[f] for f in concats}) > 1


def test_completions_match_full_enumeration_m7_cubic_concatenations():
    rng = stream(42)
    for _ in range(2):
        b1, b2 = maiorana_mcfarland_bent(3, rng), maiorana_mcfarland_bent(3, rng)
        assert [degree(BooleanFunction(6, truth_table=b)) for b in (b1, b2)] == [3, 3]
        f = concatenation(b1, b2, 6)
        n = count_near_bent_completions(f)
        assert n > 0
        assert n == near_bent_completions_by_enumeration(f)


def test_census_weights_are_orbit_sizes():
    rows = near_bent_census(5)
    records = classify_space(3, 3, 5)
    assert [rep for rep, _n_q, _orbit in rows] == [rec.rep for rec in records]
    assert [orbit for _rep, _n_q, orbit in rows] == [
        group_order(5) // rec.stab_order for rec in records
    ]
