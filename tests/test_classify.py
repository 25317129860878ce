import hashlib
import itertools
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rmclass.bfcore import BooleanFunction
from rmclass.bits import degree_mask, hex_of_bits
from rmclass.classify import (
    BoundaryAction,
    ClassRecord,
    check_memory,
    classify_levels,
    classify_space,
    descend,
    descend_iter,
    estimate_orbit_bytes,
    generator_set,
    level_cell,
    orbit_enumerate,
    stab_histogram,
    stab_order_from_class_formula,
    top_record,
    verify_level_mass,
    _StepAction,
)
from rmclass.cli import read_level_file, write_level_file

from rmclass.errors import InternalConsistencyError, InvalidInputError, ResourceRefusedError
from rmclass.group import (
    AffineMap,
    act,
    generators_stu,
    group_order,
    random_affine,
    subgroup_order,
)
from rmclass.rng import Draws, stream

from oracles import (
    boundary_act,
    compose,
    degree,
    generator_set_by_chain,
    orbit_partition_by_action,
    orbit_partition_bruteforce,
    record_line_by_formula,
    reduce_anf,
    stabilizer_order_bruteforce,
    valuation,
)

X = lambda *vars_: sum(1 << (v - 1) for v in vars_)


# -- boundary action -----------------------------------------------------------


def test_boundary_act_zero_rep_is_linear():
    m, r = 4, 2
    ctx = BoundaryAction(BooleanFunction.zero(m), r, generators_stu(m))
    rng = stream(30)
    for gi in range(3):
        assert ctx.apply(0, gi) == 0  # delta vanishes for f = 0
        u1 = int(rng.integers(0, 1 << ctx.dim))
        u2 = int(rng.integers(0, 1 << ctx.dim))
        assert ctx.apply(u1 ^ u2, gi) == ctx.apply(u1, gi) ^ ctx.apply(u2, gi)


def test_boundary_tables_match_direct_route():
    rng = stream(31)
    for m, r in [(3, 2), (4, 2), (5, 3)]:
        ctx = BoundaryAction(BooleanFunction.zero(m), r, generators_stu(m))
        for gi, g in enumerate(ctx.gens):
            for _ in range(30):
                u = int(rng.integers(0, 1 << ctx.dim))
                assert ctx.apply(u, gi) == boundary_act(u, g, ctx)
            # each generator permutes the whole form space
            images = sorted(ctx.apply(u, gi) for u in range(1 << ctx.dim))
            assert images == list(range(1 << ctx.dim))
        block = rng.integers(0, 1 << ctx.dim, size=257).astype(np.int64)
        for gi in range(3):
            fast = ctx.apply_block(block, gi)
            assert [ctx.apply(int(v), gi) for v in block] == fast.tolist()


def test_boundary_action_law_with_nonzero_rep():
    # take a cubic representative at level 2 in m=4 and its stabilizer gens
    records = classify_space(3, 3, 4)
    rec = next(r for r in records if r.rep.anf != 0)
    ctx = BoundaryAction(rec.rep, 2, rec.stab_gens)
    rng = stream(32)
    for _ in range(50):
        g1 = rec.stab_gens[int(rng.integers(len(rec.stab_gens)))]
        g2 = rec.stab_gens[int(rng.integers(len(rec.stab_gens)))]
        u = int(rng.integers(0, 1 << ctx.dim))
        assert boundary_act(boundary_act(u, g1, ctx), g2, ctx) == boundary_act(
            u, compose(g1, g2), ctx
        )


def test_boundary_action_rejects_non_stabilizer():
    m = 3
    f = BooleanFunction(m, anf=1 << X(1, 2))  # x1x2, not fixed by everything at level 1
    draws = Draws(stream(33).bit_generator)
    bad = None
    for _ in range(200):
        g = random_affine(m, draws)
        if (act(f, g).anf ^ f.anf) & degree_mask(m, 2, m):
            bad = g
            break
    assert bad is not None
    with pytest.raises(InvalidInputError, match="generator 0 is not in the level-1 stabilizer"):
        BoundaryAction(f, 1, [bad])


def test_descent_names_the_generator_outside_the_stabilizer():
    # a level-2 record of B(3,4,4) whose last generator becomes the
    # translation x -> x + e1, which moves x1x2x3x4 by x2x3x4: the refusal
    # names the level, the parent and the generator, after the parents
    # before it descended
    records = classify_space(3, 4, 4)
    idx = next(i for i, rec in enumerate(records)
               if rec.rep.anf >> X(1, 2, 3, 4) & 1 and rec.stab_gens)
    rec = records[idx]
    e1 = AffineMap(4, bytes(x ^ 1 for x in range(16)))
    bad = ClassRecord(2, rec.rep, rec.stab_order, rec.stab_gens[:-1] + [e1])
    steps = descend_iter(records[:idx] + [bad], 4)
    assert [i for i, _parent, _children in itertools.islice(steps, idx)] == list(range(idx))
    with pytest.raises(InvalidInputError) as err:
        next(steps)
    assert str(err.value) == (
        f"level 2 parent {rec.rep.anf_hex()}: generator {len(rec.stab_gens) - 1} is not in "
        "the level-2 stabilizer of the representative"
    )


def test_shared_columns_keep_the_per_parent_shift_check():
    # one translation object on two level-2 parents of one step.  It fixes
    # x1x2x3 above degree 2, and the first parent computes its columns; it
    # moves x1x2x3x4 by x2x3x4, so the second parent, whose columns come
    # from the step's dict, must still be refused by name
    e1 = AffineMap(4, bytes(x ^ 1 for x in range(16)))
    first = ClassRecord(2, BooleanFunction(4, anf=1 << X(1, 2, 3)), 2, [e1])
    second = ClassRecord(2, BooleanFunction(4, anf=1 << X(1, 2, 3, 4)), 2, [e1])
    steps = descend_iter([first, second], 4)
    idx, _parent, children = next(steps)
    assert idx == 0 and len(children) == 32
    with pytest.raises(InvalidInputError) as err:
        next(steps)
    assert str(err.value) == (
        "level 2 parent 8000: generator 0 is not in the level-2 stabilizer of the representative"
    )


def test_shared_columns_give_the_tables_of_fresh_contexts():
    # every step of B(0,3,6): the contexts of one level built as
    # descend_iter builds them, sharing one columns dict, against contexts
    # that build their own.  Children inherit their parents' lists, so the
    # dict holds fewer entries than the level has generators.
    shared_total = gens_total = 0
    for _s, records in classify_levels(0, 3, 6):
        if records[0].level < 0:
            break
        columns = {}
        shared = [_StepAction(rec.rep, rec.level, rec.stab_gens, columns) for rec in records]
        fresh = [BoundaryAction(rec.rep, rec.level, rec.stab_gens) for rec in records]
        assert [ctx._fwd for ctx in shared] == [ctx._fwd for ctx in fresh]
        shared_total += len(columns)
        gens_total += sum(len(rec.stab_gens) for rec in records)
    assert shared_total < gens_total


# -- orbit enumeration ----------------------------------------------------------


def test_orbit_enumerate_top_level():
    # space of degree-m forms is {0, x1..xm}; both are fixed
    ctx = BoundaryAction(BooleanFunction.zero(3), 3, generators_stu(3))
    orbits = orbit_enumerate(ctx)
    assert orbits == [(0, 1), (1, 1)]


def test_orbit_enumerate_quadratic_forms_m5():
    ctx = BoundaryAction(BooleanFunction.zero(5), 2, generators_stu(5))
    orbits = orbit_enumerate(ctx)
    assert len(orbits) == 3  # ranks 0, 2, 4
    assert sum(size for _seed, size in orbits) == 1 << ctx.dim
    assert orbits[0][1] == 1


@pytest.fixture(scope="module")
def sweep_spaces():
    """Boundary spaces of every shape the sweep meets: dimension 1, with the
    three generators S, T, U and with none; dimension 6 (zero and cubic
    representatives), 7 and 8; the m=6, r=2 top level (four orbits, the
    largest of 18228 forms); and the two B(3,4,6) level-2 parents with the
    smallest stabilizers, whose 2^15-form spaces split into 562 and 252
    small orbits."""
    parents = sorted(classify_space(3, 4, 6), key=lambda rec: rec.stab_order)[:2]
    [(_idx, _parent, children)] = list(descend_iter(parents[:1], 4))
    child = max(children, key=lambda rec: len(rec.stab_gens))
    ctxs = [
        BoundaryAction(BooleanFunction.zero(3), 3, generators_stu(3)),
        BoundaryAction(BooleanFunction.zero(3), 0, []),
        BoundaryAction(BooleanFunction.zero(4), 2, generators_stu(4)),
        BoundaryAction(child.rep, child.level, child.stab_gens),
        BoundaryAction(BooleanFunction.zero(7), 6, generators_stu(7)),
        BoundaryAction(BooleanFunction.zero(8), 1, generators_stu(8)),
        BoundaryAction(BooleanFunction.zero(6), 2, generators_stu(6)),
    ]
    ctxs += [BoundaryAction(rec.rep, rec.level, rec.stab_gens) for rec in parents]
    return ctxs


def test_orbit_seeds_are_minima(sweep_spaces):
    # exact (seed, size) lists against the one-orbit-at-a-time reference,
    # whose seeds are the orbit minima by construction
    assert [ctx.dim for ctx in sweep_spaces] == [1, 1, 6, 6, 7, 8, 15, 15, 15]
    assert [len(ctx.gens) for ctx in sweep_spaces[:2]] == [3, 0]
    for ctx in sweep_spaces:
        assert orbit_enumerate(ctx) == orbit_partition_by_action(ctx)


def test_orbit_sweep_batches(sweep_spaces, monkeypatch):
    # a space with no generator is not swept, and any other of at most 2^15
    # forms is one whole-space union-find with no lone wave.  A larger space
    # is swept one lone wave per orbit, the seeds increasing: the
    # dimension-20 cubic forms of m=6
    from rmclass import classify

    calls = []
    real_whole, real_wave = classify._whole_space, classify._lone_wave

    def whole_spy(ctx):
        calls.append("whole")
        return real_whole(ctx)

    def wave_spy(ctx, labels, seed):
        calls.append((labels.dtype, seed))
        return real_wave(ctx, labels, seed)

    monkeypatch.setattr(classify, "_whole_space", whole_spy)
    monkeypatch.setattr(classify, "_lone_wave", wave_spy)
    for ctx in sweep_spaces:
        calls.clear()
        orbit_enumerate(ctx)
        assert calls == (["whole"] if ctx.gens else [])
    big = BoundaryAction(BooleanFunction.zero(6), 3, generators_stu(6))
    calls.clear()
    orbits = orbit_enumerate(big)
    assert big.dim == 20 and len(orbits) > 1
    assert calls == [(np.uint8, seed) for seed, _size in orbits]
    assert orbits == sorted(orbits)


def test_orbit_sweep_memory_under_estimate():
    # a dimension-21 sweep of lone waves (quadratic forms, m=7) and a
    # dimension-15 whole-space one (m=6), each in its own fresh process:
    # the peak RSS stays under the estimate, and the growth during the
    # sweep under the estimate less the fixed interpreter base.  The peak
    # is the process's own VmHWM: Linux carries ru_maxrss over from the
    # forking parent (here pytest) across exec, so ru_maxrss would read
    # pytest's peak.
    status = Path("/proc/self/status")
    if not status.exists():
        pytest.skip("needs /proc/self/status for the process's own peak RSS")
    script = (
        "import re, sys\n"
        "from rmclass.bfcore import BooleanFunction\n"
        "from rmclass.classify import BoundaryAction, orbit_enumerate\n"
        "from rmclass.group import generators_stu\n"
        "def peak_kib():\n"
        "    text = open('/proc/self/status').read()\n"
        "    return int(re.search(r'VmHWM:\\s*(\\d+) kB', text).group(1))\n"
        "m = int(sys.argv[1])\n"
        "ctx = BoundaryAction(BooleanFunction.zero(m), 2, generators_stu(m))\n"
        "before = peak_kib()\n"
        "orbits = orbit_enumerate(ctx)\n"
        "after = peak_kib()\n"
        "print(ctx.dim, len(orbits), before, after)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

    def sweep(m):
        out = subprocess.run([sys.executable, "-c", script, str(m)], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        return [int(v) for v in out]

    dim, n_orbits, before, after = sweep(7)
    assert (dim, n_orbits) == (21, 4)
    need = estimate_orbit_bytes(dim)
    assert after * 1024 <= need
    assert (after - before) * 1024 <= need - estimate_orbit_bytes(0)
    # the whole-space union-find's temporaries sit in the estimate's
    # per-block allowance, so its growth is bounded by the estimate less
    # the interpreter base alone
    dim, n_orbits, before, after = sweep(6)
    assert (dim, n_orbits) == (15, 4)
    need = estimate_orbit_bytes(dim)
    assert after * 1024 <= need
    assert (after - before) * 1024 <= need - (64 << 20)


def test_orbit_memory_refusal():
    # one pre-flight for the whole run, before any sweep: the first level
    # over the limit is named (descending from level 4, level 3 with its
    # C(5,3) = 10-dimensional forms), with its estimate and the limit in MiB
    need = estimate_orbit_bytes(10)
    with pytest.raises(ResourceRefusedError) as err:
        check_memory(5, 4, 1, need - 1)
    assert str(err.value).startswith(
        f"level 3 needs a 2^10-element form space (~{-(-need >> 20)} MiB > limit "
    )
    check_memory(5, 4, 1, need)
    check_memory(5, 1, 1, 0)  # no level to descend through
    with pytest.raises(ResourceRefusedError):
        next(classify_levels(2, 4, 5, mem_limit=need - 1))
    with pytest.raises(ResourceRefusedError):
        classify_space(2, 2, 5, mem_limit=need - 1)


def test_memory_refusal_prints_estimate_above_limit():
    # the estimate is rounded up and the limit down to whole MiB, so a limit
    # one byte short, or one MiB short, never reads as "~76 MiB > limit 76 MiB"
    need = estimate_orbit_bytes(10)
    for limit in (need - 1, need - (1 << 20), (need >> 20) << 20):
        with pytest.raises(ResourceRefusedError) as err:
            check_memory(5, 2, 1, limit)
        shown, cap = re.search(r"~(\d+) MiB > limit (\d+) MiB", str(err.value)).groups()
        assert int(shown) > int(cap)
        assert int(shown) << 20 >= need


# -- class formula and generator harvesting ---------------------------------------


def test_class_formula_division():
    assert stab_order_from_class_formula(1344, 28) == 48
    assert stab_order_from_class_formula(10, 1) == 10
    with pytest.raises(InternalConsistencyError):
        stab_order_from_class_formula(10, 3)


def test_class_formula_against_bruteforce_stabilizers():
    # q = x1x2 + x1x3 + x2x3 in three variables, at every level; each pair
    # (stabilizer order, orbit size) must multiply to |AGL(3,2)| = 1344
    q = BooleanFunction(3, anf=(1 << X(1, 2)) ^ (1 << X(1, 3)) ^ (1 << X(2, 3)))
    by_level = {lvl: stabilizer_order_bruteforce(q, lvl) for lvl in (-1, 0, 1)}
    assert by_level == {-1: 24, 0: 48, 1: 192}
    for order in by_level.values():
        assert 1344 % order == 0
    # modulo constants the orbit has 28 elements and the stabilizer order 48
    assert stab_order_from_class_formula(1344, 1344 // by_level[0]) == 48


def test_generator_set_orbit_of_size_one():
    m = 3
    gens = generators_stu(m)
    ctx = BoundaryAction(BooleanFunction.zero(m), 3, gens)
    got = generator_set(1, gens, group_order(m), ctx)  # u = x1x2x3, orbit {u}
    assert subgroup_order(got) == group_order(m)


def test_generator_set_termination_error():
    m = 3
    gens = generators_stu(m)
    ctx = BoundaryAction(BooleanFunction.zero(m), 2, gens)
    with pytest.raises(InternalConsistencyError):
        generator_set(0, gens, group_order(m) * 2, ctx)  # impossible order


def test_descent_error_names_level_and_parent():
    # a parent whose stabilizer order is doubled: the harvest cannot reach
    # the children's orders, and the error must say which parent it was.
    # records[0] (the zero class) has an orbit of size 1 first: a record
    # built by hand is not certified, so that orbit is still harvested, and
    # the harvest stops at the order L really generates.
    records = classify_space(3, 4, 5)
    first, last = records[0], records[-1]
    for good, bad, detail in [
        (first, last, "Schreier sweep exhausted"),
        (last, first, f"Schreier sweep exhausted at order {first.stab_order} <"),
    ]:
        doubled = ClassRecord(bad.level, bad.rep, 2 * bad.stab_order, bad.stab_gens)
        steps = descend_iter([good, doubled], 4)
        assert next(steps)[0] == 0
        with pytest.raises(InternalConsistencyError) as err:
            next(steps)
        message = str(err.value)
        assert f"level {bad.level} parent {hex_of_bits(bad.rep.anf, 1 << 5)}:" in message
        assert detail in message


def _fixes_all(ctx, u):
    return all(ctx.apply(u, gi) == u for gi in range(len(ctx.gens)))


def test_fixed_orbits_inherit_certified_generators(monkeypatch):
    # the level-0 classes of B(1,4,5), descended to level -1: 176 of the
    # 206 children are orbits of size 1.  Certified parents (from the
    # descent) hand them their generator list without a harvest; the same
    # parents read back from text are harvested once each, at their first
    # orbit of size 1, and give the same children.
    import rmclass.classify as classify

    calls = {"fixed": 0}
    real = classify.generator_set

    def counting(u, L, s_u, ctx):
        calls["fixed"] += _fixes_all(ctx, u)
        return real(u, L, s_u, ctx)

    monkeypatch.setattr(classify, "generator_set", counting)
    parents = classify_space(1, 4, 5)
    assert all(rec.certified for rec in parents)
    calls["fixed"] = 0
    inherited = 0
    certified_children = []
    for _idx, parent, children in descend_iter(parents, 4):
        for child in children:
            assert child.certified
            if child.stab_order == parent.stab_order:
                assert child.stab_gens == parent.stab_gens
                inherited += 1
        certified_children.extend(children)
    assert (calls["fixed"], inherited) == (0, 176)

    from_text = [ClassRecord.from_line(5, rec.to_line()) for rec in parents]
    assert not any(rec.certified for rec in from_text)
    with_fixed = 0
    again = []
    for _idx, parent, children in descend_iter(from_text, 4):
        with_fixed += any(c.stab_order == parent.stab_order for c in children)
        again.extend(children)
    assert calls["fixed"] == with_fixed > 0
    assert [c.to_line() for c in again] == [c.to_line() for c in certified_children]


def test_fixed_orbits_of_redundant_list_get_the_harvested_list():
    # a hand-built parent whose list repeats a generator: every child gets
    # what a harvest from its own orbit gives, and on orbits of size 1 that
    # is the list without the repeat
    def fixed_forms(p):
        ctx = BoundaryAction(p.rep, p.level, p.stab_gens)
        return sum(_fixes_all(ctx, u) for u in range(1 << ctx.dim))

    rec = max(classify_space(1, 4, 5), key=fixed_forms)
    gens = list(rec.stab_gens)
    redundant = ClassRecord(rec.level, rec.rep, rec.stab_order, gens + [gens[0]])
    ctx = BoundaryAction(rec.rep, rec.level, redundant.stab_gens)
    orbits = orbit_enumerate(ctx)
    assert sum(size == 1 for _seed, size in orbits) >= 2
    [(_idx, _parent, children)] = list(descend_iter([redundant], 4))
    for (seed, size), child in zip(orbits, children):
        order = rec.stab_order // size
        assert child.stab_gens == generator_set(seed, redundant.stab_gens, order, ctx)
        if size == 1:
            assert child.stab_gens == gens


def test_parents_read_back_take_one_substitution_check_per_harvest(monkeypatch):
    # the level-0 classes of B(1,4,5) read back from text are not certified.
    # A parent's first orbit of size 1 is harvested and gives back its list
    # unchanged, which makes the parent trusted: its later orbits of size 1
    # inherit the list and take the lookup check, so each substitution
    # check belongs to one harvest
    import rmclass.classify as classify

    calls = Counter()

    def count(name):
        real = getattr(classify, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(classify, name, counted)

    for name in ("generator_set", "_check_record_fix", "_check_inherited_fix"):
        count(name)
    parents = classify_space(1, 4, 5)
    from_text = [ClassRecord.from_line(5, rec.to_line()) for rec in parents]
    calls.clear()
    children = [c for _idx, _parent, kids in descend_iter(from_text, 4) for c in kids]
    assert calls["_check_record_fix"] == calls["generator_set"]
    assert calls["generator_set"] + calls["_check_inherited_fix"] == len(children)
    assert calls["_check_inherited_fix"] > 0


def test_descent_refuses_a_parent_outside_its_space():
    # the level-2 classes of B(3,4,5) descended as those of B(3,3,5): a
    # quartic representative has a monomial above degree k, and one with a
    # constant term a monomial below degree r+1
    records = classify_space(3, 4, 5)
    quartic = next(rec for rec in records if rec.rep.anf & degree_mask(5, 4, 4))
    parent = hex_of_bits(quartic.rep.anf, 1 << 5)
    with pytest.raises(InvalidInputError, match=rf"level 2 parent {parent}: outside B\(3,3,5\)"):
        list(descend_iter([quartic], 3))
    cubic = next(rec for rec in records if not rec.rep.anf & degree_mask(5, 4, 4))
    low = ClassRecord(2, BooleanFunction(5, anf=cubic.rep.anf | 1), cubic.stab_order,
                      cubic.stab_gens)
    with pytest.raises(InvalidInputError, match=r"outside B\(3,4,5\)"):
        list(descend_iter([low], 4))


def test_harvest_matches_the_chain_reference(monkeypatch):
    # every harvest of a few small descents returns exactly the list of the
    # chain-only reference, on both routes: the element set up to order 128
    # and the stabilizer chain above it.  Parents read back from text are
    # not certified, so their orbits of size 1 are harvested too.
    import rmclass.classify as classify

    real = classify.generator_set
    routes = Counter()

    def checked(u, L, s_u, ctx):
        got = real(u, L, s_u, ctx)
        assert got == generator_set_by_chain(u, s_u, ctx)
        if s_u > 1:
            routes["set" if s_u <= classify._SMALL_STAB else "chain"] += 1
        return got

    monkeypatch.setattr(classify, "generator_set", checked)
    for s, t, m in [(1, 4, 5), (3, 4, 6)]:
        for _s, records in classify_levels(s, t, m):
            from_text = [ClassRecord.from_line(m, rec.to_line()) for rec in records]
            if records[0].level > s - 1:
                descend(from_text, t)
    assert routes["set"] > 100 and routes["chain"] > 100


def test_inherited_fix_check_catches_a_moved_form(monkeypatch):
    # a sweep that reports a form some parent generator moves as an orbit of
    # size 1: the certified parent's list is inherited, and its lookup fix
    # check must name the generator, the level and the parent
    import rmclass.classify as classify

    real = classify.orbit_enumerate
    parents = classify_space(2, 4, 5)
    parent, ctx = next(
        (p, ctx)
        for p in parents
        for ctx in [BoundaryAction(p.rep, p.level, p.stab_gens)]
        if any(size > 1 for _seed, size in real(ctx))
    )
    moved = next(seed for seed, size in real(ctx) if size > 1)
    mover = next(gi for gi in range(len(ctx.gens)) if ctx.apply(moved, gi) != moved)

    def lying(ctx):
        return [(seed, 1 if seed == moved else size) for seed, size in real(ctx)]

    monkeypatch.setattr(classify, "orbit_enumerate", lying)
    assert parent.certified
    with pytest.raises(InternalConsistencyError) as err:
        list(descend_iter([parent], 4))
    message = str(err.value)
    assert f"level {parent.level} parent {hex_of_bits(parent.rep.anf, 1 << 5)}:" in message
    assert f"inherited generator {mover} does not fix the representative" in message


def test_harvested_fix_check_names_the_generator(monkeypatch):
    # a harvest that returns one map too many, a map outside the parent's
    # level-r stabilizer, so that it cannot fix any child at level r-1
    import rmclass.classify as classify

    parent = ClassRecord.from_line(5, classify_space(3, 4, 5)[-1].to_line())
    draws = Draws(stream(31).bit_generator)
    while True:
        bad = random_affine(5, draws)
        try:
            BoundaryAction(parent.rep, parent.level, [bad])
        except InvalidInputError:
            break
    real = classify.generator_set
    kept = []

    def one_too_many(u, L, s_u, ctx):
        kept[:] = real(u, L, s_u, ctx) + [bad]
        return list(kept)

    monkeypatch.setattr(classify, "generator_set", one_too_many)
    with pytest.raises(InternalConsistencyError) as err:
        list(descend_iter([parent], 4))
    message = str(err.value)
    assert f"level {parent.level} parent {hex_of_bits(parent.rep.anf, 1 << 5)}:" in message
    assert f"harvested generator {len(kept) - 1} does not fix the representative" in message


def test_generator_set_full_descent_m5():
    records = classify_space(2, 4, 5)
    for rec in records:
        assert subgroup_order(rec.stab_gens) == rec.stab_order


def test_understated_parent_order_is_caught():
    # the harvest's chain stops closing once its orbit lengths multiply to
    # the order it is told.  That product never exceeds the order of the
    # group harvested, so on a true order the stop changes nothing; on an
    # understated one the descent must still fail, in the harvest or, if it
    # stops there unnoticed, in the mass check of the children
    records = classify_space(3, 4, 5)
    halved = 0
    for i, rec in enumerate(records):
        if rec.stab_order % 2:
            continue
        bad = ClassRecord(rec.level, rec.rep, rec.stab_order // 2, rec.stab_gens)
        with pytest.raises(InternalConsistencyError):
            descend(records[:i] + [bad] + records[i + 1 :], 4)
        halved += 1
    assert halved == len(records) > 1


def test_top_record_is_certified_by_one_chain_per_m(monkeypatch):
    import rmclass.classify as classify
    import rmclass.group as group

    built = Counter()

    class CountingOracle(group.SubgroupOracle):
        def __init__(self, m, known_order):
            built[m] += 1
            super().__init__(m, known_order)

    monkeypatch.setattr(group, "SubgroupOracle", CountingOracle)
    classify._stu_generates_agl.cache_clear()
    for _ in range(2):
        for m in (2, 3, 5, 7):
            for t in range(m + 1):
                rec = top_record(m, t)
                assert rec.certified and rec.stab_order == group_order(m)
    assert built == {2: 1, 3: 1, 5: 1, 7: 1}
    assert subgroup_order(top_record(5, 2).stab_gens) == group_order(5)


# -- descend / classify_space -------------------------------------------------------


def test_first_descent_is_form_classification():
    m = 4
    out = descend([top_record(m, 4)], 4)
    assert all(rec.level == 3 for rec in out)
    assert sum(group_order(m) // rec.stab_order for rec in out) == 2  # forms of degree 4


def test_classify_space_known_counts():
    assert len(classify_space(2, 2, 3)) == 2
    assert len(classify_space(2, 2, 4)) == 3
    assert len(classify_space(2, 2, 5)) == 3
    assert len(classify_space(2, 2, 6)) == 4


def test_classify_levels_is_one_descent_per_t():
    levels = list(classify_levels(0, 4, 5))
    assert [s for s, _ in levels] == [5, 4, 3, 2, 1, 0]
    for s, records in levels:
        assert [r.to_line() for r in records] == [r.to_line() for r in classify_space(s, 4, 5)]


def test_classify_space_degenerate_start():
    records = classify_space(3, 2, 3)  # B(3,2,3) = {0}
    assert len(records) == 1
    assert records[0].rep.anf == 0
    assert records[0].stab_order == group_order(3)
    with pytest.raises(InvalidInputError):
        classify_space(4, 2, 3)


def test_representatives_inside_their_space():
    for s, t, m in [(2, 4, 4), (1, 3, 4), (0, 3, 3)]:
        for rec in classify_space(s, t, m):
            assert degree(rec.rep) <= t
            assert valuation(rec.rep) >= s
            assert rec.level == s - 1


def test_every_generator_fixes_representative_at_level():
    for rec in classify_space(1, 4, 4):
        for g in rec.stab_gens:
            assert reduce_anf(act(rec.rep, g).anf ^ rec.rep.anf, 4, rec.level) == 0


def test_against_bruteforce_partition_m3():
    for s in range(4):
        for t in range(s, 4):
            brute = orbit_partition_bruteforce(s, t, 3)
            records = classify_space(s, t, 3)
            assert len(records) == len(brute)
            assert sorted(rec.rep.anf for rec in records) == sorted(a for a, _ in brute)
            assert Counter(group_order(3) // rec.stab_order for rec in records) == Counter(
                size for _, size in brute
            )


def test_mass_check_every_level():
    m, s, t = 5, 0, 5
    records = [top_record(m, t)]
    for r in range(t, s - 1, -1):
        records = descend(records, t)
        verify_level_mass(records, t)


def test_level_cell_finds_the_cell_of_every_level():
    levels = list(classify_levels(0, 4, 5))
    # the top record covers B(5,4,5) = {0}: its mass 1 is no t >= L+1's,
    # as it is that of a level file cut down to its zero class
    with pytest.raises(InternalConsistencyError, match="records missing"):
        level_cell(levels[0][1])
    for s, records in levels[1:]:
        assert level_cell(records) == (5, s - 1, 4)
    # the level-2 records of B(2,4,4) without the last have the mass of B(3,3,4)
    assert level_cell(classify_space(3, 4, 4)[:-1]) == (4, 2, 3)
    records = classify_space(3, 4, 4)
    with pytest.raises(InternalConsistencyError, match="mixed levels or m"):
        level_cell(records[:1] + classify_space(2, 4, 4)[:1])
    with pytest.raises(InternalConsistencyError, match="mass check failed at level 2: t=4, not 3"):
        verify_level_mass(records, 3)


def test_rerun_with_different_work_order_matches():
    base = classify_space(2, 4, 5)
    start = top_record(5, 4)
    shuffled = ClassRecord(start.level, start.rep, start.stab_order, list(reversed(start.stab_gens)))
    records = [shuffled]
    for r in range(4, 1, -1):
        records = descend(records, 4)
    assert len(records) == len(base)
    assert sorted(r.rep.anf for r in records) == sorted(r.rep.anf for r in base)
    assert Counter(r.stab_order for r in records) == Counter(r.stab_order for r in base)


def test_classify_records_golden_bytes():
    # records, generator sets included, pinned to the bytes the descent has
    # always produced: any change to traversal or candidate order shows here
    golden = {
        (1, 4, 5): (118, "b8d0fc2be5fa2e18bebb345c82d358445231863b754ab74f913f5e656b06f224"),
        (3, 4, 6): (34, "9d54f3b3f31accd164e5df5366e2f8d5ab1d9770d6bcd55c8d1088c862c8b399"),
        # the r = 1 and r = 0 steps, where children inherit their parents' lists
        (0, 3, 6): (205, "090f6b4876f5fa423e4e50b136ccf4d6bce1a7cf012a611e80b16829ff54a49f"),
    }
    for (s, t, m), (count, digest) in golden.items():
        records = classify_space(s, t, m)
        text = "".join(rec.to_line() + "\n" for rec in records)
        assert (len(records), hashlib.sha256(text.encode()).hexdigest()) == (count, digest)


def test_stab_histogram():
    rec = top_record(3, 3)
    assert stab_histogram([rec]) == {group_order(3): 1}
    records = classify_space(2, 4, 4)
    hist = stab_histogram(records)
    assert sum(hist.values()) == len(records)


def test_record_line_matches_the_formula():
    # to_line against the field-by-field oracle for m = 1..8, on records
    # with 0, 1 and 5 generators, serialized fresh and then from each map's
    # kept text.  The edges: 1-digit representatives at m = 1 and 2, and at
    # m = 8 a 64-digit representative with 2-digit generator fields.
    draws = Draws(stream(41).bit_generator)
    for m in range(1, 9):
        n = 1 << m
        drawn = sum(draws.below(1 << 16) << (16 * i) for i in range(-(-n // 16))) % (1 << n)
        for anf in (0, (1 << n) - 1, drawn):
            for ngens in (0, 1, 5):
                gens = [random_affine(m, draws) for _ in range(ngens)]
                rec = ClassRecord(m // 2 - 1, BooleanFunction(m, anf=anf), group_order(m), gens)
                line = rec.to_line()
                assert line == record_line_by_formula(rec) == rec.to_line()
                fields = line.split()
                assert len(fields[1]) == {1: 1, 2: 1, 8: 64}.get(m, n // 4)
                if m == 8:
                    assert all(len(v) == 2 for text in fields[4:] for v in text.split(":"))


def test_record_line_round_trip():
    for rec in classify_space(2, 3, 4):
        again = ClassRecord.from_line(4, rec.to_line())
        assert again.level == rec.level
        assert again.rep == rec.rep
        assert again.stab_order == rec.stab_order
        assert again.stab_gens == rec.stab_gens


def test_level_file_round_trip(tmp_path):
    records = classify_space(2, 4, 4)
    path = tmp_path / "level.txt"
    write_level_file(path, records)
    again = read_level_file(path)
    assert [r.to_line() for r in again] == [r.to_line() for r in records]


def test_level_file_truncation_detected(tmp_path):
    records = classify_space(2, 2, 3)
    path = tmp_path / "level.txt"
    write_level_file(path, records)
    clipped = path.read_text().splitlines()[:-1]
    path.write_text("\n".join(clipped) + "\n")
    with pytest.raises(InvalidInputError):
        read_level_file(path)
