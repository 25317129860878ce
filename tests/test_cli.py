import os
import shutil
from itertools import groupby
from pathlib import Path

import pytest

import rmclass.cli as cli
from rmclass.bits import degree_mask
from rmclass.classify import (
    BoundaryAction, classify_space, descend_iter, stab_histogram, top_record
)
from rmclass.cli import read_level_file, write_level_file
from rmclass.errors import (
    DependencyMissingError,
    InternalConsistencyError,
    InvalidInputError,
    ResourceRefusedError,
)
from rmclass.group import group_order


def run(*argv):
    return cli.main([str(a) for a in argv])


def test_classify_writes_levels_and_manifest(tmp_path, capsys):
    out = tmp_path / "run"
    assert run("classify", "--m", 4, "--s", 2, "--t", 4, "--out", out) == 0
    text = capsys.readouterr().out
    assert "classified B(2,4,4)" in text
    manifest = (out / "manifest.txt").read_text()
    assert "status=complete" in manifest
    assert "command=classify" in manifest
    keys = dict(line.split("=") for line in manifest.splitlines())
    records = read_level_file(out / "level_1.txt")
    assert len(records) == int(keys["level_1_count"])
    assert not (out / "checkpoint.txt").exists()
    # per level: parents descended, and children inherited from orbits of
    # size 1, i.e. forms that every parent generator fixes
    parents = [top_record(4, 4)]
    for level in (3, 2, 1):
        fixed = 0
        for p in parents:
            ctx = BoundaryAction(p.rep, p.level, p.stab_gens)
            fixed += sum(all(ctx.apply(u, gi) == u for gi in range(len(ctx.gens)))
                         for u in range(1 << ctx.dim))
        assert int(keys[f"level_{level}_parents"]) == len(parents)
        assert int(keys[f"level_{level}_inherited"]) == fixed
        parents = read_level_file(out / f"level_{level}.txt")
    assert [keys[f"level_{r}_inherited"] for r in (3, 2, 1)] == ["2", "1", "2"]


def test_classify_result_files_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("classify", "--m", 5, "--s", 2, "--t", 4, "--out", a) == 0
    assert run("classify", "--m", 5, "--s", 2, "--t", 4, "--out", b) == 0
    for r in (3, 2, 1):
        assert (a / f"level_{r}.txt").read_bytes() == (b / f"level_{r}.txt").read_bytes()


def test_classify_resume_after_interrupt(tmp_path, capsys, monkeypatch):
    fresh = tmp_path / "fresh"
    assert run("classify", "--m", 4, "--s", 1, "--t", 4, "--out", fresh) == 0
    fresh_out = capsys.readouterr().out

    # interrupt the run partway through the last level via the checkpoint hook
    broken = tmp_path / "broken"
    real_parent_done = cli._Checkpoint.parent_done
    calls = {"n": 0}

    def explode(self, idx, children):
        real_parent_done(self, idx, children)
        calls["n"] += 1
        if calls["n"] == 12:
            raise KeyboardInterrupt

    monkeypatch.setattr(cli._Checkpoint, "parent_done", explode)
    with pytest.raises(KeyboardInterrupt):
        run("classify", "--m", 4, "--s", 1, "--t", 4, "--out", broken)
    monkeypatch.setattr(cli._Checkpoint, "parent_done", real_parent_done)
    assert (broken / "checkpoint.txt").exists()

    assert run("classify", "--m", 4, "--s", 1, "--t", 4, "--out", broken, "--resume") == 0
    # the closing lines, each level's count among them, are the fresh run's
    assert capsys.readouterr().out == fresh_out.replace(str(fresh), str(broken))
    for r in (3, 2, 1, 0):
        assert (broken / f"level_{r}.txt").read_bytes() == (fresh / f"level_{r}.txt").read_bytes()
    # the level counts in the manifest include the parents done before the crash
    levels = [cli._read_manifest(d / "manifest.txt") for d in (fresh, broken)]
    for keys in levels:
        del keys["started"], keys["finished"]
    assert levels[0] == levels[1]


@pytest.mark.parametrize("wrong_s", [4, 2])
def test_classify_level_with_a_wrong_count_stays_out_of_place(tmp_path, capsys, monkeypatch,
                                                              wrong_s):
    # levels 3, 2 and 1 of B(2,4,4) cover B(4,4,4), B(3,4,4) and B(2,4,4);
    # a Burnside count one above the classes of B(wrong_s,4,4) must stop
    # the run before level wrong_s-1 goes into place
    real = cli.burnside_count
    monkeypatch.setattr(cli, "burnside_count",
                        lambda s, t, m: real(s, t, m) + (s == wrong_s))
    out = tmp_path / "run"
    assert run("classify", "--m", 4, "--s", 2, "--t", 4, "--out", out) == 5
    err = capsys.readouterr().err
    assert f"level {wrong_s - 1}: " in err and f"Burnside count of B({wrong_s},4,4)" in err
    assert sorted(p.name for p in out.glob("level_*.txt")) == [
        f"level_{r}.txt" for r in range(wrong_s, 4)
    ]


def test_classify_levels_do_not_depend_on_s(tmp_path):
    # a level file depends on (m, t, level) only, so a run with a higher s
    # stops early and writes the same bytes for the levels it reaches
    short, full = tmp_path / "short", tmp_path / "full"
    assert run("classify", "--m", 5, "--s", 3, "--t", 5, "--out", short) == 0
    assert run("classify", "--m", 5, "--s", 1, "--t", 5, "--out", full) == 0
    assert sorted(p.name for p in short.glob("level_*.txt")) == [
        "level_2.txt", "level_3.txt", "level_4.txt"]
    for r in (4, 3, 2):
        assert (short / f"level_{r}.txt").read_bytes() == (full / f"level_{r}.txt").read_bytes()
    out = tmp_path / "b566"
    assert run("classify", "--m", 6, "--s", 5, "--t", 6, "--out", out) == 0
    assert len(read_level_file(out / "level_5.txt")) == 2


def test_classify_resume_rejects_mismatched_args(tmp_path):
    out = tmp_path / "run"
    assert run("classify", "--m", 4, "--s", 2, "--t", 4, "--out", out) == 0
    code = run("classify", "--m", 4, "--s", 1, "--t", 4, "--out", out, "--resume")
    assert code == InvalidInputError.exit_code


def test_classify_memory_refusal(tmp_path, capsys):
    code = run("classify", "--m", 7, "--s", 3, "--t", 4, "--out", tmp_path / "r",
               "--mem-limit", 64)
    assert code == ResourceRefusedError.exit_code
    err = capsys.readouterr().err
    assert "level 4 needs a 2^35-element form space" in err and "MiB > limit 64 MiB" in err


def test_count_memory_refusal_before_first_sweep(tmp_path, capsys, monkeypatch):
    # the same pre-flight refuses B(4,7,7) at level 4 (dimension 35) before
    # levels 7, 6 and 5 are descended
    import rmclass.classify as classify

    def no_sweep(ctx):
        raise AssertionError("swept before the pre-flight refused")

    monkeypatch.setattr(classify, "orbit_enumerate", no_sweep)
    code = run("count", "--m", 7, "--s", 4, "--t", 7, "--method", "classify", "--out", tmp_path)
    assert code == ResourceRefusedError.exit_code
    err = capsys.readouterr().err
    assert err.startswith("error (ResourceRefusedError): level 4 needs a 2^35-element form space")


def test_count_both_methods(tmp_path, capsys):
    assert run("count", "--m", 3, "--s", 2, "--t", 3, "--method", "both",
               "--out", tmp_path) == 0
    out = capsys.readouterr().out
    assert "count 2 3 3 3 classify" in out
    assert "count 2 3 3 3 burnside" in out


def test_count_both_methods_disagreeing_exits_5(tmp_path, capsys, monkeypatch):
    # a Burnside count one above the classification's is a bug: exit 5,
    # naming the cell, before the cell's lines are printed
    real = cli.burnside_count
    monkeypatch.setattr(cli, "burnside_count", lambda s, t, m: real(s, t, m) + 1)
    code = run("count", "--m", 3, "--s", 2, "--t", 3, "--method", "both", "--out", tmp_path)
    assert code == InternalConsistencyError.exit_code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "methods disagree at (2,3,3)" in captured.err


def test_m1_counts_and_classifies(tmp_path, capsys):
    # at m = 1 S and T are the identity and U alone generates AGL(1,2)
    assert run("count", "--m", 1, "--all-cells", "--method", "both", "--out", tmp_path) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:6] == [f"count {s} {t} 1 {n} {method}"
                         for s, t, n in [(0, 0, 2), (0, 1, 3), (1, 1, 2)]
                         for method in ("classify", "burnside")]
    out = tmp_path / "m1"
    assert run("classify", "--m", 1, "--s", 0, "--t", 1, "--out", out) == 0
    assert [len(read_level_file(out / f"level_{r}.txt")) for r in (0, -1)] == [2, 3]


def test_counts_descend_once_per_t(tmp_path, capsys):
    # count and dual-check print, cell by cell, what one classification per
    # cell gives; Burnside gives the same at m=4.
    def per_cell(s, t, m):
        return len(classify_space(s, t, m))

    assert run("count", "--m", 4, "--all-cells", "--method", "both", "--out", tmp_path) == 0
    expect = []
    for s in range(5):
        for t in range(s, 5):
            n = per_cell(s, t, 4)
            expect += [f"count {s} {t} 4 {n} classify", f"count {s} {t} 4 {n} burnside"]
    assert capsys.readouterr().out.splitlines()[: len(expect)] == expect

    assert run("dual-check", "--m", 5, "--out", tmp_path) == 0
    expect = [f"count {s} {t} 5 {per_cell(s, t, 5)} classify"
              for s, t in cli.dual_default_cells(5)]
    assert capsys.readouterr().out.splitlines()[: len(expect)] == expect


@pytest.mark.parametrize("argv, descents", [
    (["count", "--m", 4, "--all-cells"], 1),
    (["dual-check", "--m", 5, "--cells", "1,1;1,2;0,3"], 1),
    # t=3's lowest s, 2, is above t=2's 0: t=2 descends on its own
    (["dual-check", "--m", 5, "--cells", "2,3;0,2"], 2),
], ids=["count-m4", "dual-one-top", "dual-two-tops"])
def test_counts_descend_once_per_group_of_cells(tmp_path, capsys, monkeypatch, argv, descents):
    # a t joins the descent of a larger t whose lowest s is at most its own;
    # its counts are the records of degree <= t, as one classification per
    # cell counts them
    calls = []
    real = cli.classify_levels

    def spy(s, t, m, mem_limit):
        calls.append((s, t))
        return real(s, t, m, mem_limit)

    monkeypatch.setattr(cli, "classify_levels", spy)
    assert run(*argv, "--out", tmp_path) == 0
    assert len(calls) == descents
    lines = [ln.split() for ln in capsys.readouterr().out.splitlines() if ln.startswith("count ")]
    assert lines and all(
        int(n) == len(classify_space(int(s), int(t), int(m))) for _, s, t, m, n, _ in lines
    )


def test_nearbent_refuses_reps_of_a_smaller_t(tmp_path, capsys, monkeypatch):
    # 128 level-2 records of orbit size 2^28 have the mass 2^35 of B(3,3,7),
    # which read_level_file accepts; but near-bent functions in 7 variables
    # reach degree 4, so a census of them would undercount.  No kernel runs.
    import rmclass.census as census

    def no_kernel(f):
        raise AssertionError("a kernel ran before the refusal")

    monkeypatch.setattr(census, "count_near_bent_completions", no_kernel)
    order = group_order(7) >> 28
    # representatives inside B(3,3,7): the sums of seven cubic monomials
    cubic = [x for x in range(128) if bin(x).count("1") == 3][:7]
    anfs = [sum(1 << c for j, c in enumerate(cubic) if i >> j & 1) for i in range(128)]
    lines = ["# rmclass m=7 level=2", *(f"2 {a:032x} {order} 0" for a in anfs)]
    path = tmp_path / "level_2.txt"
    path.write_text("\n".join([*lines, "# complete 128", ""]))
    assert len(read_level_file(path)) == 128
    code = run("nearbent", "--m", 7, "--reps", path, "--out", tmp_path)
    assert code == InvalidInputError.exit_code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "B(3,3,7), t=3" in captured.err and "needs t >= 4" in captured.err


def test_count_burnside_m7_and_no_allow_long(tmp_path, capsys):
    assert run("count", "--m", 7, "--s", 3, "--t", 4, "--method", "burnside",
               "--out", tmp_path) == 0
    assert "count 3 4 7 68443 burnside" in capsys.readouterr().out.splitlines()
    with pytest.raises(SystemExit) as exc:
        run("count", "--m", 5, "--s", 2, "--t", 5, "--method", "burnside", "--allow-long")
    assert exc.value.code == 2


def test_dual_check_m4(tmp_path, capsys):
    assert run("dual-check", "--m", 4, "--out", tmp_path) == 0
    assert "duality holds" in capsys.readouterr().out


def test_dual_check_violation_exits_1(tmp_path, capsys, monkeypatch):
    # n(0,1,4) = n(3,4,4) = 3; one count changed is a violation
    real = cli._print_counts

    def one_count_off(m, cells, methods, mem_limit):
        counts = real(m, cells, methods, mem_limit)
        counts[0, 1] += 1
        return counts

    monkeypatch.setattr(cli, "_print_counts", one_count_off)
    assert run("dual-check", "--m", 4, "--out", tmp_path) == 1
    out = capsys.readouterr().out
    assert "VIOLATION n(0, 1)=4 but n(3, 4)=3" in out.splitlines()
    assert "duality holds" not in out


@pytest.mark.parametrize("argv, refusal", [
    (["dual-check", "--m", 5, "--cells", "2,3;3,2"], "cell (3,2) outside the m="),
    (["count", "--m", 4, "--s", 3, "--t", 2], "cell (3,2) outside the m="),
    (["count", "--m", 4, "--s", 3, "--t", 2, "--method", "burnside"], "cell (3,2) outside the m="),
    (["distance", "--m", 5, "--r", 2, "--s", 4, "--t", 3, "--threshold", 0, "--seed", 1],
     "cell (4,3) outside the m="),
    (["stab-hist", "--m", 3, "--s", 3, "--t", 2], "cell (3,2) outside the m="),
    (["distance", "--m", 5, "--r", 1, "--s", 3, "--t", 5, "--threshold", 10, "--seed", 1],
     "records at level 2 "),
], ids=["dual-check", "count", "count-burnside", "distance", "stab-hist", "distance-level"])
def test_count_cells_are_checked_before_any_descent(tmp_path, capsys, monkeypatch, argv, refusal):
    # one rule, 0 <= s <= t <= m, for every command, cell and method, and
    # distance's level s-1 <= r, before a sweep
    import rmclass.classify as classify

    def no_sweep(ctx):
        raise AssertionError("swept before the cells were checked")

    monkeypatch.setattr(classify, "orbit_enumerate", no_sweep)
    assert run(*argv, "--out", tmp_path) == InvalidInputError.exit_code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert refusal in captured.err


def test_dual_check_explicit_cells(tmp_path, capsys):
    assert run("dual-check", "--m", 5, "--cells", "2,2;3,3", "--out", tmp_path) == 0
    out = capsys.readouterr().out
    assert "count 2 2 5 3 classify" in out
    # a cell above t+1 is refused even when a lower s shares its t
    code = run("dual-check", "--m", 5, "--cells", "0,2;4,2", "--out", tmp_path)
    assert code == InvalidInputError.exit_code


def test_nearbent_cli(tmp_path, capsys):
    assert run("nearbent", "--m", 3, "--out", tmp_path) == 0
    out = capsys.readouterr().out
    assert "nearbent-total 112" in out
    assert "nearbent-valuation2-count 7" in out


def test_nearbent_m7_without_reps_exits_4(tmp_path, capsys, monkeypatch):
    # without --reps the census's records are classified under --mem-limit:
    # B(3,4,7) needs a dim-35 sweep at level 4, refused before any sweep
    import rmclass.classify as classify

    def no_sweep(ctx):
        raise AssertionError("swept before the pre-flight refused")

    monkeypatch.setattr(classify, "orbit_enumerate", no_sweep)
    assert run("nearbent", "--m", 7, "--out", tmp_path) == ResourceRefusedError.exit_code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error (ResourceRefusedError): level 4 needs a 2^35-element form space"
    )


@pytest.mark.parametrize("m", [9, 1, 4])
def test_nearbent_refuses_an_m_before_any_work(tmp_path, capsys, monkeypatch, m):
    # the census needs an odd m in 3..8, with --reps or without
    def no_work(*args):
        raise AssertionError("worked before the refusal")

    monkeypatch.setattr(cli, "classify_space", no_work)
    monkeypatch.setattr(cli, "read_level_file", no_work)
    for reps in ([], ["--reps", tmp_path / "absent.txt"]):
        assert run("nearbent", "--m", m, *reps, "--out", tmp_path) == InvalidInputError.exit_code
        assert f"got m={m}" in capsys.readouterr().err


def test_nearbent_reps_from_file(tmp_path, capsys):
    out = tmp_path / "cls"
    assert run("classify", "--m", 5, "--s", 3, "--t", 3, "--out", out) == 0
    assert run("nearbent", "--m", 5, "--reps", out / "level_2.txt", "--out", tmp_path) == 0
    assert "nearbent-total 14054656" in capsys.readouterr().out


def test_nearbent_refuses_reps_of_another_m(tmp_path, capsys):
    # a level-2 file of m=3 passed as the m=5 classification: exit 2,
    # naming both values, not a census weighted by |AGL(5,2)|
    out = tmp_path / "cls"
    assert run("classify", "--m", 3, "--s", 3, "--t", 3, "--out", out) == 0
    capsys.readouterr()
    code = run("nearbent", "--m", 5, "--reps", out / "level_2.txt", "--out", tmp_path)
    assert code == InvalidInputError.exit_code
    captured = capsys.readouterr()
    assert "nearbent-total" not in captured.out
    assert "m=3" in captured.err and "m=5" in captured.err


def test_distance_cli(tmp_path, capsys):
    assert run("distance", "--m", 5, "--r", 2, "--s", 3, "--t", 3,
               "--threshold", 6, "--seed", 11, "--out", tmp_path) == 0
    out = capsys.readouterr().out
    assert "CERTIFIED" in out
    assert "aggregate 3" in out


def test_distance_single_function(tmp_path, capsys):
    # x1x2 + x3x4 + x5 as ANF hex on m=5
    anf = (1 << 0b00011) ^ (1 << 0b01100) ^ (1 << 0b10000)
    assert run("distance", "--m", 5, "--r", 1, "--function", format(anf, "08x"),
               "--threshold", 12, "--seed", 3, "--out", tmp_path) == 0
    out = capsys.readouterr().out
    assert "hit" in out


def test_distance_inconclusive_exit_code(tmp_path):
    anf = (1 << 0b00011) ^ (1 << 0b01100) ^ (1 << 0b10000)
    code = run("distance", "--m", 5, "--r", 1, "--function", format(anf, "08x"),
               "--threshold", 2, "--max-iter", 8, "--seed", 3, "--out", tmp_path)
    assert code == 1


def test_distance_refuses_records_above_r(tmp_path, capsys):
    # classes modulo RM(2,5) do not have one coset weight modulo RM(1,5):
    # B(3,5,5) holds a function at distance 12 from RM(1,5), above this bound
    assert run("distance", "--m", 5, "--r", 1, "--s", 3, "--t", 5, "--threshold", 10,
               "--seed", 1, "--out", tmp_path) == InvalidInputError.exit_code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "records at level 2 are classes modulo RM(2,5)" in captured.err


_GOLDEN_STDOUT = {
    "nearbent-m5": (["nearbent", "--m", 5], 0, """\
nearbent-rep 00000000 868 1
nearbent-rep 00000080 336 155
nearbent-rep 00082000 192 868
nearbent-valuation2-count 219604
nearbent-total 14054656
near-bent functions in 5 variables: 14054656 (of which 219604 have valuation >= 2)
"""),
    "distance-certified": (
        ["distance", "--m", 5, "--r", 2, "--s", 3, "--t", 3, "--threshold", 6, "--seed", 11],
        0, """\
distance 00000000 0 1 hit 11
distance 00000080 4 1 hit 11
distance 00082000 6 4 hit 11
aggregate 3 2.00 1.41
covering radius of RM(2,5) within the classified space <= 6 CERTIFIED; 3 representatives, \
mean trials 2.0, stddev 1.41
"""),
    # x1x2 + x3x4 + x5, the function of test_distance_inconclusive_exit_code
    "distance-inconclusive": (
        ["distance", "--m", 5, "--r", 1, "--function", "00011008", "--threshold", 2,
         "--max-iter", 8, "--seed", 3],
        1, """\
distance 00011008 12 8 miss 3
aggregate 1 8.00 0.00
INCONCLUSIVE (at least one representative never hit the threshold); 1 representatives, \
mean trials 8.0, stddev 0.00
"""),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_STDOUT))
def test_golden_stdout(tmp_path, capsys, name):
    # the exact bytes and exit code: totals, mean and deviation and the
    # verdict line are all formed in the command line front end
    argv, code, stdout = _GOLDEN_STDOUT[name]
    assert run(*argv, "--out", tmp_path) == code
    assert capsys.readouterr().out == stdout


def test_stab_hist_cli(tmp_path, capsys):
    assert run("stab-hist", "--m", 4, "--s", 2, "--t", 4, "--out", tmp_path) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1].startswith("total ")


def test_seed_is_mandatory_for_distance(tmp_path, capsys):
    with pytest.raises(SystemExit):
        run("distance", "--m", 5, "--r", 1, "--threshold", 2, "--out", tmp_path)


def test_verbose_is_a_classify_flag(tmp_path, capsys):
    assert run("classify", "--m", 3, "--s", 2, "--t", 2, "--out", tmp_path, "--verbose") == 0
    assert "level 1: parent 1/1" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run("count", "--m", 3, "--s", 2, "--t", 3, "--verbose")
    assert exc.value.code == 2


def test_verbose_prints_about_one_line_per_second(tmp_path, capsys, monkeypatch):
    # a clock that advances 0.3 s per reading: a level prints a line once a
    # second has passed since its last one, and always its last parent,
    # each with the rate and the time left for the level
    ticks = iter(range(10**6))
    monkeypatch.setattr(cli.time, "monotonic", lambda: 0.3 * next(ticks))
    out = tmp_path / "run"
    assert run("classify", "--m", 4, "--s", 0, "--t", 4, "--out", out, "--verbose") == 0
    lines = capsys.readouterr().err.splitlines()
    keys = cli._read_manifest(out / "manifest.txt")
    for level in (3, 2, 1, 0, -1):
        parents = int(keys[f"level_{level}_parents"])
        mine = [line for line in lines if line.startswith(f"level {level}: parent ")]
        assert len(mine) <= 0.3 * parents + 1
        shown = [int(line.split()[3].split("/")[0]) for line in mine]
        assert shown == list(range(4, parents, 4)) + [parents]
        for line, done in zip(mine, shown):
            assert f", {1 / 0.3:.1f} parents/s, ETA {0.3 * (parents - done):.1f}s" in line


def test_manifest_has_each_level_stab_hist(tmp_path):
    out = tmp_path / "run"
    assert run("classify", "--m", 4, "--s", 0, "--t", 4, "--out", out) == 0
    keys = cli._read_manifest(out / "manifest.txt")
    for level in (3, 2, 1, 0, -1):
        hist = stab_histogram(read_level_file(out / f"level_{level}.txt"))
        assert keys[f"level_{level}_stab_hist"] == ",".join(f"{o}:{n}" for o, n in hist.items())
    assert keys["level_3_stab_hist"] == "322560:2"


# the level-2 file of `classify --m 5 --s 3 --t 3`: the three classes of B(3,3,5)
_B335_LEVEL_2 = """\
# rmclass m=5 level=2
2 00000000 319979520 3 1:10:8:4:2:0 10:8:4:3:1:0 10:8:4:2:1:1
2 00000080 2064384 10 10:8:4:3:1:0 10:8:4:2:1:1 10:8:6:2:1:0 10:8:4:2:1:2 10:8:4:2:1:4 \
18:8:4:2:1:0 10:8:4:2:1:8 10:8:4:2:11:0 10:8:4:2:1d:0 18:10:9:5:3:0
2 00082000 368640 9 10:8:4:2:1:1 10:8:4:2:1:2 10:c:4:2:1:0 10:8:4:2:1:4 10:8:4:2:1:8 \
18:8:6:2:1:0 10:8:4:2:11:0 10:8:4:12:11:0 1e:a:6:2:1:0
# complete 3
"""

_BAD_LEVEL_FILES = {
    "anf": "# rmclass m=4 level=1\n1 zz 2 0\n# complete 1\n",
    "order": "# rmclass m=4 level=1\n1 0080 x 0\n# complete 1\n",
    # whole as records of level 2, but under a level-1 header
    "level": _B335_LEVEL_2.replace("level=2", "level=1"),
}


@pytest.mark.parametrize("argv, code", [
    (["dual-check", "--m", 5, "--cells", "2"], InvalidInputError.exit_code),
    (["dual-check", "--m", 5, "--cells", "2,x"], InvalidInputError.exit_code),
    (["distance", "--m", 5, "--r", 1, "--function", "zz", "--threshold", 2, "--seed", 1],
     InvalidInputError.exit_code),
    (["stab-hist", "--records", "{anf}"], InvalidInputError.exit_code),
    (["stab-hist", "--records", "{order}"], InvalidInputError.exit_code),
    (["nearbent", "--m", 5, "--reps", "{anf}"], InvalidInputError.exit_code),
    (["distance", "--r", 1, "--reps", "{order}", "--threshold", 2, "--seed", 1],
     InvalidInputError.exit_code),
    (["distance", "--r", 1, "--reps", "{missing}", "--threshold", 2, "--seed", 1],
     DependencyMissingError.exit_code),
    (["nearbent", "--m", 5, "--reps", "{missing}"], DependencyMissingError.exit_code),
    (["stab-hist", "--records", "{missing}"], DependencyMissingError.exit_code),
    (["distance", "--m", 6, "--r", 2, "--reps", "{b335}", "--threshold", 6, "--seed", 1],
     InvalidInputError.exit_code),
    (["stab-hist", "--records", "{level}"], InvalidInputError.exit_code),
    (["stab-hist", "--records", "{b335}", "--m", 6], InvalidInputError.exit_code),
    # an unsupported m is refused as input, not by a memory estimate
    (["classify", "--m", 9, "--s", 4, "--t", 5], InvalidInputError.exit_code),
    (["stab-hist", "--m", 9, "--s", 4, "--t", 5], InvalidInputError.exit_code),
    # a search of no trial, or below every weight, certifies nothing
    (["distance", "--m", 5, "--r", 1, "--function", "11", "--threshold", 2, "--seed", 1,
      "--max-iter", 0], InvalidInputError.exit_code),
    (["distance", "--m", 5, "--r", 1, "--function", "11", "--threshold", 2, "--seed", 1,
      "--max-iter", -5], InvalidInputError.exit_code),
    (["distance", "--m", 5, "--r", 1, "--function", "11", "--threshold", -1, "--seed", 1],
     InvalidInputError.exit_code),
    # a negative memory budget is refused as input by every subcommand;
    # a budget of 0 MiB is a real limit, refused by the estimate
    (["classify", "--m", 3, "--s", 1, "--t", 3, "--mem-limit", -5], InvalidInputError.exit_code),
    (["count", "--m", 3, "--s", 1, "--t", 3, "--mem-limit", -5], InvalidInputError.exit_code),
    (["dual-check", "--m", 4, "--mem-limit", -1], InvalidInputError.exit_code),
    (["nearbent", "--m", 5, "--mem-limit", -5], InvalidInputError.exit_code),
    (["distance", "--m", 5, "--r", 1, "--function", "11", "--threshold", 2, "--seed", 1,
      "--mem-limit", -5], InvalidInputError.exit_code),
    (["stab-hist", "--m", 3, "--s", 1, "--t", 3, "--mem-limit", -5], InvalidInputError.exit_code),
    (["stab-hist", "--m", 3, "--s", 1, "--t", 3, "--mem-limit", 0],
     ResourceRefusedError.exit_code),
    # a command without what it works on
    (["count", "--m", 4], InvalidInputError.exit_code),
    (["distance", "--m", 5, "--r", 1, "--threshold", 2, "--seed", 1],
     InvalidInputError.exit_code),
    (["distance", "--r", 1, "--function", "11", "--threshold", 2, "--seed", 1],
     InvalidInputError.exit_code),
    (["distance", "--r", 1, "--s", 2, "--t", 3, "--threshold", 2, "--seed", 1],
     InvalidInputError.exit_code),
    (["stab-hist"], InvalidInputError.exit_code),
    (["dual-check", "--m", 8], InvalidInputError.exit_code),
    # the near-bent census needs an odd m in 3..8
    (["nearbent", "--m", 9], InvalidInputError.exit_code),
    (["nearbent", "--m", 1], InvalidInputError.exit_code),
    (["nearbent", "--m", 4], InvalidInputError.exit_code),
])
def test_outside_input_exits_without_traceback(tmp_path, capsys, argv, code):
    # malformed arguments and level files exit 2, a missing file 3, a
    # budget below the estimate 4, each with a one-line error; a level
    # file's error names the file and line, a file of another m than --m
    # names both values, and a negative --mem-limit names the flag
    paths = {"missing": tmp_path / "absent.txt", "b335": tmp_path / "b335.txt"}
    paths["b335"].write_text(_B335_LEVEL_2)
    for name, text in _BAD_LEVEL_FILES.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    argv = [str(a).format(**paths) for a in argv] + ["--out", str(tmp_path)]
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error (")
    for name in _BAD_LEVEL_FILES:
        if str(paths[name]) in argv:
            assert f"{paths[name]}:2: " in captured.err
    if str(paths["b335"]) in argv:
        assert "m=5" in captured.err and "m=6" in captured.err
    if "--mem-limit" in argv and code == InvalidInputError.exit_code:
        assert f"--mem-limit {argv[argv.index('--mem-limit') + 1]} " in captured.err


def _drop_last_record(path: Path) -> None:
    """Remove a level file's last record and make its trailer count agree."""
    *lines, _last, _trailer = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines) + f"# complete {len(lines) - 1}\n")


@pytest.mark.parametrize("argv", [
    ["nearbent", "--m", 5, "--reps", "{short}"],
    ["distance", "--r", 2, "--reps", "{short}", "--threshold", 6, "--seed", 1],
    ["stab-hist", "--records", "{short}"],
], ids=["nearbent", "distance", "stab-hist"])
def test_level_file_with_a_record_missing_is_refused(tmp_path, capsys, argv):
    # the classes of a whole level cover the space: their mass, the sum of
    # |AGL| / stabilizer order, is 2^dim B(level+1,t,m) for some t.  Read
    # without that check, the B(3,3,5) file short of its last record gives
    # nearbent 3388672, not 14054656
    cls = tmp_path / "cls"
    assert run("classify", "--m", 5, "--s", 3, "--t", 3, "--out", cls) == 0
    assert (cls / "level_2.txt").read_text() == _B335_LEVEL_2
    short = tmp_path / "short.txt"
    shutil.copy(cls / "level_2.txt", short)
    _drop_last_record(short)
    assert short.read_text().endswith("# complete 2\n")
    capsys.readouterr()
    argv = [str(a).format(short=short) for a in argv]
    assert run(*argv, "--out", tmp_path) == InvalidInputError.exit_code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(short) in captured.err and "records missing" in captured.err


@pytest.mark.parametrize("argv", [
    ["nearbent", "--m", 5, "--reps", "{path}"],
    ["distance", "--r", 2, "--reps", "{path}", "--threshold", 6, "--seed", 1],
    ["stab-hist", "--records", "{path}"],
], ids=["nearbent", "distance", "stab-hist"])
@pytest.mark.parametrize("anf", ["00008000", "00000008"], ids=["quartic", "quadratic"])
def test_level_file_with_a_representative_outside_its_space_is_refused(
    tmp_path, capsys, argv, anf
):
    # the zero class of B(3,3,5) replaced by x1x2x3x4 or by x1x2 keeps the
    # file's mass, but that representative lies outside B(3,3,5)
    path = tmp_path / "b335.txt"
    path.write_text(_B335_LEVEL_2.replace("2 00000000 ", f"2 {anf} "))
    argv = [str(a).format(path=path) for a in argv]
    assert run(*argv, "--out", tmp_path) == InvalidInputError.exit_code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{path}:" in captured.err and "outside B(3,3,5)" in captured.err


def test_level_file_with_an_order_not_dividing_agl_is_refused(tmp_path, capsys):
    path = tmp_path / "b335.txt"
    path.write_text(_B335_LEVEL_2.replace(" 368640 ", " 368641 "))
    assert run("stab-hist", "--records", path, "--out", tmp_path) == InvalidInputError.exit_code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{path}:" in captured.err and "368641 does not divide" in captured.err


def test_resume_names_the_generator_outside_the_stabilizer(tmp_path, capsys):
    # a level-2 generator replaced by the translation x -> x + e1, which
    # moves x1x2x3x4 by x2x3x4: the file keeps its mass, so it reads, and
    # the resumed descent refuses that parent by level, parent and generator
    out = tmp_path / "run"
    assert run("classify", "--m", 4, "--s", 1, "--t", 4, "--out", out) == 0
    path = out / "level_2.txt"
    header, *lines = path.read_text().splitlines(keepends=True)
    row = next(i for i, ln in enumerate(lines)
               if not ln.startswith("#") and int(ln.split()[1], 16) >> 15 and ln.split()[4:])
    fields = lines[row].split()
    gi = len(fields) - 5
    fields[-1] = "8:4:2:1:1"
    lines[row] = " ".join(fields) + "\n"
    path.write_text(header + "".join(lines))
    (out / "level_1.txt").unlink()
    capsys.readouterr()
    argv = ["classify", "--m", 4, "--s", 1, "--t", 4, "--out", out, "--resume"]
    assert run(*argv) == InvalidInputError.exit_code
    err = capsys.readouterr().err
    assert (f"level 2 parent {fields[1]}: generator {gi} is not in the level-2 stabilizer "
            "of the representative") in err


def test_resume_redoes_a_corrupt_level_file(tmp_path):
    # a level file whose record does not parse is treated as absent
    _resume_redoes_level_2_of_b244(tmp_path, _corrupt_first_anf)


def test_resume_redoes_a_level_file_with_a_record_missing(tmp_path):
    # and so is one whose records do not cover the space of this run's t:
    # without its last record the level-2 file of B(2,4,4) has the mass of
    # B(3,3,4), which the check for some t alone would let through
    _resume_redoes_level_2_of_b244(tmp_path, _drop_last_record)


def test_resume_redoes_a_level_file_of_another_level(tmp_path):
    # the level-1 file copied over level 2 covers B(2,4,4), this run's
    # space of level 1, so only the level it is at tells it apart
    _resume_redoes_level_2_of_b244(
        tmp_path, lambda path: shutil.copy(path.with_name("level_1.txt"), path))


def test_resume_redoes_a_level_file_of_another_m(tmp_path):
    # the level-2 records of B(3,4,5) have the mass 2^15 of B(3,4,5), which
    # is the mass the check against this run's t=4 alone looks for
    _resume_redoes_level_2_of_b244(
        tmp_path, lambda path: write_level_file(path, classify_space(3, 4, 5)))


def _corrupt_first_anf(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[1].split(" ")
    fields[1] = "zz"  # the representative's ANF
    lines[1] = " ".join(fields)
    path.write_text("".join(lines))


def _resume_redoes_level_2_of_b244(tmp_path, corrupt):
    fresh = tmp_path / "fresh"
    assert run("classify", "--m", 4, "--s", 2, "--t", 4, "--out", fresh) == 0
    out = tmp_path / "run"
    shutil.copytree(fresh, out)
    corrupt(out / "level_2.txt")
    assert run("classify", "--m", 4, "--s", 2, "--t", 4, "--out", out, "--resume") == 0
    for r in (3, 2, 1):
        assert (out / f"level_{r}.txt").read_bytes() == (fresh / f"level_{r}.txt").read_bytes()


def test_classify_default_output_dir(tmp_path, monkeypatch, capsys):
    # without --out, classify writes ./rmclass-runs; no environment variable
    # moves it
    monkeypatch.setenv("RMCLASS_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert run("classify", "--m", 3, "--s", 2, "--t", 2) == 0
    assert (tmp_path / "rmclass-runs" / "manifest.txt").exists()
    assert not (tmp_path / "envout").exists()


def _blocks_of(level_file: bytes, m: int):
    """(header line, each parent's block of record lines) of a level file or
    checkpoint: a child's part above degree level+1 is its parent's
    representative, so consecutive lines sharing it are one block."""
    header, *lines = level_file.decode().splitlines(keepends=True)
    high = degree_mask(m, int(header.split("level=")[1]) + 2, m)
    records = [ln for ln in lines if not ln.startswith("# complete")]
    return header, ["".join(block) for _part, block in
                    groupby(records, lambda ln: int(ln.split()[1], 16) & high)]


@pytest.mark.parametrize("text", [
    "# checkpoint level=0\n# parent-done 0\n",  # no m=
    "# checkpoint level=x m=4\n",
    "# checkpoint level=0 m=4\n# parent-done x\n",
    "# checkpoint level=0 m=4\n0 zz 2 0\n# parent-done 0\n",  # a record that does not parse
    "# checkpoint level=0 m=4\n# parent-done 3\n",  # a marker that is not the first block's
    lambda head, blocks: head + blocks[0] + "2 zz 2 0\n",
    lambda head, blocks: head + blocks[1] + blocks[0],
    lambda head, blocks: head.replace("level=2", "level=1") + "".join(blocks),
    lambda head, blocks: head + "1" + "".join(blocks)[1:],  # first record at level 1
], ids=["no-m", "level-x", "parent-done-x", "bad-record", "parent-done-skips",
        "bad-record-line", "swapped-parents", "other-level", "record-of-other-level"])
def test_resume_restarts_a_level_whose_checkpoint_does_not_parse(tmp_path, capsys, text):
    # the checkpoint of level 2 below the two level-3 parents of B(3,4,4):
    # old-format files, a record line that does not parse, the blocks of
    # two parents of equal stabilizer order (so equal block masses) swapped,
    # and another level's header or record all restart the level
    fresh = tmp_path / "fresh"
    assert run("classify", "--m", 4, "--s", 3, "--t", 4, "--out", fresh) == 0
    parents = read_level_file(fresh / "level_3.txt")
    assert len(parents) == 2 and parents[0].stab_order == parents[1].stab_order
    expect = (fresh / "level_2.txt").read_bytes()
    if callable(text):
        text = text(*_blocks_of(expect, 4))
    out = tmp_path / "run"
    shutil.copytree(fresh, out)
    (out / "level_2.txt").unlink()
    (out / "checkpoint.txt").write_text(text)
    capsys.readouterr()
    assert run("classify", "--m", 4, "--s", 3, "--t", 4, "--out", out, "--resume",
               "--verbose") == 0
    assert "resumes at parent" not in capsys.readouterr().err
    assert (out / "level_2.txt").read_bytes() == expect
    assert not (out / "checkpoint.txt").exists()


def test_classify_resume_from_torn_checkpoint(tmp_path, monkeypatch):
    # crash after the trailer of level 0, and of level -1, is written but
    # before the rename, then resume from every byte cut of checkpoint.txt,
    # the whole file with its trailer included: each resume writes the level
    # files of an uninterrupted run
    argv = ["classify", "--m", 4, "--s", 0, "--t", 3]
    fresh = tmp_path / "fresh"
    assert run(*argv, "--out", fresh) == 0
    real_replace = os.replace
    for level in (0, -1):
        crashed = tmp_path / f"crashed{level}"

        def crash_before_rename(src, dst):
            if Path(dst).name == f"level_{level}.txt":
                raise KeyboardInterrupt
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", crash_before_rename)
        with pytest.raises(KeyboardInterrupt):
            run(*argv, "--out", crashed)
        monkeypatch.setattr(os, "replace", real_replace)
        _resume_from_every_cut(argv, fresh, crashed, level)


def _resume_from_every_cut(argv, fresh, crashed, level):
    # the checkpoint is the level file being written
    data = (crashed / "checkpoint.txt").read_bytes()
    assert data == (fresh / f"level_{level}.txt").read_bytes()
    parents = read_level_file(crashed / f"level_{level + 1}.txt")
    header, blocks = _blocks_of(data, 4)
    assert len(blocks) == len(parents)
    ends = [len(header) + sum(map(len, blocks[:j])) for j in range(len(blocks) + 1)]

    # load at every cut keeps the complete blocks before it and cuts the file
    # after them.  The resume depends on the cut only through what load
    # leaves, so it runs once for each distinct outcome, at its longest cut:
    # the whole file, and otherwise each block torn before its last newline
    resumed = set()
    path = crashed.with_name(crashed.name + "-cut.txt")
    for cut in reversed(range(len(data) + 1)):
        path.write_bytes(data[:cut])
        kept = cli._Checkpoint(path).load(parents)
        if cut < len(header):
            assert kept is None and path.read_bytes() == data[:cut]
        else:
            done = max(j for j, end in enumerate(ends) if end <= cut)
            assert len(kept) == done and path.read_bytes() == data[: ends[done]]
        outcome = None if kept is None else len(kept)
        if outcome in resumed:
            continue
        resumed.add(outcome)
        trial = crashed.with_name(f"{crashed.name}-cut{cut}")
        shutil.copytree(crashed, trial)
        (trial / "checkpoint.txt").write_bytes(data[:cut])
        assert run(*argv, "--out", trial, "--resume") == 0
        for r in (2, 1, 0, -1):
            assert (trial / f"level_{r}.txt").read_bytes() == (
                fresh / f"level_{r}.txt").read_bytes()
        assert not (trial / "checkpoint.txt").exists()
    assert resumed == {None, *range(len(parents) + 1)}


def test_checkpoint_blocks_reach_the_file_as_they_finish(tmp_path):
    # one handle per level, read here through a separate one
    parents = classify_space(3, 4, 4)
    blocks = [children for _idx, _parent, children in descend_iter(parents, 4)]
    assert len(blocks) == 3
    path = tmp_path / "checkpoint.txt"
    ckpt = cli._Checkpoint(path)
    ckpt.start(4, 2)
    ckpt.start(4, 1)  # a new level replaces the file, header and all
    expect = b"# rmclass m=4 level=1\n"
    assert path.read_bytes() == expect
    for idx, children in enumerate(blocks[:2]):
        ckpt.parent_done(idx, children)
        expect += "".join(rec.to_line() + "\n" for rec in children).encode()
        assert path.read_bytes() == expect

    # a resumed level appends after the blocks load kept, and the finished
    # file, renamed into place, is the level file
    again = cli._Checkpoint(path)
    assert again.load(parents) == blocks[:2]
    again.parent_done(2, blocks[2])
    handles = [ckpt._fh, again._fh]
    ckpt.close()
    records = [rec for children in blocks for rec in children]
    again.finish(len(records), tmp_path / "level_1.txt")
    assert not path.exists()
    cli.write_level_file(tmp_path / "direct.txt", records)
    assert (tmp_path / "level_1.txt").read_bytes() == (tmp_path / "direct.txt").read_bytes()
    assert all(fh.closed for fh in handles) and ckpt._fh is None and again._fh is None


@pytest.mark.parametrize("error", [KeyboardInterrupt, InternalConsistencyError])
def test_classify_closes_checkpoint_on_every_exit(tmp_path, monkeypatch, error):
    # a run that stops mid-level closes its checkpoint handle and keeps the file
    seen = []
    real_parent_done = cli._Checkpoint.parent_done

    def stop(self, idx, children):
        real_parent_done(self, idx, children)
        seen.append((self, children))
        raise error("stopped")

    monkeypatch.setattr(cli._Checkpoint, "parent_done", stop)
    out = tmp_path / "run"
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            run("classify", "--m", 4, "--s", 2, "--t", 4, "--out", out)
    else:
        assert run("classify", "--m", 4, "--s", 2, "--t", 4, "--out", out) == error.exit_code
    ckpt, children = seen[0]
    assert ckpt._fh is None
    block = "".join(rec.to_line() + "\n" for rec in children)
    assert (out / "checkpoint.txt").read_text() == "# rmclass m=4 level=3\n" + block


class _TornManifest(dict):
    """A manifest whose rewrite stops after its first two lines."""

    def items(self):
        for i, item in enumerate(super().items()):
            if i == 2:
                raise KeyboardInterrupt
            yield item


def test_resume_after_a_crash_mid_manifest_rewrite(tmp_path, monkeypatch):
    # the manifest is written beside itself and renamed, so a crash while it
    # is rewritten leaves the previous one for --resume
    argv = ["classify", "--m", 4, "--s", 1, "--t", 3]
    fresh = tmp_path / "fresh"
    assert run(*argv, "--out", fresh) == 0
    real_write = cli._write_manifest

    def torn_after_level_1(path, pairs):
        if "level_1_count" in pairs and "level_0_count" not in pairs:
            pairs = _TornManifest(pairs)
        real_write(path, pairs)

    monkeypatch.setattr(cli, "_write_manifest", torn_after_level_1)
    out = tmp_path / "run"
    with pytest.raises(KeyboardInterrupt):
        run(*argv, "--out", out)
    monkeypatch.setattr(cli, "_write_manifest", real_write)
    assert run(*argv, "--out", out, "--resume") == 0
    for r in (2, 1, 0):
        assert (out / f"level_{r}.txt").read_bytes() == (fresh / f"level_{r}.txt").read_bytes()
    manifests = [cli._read_manifest(d / "manifest.txt") for d in (fresh, out)]
    for keys in manifests:
        del keys["started"], keys["finished"]
    assert manifests[0] == manifests[1]


def test_resume_with_level_files_its_manifest_lacks(tmp_path, capsys, monkeypatch):
    # a run without --resume rewrites the manifest and crashes before its
    # first level is done, so the level files of an earlier run stay in
    # place without their keys; --resume loads them, prints their counts
    # as the earlier run did and recomputes every key of theirs from them
    argv = ["classify", "--m", 4, "--s", 2, "--t", 4, "--out", tmp_path]
    assert run(*argv) == 0
    fresh_out = capsys.readouterr().out
    fresh = {k: v for k, v in cli._read_manifest(tmp_path / "manifest.txt").items()
             if k.startswith("level_")}

    def crash(self, idx, children):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli._Checkpoint, "parent_done", crash)
    with pytest.raises(KeyboardInterrupt):
        run(*argv)
    monkeypatch.undo()
    assert "level_3_count" not in cli._read_manifest(tmp_path / "manifest.txt")
    assert run(*argv, "--resume") == 0
    assert capsys.readouterr().out == fresh_out
    keys = cli._read_manifest(tmp_path / "manifest.txt")
    assert {k: v for k, v in keys.items() if k.startswith("level_")} == fresh
    assert sorted(fresh) == sorted(
        f"level_{r}_{key}" for r in (1, 2, 3)
        for key in ("parents", "count", "inherited", "stab_hist")
    )


def test_resume_redoes_a_level_file_whose_children_have_no_parent(tmp_path, capsys):
    # a level file of the right cell and mass, but with a representative
    # whose part above degree r+1 is no representative of the level above,
    # is not this run's level: --resume redoes it instead of loading it
    argv = ["classify", "--m", 4, "--s", 2, "--t", 4, "--out", tmp_path]
    assert run(*argv) == 0
    fresh_out = capsys.readouterr().out
    fresh = (tmp_path / "level_1.txt").read_bytes()
    records = read_level_file(tmp_path / "level_1.txt")
    rep = records[0].rep
    records[0].rep = type(rep)(4, anf=rep.anf ^ 1 << 0b1011)  # + x1x2x4
    write_level_file(tmp_path / "level_1.txt", records)
    assert read_level_file(tmp_path / "level_1.txt")[0].rep != rep
    assert run(*argv, "--resume") == 0
    assert capsys.readouterr().out == fresh_out
    assert (tmp_path / "level_1.txt").read_bytes() == fresh


def test_readme_commands_parse():
    # every command of the README's command-line block and of its results
    # table parses, so a doc that names a removed flag or subcommand fails here
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```\n", 2)[1]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["rmclass"]]
    assert {argv[0] for argv in commands} == {
        "classify", "count", "dual-check", "nearbent", "distance", "stab-hist"
    }
    table = [cell.strip("`").split()[1:] for line in readme.splitlines()
             if line.startswith("| ") for cell in line.split(" | ")
             if cell.startswith("`rmclass ")]
    assert len(table) >= 5
    parser = cli.build_parser()
    for argv in commands + table:
        parser.parse_args(argv)
