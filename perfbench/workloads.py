"""The three workloads.  Each one loads its inputs in ``setup`` and does one
fixed pass of checked operations in ``run_round``; the worker repeats the
pass for the measurement window.

Every call into rmclass goes through a module attribute looked up at call
time (``classify.descend_iter``, ``cli.main``, ...), so the tracer's wrappers
see it.  Why each workload exists, and what was left out, is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
from collections import defaultdict

from common import load_json, load_records, summarize


class Tally:
    """Operations attempted and failed.  An operation is one checked output:
    one parent's children, one CLI command, or one representative's
    certificate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


def run_cli(argv):
    """rmclass.cli.main in-process; returns (exit code, stdout text)."""
    from rmclass import cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse refusals
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed operation, not a failed run
        code = repr(exc)
    return code, buf.getvalue()


class Workload:
    name = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def fresh_dir(self):
        d = self.workdir / "round"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        return d

    def setup(self):
        raise NotImplementedError

    def run_round(self, tally):
        raise NotImplementedError


class _Descent(Workload):
    """A fixed slice of the last descent step(s) of a classify recipe, run the
    way ``rmclass classify`` runs a level: parents in one ``descend_iter``,
    a checkpoint append after each parent, a level file at the end."""

    ref_file = ""
    parents_file = ""
    k = 0

    def setup(self):
        ref = load_json(self.ref_file)["parents"]
        parents = [rec for rec in load_records(self.parents_file) if f"{rec.rep.anf:x}" in ref]
        if len(parents) != len(ref):
            raise ValueError(f"{self.parents_file} lacks parents named in {self.ref_file}")
        # The recipe fixes the work; the seed fixes the order it is done in.
        random.Random(self.seed).shuffle(parents)
        self.parents, self.ref = parents, ref

    def _level(self, out_dir, ckpt, parents, found):
        """Descend every parent once; found[i] collects parent i's children."""
        from rmclass import classify, cli

        level = parents[0].level - 1
        ckpt.start(parents[0].m, level)
        out = []
        for idx, _parent, children in classify.descend_iter(parents, self.k):
            ckpt.parent_done(idx, children)
            found[idx] = children
            out.extend(children)
        cli.write_level_file(out_dir / f"level_{level}.txt", out)

    def _check(self, tally, leaves):
        for i, parent in enumerate(self.parents):
            key = f"{parent.rep.anf:x}"
            got = summarize(leaves[i]) if i in leaves else None
            tally.check(got == self.ref[key], f"{self.name}: parent {key}: {got} != {self.ref[key]}")


class B266(_Descent):
    name = "b266"
    ref_file = "b266_ref.json"
    parents_file = "b266_level2.txt"
    k = 6

    def run_round(self, tally):
        from rmclass import cli

        d = self.fresh_dir()
        found = {}
        try:
            self._level(d, cli._Checkpoint(d / "checkpoint.txt"), self.parents, found)
        except Exception as exc:  # counted: every unfinished parent fails
            tally.errors.append(f"b266: {exc!r}")
        self._check(tally, found)


class B046(_Descent):
    name = "b046"
    ref_file = "b046_ref.json"
    parents_file = "b046_level1_slice.txt"
    k = 4

    def run_round(self, tally):
        from rmclass import cli

        d = self.fresh_dir()
        ckpt = cli._Checkpoint(d / "checkpoint.txt")
        leaves = defaultdict(list)
        try:
            level0 = {}
            self._level(d, ckpt, self.parents, level0)
            kids, owner = [], []
            for i in sorted(level0):
                kids.extend(level0[i])
                owner.extend([i] * len(level0[i]))
            grand = {}
            self._level(d, ckpt, kids, grand)
            for j, children in grand.items():
                leaves[owner[j]].extend(children)
        except Exception as exc:  # a half-finished subtree is no result
            tally.errors.append(f"b046: {exc!r}")
            leaves.clear()
        self._check(tally, leaves)


class Crosscheck(Workload):
    """Burnside against classify at m=4, duality at m=7, and the RM(2,6)
    coset search over the 205 classes of B(3,6,6), all through the CLI."""

    name = "crosscheck"
    search_seeds = 10
    threshold = 18  # covering radius of RM(2,6)

    def setup(self):
        self.ref = load_json("crosscheck_ref.json")
        self.reps = load_records("b266_level2.txt")
        if len(self.reps) != len(self.ref["coset_min_weight_rm26"]):
            raise ValueError("b266_level2.txt and crosscheck_ref.json disagree")
        base = self.seed * self.search_seeds
        self.seeds = list(range(base, base + self.search_seeds))

    def op_count(self, d, tally):
        code, text = run_cli(["count", "--m", "4", "--s", "2", "--t", "4",
                              "--method", "both", "--out", str(d)])
        got = {ln.split()[5]: int(ln.split()[4]) for ln in text.splitlines()
               if ln.startswith("count ")}
        n = self.ref["n_2_4_4"]
        tally.check(code == 0 and got == {"classify": n, "burnside": n},
                    f"count --m 4 --s 2 --t 4: exit {code}, {got}, expected {n}")

    def op_dual(self, d, tally):
        code, text = run_cli(["dual-check", "--m", "7", "--out", str(d)])
        got = {}
        for ln in text.splitlines():
            if ln.startswith("count "):
                _, s, t, _m, v, _how = ln.split()
                got[f"{s},{t}"] = int(v)
        ok = code == 0 and got == self.ref["n_m7"] and "duality holds" in text
        tally.check(ok, f"dual-check --m 7: exit {code}, {got}")

    def op_search(self, d, tally, seed, reps_file):
        code, text = run_cli(["distance", "--r", "2", "--reps", str(reps_file),
                              "--threshold", str(self.threshold), "--seed", str(seed),
                              "--out", str(d)])
        exact = self.ref["coset_min_weight_rm26"]
        seen = {}
        for ln in text.splitlines():
            if ln.startswith("distance "):
                _, rep, best, _trials, hit, _seed = ln.split()
                seen[f"{int(rep, 16):x}"] = (int(best), hit)
        for rep, low in exact.items():
            best, hit = seen.get(rep, (None, None))
            ok = code == 0 and hit == "hit" and best is not None and low <= best <= self.threshold
            tally.check(ok, f"distance seed {seed}: {rep} best {best} ({hit}), exact {low}")

    def run_round(self, tally):
        from rmclass import cli

        d = self.fresh_dir()
        self.op_count(d, tally)
        self.op_dual(d, tally)
        reps_file = d / "b366_level_2.txt"
        try:
            cli.write_level_file(reps_file, self.reps)
        except Exception as exc:  # the searches below then fail on the missing file
            tally.errors.append(f"crosscheck: {exc!r}")
        for seed in self.seeds:
            self.op_search(d, tally, seed, reps_file)


WORKLOADS = {cls.name: cls for cls in (B266, B046, Crosscheck)}
