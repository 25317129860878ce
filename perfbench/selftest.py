"""Self-test of the benchmark itself (under a minute):

    python3 perfbench/selftest.py

1. A deliberately wrong result from the program must be counted as a
   failure, on every workload: a tampered representative, a dropped class, a
   wrong Burnside count, a coset word lighter than the exact minimum.  The
   untampered pass must count none.
2. The host probes of an untraced pass must be spread over it and take a
   small share of it.
3. In a traced pass the self times of the layers must add up to its wall
   time: the spans are bookkept exactly, and the time outside every layer
   (the benchmark's own loop and checks) stays within the tracing overhead.
"""

from __future__ import annotations

import contextlib
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import RUNS, import_rmclass  # noqa: E402

import_rmclass()

from rmclass import classify, cli, covrad  # noqa: E402
from rmclass.bfcore import BooleanFunction  # noqa: E402
from rmclass.covrad import TrialReport  # noqa: E402

from layers import install  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import PROBE_PERIOD_S, HostProbe  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402

WORKDIR = RUNS / "selftest"
results = []


def report(name, ok, detail):
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)


@contextlib.contextmanager
def patched(owner, attr, make):
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def workload(name, keep=None):
    wl = WORKLOADS[name](1, WORKDIR / name)
    wl.setup()
    if keep is not None:  # a few cheap parents are enough to see a failure
        wl.parents = sorted(wl.parents, key=lambda p: wl.ref[f"{p.rep.anf:x}"]["count"])[:keep]
    return wl


def one_pass(wl, run=None):
    tally = Tally()
    (run or wl.run_round)(tally)
    return tally


def tamper_children(edit):
    """descend_iter whose first parent's children are edited."""
    def make(original):
        def descend_iter(records, *args, **kwargs):
            for idx, parent, children in original(records, *args, **kwargs):
                yield idx, parent, (edit(children) if idx == 0 else children)
        return descend_iter
    return make


def flip_rep(children):
    first = children[0]
    rep = BooleanFunction(first.m, anf=first.rep.anf ^ (1 << 63))
    return [classify.ClassRecord(first.level, rep, first.stab_order, first.stab_gens)] + children[1:]


def check_tampering():
    for name, edit, what in (("b266", flip_rep, "a tampered representative"),
                             ("b046", lambda cs: cs[:-1] if len(cs) > 1 else [],
                              "a dropped class")):
        wl = workload(name, keep=3)
        clean = one_pass(wl)
        with patched(classify, "descend_iter", tamper_children(edit)):
            bad = one_pass(wl)
        report(f"{name} counts {what}", clean.failed == 0 and bad.failed >= 1,
               f"untampered {clean.failed}/{clean.attempted} failed, "
               f"tampered {bad.failed}/{bad.attempted} failed")

    wl = workload("crosscheck")
    d = wl.fresh_dir()
    with patched(cli, "burnside_count", lambda o: lambda *a, **kw: o(*a, **kw) + 1):
        bad = one_pass(wl, lambda t: wl.op_count(d, t))
    report("crosscheck counts a wrong Burnside count", bad.failed == 1,
           f"{bad.failed}/{bad.attempted} failed")

    reps = d / "reps.txt"
    cli.write_level_file(reps, wl.reps)
    clean = one_pass(wl, lambda t: wl.op_search(d, t, wl.seeds[0], reps))
    with patched(covrad, "distance",
                 lambda _o: lambda f, G, threshold, *a, **kw: TrialReport(1, 0, threshold, True)):
        bad = one_pass(wl, lambda t: wl.op_search(d, t, wl.seeds[0], reps))
    lighter = sum(1 for w in wl.ref["coset_min_weight_rm26"].values() if w > 0)
    report("crosscheck counts a coset word below the exact minimum",
           clean.failed == 0 and bad.failed == lighter,
           f"untampered {clean.failed}/{clean.attempted}, tampered {bad.failed}/{bad.attempted} "
           f"failed, expected {lighter}")


def check_trace_accounting():
    wl = workload("b266")
    t0 = time.perf_counter()
    with HostProbe() as probe:
        one_pass(wl)
    untraced = time.perf_counter() - t0 - probe.spent
    expected = untraced / PROBE_PERIOD_S
    report("host probes are spread over the pass and take a small share of it",
           abs(len(probe.samples) - expected) <= 0.1 * expected + 3
           and probe.spent < 0.05 * untraced,
           f"{len(probe.samples)} probes (about {expected:.0f} expected), {probe.spent:.3f} s "
           f"of a {untraced:.3f} s pass")
    before = classify.descend_iter
    tracer = Tracer()
    install(tracer)
    try:
        t0 = time.perf_counter()
        tracer.span("bench.round", wl.run_round, Tally())
        traced = time.perf_counter() - t0
    finally:
        tracer.restore()
    own = tracer.self_times()
    layers = sum(v for k, v in own.items() if k != "bench.round")
    outside = own["bench.round"]
    overhead = traced - untraced
    exact = abs(layers + outside - tracer.spans[0][5]) < 1e-6
    report("span bookkeeping is exact", exact,
           f"layer self {layers:.6f} s + outside {outside:.6f} s vs round span "
           f"{tracer.spans[0][5]:.6f} s")
    allowance = max(overhead, 0.0) + 0.02 * untraced
    report("layer self times sum to the traced wall within the tracing overhead",
           traced - layers <= allowance,
           f"traced wall {traced:.3f} s, layer self times {layers:.3f} s, untraced "
           f"{untraced:.3f} s, overhead {overhead:+.3f} s, allowance {allowance:.3f} s; "
           f"largest: " + ", ".join(f"{k} {v:.3f}" for k, v in
                                    sorted(own.items(), key=lambda kv: -kv[1])[:4]))
    restored = classify.descend_iter is before and not tracer._patches
    report("wrappers are removed after the traced pass", restored, "")


if __name__ == "__main__":
    try:
        check_tampering()
        check_trace_accounting()
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(f"selftest: {results.count(True)}/{len(results)} passed")
    sys.exit(0 if all(results) else 1)
