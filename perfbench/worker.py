"""One benchmark process: set up one workload, repeat its pass for the
measurement window, check every output, and print one JSON line.

Started by run.py, one at a time, so that each measurement has a fresh
interpreter and its own peak RSS.  ``--setup-only`` stops after set-up; run.py
uses such processes to take the median set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import RUNS, BenchError, import_rmclass  # noqa: E402

clock = time.perf_counter

# The time of probe_loop on the host the baseline in README.md was taken on
# (a 2-vCPU x86 KVM guest, Sapphire Rapids class, CPython 3) when that host
# runs at full speed; in its slow phases the loop takes up to 1.6 ms.
REFERENCE_PROBE_S = 1.0e-3
PROBE_PERIOD_S = 0.05


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


def probe_loop():
    """A fixed piece of pure-Python work (integer, list and dict operations)
    that calls nothing in rmclass.  Its time tracks how fast the host runs
    Python code at that moment."""
    acc = 0
    seen = {}
    out = []
    for i in range(2500):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        seen[acc & 1023] = i
        out.append(seen.get(i & 1023, acc) ^ (acc >> 7))
    return len(out)


class HostProbe:
    """Times ``probe_loop`` every PROBE_PERIOD_S of wall time while a pass
    runs, from a timer signal, so the samples are spread evenly over the
    pass whatever the program does.  ``spent`` is the time taken by the
    probes, which the pass time leaves out."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, _signum=None, _frame=None):
        t0 = clock()
        probe_loop()
        t1 = clock()
        self.samples.append(t1 - t0)
        self.spent += clock() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()


def _rounds(wl, seconds, tracer):
    """Repeat the pass while the next one fits the window, always at least
    once; a traced run alternates untraced and traced passes, at least one
    of each.  Returns the tally, and per mode the passes as (wall time,
    median probe time) pairs.  Traced passes are not probed: the probes
    would land in the layers' self times."""
    from layers import install
    from workloads import Tally

    tally = Tally()
    modes = [False, True] if tracer is not None else [False]
    passes = {mode: [] for mode in modes}
    start = clock()
    i = 0
    while True:
        traced = modes[i % len(modes)]
        if traced:
            install(tracer)
            try:
                t0 = clock()
                tracer.span("bench.round", wl.run_round, tally)
                passes[True].append((clock() - t0, None))
            finally:
                tracer.restore()
        else:
            t0 = clock()
            with HostProbe() as probe:
                wl.run_round(tally)
            passes[False].append((clock() - t0 - probe.spent, statistics.median(probe.samples)))
        i += 1
        upcoming = passes[modes[i % len(modes)]] or passes[traced]
        if all(passes.values()) and clock() - start + upcoming[-1][0] > seconds:
            return tally, passes


def reference_seconds(passes):
    """The median pass, in seconds of a host that runs ``probe_loop`` in
    REFERENCE_PROBE_S: each pass's wall time is scaled by how much slower
    or faster than that the probes during the pass ran."""
    return statistics.median(wall * REFERENCE_PROBE_S / probe for wall, probe in passes)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--started-ns", type=int, required=True,
                   help="CLOCK_MONOTONIC reading taken by the parent just before spawning")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    workdir = RUNS / f"{args.workload}-{os.getpid()}"
    try:
        import_rmclass()
        from workloads import WORKLOADS

        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.setup()
        setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.started_ns) / 1e9
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        t_run, cpu0 = clock(), cpu_seconds()
        tally, passes = _rounds(wl, args.seconds, tracer)
        cpu_s, elapsed_s = cpu_seconds() - cpu0, clock() - t_run
        out_bytes = sum(f.stat().st_size for f in workdir.rglob("*") if f.is_file())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "setup_s": setup_s,
        "wall_s": reference_seconds(passes[False]),
        "round_walls": [p[0] for p in passes[False]],
        "round_probes": [p[1] for p in passes[False]],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cpu_s": cpu_s,
        "elapsed_s": elapsed_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "output_mib": out_bytes / (1 << 20),
    }
    if tracer is not None:
        from layers import per_layer

        result["per_layer"] = per_layer(tracer, passes, cpu_s, result)
        RUNS.mkdir(exist_ok=True)
        tracer.dump(RUNS / f"trace-{args.workload}-{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
