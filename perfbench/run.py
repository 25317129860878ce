"""rmclass benchmark.

    python3 perfbench/run.py --workload b266 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

One workload: the last line of stdout is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  ``--workload all``
runs every workload untraced and then traced, one after another, and prints
one row per workload with every metric by name and unit.

Each measurement is a fresh worker process (worker.py), started only after
the previous one has ended: two runs at once on this 2-core class of host
would measure the scheduler.  set-up time is the median over SETUP_RUNS
processes.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from layers import METRICS as PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 7  # the measured process plus six that only set up
WORKER_TIMEOUT_S = 175
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class RunFailed(Exception):
    pass


def spawn(workload, seed, seconds, trace, setup_only=False):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--started-ns", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
    try:
        # a fixed hash seed: two runs of one seed take the same code paths
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
                              env=dict(os.environ, PYTHONHASHSEED="0"))
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{workload}: worker exceeded {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{workload}: worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace):
    """Returns (result line as a dict, the worker's full report)."""
    setups = [spawn(workload, seed, seconds, trace, setup_only=True)["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    rep = spawn(workload, seed, seconds, trace)
    setups.append(rep["setup_s"])
    if trace:
        metrics = {k: {"value": rep["per_layer"][k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        values = {"wall_s": rep["wall_s"], "setup_s": statistics.median(setups),
                  "peak_rss_mib": rep["peak_rss_mib"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    line = {"correct": rep["failed"] == 0 and rep["attempted"] > 0,
            "attempted": rep["attempted"], "failed": rep["failed"], "metrics": metrics}
    rep["setup_runs_s"] = setups
    return line, rep


def diagnostics(workload, rep):
    fail_ratio = rep["failed"] / rep["attempted"] if rep["attempted"] else float("nan")
    walls = " ".join(f"{w:.3f}" for w in rep["round_walls"])
    probes = " ".join(f"{p * 1e3:.3f}" for p in rep["round_probes"])
    setups = " ".join(f"{s:.3f}" for s in rep["setup_runs_s"])
    print(f"# {workload}: passes [{walls}] s as measured, median probe per pass "
          f"[{probes}] ms, setup runs [{setups}] s, "
          f"cpu {rep['cpu_s']:.3f} s over {rep['elapsed_s']:.3f} s, "
          f"fail_ratio {fail_ratio:g} ({rep['failed']}/{rep['attempted']})")
    for err in rep["errors"]:
        print(f"# {workload}: FAILED {err}", file=sys.stderr)


def table(seed, seconds):
    rows = {}
    for wl in WORKLOADS:
        plain, rep = measure(wl, seed, seconds, 0)
        diagnostics(wl, rep)
        traced, trep = measure(wl, seed, seconds, 1)
        diagnostics(wl, trep)
        fails = plain["failed"] + traced["failed"]
        tries = plain["attempted"] + traced["attempted"]
        row = {k: v["value"] for k, v in plain["metrics"].items()}
        row["fail_ratio"] = fails / tries
        row.update({k: v["value"] for k, v in traced["metrics"].items()})
        rows[wl] = row
    units = dict(END_TO_END, fail_ratio="ratio", **PER_LAYER)
    for wl, row in rows.items():
        print(f"{wl:<12} " + "  ".join(f"{k}={row[k]:.6g} {u}" for k, u in units.items()))
    ok = all(rows[wl]["fail_ratio"] == 0 for wl in rows)
    print(json.dumps({"correct": ok, "rows": rows}))
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        if args.workload == "all":
            return table(args.seed, args.seconds)
        line, rep = measure(args.workload, args.seed, args.seconds, args.trace)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    diagnostics(args.workload, rep)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
