"""Which rmclass callables are traced, under which layer, and how the spans
and counts become the per-layer metrics.

Layers are the package's modules: classify (the three descent phases plus
the fix and mass checks), cli (checkpoint and level-file I/O), census
(Burnside), covrad (the coset search) and group (the stabilizer chain and
enumeration, seen through its callers' counts).
bfcore, bits and rng are helpers and are measured through their callers.
"""

from __future__ import annotations

import statistics

PHASES = ("tables", "sweep", "schreier", "verify")
STEP_DEGREES = (0, 1, 2)  # the descent steps of b266 (2) and b046 (1, 0)


def install(tracer):
    from rmclass import census, classify, cli, covrad, group

    def count_items(name):
        def add(tr, _args, result):
            tr.counts[name] += len(result)
        return add

    # classify: one span per descent step (parent); the phases inside it
    tracer.wrap_steps(classify, "descend_iter",
                      lambda records, *a, **kw: f"classify.deg{records[0].level}.verify")
    tracer.wrap(classify, "verify_level_mass",
                lambda records, *a, **kw: f"classify.deg{records[0].level + 1}.verify")
    tracer.wrap(classify.BoundaryAction, "__init__",
                lambda self, f, r, gens: f"classify.deg{r}.tables")
    tracer.wrap(classify, "orbit_enumerate",
                lambda ctx, *a, **kw: f"classify.deg{ctx.r}.sweep",
                count_items("classify.orbits"))
    tracer.wrap(classify, "generator_set",
                lambda u, L, s_u, ctx: f"classify.deg{ctx.r}.schreier",
                count_items("classify.gens_kept"))
    tracer.count_calls(group.SubgroupOracle, "contains_perm", "classify.sift_calls")
    # cli
    tracer.wrap(cli, "main", "cli.command")
    tracer.wrap(cli._Checkpoint, "parent_done", "cli.checkpoint")
    tracer.wrap(cli, "write_level_file", "cli.level_file")
    tracer.wrap(cli, "read_level_file", "cli.level_file")
    # census
    tracer.wrap(cli, "burnside_count", "census.burnside")
    tracer.wrap_stream(census, "enumerate_agl", "census.enumerate", "census.group_elements")
    # covrad
    tracer.wrap(cli, "covering_radius_bound", "covrad.search")
    tracer.wrap(covrad, "distance", "covrad.distance",
                lambda tr, _a, rep: tr.counts.update(
                    {"covrad.trials": rep.trials, "covrad.hits": int(rep.hit)}))
    tracer.wrap(covrad, "pivoting", "covrad.pivoting")
    tracer.wrap(covrad, "act", "covrad.act")
    tracer.wrap(covrad, "random_affine", "covrad.random_affine")


# name -> unit, in report order
METRICS = {}
for _phase in ("sweep", "schreier", "tables", "verify"):
    METRICS[f"classify.{_phase}_s"] = "s"
METRICS.update({
    "classify.sweep_calls": "count",
    "classify.orbits": "count",
    "classify.schreier_calls": "count",
    "classify.sift_calls": "count",
    "classify.gens_kept": "count",
    "classify.keep_ratio": "ratio",
    "classify.tables_calls": "count",
})
for _r in STEP_DEGREES:
    for _phase in PHASES:
        METRICS[f"classify.deg{_r}.{_phase}_s"] = "s"
METRICS.update({
    "cli.command_s": "s",
    "cli.checkpoint_s": "s",
    "cli.checkpoint_calls": "count",
    "cli.level_file_s": "s",
    "cli.output_mib": "MiB",
    "census.burnside_s": "s",
    "census.enumerate_s": "s",
    "census.group_elements": "count",
    "covrad.search_s": "s",
    "covrad.trials": "count",
    "covrad.trials_per_s": "1/s",
    "covrad.hit_ratio": "ratio",
    "covrad.pivoting_s": "s",
    "covrad.act_s": "s",
    "covrad.random_affine_s": "s",
    "proc.cpu_s": "s",
    "proc.host_probe_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
})


def per_layer(tracer, passes, cpu_s, result):
    """Per-pass values: traced totals divided by the number of traced passes.
    Times are as measured; traced passes carry no host probes."""
    n = len(passes[True])
    own = tracer.self_times()
    calls = tracer.calls()
    busy = {}
    for sp in tracer.spans:
        if sp is not None:
            busy[sp[1]] = busy.get(sp[1], 0.0) + sp[5]
    counts = tracer.counts

    def phase_total(phase, what):
        return sum(v for k, v in what.items()
                   if k.startswith("classify.deg") and k.endswith("." + phase))

    out = {}
    for phase in PHASES:
        out[f"classify.{phase}_s"] = phase_total(phase, own)
    out["classify.sweep_calls"] = phase_total("sweep", calls)
    out["classify.orbits"] = counts["classify.orbits"]
    out["classify.schreier_calls"] = phase_total("schreier", calls)
    out["classify.sift_calls"] = counts["classify.sift_calls"]
    out["classify.gens_kept"] = counts["classify.gens_kept"]
    out["classify.tables_calls"] = phase_total("tables", calls)
    for r in STEP_DEGREES:
        for phase in PHASES:
            out[f"classify.deg{r}.{phase}_s"] = own.get(f"classify.deg{r}.{phase}", 0.0)
    out["cli.command_s"] = own.get("cli.command", 0.0)
    out["cli.checkpoint_s"] = own.get("cli.checkpoint", 0.0)
    out["cli.checkpoint_calls"] = calls["cli.checkpoint"]
    out["cli.level_file_s"] = own.get("cli.level_file", 0.0)
    out["census.burnside_s"] = own.get("census.burnside", 0.0)
    out["census.enumerate_s"] = own.get("census.enumerate", 0.0)
    out["census.group_elements"] = counts["census.group_elements"]
    out["covrad.search_s"] = own.get("covrad.search", 0.0) + own.get("covrad.distance", 0.0)
    out["covrad.trials"] = counts["covrad.trials"]
    for name in ("pivoting", "act", "random_affine"):
        out[f"covrad.{name}_s"] = own.get(f"covrad.{name}", 0.0)
    out["trace.unattributed_s"] = own.get("bench.round", 0.0)
    out = {k: v / n for k, v in out.items()}

    # ratios and rates, from the totals
    out["classify.keep_ratio"] = (counts["classify.gens_kept"] / counts["classify.sift_calls"]
                                  if counts["classify.sift_calls"] else 0.0)
    out["covrad.trials_per_s"] = (counts["covrad.trials"] / busy["covrad.distance"]
                                  if calls["covrad.distance"] else 0.0)
    out["covrad.hit_ratio"] = (counts["covrad.hits"] / calls["covrad.distance"]
                               if calls["covrad.distance"] else 0.0)
    out["cli.output_mib"] = result["output_mib"]
    out["proc.cpu_s"] = cpu_s
    out["proc.host_probe_s"] = statistics.median(p[1] for p in passes[False])
    out["trace.wall_s"] = statistics.median(p[0] for p in passes[True])
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(p[0] for p in passes[False])
    missing = set(METRICS) ^ set(out)
    if missing:
        raise AssertionError(f"per-layer metrics out of step with METRICS: {missing}")
    return out
