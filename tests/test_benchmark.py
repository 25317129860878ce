"""One in-process pass of each benchmark workload, as its worker runs it,
untraced and traced, and the import of the data generator.

A library change that breaks a name, signature or output the benchmark in
perfbench/ depends on then fails here, not only in a benchmark run."""

import importlib
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _round(tmp_path, monkeypatch, name, traced=False):
    """(tally, tracer) of one round of the named workload, run as
    `run.py --trace 1` runs a traced round if traced, else untraced."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    work = workloads.WORKLOADS[name](1, tmp_path)
    work.setup()
    tally = workloads.Tally()
    if not traced:
        work.run_round(tally)
        return tally, None
    tracer = importlib.import_module("tracer").Tracer()
    importlib.import_module("layers").install(tracer)
    try:
        tracer.span("bench.round", work.run_round, tally)
    finally:
        tracer.restore()
    return tally, tracer


@pytest.mark.parametrize("name", NAMES)
def test_workload_round_passes(tmp_path, monkeypatch, name):
    tally, _ = _round(tmp_path, monkeypatch, name)
    assert (tally.failed, tally.errors) == (0, [])
    assert tally.attempted > 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_workload_round_passes(tmp_path, monkeypatch, name):
    # layers.install wraps library callables by name and by signature, so a
    # callable renamed or re-signed fails the traced round, not the other
    tally, tracer = _round(tmp_path, monkeypatch, name, traced=True)
    assert (tally.failed, tally.errors) == (0, [])
    assert tally.attempted > 0
    assert any(label.startswith(("classify.", "covrad.")) for label in tracer.calls())
    assert not tracer._patches


def test_make_data_imports_the_calls_it_makes(monkeypatch):
    # make_data.py regenerates the stored inputs; it calls these as below
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    make_data = importlib.import_module("make_data")
    inspect.signature(make_data.descend).bind([], 6)
    inspect.signature(make_data.descend_iter).bind([], 6)
    inspect.signature(make_data.verify_level_mass).bind([], 6)
    inspect.signature(make_data.top_record).bind(6, 6)
