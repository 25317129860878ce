"""One in-process pass of each benchmark workload, as its worker runs it.

A library change that breaks a name, signature or output the benchmark in
perfbench/ depends on then fails here, not only in a benchmark run."""

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_workload_round_passes(tmp_path, monkeypatch, name):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    work = workloads.WORKLOADS[name](1, tmp_path)
    work.setup()
    tally = workloads.Tally()
    work.run_round(tally)
    assert (tally.failed, tally.errors) == (0, [])
    assert tally.attempted > 0
