"""Shared paths, the import guard and the data-file formats of the benchmark.

The benchmark imports rmclass from the checkout's own ``src/`` and nowhere
else, so a run measures the code of the commit it sits in.  Stored inputs use
a small format of their own (built only from public constructors), so a change
to the program's level-file format does not invalidate them.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DATA = BENCH / "data"
RUNS = ROOT / ".perfbench_runs"


class BenchError(Exception):
    """The benchmark cannot run here (missing program or data)."""


def import_rmclass():
    """Import rmclass from ROOT/src; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "rmclass" / "__init__.py").is_file():
        raise BenchError(f"no rmclass sources under {src}")
    sys.path.insert(0, str(src))
    import rmclass

    if Path(rmclass.__file__).resolve().parent != (src / "rmclass").resolve():
        raise BenchError(f"imported rmclass from {rmclass.__file__}, not from {src}")
    return rmclass


def load_json(name: str):
    path = DATA / name
    if not path.is_file():
        raise BenchError(f"missing data file {path}")
    with open(path) as fh:
        return json.load(fh)


def save_json(name: str, obj) -> None:
    DATA.mkdir(exist_ok=True)
    with open(DATA / name, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- records: "anf_hex stab_order gen ..." under a "# m=<m> level=<r>" header ----


def save_records(name: str, records) -> None:
    DATA.mkdir(exist_ok=True)
    with open(DATA / name, "w") as fh:
        fh.write(f"# m={records[0].m} level={records[0].level}\n")
        for rec in records:
            gens = " ".join(g.serialize() for g in rec.stab_gens)
            fh.write(f"{rec.rep.anf:x} {rec.stab_order} {gens}".rstrip() + "\n")


def load_records(name: str):
    from rmclass.bfcore import BooleanFunction
    from rmclass.classify import ClassRecord
    from rmclass.group import AffineMap

    path = DATA / name
    if not path.is_file():
        raise BenchError(f"missing data file {path}")
    with open(path) as fh:
        header = dict(kv.split("=") for kv in fh.readline()[1:].split())
        m, level = int(header["m"]), int(header["level"])
        records = []
        for line in fh:
            anf, order, *gens = line.split()
            records.append(
                ClassRecord(
                    level,
                    BooleanFunction(m, anf=int(anf, 16)),
                    int(order),
                    [AffineMap.parse(m, g) for g in gens],
                )
            )
    return records


# -- what an output check compares -------------------------------------------------


def summarize(records) -> dict:
    """Class count, stabilizer-order histogram and a digest of the sorted
    (representative, stabilizer order) pairs.  Generator sets are left out on
    purpose: a correct change may pick other generators."""
    pairs = sorted(f"{rec.rep.anf:x} {rec.stab_order}" for rec in records)
    hist = Counter(rec.stab_order for rec in records)
    return {
        "count": len(records),
        "hist": {str(k): hist[k] for k in sorted(hist)},
        "digest": hashlib.sha256("\n".join(pairs).encode()).hexdigest()[:16],
    }
