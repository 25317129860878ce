"""Regenerate the stored inputs and reference values under perfbench/data/.

    python3 perfbench/make_data.py classify    # b266/b046 inputs and references
    python3 perfbench/make_data.py crosscheck  # exact coset minima, class numbers

Run once, at the commit whose outputs define "correct"; every later commit is
checked against these files.  Each reference is established more strongly
than a single run would: full descents with the mass check replayed and the
paper's 150357 matched, and exact coset enumeration.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import import_rmclass, load_records, save_json, save_records, summarize  # noqa: E402

import_rmclass()

from rmclass.classify import descend, descend_iter, top_record, verify_level_mass  # noqa: E402
from rmclass.covrad import exact_coset_min_weight  # noqa: E402

B266_CLASSES = 150357  # classes of B(2,6,6) = classes of B(0,4,6), from the paper
# The full last steps take 30-60 s each, too long for one run, so a pass times
# every step-th parent, ordered by reference child count (a cost proxy): one
# pass then costs 4-5 s on a 2-core x86 VM and a run repeats it several times.
B266_STEP = 12
B046_STEP = 10


def _slice(parents, refs, step):
    order = sorted(
        range(len(parents)),
        key=lambda i: (refs[i]["count"], parents[i].stab_order, parents[i].rep.anf),
    )
    return sorted(order[step // 2 :: step])


def _check_total(children_per_parent, k):
    flat = [rec for kids in children_per_parent for rec in kids]
    verify_level_mass(flat, k)
    if len(flat) != B266_CLASSES:
        raise SystemExit(f"expected {B266_CLASSES} classes, got {len(flat)}")
    return summarize(flat)


def make_classify() -> None:
    # b266: the 205 level-2 classes of B(2,6,6) (= all of B(3,6,6)).
    records = [top_record(6, 6)]
    for _ in range(6, 2, -1):
        records = descend(records, 6)
    save_records("b266_level2.txt", records)
    kids = [children for _i, _p, children in descend_iter(records, 6)]
    full = _check_total(kids, 6)
    refs = [summarize(c) for c in kids]
    pick = _slice(records, refs, B266_STEP)
    save_json("b266_ref.json", {
        "recipe": "classify --m 6 --s 2 --t 6",
        "full_level_1": full,
        "slice": [f"{records[i].rep.anf:x}" for i in pick],
        "parents": {f"{records[i].rep.anf:x}": refs[i] for i in pick},
    })

    # b046: the subtrees (level 0 and level -1) of the level-1 classes of B(0,4,6).
    records = [top_record(6, 4)]
    for _ in range(4, 1, -1):
        records = descend(records, 4)
    level0 = [children for _i, _p, children in descend_iter(records, 4)]
    verify_level_mass([rec for kids in level0 for rec in kids], 4)
    grand = []
    for kids in level0:
        grand.append([rec for _i, _p, cs in descend_iter(kids, 4) for rec in cs])
    full = _check_total(grand, 4)
    refs = [summarize(g) for g in grand]
    pick = _slice(records, refs, B046_STEP)
    save_records("b046_level1_slice.txt", [records[i] for i in pick])
    save_json("b046_ref.json", {
        "recipe": "classify --m 6 --s 0 --t 4",
        "full_level_-1": full,
        "level_1_parents": len(records),
        "parents": {f"{records[i].rep.anf:x}": refs[i] for i in pick},
    })


def make_crosscheck() -> None:
    from rmclass.census import burnside_count
    from rmclass.classify import classify_space

    reps = load_records("b266_level2.txt")
    exact = {f"{rec.rep.anf:x}": exact_coset_min_weight(rec.rep, 2, 6) for rec in reps}
    if max(exact.values()) != 18:  # rho(RM(2,6)) = 18 (Schatz 1981)
        raise SystemExit(f"covering radius of RM(2,6) came out {max(exact.values())}")
    n244 = len(classify_space(2, 4, 4))
    if burnside_count(2, 4, 4) != n244:
        raise SystemExit("classify and Burnside disagree on B(2,4,4)")
    m7 = {}
    for s, t in [(5, 5), (2, 2), (5, 6), (1, 2), (5, 7), (0, 2),
                 (6, 6), (1, 1), (6, 7), (0, 1), (7, 7), (0, 0)]:
        m7[f"{s},{t}"] = len(classify_space(s, t, 7))
    save_json("crosscheck_ref.json", {
        "coset_min_weight_rm26": exact,
        "n_2_4_4": n244,
        "n_m7": m7,
    })


if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    if what == "classify":
        make_classify()
    elif what == "crosscheck":
        make_crosscheck()
    else:
        raise SystemExit(__doc__)
