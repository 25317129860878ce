"""Command-line front end: classify, count, dual-check, nearbent, distance,
stab-hist.

classify writes its level files and a flat key=value manifest into --out;
the other subcommands print their results.  Result files contain no
timestamps, so re-running with the same manifest settings reproduces them
byte for byte.  A level file is a `# rmclass m=<m> level=<L>` header, one
line per record and a `# complete N` trailer.  _Checkpoint writes it, as
the checkpoint flushed after every parent, and _scan reads both.  --resume
reads each level by one rule, from its level file or else from the
checkpoint: _parent_blocks keeps its leading complete blocks, one per
parent, and classify.descend descends the rest.  A level is kept once
descend and _certify_level pass it; one that fails exits 5 if this run
computed it all, and is redone, with --resume off from it down, if any
of its blocks was loaded.  A complete run removes a checkpoint left over.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .bfcore import MAX_M, BooleanFunction
from .bits import degree_mask, masks_in_range
from .census import burnside_count, duality_check, near_bent_census, table_render
from .classify import (
    MEM_BUDGET,
    ClassRecord,
    check_cell,
    check_memory,
    classify_levels,
    classify_space,
    descend,
    level_cell,
    stab_histogram,
)
from .covrad import MAX_ITER_DEFAULT, check_level, covering_radius_bound
from .errors import (
    DependencyMissingError,
    InternalConsistencyError,
    InvalidInputError,
    RmclassError,
)
from .rng import check_seed


def _write_manifest(path: Path, pairs: dict) -> None:
    """Written beside the manifest and renamed over it, so a crash mid-write
    leaves the previous manifest for --resume."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        for k, v in pairs.items():
            fh.write(f"{k}={v}\n")
    os.replace(tmp, path)


def _read_manifest(path: Path) -> dict:
    with open(path) as fh:
        return dict(line.strip().split("=", 1) for line in fh if "=" in line)


def _log(args, msg: str) -> None:
    if args.verbose:
        print(msg, file=sys.stderr, flush=True)


# -- classify ------------------------------------------------------------------


def _scan(data: bytes) -> Tuple[int, int, List[ClassRecord], bool]:
    """(m, L, records, complete) of a record file: its header, its record
    lines, all at level L, and whether a `# complete N` trailer, N the
    number of records, ends them.  A last line without its newline is a torn
    tail and is skipped, a cut-off trailer too; any other line that does not
    parse raises InvalidInputError("<line>: <why>").

    The records hold no cycles and live as long as the command, so no
    collection should walk them: the collector is off while they are made,
    and gc.freeze then moves them, with every other object tracked, out of
    its generations.  The young ones are collected first, so only a cycle
    already in the oldest generation could be frozen uncollected."""
    *lines, _torn = data.split(b"\n")
    records, maps, lineno, complete = [], {}, 1, False  # maps: each generator text parses once
    collecting = gc.isenabled()
    gc.collect(1)
    gc.disable()
    try:
        if not lines or not lines[0].startswith(b"# rmclass m="):
            raise InvalidInputError("not a level file")
        m, level = (int(field.split(b"=")[1]) for field in lines[0].split()[2:4])
        for lineno, raw in enumerate(lines[1:], 2):
            if raw.startswith(b"# complete"):
                if int(raw.split()[2]) != len(records):
                    raise InvalidInputError(f"{raw.decode()!r} after {len(records)} records")
                complete = True
                break
            rec = ClassRecord.from_line(m, raw.decode(), maps)
            if rec.level != level:
                raise InvalidInputError(f"a level-{rec.level} record in a level-{level} file")
            records.append(rec)
    except (ValueError, IndexError, InvalidInputError) as err:
        raise InvalidInputError(f"{lineno}: {err}") from None
    finally:
        if collecting:
            gc.enable()
    gc.freeze()
    return m, level, records, complete


def _parent_blocks(parents: Sequence[ClassRecord],
                   records: Sequence[ClassRecord]) -> Optional[List[List[ClassRecord]]]:
    """The records, grouped by their part above degree r (r the parents'
    level), each parent's representative, up to the first block that is not
    complete: whose orders do not all divide the parent's, or whose orbit
    sizes do not sum to 2^C(m,r).  None if a block is not the next parent's."""
    m, r = parents[0].m, parents[0].level
    high, mass = degree_mask(m, r + 1, m), 1 << len(masks_in_range(m, r, r))
    blocks, todo, part, left = [], iter(parents), None, 0  # left: mass the block lacks
    for rec in records:
        if rec.rep.anf & high != part:  # the next block starts, so the last one ends
            if left:
                return blocks[:-1]
            parent = next(todo, None)
            if parent is None or rec.rep.anf & high != parent.rep.anf:
                return None
            part, order, left = parent.rep.anf, parent.stab_order, mass
            blocks.append([])
        if rec.stab_order < 1 or order % rec.stab_order:
            return blocks[:-1]
        left -= order // rec.stab_order
        blocks[-1].append(rec)
    return blocks[:-1] if left else blocks


class _Checkpoint:
    """The level file being written: its header, then each parent's children
    as the parent finishes; when the level is done, the `# complete N`
    trailer and a rename onto the level file.  A finished level file is one
    with every parent's block; load takes up either kind in place.

    One handle stays open per level.  Each parent's block is flushed as it is
    written, so it reaches the OS before the next parent starts: a crash of
    the process loses at most the block being written, which load drops.
    There is no fsync, so a power cut is not covered.
    """

    def __init__(self, path: Path):
        self.path = path
        self._fh = None

    def load(self, parents: Sequence[ClassRecord],
             source: Path) -> Optional[List[List[ClassRecord]]]:
        """The complete leading blocks of source, the level's file or the
        checkpoint, by _parent_blocks, or None (the level restarts) if source
        is missing, does not scan or is not the level below the parents'.
        Appends and finish go on in source, cut after those blocks with its
        bytes as read: a finished level file loses only its trailer."""
        m, r = parents[0].m, parents[0].level
        try:
            data = source.read_bytes()
            file_m, level, records, _complete = _scan(data)
        except (FileNotFoundError, InvalidInputError):
            return None
        blocks = _parent_blocks(parents, records) if (file_m, level) == (m, r - 1) else None
        if blocks is not None:
            kept = 1 + sum(map(len, blocks))  # the header line and the kept records
            self.close()
            self._fh = open(source, "a")
            self._fh.truncate(len(data) - len(data.split(b"\n", kept)[-1]))
        return blocks

    def start(self, m: int, level: int) -> None:
        self.close()
        self._fh = open(self.path, "w")
        self._write([f"# rmclass m={m} level={level}\n"])

    def parent_done(self, idx: int, children: Sequence[ClassRecord]) -> None:
        # idx is not written: load finds each block's parent from its records
        self._write(rec.to_line() + "\n" for rec in children)

    def finish(self, count: int, path: Path) -> None:
        """Append the trailer and rename the file written onto path."""
        written = self._fh.name
        self._write([f"# complete {count}\n"])
        self.close()
        os.replace(written, path)

    def _write(self, lines: Iterable[str]) -> None:
        self._fh.writelines(lines)
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def write_level_file(path, records: Sequence[ClassRecord]) -> None:
    """Records at one level, written beside path as a checkpoint is and
    renamed onto it, so a crash never leaves a partial level file."""
    if not records:
        raise InvalidInputError("refusing to write an empty level file")
    path = Path(path)
    tmp = _Checkpoint(path.with_name(path.name + ".tmp"))
    try:
        tmp.start(records[0].m, records[0].level)
        tmp._write(rec.to_line() + "\n" for rec in records)
        tmp.finish(len(records), path)
    finally:
        tmp.close()


def read_level_file(path, m: Optional[int] = None) -> List[ClassRecord]:
    """Records of a level file, of m if given.  A missing file raises
    DependencyMissingError.  A malformed one, one without its trailer, one
    of another m, or one whose records are not a whole level by level_cell
    (a record missing or an order changed, unless what is left has the
    mass of another t) raises InvalidInputError naming the file."""
    try:
        file_m, _level, records, complete = _scan(Path(path).read_bytes())
    except FileNotFoundError:
        raise DependencyMissingError(f"{path}: no such level file") from None
    except OSError as err:
        raise InvalidInputError(f"{path}: {err}") from None
    except InvalidInputError as err:
        raise InvalidInputError(f"{path}:{err}") from None
    if not complete:
        raise InvalidInputError(f"{path}: missing completion marker (truncated run?)")
    try:
        level_cell(records)
    except InternalConsistencyError as err:
        raise InvalidInputError(f"{path}:{len(records) + 2}: {err}") from None
    if m is not None and file_m != m:
        raise InvalidInputError(f"{path}: records are for m={file_m}, not m={m}")
    return records


def cmd_classify(args) -> int:
    m, s, t = args.m, args.s, args.t
    _top, parents = next(classify_levels(s, t, m, args.mem_limit << 20))
    out = Path(args.out or "rmclass-runs")
    manifest_path = out / "manifest.txt"
    ckpt = _Checkpoint(out / "checkpoint.txt")

    manifest = {
        "artifact": f"rmclass {__version__}",
        "command": "classify",
        "m": m, "s": s, "t": t,
        "mem_limit_mib": args.mem_limit,
    }
    level, resume = t, args.resume
    try:
        out.mkdir(parents=True, exist_ok=True)
        if resume and manifest_path.exists():
            old = _read_manifest(manifest_path)
            for key in ("command", "m", "s", "t"):
                if old.get(key) != str(manifest[key]):
                    raise InvalidInputError(
                        f"--resume: manifest mismatch on {key} ({old.get(key)} vs {manifest[key]})"
                    )
        manifest["started"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        manifest["status"] = "running"
        _write_manifest(manifest_path, manifest)
        while level >= s:
            level_file = out / f"level_{level - 1}.txt"
            source = level_file if level_file.exists() else ckpt.path
            blocks = (ckpt.load(parents, source) if resume else None) or []
            if not blocks:
                ckpt.start(m, level - 1)
            elif len(blocks) == len(parents):
                _log(args, f"level {level - 1}: every parent's block loaded from {source}")
            else:
                _log(args, f"checkpoint: level {level - 1} resumes at parent {len(blocks)}")
            t0 = shown = time.monotonic()
            made = sum(map(len, blocks))

            def on_block(idx: int, children: List[ClassRecord]) -> None:
                nonlocal made, shown
                ckpt.parent_done(idx, children)
                made += len(children)
                now = time.monotonic()
                if args.verbose and (now - shown >= 1 or idx + 1 == len(parents)):
                    shown, rate = now, (idx + 1 - len(blocks)) / max(now - t0, 1e-9)
                    _log(args, f"level {level - 1}: parent {idx + 1}/{len(parents)}, "
                         f"{made} records, {now - t0:.1f}s, {rate:.1f} parents/s, "
                         f"ETA {(len(parents) - idx - 1) / rate:.1f}s")
            try:
                records = descend(parents, t, blocks, on_block)
                manifest.update(_certify_level(parents, records, t))
            except InternalConsistencyError:
                if not blocks:
                    raise  # computed in this run: a bug, and the level stays in the checkpoint
                resume = False  # blocks loaded: redone from scratch, and every level below it
                continue
            parents, level = records, level - 1
            # the manifest first, so that every level file in place has its keys
            _write_manifest(manifest_path, manifest)
            ckpt.finish(len(records), level_file)
        ckpt.path.unlink(missing_ok=True)  # every level is in its file: a checkpoint left is stale
        manifest["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        manifest["status"] = "complete"
        _write_manifest(manifest_path, manifest)
    except OSError as err:  # an --out that is a file, a checkpoint.txt that is a directory
        raise InvalidInputError(f"{err.filename or out}: {err.strerror}") from None
    finally:
        ckpt.close()  # an unfinished level keeps its file for --resume
    print(f"classified B({s},{t},{m}) down to level {s - 1}")
    for r in range(t - 1, s - 2, -1):
        print(f"  level {r}: {manifest[f'level_{r}_count']} classes")
    print(f"records in {out}")
    return 0


def _certify_level(parents: Sequence[ClassRecord], records: Sequence[ClassRecord], t: int) -> dict:
    """The manifest keys of the level L below parents, once its records,
    computed or loaded, pass the one certificate classify keeps a level by.
    descend has found them a whole level of B(L+1,t,m) by level_cell; here
    their number must be the Burnside count of that space, an independent
    count, and _parent_blocks must find one complete block of children per
    parent, in parent order.  A failure raises InternalConsistencyError
    naming L.  The keys are the counts, the children whose stabilizer is
    their parent's (orbits of size 1) and the stabilizer histogram."""
    m, level = parents[0].m, parents[0].level - 1
    try:
        expected = burnside_count(level + 1, t, m)
        if len(records) != expected:
            raise InternalConsistencyError(f"{len(records)} classes, but the Burnside "
                                           f"count of B({level + 1},{t},{m}) is {expected}")
        blocks = _parent_blocks(parents, records)
        if blocks is None or len(blocks) < len(parents):
            raise InternalConsistencyError("not one complete block of children per parent")
    except InternalConsistencyError as err:
        raise InternalConsistencyError(f"level {level}: {err}") from err
    return {
        f"level_{level}_parents": len(parents),
        f"level_{level}_count": len(records),
        f"level_{level}_inherited": sum(rec.stab_order == parent.stab_order
                                        for parent, block in zip(parents, blocks)
                                        for rec in block),
        f"level_{level}_stab_hist": ",".join(
            f"{order}:{n}" for order, n in stab_histogram(records).items()
        ),
    }


# -- count / dual-check --------------------------------------------------------


def _print_counts(m: int, cells, methods, mem_limit: int) -> Dict[Tuple[int, int], int]:
    """Print `count s t m n method` for every cell and method, and return
    {(s, t): n}.  Every cell must satisfy 0 <= s <= t <= m, and every
    descent's memory is checked, before the first descent starts.

    AGL(m,2) preserves degree, so the classes of B(s,t,m) are those of
    B(s,t',m), t' > t, whose representative has degree <= t.  From the
    largest t down, a t joins the descent of the first larger t' whose
    lowest s asked for is at most its own, or else descends itself."""
    lowest: Dict[int, int] = {}
    for s, t in cells:
        check_cell(s, t, m)
        if "classify" in methods:
            lowest[t] = min(s, lowest.get(t, s))
    for t, s_low in lowest.items():
        check_memory(m, t, s_low - 1, mem_limit)
    groups: Dict[int, List[int]] = {}
    for t in sorted(lowest, reverse=True):
        top = next((u for u in groups if lowest[u] <= lowest[t]), t)
        groups.setdefault(top, []).append(t)
    classified = {}
    for top, members in groups.items():
        for s, records in classify_levels(lowest[top], top, m, mem_limit):
            for t in members:
                high = degree_mask(m, t + 1, m)
                classified[s, t] = sum(not rec.rep.anf & high for rec in records)
    counts = {}
    for s, t in cells:
        by = {}
        if "classify" in methods:
            by["classify"] = classified[s, t]
        if "burnside" in methods:
            by["burnside"] = burnside_count(s, t, m)
        if len(set(by.values())) > 1:
            raise InternalConsistencyError(f"methods disagree at ({s},{t},{m}): {by}")
        for method, n in by.items():
            print(f"count {s} {t} {m} {n} {method}")
        counts[s, t] = n
    return counts


def cmd_count(args) -> int:
    if args.all_cells:
        cells = [(s, t) for s in range(args.m + 1) for t in range(s, args.m + 1)]
    elif args.s is None or args.t is None:
        raise InvalidInputError("count needs --s and --t (or --all-cells)")
    else:
        cells = [(args.s, args.t)]
    methods = ("classify", "burnside") if args.method == "both" else (args.method,)
    counts = _print_counts(args.m, cells, methods, args.mem_limit << 20)
    if args.all_cells:
        print(table_render(args.m, counts))
    return 0


_DUAL_DEFAULT_CELLS = {
    6: [(2, 6), (3, 6), (4, 6), (5, 6), (6, 6),
        (0, 4), (0, 3), (0, 2), (0, 1), (0, 0)],
    7: [(5, 5), (2, 2), (5, 6), (1, 2), (5, 7), (0, 2),
        (6, 6), (1, 1), (6, 7), (0, 1), (7, 7), (0, 0)],
}


def dual_default_cells(m: int) -> List[tuple]:
    if m <= 5:
        return [(s, t) for s in range(m + 1) for t in range(s, m + 1)]
    if m in _DUAL_DEFAULT_CELLS:
        return _DUAL_DEFAULT_CELLS[m]
    raise InvalidInputError(f"no default duality cells for m={m}; pass --cells")


def cmd_dual_check(args) -> int:
    if args.cells:
        cells = []
        for part in args.cells.split(";"):
            try:
                s, t = part.split(",")
                cells.append((int(s), int(t)))
            except ValueError:
                raise InvalidInputError(
                    f"--cells wants 's,t' pairs separated by ';', got {part!r}"
                ) from None
    else:
        cells = dual_default_cells(args.m)
    counts = _print_counts(args.m, cells, ("classify",), args.mem_limit << 20)
    checked, violations = duality_check(args.m, counts)
    print(table_render(args.m, counts))
    print(f"duality pairs checked: {len(checked)}")
    for (c1, v1, c2, v2) in violations:
        print(f"VIOLATION n{c1}={v1} but n{c2}={v2}")
    if violations:
        return 1
    print("duality holds on all computed pairs")
    return 0


# -- nearbent -------------------------------------------------------------------


def cmd_nearbent(args) -> int:
    m = args.m
    if m % 2 == 0 or not 3 <= m <= MAX_M:
        raise InvalidInputError(f"nearbent needs an odd m in 3..{MAX_M}, got m={m}")
    if args.reps:
        records = read_level_file(args.reps, m)
    else:  # at m = 3, B(3,3,3): B(3,2,3) = {0} is no whole level; x1x2x3 has N = 0
        records = classify_space(3, max((m + 1) // 2, 3), m, args.mem_limit << 20)
    rows = near_bent_census(records)
    for rep, n_q, orbit in rows:
        print(f"nearbent-rep {rep.anf_hex()} {n_q} {orbit}")
    weighted = sum(n_q * orbit for _rep, n_q, orbit in rows)
    total = weighted << (m + 1)
    print(f"nearbent-valuation2-count {weighted}")
    print(f"nearbent-total {total}")
    print(
        f"near-bent functions in {m} variables: {total} "
        f"(of which {weighted} have valuation >= 2)"
    )
    return 0


# -- distance / covering radius ---------------------------------------------------


def _one_source(args, *flags: str) -> None:
    """Refuse more than one record source; --s/--t is given by either flag."""
    given = [f for f in flags if any(getattr(args, n[2:]) is not None for n in f.split("/"))]
    if len(given) > 1:
        raise InvalidInputError(f"give one record source, not {' and '.join(given)}")


def cmd_distance(args) -> int:
    if args.max_iter < 1:
        raise InvalidInputError(f"--max-iter {args.max_iter} runs no trial; need at least 1")
    if args.threshold < 0:
        raise InvalidInputError(f"--threshold {args.threshold} is below every weight; need >= 0")
    check_seed(args.seed)
    _one_source(args, "--reps", "--function", "--s/--t")
    if args.reps:
        records = read_level_file(args.reps, args.m)
    elif args.function is not None:
        if args.m is None:
            raise InvalidInputError("--function needs --m")
        try:
            anf = int(args.function, 16)
        except ValueError:
            raise InvalidInputError(
                f"--function wants an ANF in hex, got {args.function!r}"
            ) from None
        records = [ClassRecord(-1, BooleanFunction(args.m, anf=anf), 1, [])]
    elif args.s is not None and args.t is not None:
        if args.m is None:
            raise InvalidInputError("classifying first needs --m")
        check_cell(args.s, args.t, args.m)
        check_level(args.s - 1, args.r, args.m)
        records = classify_space(args.s, args.t, args.m, args.mem_limit << 20)
    else:
        raise InvalidInputError("give --reps FILE, --function ANFHEX, or --s/--t")
    reports = covering_radius_bound(
        records, args.r, args.threshold, args.max_iter, seed=args.seed
    )
    for rec, tr in zip(records, reports):
        print(
            f"distance {rec.rep.anf_hex()} {tr.best} {tr.trials} "
            f"{'hit' if tr.hit else 'miss'} {args.seed}"
        )
    trials = np.array([tr.trials for tr in reports], dtype=np.float64)
    mean, stddev = float(trials.mean()), float(trials.std())  # population formula
    print(f"aggregate {len(reports)} {mean:.2f} {stddev:.2f}")
    certified = all(tr.hit for tr in reports)
    verdict = (
        f"covering radius of RM({args.r},{records[0].m}) within the classified space "
        f"<= {args.threshold} CERTIFIED"
        if certified
        else "INCONCLUSIVE (at least one representative never hit the threshold)"
    )
    print(f"{verdict}; {len(reports)} representatives, mean trials {mean:.1f}, stddev {stddev:.2f}")
    return 0 if certified else 1


# -- stab-hist -------------------------------------------------------------------


def cmd_stab_hist(args) -> int:
    _one_source(args, "--records", "--s/--t")
    if args.records:
        records = read_level_file(args.records, args.m)
    elif args.s is not None and args.t is not None and args.m is not None:
        records = classify_space(args.s, args.t, args.m, args.mem_limit << 20)
    else:
        raise InvalidInputError("give --records FILE or --m/--s/--t")
    hist = stab_histogram(records)
    for order, count in hist.items():
        print(f"stab {order} {count}")
    print(f"total {sum(hist.values())}")
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rmclass",
        description="Classify Boolean functions modulo Reed-Muller codes under "
        "the affine group; count classes, census near-bent functions, bound "
        "covering radii.",
    )
    p.add_argument("--version", action="version", version=f"rmclass {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="output directory (default ./rmclass-runs)")
        sp.add_argument("--mem-limit", type=int, default=MEM_BUDGET >> 20,
                        help="memory budget in MiB")

    sp = sub.add_parser("classify", help="descending classification of B(s,t,m)")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--resume", action="store_true")
    sp.add_argument("--verbose", action="store_true", help="progress lines on stderr")
    common(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("count", help="class numbers by classification and/or Burnside")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--s", type=int)
    sp.add_argument("--t", type=int)
    sp.add_argument("--all-cells", action="store_true")
    sp.add_argument("--method", choices=("classify", "burnside", "both"), default="classify")
    common(sp)
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("dual-check", help="verify n(s,t,m) = n(m-t,m-s,m)")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--cells", help="semicolon-separated s,t pairs, e.g. '2,6;0,4'")
    common(sp)
    sp.set_defaults(func=cmd_dual_check)

    sp = sub.add_parser("nearbent", help="census of near-bent functions (odd m)")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--reps", help="level file with the B(3,(m+1)/2,m) classification")
    common(sp)
    sp.set_defaults(func=cmd_nearbent)

    sp = sub.add_parser("distance", help="randomized coset minimum-weight search")
    sp.add_argument("--m", type=int)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--threshold", type=int, required=True)
    sp.add_argument("--max-iter", type=int, default=MAX_ITER_DEFAULT)
    sp.add_argument("--reps", help="level file of representatives")
    sp.add_argument("--function", help="single function as ANF hex")
    sp.add_argument("--s", type=int)
    sp.add_argument("--t", type=int)
    common(sp)
    sp.add_argument("--seed", type=int, required=True, help="64-bit RNG seed")
    sp.set_defaults(func=cmd_distance)

    sp = sub.add_parser("stab-hist", help="stabilizer-order multiplicities")
    sp.add_argument("--records", help="level file")
    sp.add_argument("--m", type=int)
    sp.add_argument("--s", type=int)
    sp.add_argument("--t", type=int)
    common(sp)
    sp.set_defaults(func=cmd_stab_hist)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.mem_limit < 0:
            raise InvalidInputError(f"--mem-limit {args.mem_limit} is below 0 MiB")
        return args.func(args)
    except RmclassError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
