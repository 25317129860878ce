"""Command-line front end: classify, count, dual-check, nearbent, distance,
stab-hist.

classify writes its level files and a flat key=value manifest into --out;
the other subcommands print their results.  Result files contain no
timestamps, so re-running with the same manifest settings reproduces them
byte for byte.  Long classifications checkpoint after every parent
representative and can be resumed with --resume.

The one writer and the one parser of record files live here.  A level file
is a `# rmclass m=<m> level=<L>` header, one line per record and a
`# complete N` trailer; the checkpoint is the level file being written.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from itertools import groupby
from math import comb
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .bfcore import BooleanFunction
from .bits import degree_mask, space_dimension
from .census import burnside_count, duality_check, near_bent_census, table_render
from .classify import (
    ClassRecord,
    check_memory,
    classify_levels,
    classify_space,
    descend_iter,
    level_mass,
    stab_histogram,
    top_record,
    verify_level_mass,
)
from .covrad import check_level, covering_radius_bound
from .errors import (
    DependencyMissingError,
    InternalConsistencyError,
    InvalidInputError,
    RmclassError,
)


def _out_dir(args) -> Path:
    path = Path(args.out or "rmclass-runs")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(path: Path, pairs: dict) -> None:
    """Written beside the manifest and renamed over it, so a crash mid-write
    leaves the previous manifest for --resume."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        for k, v in pairs.items():
            fh.write(f"{k}={v}\n")
    os.replace(tmp, path)


def _read_manifest(path: Path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and "=" in line:
                k, v = line.split("=", 1)
                out[k] = v
    return out


def _check_cell(s: int, t: int, m: int) -> None:
    """The cell rule of every command that takes s and t: 0 <= s <= t <= m."""
    if not (0 <= s <= t <= m):
        raise InvalidInputError(f"cell ({s},{t}) outside the m={m} triangle")


def _log(args, msg: str) -> None:
    if args.verbose:
        print(msg, file=sys.stderr, flush=True)


# -- classify ------------------------------------------------------------------


def _header(m: int, level: int) -> str:
    return f"# rmclass m={m} level={level}\n"


def _record_lines(records: Sequence[ClassRecord]) -> Iterator[str]:
    return (rec.to_line() + "\n" for rec in records)


class _Checkpoint:
    """The level file being written: its header, then each parent's children
    as the parent finishes; when the level is done, the `# complete N`
    trailer and a rename onto the level file.

    One handle stays open per level.  Each parent's block is flushed as it is
    written, so it reaches the OS before the next parent starts: a crash of
    the process loses at most the block being written, which load cuts off.
    There is no fsync, so a power cut is not covered.
    """

    def __init__(self, path: Path):
        self.path = path
        self._fh = None

    def load(self, parents: Sequence[ClassRecord]) -> Optional[List[List[ClassRecord]]]:
        """The children of parents[0], parents[1], ... that the file holds
        complete; None, and the level restarts, if the file is missing, its
        header is not the level below the parents', a complete line does not
        parse, or a block's parent is not the next parent.

        A child's part above degree r is its parent's representative, which
        groups the lines into blocks.  A block is complete when its mass, the
        sum of parent order / child order, is 2^C(m,r); the first one short
        of it is the torn tail.  The file is cut after the last complete
        block, trailer and all, so that appends go on from there.
        """
        m, r = parents[0].m, parents[0].level
        header = _header(m, r - 1).encode()
        data = self.path.read_bytes() if self.path.exists() else b""
        if not data.startswith(header):
            return None
        lines, pos = [], len(header)  # (record, file offset after its line)
        for raw in data[pos:].splitlines(keepends=True):
            if not raw.endswith(b"\n") or raw.startswith(b"# complete"):
                break
            pos += len(raw)
            try:
                lines.append((ClassRecord.from_line(m, raw.decode()), pos))
            except (ValueError, InvalidInputError):
                return None
        blocks, keep = [], len(header)
        high, mass = degree_mask(m, r + 1, m), 1 << comb(m, r)
        for j, (part, block) in enumerate(groupby(lines, lambda ln: ln[0].rep.anf & high)):
            block = list(block)
            if j == len(parents) or part != parents[j].rep.anf:
                return None
            if sum(parents[j].stab_order // rec.stab_order for rec, _ in block) != mass:
                break
            blocks.append([rec for rec, _ in block])
            keep = block[-1][1]
        if keep < len(data):
            os.truncate(self.path, keep)
        return blocks

    def start(self, m: int, level: int) -> None:
        self.close()
        self._fh = open(self.path, "w")
        self._write([_header(m, level)])

    def parent_done(self, idx: int, children: Sequence[ClassRecord]) -> None:
        # idx is not written: load finds each block's parent from its records
        self._write(_record_lines(children))

    def finish(self, count: int, path: Path) -> None:
        """Append the trailer and rename the file onto path."""
        self._write([f"# complete {count}\n"])
        self.close()
        os.replace(self.path, path)

    def _write(self, lines: Iterable[str]) -> None:
        if self._fh is None:  # resuming: load has cut the file to its last block
            self._fh = open(self.path, "a")
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
        tmp._write(_record_lines(records))
        tmp.finish(len(records), path)
    finally:
        tmp.close()


def read_level_file(path) -> List[ClassRecord]:
    """Records of a level file.  A missing file raises DependencyMissingError;
    a malformed one, or one whose records do not cover a whole space,
    InvalidInputError naming the file and line.

    The records of a complete level L cover all of B(L+1,t,m): their mass,
    the sum of |AGL(m,2)| / stab_order, is 2^dim B(L+1,t,m) for some t.  A
    file with a record missing, or an order changed, fails that check unless
    the change happens to keep the mass."""
    records: List[ClassRecord] = []
    lineno = 1
    try:
        with open(path) as fh:
            header = fh.readline()
            if not header.startswith("# rmclass m="):
                raise InvalidInputError("not a level file")
            m = int(header.split()[2][2:])
            for lineno, line in enumerate(fh, 2):
                if line.startswith("# complete"):
                    if int(line.split()[2]) != len(records):
                        raise InvalidInputError(f"{line.strip()!r} after {len(records)} records")
                    mass, level = level_mass(records), records[0].level
                    if all(mass != 1 << space_dimension(m, level + 1, t)
                           for t in range(level + 1, m + 1)):
                        raise InvalidInputError(
                            f"mass {mass} of the level-{level} records is not 2^dim "
                            f"B({level + 1},t,{m}) for any t (records missing?)"
                        )
                    return records
                records.append(ClassRecord.from_line(m, line))
    except FileNotFoundError:
        raise DependencyMissingError(f"{path}: no such level file") from None
    except (OSError, ValueError, IndexError, InvalidInputError, InternalConsistencyError) as err:
        raise InvalidInputError(f"{path}:{lineno}: {err}") from None
    raise InvalidInputError(f"{path}: missing completion marker (truncated run?)")


def cmd_classify(args) -> int:
    m, s, t = args.m, args.s, args.t
    _check_cell(s, t, m)
    target = s - 1
    check_memory(m, t, target, args.mem_limit << 20)
    out = _out_dir(args)
    manifest_path = out / "manifest.txt"
    ckpt = _Checkpoint(out / "checkpoint.txt")

    settings = {
        "artifact": f"rmclass {__version__}",
        "command": "classify",
        "m": m, "s": s, "t": t,
        "mem_limit_mib": args.mem_limit,
    }
    records = [top_record(m, t)]
    level = t
    done_levels = {}
    manifest = dict(settings)
    if args.resume and manifest_path.exists():
        old = _read_manifest(manifest_path)
        for key in ("command", "m", "s", "t"):
            if old.get(key) != str(settings[key]):
                raise InvalidInputError(
                    f"--resume: manifest mismatch on {key} ({old.get(key)} vs {settings[key]})"
                )
        for r in range(t - 1, target - 1, -1):
            path = out / f"level_{r}.txt"
            if path.exists():
                try:
                    loaded = read_level_file(path)
                    verify_level_mass(loaded, t)  # this run's t, not just some t
                except (InvalidInputError, InternalConsistencyError):
                    break
                records = loaded
                level = r
                done_levels[r] = len(loaded)
            else:
                break
        # the counts of the levels loaded back come from the run that made them
        loaded_keys = tuple(f"level_{r}_" for r in done_levels)
        manifest.update((k, v) for k, v in old.items() if k.startswith(loaded_keys))
        _log(args, f"resuming at level {level} with {len(records)} records")

    manifest["started"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    manifest["status"] = "running"
    _write_manifest(manifest_path, manifest)

    try:
        while level > target:
            parents = records
            blocks = ckpt.load(parents) if args.resume else None
            if blocks:
                _log(args, f"checkpoint: level {level - 1} resumes at parent {len(blocks)}")
            elif blocks is None:
                blocks = []
                ckpt.start(m, level - 1)
            out_records = [rec for children in blocks for rec in children]
            inherited = sum(map(_count_inherited, parents, blocks))
            t0 = time.time()
            todo = parents[len(blocks):]  # empty once the checkpoint holds every parent
            for idx, parent, children in descend_iter(todo, t) if todo else ():
                real_idx = len(blocks) + idx
                out_records.extend(children)
                inherited += _count_inherited(parent, children)
                ckpt.parent_done(real_idx, children)
                _log(
                    args,
                    f"level {level - 1}: parent {real_idx + 1}/{len(parents)}, "
                    f"{len(out_records)} records, {time.time() - t0:.1f}s",
                )
            verify_level_mass(out_records, t)
            records = out_records
            level -= 1
            done_levels[level] = len(records)
            manifest[f"level_{level}_parents"] = len(parents)
            manifest[f"level_{level}_count"] = len(records)
            manifest[f"level_{level}_inherited"] = inherited
            # the manifest first, so that every level file in place has its keys
            _write_manifest(manifest_path, manifest)
            ckpt.finish(len(records), out / f"level_{level}.txt")
    finally:
        ckpt.close()  # an unfinished level keeps its file for --resume

    manifest["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    manifest["status"] = "complete"
    _write_manifest(manifest_path, manifest)
    print(f"classified B({s},{t},{m}) down to level {target}")
    for r in sorted(done_levels, reverse=True):
        print(f"  level {r}: {done_levels[r]} classes")
    print(f"records in {out}")
    return 0


def _count_inherited(parent: ClassRecord, children: Sequence[ClassRecord]) -> int:
    """Children whose stabilizer is the parent's: its orbits of size 1."""
    return sum(child.stab_order == parent.stab_order for child in children)


# -- count / dual-check --------------------------------------------------------


def _print_counts(m: int, cells, methods, mem_limit: int) -> Dict[Tuple[int, int], int]:
    """Print `count s t m n method` for every cell and method, and return
    {(s, t): n}.  Every cell must satisfy 0 <= s <= t <= m, and every
    descent's memory is checked, before the first descent starts;
    classification descends once per t, down to the lowest s asked for."""
    lowest: Dict[int, int] = {}
    for s, t in cells:
        _check_cell(s, t, m)
        if "classify" in methods:
            lowest[t] = min(s, lowest.get(t, s))
    for t, s_low in lowest.items():
        check_memory(m, t, s_low - 1, mem_limit)
    classified = {}
    for t, s_low in lowest.items():
        for s, records in classify_levels(s_low, t, m, mem_limit):
            classified[s, t] = len(records)
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
    records = read_level_file(args.reps) if args.reps else None
    rows = near_bent_census(args.m, records, args.mem_limit << 20)
    for rep, n_q, orbit in rows:
        print(f"nearbent-rep {rep.anf_hex()} {n_q} {orbit}")
    weighted = sum(n_q * orbit for _rep, n_q, orbit in rows)
    total = weighted << (args.m + 1)
    print(f"nearbent-valuation2-count {weighted}")
    print(f"nearbent-total {total}")
    print(
        f"near-bent functions in {args.m} variables: {total} "
        f"(of which {weighted} have valuation >= 2)"
    )
    return 0


# -- distance / covering radius ---------------------------------------------------


def cmd_distance(args) -> int:
    if args.reps:
        records = read_level_file(args.reps)
        if args.m is not None and records[0].m != args.m:
            raise InvalidInputError(f"records are for m={records[0].m}, not m={args.m}")
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
        _check_cell(args.s, args.t, args.m)
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
    if args.records:
        records = read_level_file(args.records)
    elif args.s is not None and args.t is not None and args.m is not None:
        _check_cell(args.s, args.t, args.m)
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

    def common(sp, seed_required=False):
        sp.add_argument("--out", help="output directory (default ./rmclass-runs)")
        sp.add_argument("--mem-limit", type=int, default=2048, help="memory budget in MiB")
        if seed_required:
            sp.add_argument("--seed", type=int, required=True, help="64-bit RNG seed")

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
    sp.add_argument("--max-iter", type=int, default=2048)
    sp.add_argument("--reps", help="level file of representatives")
    sp.add_argument("--function", help="single function as ANF hex")
    sp.add_argument("--s", type=int)
    sp.add_argument("--t", type=int)
    common(sp, seed_required=True)
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
        return args.func(args)
    except RmclassError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
