#!/usr/bin/env python3
"""Say which benchmark pins moved: perfbench/pins.json against a committed copy.

    python3 scripts/pindiff.py [REV] [--expect WORKLOAD[,WORKLOAD...]]

Reads the pins at REV (default HEAD) with ``git show REV:perfbench/pins.json``
and the pins in the working tree. For each workload and run seed it prints
the elections whose trace digest changed and every exact count that changed,
as old -> new, and an election that is in only one of the two files. It exits
1 when a workload outside --expect moved, else 0 (2 when git cannot show the
file). It only reads perfbench/.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINS = "perfbench/pins.json"


def election_moves(old: dict | None, new: dict | None) -> list[str]:
    """What moved in one election's pin: its digest and each exact count."""
    if old is None or new is None:
        return ["added" if old is None else "removed"]
    moves = []
    if old["digest"] != new["digest"]:
        moves.append(f"digest {old['digest'][:12]} -> {new['digest'][:12]}")
    for name in sorted(old["counts"].keys() | new["counts"].keys()):
        was, now = old["counts"].get(name), new["counts"].get(name)
        if was != now:
            moves.append(f"{name} {was} -> {now}")
    return moves


def report(old: dict, new: dict) -> list[str]:
    """Print what moved, per workload and run seed; return the workloads that moved."""
    moved = []
    for workload in sorted(old.keys() | new.keys()):
        was, now = old.get(workload, {}), new.get(workload, {})
        by_run: dict[int, dict[str, list[str]]] = {}  # run seed -> election -> moves
        for seed in sorted(was.keys() | now.keys(), key=int):
            run_seed = (was.get(seed) or now[seed])["run_seed"]
            by_run.setdefault(run_seed, {})[seed] = election_moves(was.get(seed), now.get(seed))
        if not any(any(e.values()) for e in by_run.values()):
            print(f"{workload}: unchanged")
            continue
        moved.append(workload)
        for run_seed, elections in sorted(by_run.items()):
            changed = {seed: moves for seed, moves in elections.items() if moves}
            print(f"{workload} run seed {run_seed}: {len(changed)} of {len(elections)} "
                  "elections moved")
            for seed, moves in changed.items():
                print(f"  election {seed}: {'; '.join(moves)}")
    return moved


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Say which benchmark pins moved.")
    ap.add_argument("rev", nargs="?", default="HEAD", help="the revision to compare with")
    ap.add_argument("--expect", default="", help="comma-separated workloads meant to move")
    args = ap.parse_args(argv)
    shown = subprocess.run(["git", "show", f"{args.rev}:{PINS}"], cwd=ROOT,
                           capture_output=True, text=True)
    if shown.returncode:
        print(shown.stderr.strip(), file=sys.stderr)
        return 2
    moved = report(json.loads(shown.stdout), json.loads((ROOT / PINS).read_text()))
    unexpected = sorted(set(moved) - set(filter(None, args.expect.split(","))))
    if unexpected:
        print(f"moved outside --expect: {', '.join(unexpected)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
