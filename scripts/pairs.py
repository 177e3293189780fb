#!/usr/bin/env python3
"""Compare the working tree with a committed revision on one benchmark workload.

    python3 scripts/pairs.py REV --workload W [--seed S] [--pairs N] [--seconds T]

Extracts REV with ``git archive`` into a temporary directory (no worktree,
nothing under perfbench/ is edited), then runs ``perfbench/run.py --trace 0``
N times in each tree, alternating: REV first, then the working tree, in each
pair. For each end-to-end metric that BENCHMARK.json declares it prints the
median on each side, the change/parent ratio of the medians and the number of
pairs the change won (a tie wins for neither). Exits 1 when any run is not
``correct``, 2 when git cannot extract REV, else 0.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def result_line(stdout: str) -> dict | None:
    """The JSON result line that ends a perfbench/run.py report, or None."""
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        return None
    return json.loads(lines[-1])


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        print(proc.stderr[-2000:], file=sys.stderr)
    return result_line(proc.stdout)


def summary(pairs: list[tuple[dict | None, dict | None]],
            better: dict[str, str]) -> tuple[list[str], int]:
    """Report lines and exit code for (parent, change) result lines of runs
    in pairs; ``better`` maps each metric to "lower" or "higher"."""
    failed = sum(1 for pair in pairs for res in pair if res is None or not res["correct"])
    lines = [f"{len(pairs)} pairs, {failed} runs not correct"]
    whole = [(p, c) for p, c in pairs if p is not None and c is not None]
    for name, direction in better.items():
        got = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in whole
               if name in p["metrics"] and name in c["metrics"]]
        if not got:
            lines.append(f"{name}: no values")
            continue
        parent = statistics.median(p for p, _ in got)
        change = statistics.median(c for _, c in got)
        won = sum(1 for p, c in got if (c < p if direction == "lower" else c > p))
        ratio = f"{change / parent:.4f}" if parent else "n/a"
        lines.append(f"{name}: parent {parent:.6g}, change {change:.6g}, "
                     f"change/parent {ratio}, change won {won} of {len(got)}")
    return lines, int(failed > 0)


def extract(rev: str, into: Path) -> bool:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True)
    if archive.returncode:
        print(archive.stderr.decode(errors="replace").strip(), file=sys.stderr)
        return False
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return True


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="the parent revision")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40.0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    pairs = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        parent_tree = Path(tmp)
        if not extract(args.rev, parent_tree):
            return 2
        for i in range(args.pairs):
            pair = tuple(bench(tree, args.workload, args.seed, args.seconds)
                         for tree in (parent_tree, ROOT))
            pairs.append(pair)
            shown = ["failed" if res is None else
                     f"{res['metrics'].get('election_ref', {}).get('value', float('nan')):.4f}"
                     for res in pair]
            print(f"pair {i + 1}: election_ref parent {shown[0]}, change {shown[1]}",
                  flush=True)
    lines, code = summary(pairs, better)
    print(f"{args.workload} seed {args.seed}, {args.seconds:g} s runs, parent {args.rev}")
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
