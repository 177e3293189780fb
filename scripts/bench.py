#!/usr/bin/env python3
"""Write BENCH_<N>.json at the root of the repository: the benchmark's
numbers for the tree it runs in.

    python3 scripts/bench.py --pr N

For each workload that BENCHMARK.json declares, at seeds 7 and 11, the
script runs perfbench/run.py as a subprocess twice: with --trace 0 for the
end-to-end metrics and with --trace 1 for the per-layer breakdown, whose
exact counts host speed cannot move. Each run lasts the run_seconds that
BENCHMARK.json declares, one after another (about 9 minutes at 40 s). The
file keeps every run's result line and the election_s median and range the
untraced run prints, plus the tier-1 suite's wall time, the commit and the
interpreter. The exit code is 1 when a run or the suite fails; the file is
written either way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (7, 11)
ELECTION_S = re.compile(r"election_s: (\S+) s \(median; range (\S+) \.\. (\S+) s\)")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def bench_run(workload: str, seed: int, trace: int, seconds: float) -> dict:
    """One perfbench/run.py run: its exit code and result line, and for an
    untraced run the median and range of election_s."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    run = {"workload": workload, "seed": seed, "trace": trace, "exit_code": proc.returncode,
           "result": json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None}
    m = ELECTION_S.search(proc.stdout)
    if m:
        run["election_s"] = dict(zip(("median", "min", "max"), map(float, m.groups())))
    if proc.returncode != 0:
        run["stderr"] = proc.stderr[-2000:]
    return run


def tier1() -> dict:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q"], cwd=ROOT,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(time.perf_counter() - start, 2), "exit_code": proc.returncode,
            "summary": lines[-1] if lines else ""}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pr", type=int, required=True, help="N of the BENCH_<N>.json to write")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    runs = []
    for wl in spec["workloads"]:
        for seed in SEEDS:
            for trace in (0, 1):
                run = bench_run(wl["name"], seed, trace, seconds)
                print(f"{wl['name']} seed {seed} trace {trace}: exit {run['exit_code']}",
                      flush=True)
                runs.append(run)
    suite = tier1()
    print(f"tier-1: {suite['summary']} ({suite['wall_s']} s)")
    report = {
        "pr": args.pr,
        "commit": git("rev-parse", "HEAD"),
        "tracked_changes": bool(git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "run_seconds": seconds,
        "tier1": suite,
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.name}")
    ok = suite["exit_code"] == 0 and all(r["exit_code"] == 0 for r in runs)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
