"""Election benchmark for votesim.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload dpol-ring --seed 7 --seconds 40 --trace 0

Runs one workload as a closed loop in this process: one election after
another, no threads, until --seconds have been measured. Every election is
checked for correctness. With --trace 0 it reports the end-to-end metrics;
with --trace 1 it alternates untraced and traced elections on the same
inputs and reports the per-layer metrics. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 only when every election passed the gate. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def load_program() -> None:
    """Put the checkout's own sources first on sys.path and import them."""
    if not (SRC / "votesim" / "__init__.py").is_file():
        raise SystemExit(f"error: votesim sources not found under {SRC}")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import votesim

    if Path(votesim.__file__).resolve().parent != SRC / "votesim":
        raise SystemExit(f"error: imported votesim from {votesim.__file__}, not {SRC}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: elections.DEFAULT_SEED)")
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up (import, inputs, warm-up) and exit; used to time set-up")
    return p.parse_args(argv)


def main(argv: list[str] | None = None, pins: dict | None = None) -> int:
    args = parse_args(argv)
    load_program()
    import elections
    import measure

    if args.workload not in elections.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(elections.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = elections.DEFAULT_SEED if args.seed is None else args.seed
    if args.setup_probe:
        measure.setup_probe(elections.WORKLOADS[args.workload], seed)
        return 0
    if pins is None:
        pins = elections.load_pins()
    return measure.run(args.workload, seed, args.seconds, bool(args.trace), pins)


if __name__ == "__main__":
    raise SystemExit(main())
