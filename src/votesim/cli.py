"""Command-line entry point.

Three commands:

* ``run --scenario file [--seed N] [--out DIR]`` runs one experiment and
  writes trace.jsonl, outcome.json and report.csv. Exit 0 on a complete
  run, 2 on an incomplete one, 1 on a configuration error (a ConfigError
  naming the field; nothing is written).
* ``table1 [--seed N] [--out DIR]`` runs the canonical honest scenario of
  every protocol, classifies the traces, prints the five-row taxonomy
  table and fails (nonzero) on any mismatch with the expected rows.
* ``sweep --protocol P --n LIST --repeats R [--seed N] [--out DIR]``
  measures message counts across sizes and fits the scaling exponent.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import analysis, scenarios
from .analysis import TaxonomyRow, UnclassifiableTrace, classify, static_paper_row
from .simnet import ConfigError, ScenarioError as SimScenarioError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INCOMPLETE = 2

# The reference classification (paper-based voting is a static row).
EXPECTED_TABLE1: dict[str, tuple[str, str, str]] = {
    "paper-based": (analysis.SPEC_NONE_FLEXIBLE, analysis.TOPO_DISTRIBUTED, "all"),
    "helios": (analysis.SPEC_SELECTED, analysis.TOPO_CENTRALISED, "verification"),
    "spp": (analysis.SPEC_RANDOM, analysis.TOPO_TREE, "aggregation"),
    "dpol": (analysis.SPEC_NONE, analysis.TOPO_RING, "all"),
    "chainvote": (analysis.SPEC_NONE_FLEXIBLE, analysis.TOPO_DISTRIBUTED, "all"),
}

TABLE1_ORDER = ("paper-based", "helios", "spp", "dpol", "chainvote")


def _sweep_scenario(protocol: str, n: int, seed: int) -> scenarios.Scenario:
    """The canonical scenario at size n; chainvote mines easier blocks that
    hold every transaction."""
    sc = replace(scenarios.canonical_scenario(protocol, seed), n=n)
    if protocol == "chainvote":
        sc = replace(sc, difficulty=6, block_capacity=max(n, 1))
    scenarios.validate(sc)
    return sc


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _classify_row(protocol: str, trace, roles) -> TaxonomyRow:
    """The run's taxonomy row; every cell reads "unclassifiable" when the
    trace cannot be classified."""
    try:
        return classify(trace, roles)
    except UnclassifiableTrace:
        return TaxonomyRow(protocol, *["unclassifiable"] * 3)


def cmd_run(args) -> int:
    sc = scenarios.from_file(args.scenario)
    if args.seed is not None:
        sc.seed = args.seed
    out = Path(args.out)
    outcome, trace = scenarios.run(sc)
    row = _classify_row(sc.protocol, trace, outcome.roles)
    messages, nbytes = trace.message_count(), trace.byte_count()
    _write_text(out / "trace.jsonl", trace.to_jsonl())
    _write_text(
        out / "outcome.json",
        json.dumps(
            {
                "scenario": sc.to_obj(),
                "outcome": outcome.to_obj(),
                "messages": messages,
                "bytes": nbytes,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
    )
    with (out / "report.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["protocol", "n", "seed", "completion", "messages", "bytes",
             "specialisation", "topology", "distributed_phases"]
        )
        w.writerow(
            [
                sc.protocol, sc.n, sc.seed, f"{outcome.completion:.4f}",
                messages, nbytes, *row.as_tuple(),
            ]
        )
    print(f"completion {outcome.completion:.3f}, "
          f"{messages} messages, artifacts in {out}/")
    return EXIT_OK if outcome.completion == 1.0 else EXIT_INCOMPLETE


def table1_rows(seed: int) -> list[TaxonomyRow]:
    """Classify the canonical honest run of every simulated protocol."""
    rows = [static_paper_row()]
    for protocol in TABLE1_ORDER[1:]:
        sc = scenarios.canonical_scenario(protocol, seed)
        outcome, trace = scenarios.run(sc)
        rows.append(_classify_row(protocol, trace, outcome.roles))
    return rows


def render_table1(rows: list[TaxonomyRow]) -> str:
    headers = ("Protocol", "Degree of Specialisation", "Topology", "Distributed Phases")
    cells = [headers] + [
        (r.protocol, r.specialisation, r.topology, r.distributed_phases) for r in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(4)]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def cmd_table1(args) -> int:
    rows = table1_rows(args.seed)
    text = render_table1(rows)
    print(text, end="")
    out = Path(args.out)
    _write_text(out / "table1.txt", text)
    with (out / "table1.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["protocol", "specialisation", "topology", "distributed_phases"])
        for r in rows:
            w.writerow([r.protocol, r.specialisation, r.topology, r.distributed_phases])
    bad = [
        r.protocol
        for r in rows
        if r.as_tuple() != EXPECTED_TABLE1[r.protocol]
    ]
    if bad:
        print(f"MISMATCH against the reference classification: {', '.join(bad)}")
        return EXIT_CONFIG
    print("all rows match the reference classification")
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        ns = [int(x) for x in args.n.split(",") if x.strip()]
    except ValueError:
        raise ConfigError("--n: must be a comma-separated list of integers") from None
    if len(set(ns)) < 3:
        raise ConfigError("--n: need at least 3 distinct values")
    if args.repeats < 1:
        raise ConfigError("--repeats: must be >= 1")
    runs = []
    records = []
    for n in sorted(set(ns)):
        for rep in range(args.repeats):
            sc = _sweep_scenario(args.protocol, n, args.seed + rep)
            _, trace = scenarios.run(sc)
            runs.append((n, trace))
            records.append((args.protocol, n, sc.seed, trace.message_count(),
                            trace.byte_count()))
    fit = analysis.fit_complexity(runs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "sweep.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["protocol", "n", "seed", "messages", "bytes"])
        w.writerows(records)
        w.writerow([])
        w.writerow(["exponent", f"{fit.exponent:.4f}", "r2", f"{fit.r2:.5f}"])
    print(f"{args.protocol}: exponent {fit.exponent:.3f} (r2 {fit.r2:.4f}) "
          f"over n = {[p[0] for p in fit.points]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="votesim",
        description="Deterministic online-voting protocol simulator and classifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default="out")
    p_run.set_defaults(fn=cmd_run)

    p_t1 = sub.add_parser("table1", help="reproduce the protocol taxonomy table")
    p_t1.add_argument("--seed", type=int, default=1)
    p_t1.add_argument("--out", default="out")
    p_t1.set_defaults(fn=cmd_table1)

    p_sw = sub.add_parser("sweep", help="message-complexity sweep over n")
    p_sw.add_argument("--protocol", required=True)
    p_sw.add_argument("--n", required=True, help="comma-separated sizes")
    p_sw.add_argument("--repeats", type=int, default=1)
    p_sw.add_argument("--seed", type=int, default=1)
    p_sw.add_argument("--out", default="out")
    p_sw.set_defaults(fn=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, SimScenarioError, analysis.AnalysisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
