"""Workloads, their generated elections, and the correctness gate.

One election is what ``votesim run`` does minus the disk writes:
``scenarios.run`` on a scenario, ``analysis.classify`` on its trace, and
``Trace.to_jsonl`` plus a SHA-256 of the rendered trace. The benchmark
derives every election seed and choice list from its own workload seed;
the program only receives the finished scenarios.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from votesim import analysis, ballot, cli, scenarios
from votesim.simnet import FaultModel

DEFAULT_SEED = 7
HELD_OUT_SEED = 11
# Distinct elections per run. Each is its own draw of the simulated work (the
# proof-of-work attempts vary most), so a run's median averages over many
# draws. Election j of a run repeats election j - INPUTS, whose trace digest
# it must reproduce exactly.
INPUTS = 16
PINS_PATH = Path(__file__).resolve().parent / "pins.json"

# Counts that are a pure function of the election input. The traced run
# checks them against pins.json; a mismatch means the simulated work changed.
EXACT_COUNTS = (
    "simnet.events",
    "simnet.messages",
    "simnet.bytes",
    "group.exp.calls",
    "proofs.verify_ballot.calls",
    "chainvote.pow_attempts",
    "wire.digest.calls",
)


@dataclass(frozen=True)
class Workload:
    name: str
    protocol: str
    size: dict  # Scenario fields of the timed elections
    warmup: dict  # Scenario fields of the small untimed warm-up election
    # Spans that must be called on this workload; a zero count fails the run.
    expected_calls: tuple[str, ...]


_MESSAGING = ("simnet.run", "simnet.send", "simnet.to_jsonl", "wire.dumps", "wire.loads",
              "wire.digest", "handler", "analysis.classify")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dpol-ring", "dpol",
            dict(n=576, k=1),
            dict(n=16, k=1),
            _MESSAGING,
        ),
        Workload(
            "helios-bulletin", "helios",
            dict(n=32, trustees=3, t=2),
            dict(n=4, trustees=3, t=2),
            _MESSAGING + ("group.exp", "group.is_element", "group.hash_scalar",
                          "wire.ser_ints", "proofs.verify_ballot", "proofs.prove_vector",
                          "elgamal.combine", "elgamal.partial_decrypt",
                          "elgamal.dlog_recover", "elgamal.threshold_keygen"),
        ),
        Workload(
            "chainvote-pow", "chainvote",
            dict(n=32, degree=4, difficulty=8, block_capacity=32, issuer_bits=768),
            dict(n=8, degree=4, difficulty=4, block_capacity=8, issuer_bits=512),
            _MESSAGING + ("wire.ser_ints", "chainvote.mine_block", "chainvote.tx_serialize",
                          "chainvote.verify_chain", "chainvote.tally_chain",
                          "chainvote.issue_tokens", "blindsig.verify_token",
                          "blindsig.keygen"),
        ),
    )
}


def election_seed(workload: str, run_seed: int, index: int) -> int:
    tag = f"perfbench|{workload}|{run_seed}|{index % INPUTS}".encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:4], "big")


def make_scenario(workload: Workload, seed: int, fields: dict) -> scenarios.Scenario:
    """An honest d=2 scenario with max_delay 3 and choices drawn from seed."""
    rng = random.Random(seed)
    choices = [rng.randrange(2) for _ in range(fields["n"])]
    sc = scenarios.Scenario(workload.protocol, d=2, seed=seed, choices=choices,
                            faults=FaultModel(max_delay=3), **fields)
    scenarios.validate(sc)
    return sc


def make_inputs(workload: Workload, run_seed: int) -> list[scenarios.Scenario]:
    return [make_scenario(workload, election_seed(workload.name, run_seed, j), workload.size)
            for j in range(INPUTS)]


def warmup_scenario(workload: Workload, run_seed: int) -> scenarios.Scenario:
    return make_scenario(workload, election_seed(workload.name + "/warmup", run_seed, 0),
                         workload.warmup)


@dataclass
class Election:
    outcome: object
    trace: object
    row: object
    digest: str


def run_election(sc: scenarios.Scenario) -> Election:
    """The timed operation: simulate, classify, render and hash the trace."""
    outcome, trace = scenarios.run(sc)
    row = analysis.classify(trace, outcome.roles)
    digest = hashlib.sha256(trace.to_jsonl().encode()).hexdigest()
    return Election(outcome, trace, row, digest)


def expected_tally(sc: scenarios.Scenario) -> tuple[int, ...]:
    return ballot.histogram(scenarios.resolve_choices(sc), sc.d)


def check(sc: scenarios.Scenario, el: Election, pins: dict) -> list[str]:
    """Correctness problems of one election; empty when it passes."""
    problems = []
    if el.outcome.completion != 1.0:
        problems.append(f"completion {el.outcome.completion} != 1.0")
    want = expected_tally(sc)
    wrong = {pid: t for pid, t in el.outcome.tallies.items() if t != want}
    if wrong:
        pid, got = min(wrong.items())
        problems.append(f"{len(wrong)} tallies differ from {want}, e.g. peer {pid}: {got}")
    if el.row.as_tuple() != cli.EXPECTED_TABLE1[sc.protocol]:
        problems.append(f"taxonomy row {el.row.as_tuple()} != "
                        f"{cli.EXPECTED_TABLE1[sc.protocol]}")
    pin = pins.get(str(sc.seed))
    if pin is not None and pin["digest"] != el.digest:
        problems.append(f"trace digest {el.digest} != pinned {pin['digest']}")
    return problems


def load_pins() -> dict:
    """Pinned digests and exact counts: {workload: {election seed: pin}}."""
    return json.loads(PINS_PATH.read_text())
