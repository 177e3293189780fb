"""The measuring loops, the metrics they derive and the result line."""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import elections
import layers

SETUP_PROBES = 5
RUN_PY = Path(__file__).resolve().parent / "run.py"

# The reference workload: standard library only (JSON, SHA-256, 255-bit modular
# exponentiation, a heap), so no change to votesim changes its speed. The host's
# speed drifts by tens of percent within minutes; timing the reference before
# and after each election and dividing removes much of that drift.
_REF_PRIME = (1 << 255) - 19
_REF_MSG = {"t": "map", "r": 3, "m": {str(i): [i, i + 1] for i in range(24)}}


class Gate:
    """Counts elections attempted and failed, reporting each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAIL {label}: {problem}", file=sys.stderr)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall seconds of fresh interpreters that import, build inputs and warm up."""
    cmd = [sys.executable, str(RUN_PY), "--setup-probe", "--workload", workload,
           "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def setup_probe(wl: elections.Workload, seed: int) -> None:
    elections.make_inputs(wl, seed)
    elections.run_election(elections.warmup_scenario(wl, seed))


def timed(sc) -> tuple[elections.Election | None, float, list[str]]:
    """Run one election after a full collection: (election or None, seconds, problems)."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        el = elections.run_election(sc)
    except Exception:  # a crashing election is a failed election, not a crashed benchmark
        return None, time.perf_counter() - t0, [traceback.format_exc()]
    return el, time.perf_counter() - t0, []


def _reference_once() -> float:
    t0 = time.perf_counter()
    digest, acc, heap = hashlib.sha256(), 3, []
    for i in range(400):
        data = json.dumps(_REF_MSG, sort_keys=True, separators=(",", ":")).encode()
        digest.update(data)
        json.loads(data)
        acc = pow(acc + i, _REF_PRIME - 2, _REF_PRIME)
        heapq.heappush(heap, (i * 7919 % 1009, i))
    return time.perf_counter() - t0


def reference_s() -> float:
    """Seconds of the reference workload, best of three."""
    return min(_reference_once() for _ in range(3))


def _keep_going(loop_start: float, seconds: float, spent: list[float]) -> bool:
    # Start another election only if it should end within half an election
    # of the deadline, so a run measures close to --seconds.
    elapsed = time.perf_counter() - loop_start
    return not spent or elapsed + 0.5 * statistics.median(spent) < seconds


def untraced_loop(wl: elections.Workload, seed: int, seconds: float, pins: dict,
                  gate: Gate) -> list[tuple[float, int, float]]:
    """Closed loop of untraced elections.

    Returns (seconds, trace events, reference seconds) of each election that
    ran; the reference is the mean of the timings just before and just after.
    """
    inputs = elections.make_inputs(wl, seed)
    samples: list[tuple[float, int, float]] = []
    spent: list[float] = []
    first_digest: dict[int, str] = {}
    loop_start = time.perf_counter()
    ref_before = reference_s()
    while _keep_going(loop_start, seconds, spent):
        j = len(spent)
        sc = inputs[j % len(inputs)]
        t0 = time.perf_counter()
        el, dt, problems = timed(sc)
        ref_after = reference_s()
        ref, ref_before = (ref_before + ref_after) / 2, ref_after
        spent.append(time.perf_counter() - t0)
        if el is not None:
            problems = elections.check(sc, el, pins)
            earlier = first_digest.setdefault(j % len(inputs), el.digest)
            if earlier != el.digest:
                problems.append(f"trace digest {el.digest} differs from the same input's "
                                f"earlier run {earlier}")
            samples.append((dt, len(el.trace.events), ref))
        gate.record(f"{wl.name} election {j} (seed {sc.seed})", problems)
    return samples


def traced_loop(wl: elections.Workload, seed: int, seconds: float, pins: dict, gate: Gate,
                min_pairs: int = 1) -> tuple[list[float], list[float], list[dict]]:
    """Alternate an untraced and a traced run of each input.

    Returns (untraced seconds, traced seconds, per-election layer records).
    A pair fails when either election fails, when their digests differ, when
    an exact count differs from its pin or when an expected span saw no call.
    """
    inputs = elections.make_inputs(wl, seed)
    tracer = layers.Tracer()
    plain_s, traced_s, records = [], [], []
    spent: list[float] = []
    loop_start = time.perf_counter()
    while len(spent) < min_pairs or _keep_going(loop_start, seconds, spent):
        j = len(spent)
        sc = inputs[j % len(inputs)]
        plain, dt_plain, problems = timed(sc)
        with tracer.installed():
            traced, dt_traced, traced_problems = timed(sc)
        spent.append(dt_plain + dt_traced)
        problems += traced_problems
        if plain is not None and traced is not None:
            problems += elections.check(sc, plain, pins)
            problems += elections.check(sc, traced, pins)
            if plain.digest != traced.digest:
                problems.append(f"traced digest {traced.digest} != untraced {plain.digest}")
            rec = layer_record(tracer, traced, dt_traced)
            problems += count_problems(wl, tracer, rec, pins.get(str(sc.seed)))
            rec["seed"], rec["digest"] = sc.seed, traced.digest
            plain_s.append(dt_plain)
            traced_s.append(dt_traced)
            records.append(rec)
        gate.record(f"{wl.name} traced pair {j} (seed {sc.seed})", problems)
    return plain_s, traced_s, records


def count_problems(wl: elections.Workload, tracer: layers.Tracer, rec: dict,
                   pin: dict | None) -> list[str]:
    problems = [f"no calls to {span} on {wl.name}"
                for span in wl.expected_calls if tracer.calls[span] == 0]
    if pin is not None:
        for key in elections.EXACT_COUNTS:
            if rec[key] != pin["counts"][key]:
                problems.append(f"{key} = {rec[key]}, pinned {pin['counts'][key]}")
    return problems


# Spans reported as both a call count and a self time.
_TIMED_SPANS = ("wire.dumps", "wire.loads", "wire.digest", "wire.ser_ints", "group.exp",
                "group.is_element", "proofs.verify_ballot", "proofs.prove_vector",
                "elgamal.combine", "blindsig.verify_token", "chainvote.mine_block",
                "chainvote.tx_serialize", "chainvote.verify_chain")
_SIMNET_SPANS = ("simnet.run", "simnet.send", "simnet.local_action", "simnet.set_timer")


def layer_record(tracer: layers.Tracer, el: elections.Election, election_s: float) -> dict:
    """Per-layer metrics of one traced election."""
    c, s, x = tracer.calls, tracer.self_s, tracer.extra
    ballots = c["proofs.prove_vector"]
    mined = c["chainvote.mine_block"]
    rec = {
        "simnet.events": len(el.trace.events),
        "simnet.messages": el.trace.message_count(),
        "simnet.bytes": el.trace.byte_count(),
        "simnet.self_s": sum(s[k] for k in _SIMNET_SPANS),
        "simnet.send.calls": c["simnet.send"],
        "simnet.to_jsonl_s": s["simnet.to_jsonl"],
        "wire.digest.bytes": x.get("wire.digest.bytes", 0),
        "chainvote.pow_attempts": x.get("chainvote.pow_attempts", 0),
        "chainvote.blocks_useful_ratio":
            x.get("chainvote.best_chain_blocks", 0) / mined if mined else 0.0,
        "chainvote.issue_tokens_s": s["chainvote.issue_tokens"],
        "blindsig.keygen_s": s["blindsig.keygen"],
        "group.hash_scalar.calls": c["group.hash_scalar"],
        "proofs.verifies_per_ballot": c["proofs.verify_ballot"] / ballots if ballots else 0.0,
        "elgamal.dlog_recover_s": s["elgamal.dlog_recover"],
        "handler.calls": c[layers.HANDLER_SPAN],
        "handler.self_s": s[layers.HANDLER_SPAN],
        "analysis.classify_s": s["analysis.classify"],
        "trace.coverage": sum(s.values()) / election_s,
    }
    for span in _TIMED_SPANS:
        rec[f"{span}.calls"] = c[span]
        rec[f"{span}_s"] = s[span]
    return rec


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("_ratio", "_per_ballot", ".coverage")):
        return "ratio"
    return "count"


def end_to_end(wl: elections.Workload, seed: int, seconds: float, pins: dict,
               gate: Gate, setup: list[float]) -> tuple[dict, list[str]]:
    samples = untraced_loop(wl, seed, seconds, pins, gate)
    notes = [f"  elections: {gate.attempted} attempted, {len(samples)} timed",
             f"  failed_frac: {gate.failed_frac:g} ({gate.failed} of {gate.attempted})"]
    if not samples:
        return {}, notes
    times = [t for t, _, _ in samples]
    refs = [r for _, _, r in samples]
    notes += [
        f"  election_s: {statistics.median(times):.6g} s "
        f"(median; range {min(times):.4f} .. {max(times):.4f} s)",
        f"  sim_events_per_s: {statistics.median(e / t for t, e, _ in samples):.6g} 1/s",
        f"  reference_s: {statistics.median(refs):.6g} s "
        f"(range {min(refs):.4f} .. {max(refs):.4f} s)",
        f"  setup_s: median of {len(setup)} fresh-interpreter set-ups",
    ]
    metrics = {
        "election_ref": (statistics.median(t / r for t, _, r in samples), "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, notes


def per_layer(wl: elections.Workload, seed: int, seconds: float, pins: dict,
              gate: Gate) -> tuple[dict, list[str]]:
    plain_s, traced_s, records = traced_loop(wl, seed, seconds, pins, gate)
    notes = [f"  traced pairs: {gate.attempted}; values are medians per traced election",
             f"  failed_frac: {gate.failed_frac:g} ({gate.failed} of {gate.attempted})"]
    if not records:
        return {}, notes
    metrics = {name: (statistics.median(r[name] for r in records), unit_of(name))
               for name in records[0] if name not in ("seed", "digest")}
    overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics, notes


def run(workload: str, seed: int, seconds: float, trace: bool, pins: dict) -> int:
    """Measure one workload, print the report and the result line; the exit code."""
    wl = elections.WORKLOADS[workload]
    wl_pins = pins.get(wl.name, {})
    gate = Gate()
    setup = [] if trace else measure_setup(wl.name, seed)
    elections.run_election(elections.warmup_scenario(wl, seed))
    if trace:
        metrics, notes = per_layer(wl, seed, seconds, wl_pins, gate)
    else:
        metrics, notes = end_to_end(wl, seed, seconds, wl_pins, gate, setup)
    print(f"workload {wl.name}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, sort_keys=True))
    return 0 if gate.failed == 0 and metrics else 1
