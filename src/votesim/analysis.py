"""Trace replay: taxonomy classification, complexity fits, privacy probes
and robustness tables.

The distribution taxonomy is verbal in origin, so this module pins down
computable stand-ins and applies them uniformly:

* specialisation: "selected-authorities" when a configured role holds a
  proper subset of peers, "random-authorities" when a runtime-assigned
  role does, "none" when every voter performed the same action set, else
  "none-flexible" (privileged actions exist but nothing was assigned).
* topology: "centralised" when one peer receives more than half of all
  casting+aggregation messages; "structured-ring"/"structured-tree" when
  every such message stays inside a cluster or crosses a declared
  cluster link; otherwise "distributed".
* a phase counts as distributed when every voter performed its core
  action, no assigned authority performed an action exclusive to it in
  that phase, and no voter's core action consumed an authority-owned
  artifact (data it must take on trust, like a threshold key or the
  decrypted tally).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from . import scenarios, wire
from .ballot import DpolParams, encode_shares, histogram
from .chainvote import TokenIssuer, generate_issuer_key
from .crypto.blindsig import hash_serial
from .dpol import ring_for
from .overlay import RING_CLUSTERS, TREE_CLUSTERS
from .simnet import (
    KIND_DELIVER,
    PHASE_AGGREGATION,
    PHASE_CASTING,
    PHASE_EVALUATION,
    PHASE_REGISTRATION,
    PHASE_VERIFICATION,
    RoleLog,
    Trace,
)

SPEC_NONE = "none"
SPEC_NONE_FLEXIBLE = "none-flexible"
SPEC_RANDOM = "random-authorities"
SPEC_SELECTED = "selected-authorities"

TOPO_CENTRALISED = "centralised"
TOPO_TREE = "structured-tree"
TOPO_RING = "structured-ring"
TOPO_DISTRIBUTED = "distributed"

PHASES_ALL = "all"

_CORE_ACTIONS = {
    PHASE_CASTING: "cast",
    PHASE_AGGREGATION: "aggregate",
    PHASE_EVALUATION: "evaluate",
    PHASE_VERIFICATION: "verify",
}

_PHASE_ORDER = (PHASE_CASTING, PHASE_AGGREGATION, PHASE_EVALUATION, PHASE_VERIFICATION)


class UnclassifiableTrace(Exception):
    def __init__(self, diagnostics: str):
        super().__init__(f"unclassifiable: {diagnostics}")
        self.diagnostics = diagnostics


class AnalysisError(Exception):
    pass


@dataclass(frozen=True)
class TaxonomyRow:
    protocol: str
    specialisation: str
    topology: str
    distributed_phases: str  # "all" or comma-joined phase names

    def as_tuple(self) -> tuple[str, str, str]:
        return (self.specialisation, self.topology, self.distributed_phases)


def render_phases(phases: set[str], present: set[str]) -> str:
    if phases == present and phases:
        return PHASES_ALL
    return ",".join(p for p in _PHASE_ORDER if p in phases) or "none"


def static_paper_row() -> TaxonomyRow:
    """Paper-based voting enters the table as a fixed reference row."""
    return TaxonomyRow("paper-based", SPEC_NONE_FLEXIBLE, TOPO_DISTRIBUTED, PHASES_ALL)


def fully_distributed(row: TaxonomyRow) -> bool:
    """Distributed topology and equipotent voters in all (non-registration)
    phases."""
    return row.topology == TOPO_DISTRIBUTED and row.distributed_phases == PHASES_ALL


def classify(trace: Trace, roles: RoleLog) -> TaxonomyRow:
    """Classify one honest protocol run into a taxonomy row.

    Raises UnclassifiableTrace when the trace lacks the phases needed to
    make the call (incomplete or empty runs).
    """
    protocol = str(trace.params.get("protocol", "unknown"))
    voters = set(roles.voters)
    if not voters:
        raise UnclassifiableTrace("no voters recorded")
    present = {e.phase for e in trace.events} - {PHASE_REGISTRATION}
    for needed in (PHASE_CASTING, PHASE_AGGREGATION, PHASE_EVALUATION):
        if needed not in present:
            raise UnclassifiableTrace(f"no {needed} events in trace")
    evaluators = roles.performers(PHASE_EVALUATION, "evaluate")
    if not evaluators:
        raise UnclassifiableTrace("no peer completed evaluation")

    specialisation = _classify_specialisation(roles, voters)
    topology = _classify_topology(trace, voters)
    phases = _classify_phases(roles, voters, present)
    return TaxonomyRow(protocol, specialisation, topology,
                       render_phases(phases, present))


def _classify_specialisation(roles: RoleLog, voters: set[int]) -> str:
    all_peers = voters | {p for r in roles.assigned for p in r.holders}
    for origin, label in (("configured", SPEC_SELECTED), ("runtime", SPEC_RANDOM)):
        for role in roles.assigned:
            if role.origin == origin and role.holders and role.holders < all_peers:
                return label
    action_sets = {roles.action_types(pid) for pid in voters}
    return SPEC_NONE if len(action_sets) == 1 else SPEC_NONE_FLEXIBLE


def _classify_topology(trace: Trace, voters: set[int]) -> str:
    flow = [
        e
        for e in trace.events
        if e.kind == KIND_DELIVER and e.phase in (PHASE_CASTING, PHASE_AGGREGATION)
    ]
    if not flow:
        raise UnclassifiableTrace("no casting or aggregation messages delivered")
    indegree: dict[int, int] = {}
    for e in flow:
        indegree[e.dst] = indegree.get(e.dst, 0) + 1
    top = max(indegree.values())
    if top * 2 > len(flow):
        return TOPO_CENTRALISED

    overlay = trace.params.get("overlay") or {}
    kind = overlay.get("kind")
    if kind in (RING_CLUSTERS, TREE_CLUSTERS):
        cluster_of: dict[int, int] = {}
        for ci, members in enumerate(overlay.get("clusters", [])):
            for pid in members:
                cluster_of[pid] = ci
        links = {tuple(l) for l in overlay.get("links", [])}
        if _structure_matches(flow, cluster_of, links, kind):
            return TOPO_RING if kind == RING_CLUSTERS else TOPO_TREE
    return TOPO_DISTRIBUTED


def _structure_matches(flow, cluster_of, links, kind) -> bool:
    m = len({ci for ci in cluster_of.values()})
    for e in flow:
        a, b = cluster_of.get(e.src), cluster_of.get(e.dst)
        if a is None or b is None:
            return False
        if a == b:
            continue
        if kind == RING_CLUSTERS:
            if (a + 1) % m == b or (b + 1) % m == a:
                continue
            return False
        if (a, b) in links or (b, a) in links:
            continue
        return False
    return True


def _classify_phases(roles: RoleLog, voters: set[int], present: set[str]) -> set[str]:
    authority_artifacts = {a for r in roles.assigned for a in r.artifacts}
    assigned_holders = [set(r.holders) for r in roles.assigned]
    distributed = set()
    for phase in present:
        core = _CORE_ACTIONS.get(phase)
        if core is None:
            continue
        performers = roles.performers(phase, core)
        if not voters <= performers:
            continue
        if _authority_exclusive_action_in(roles, phase, voters, assigned_holders):
            continue
        if _core_consumes_authority_input(roles, phase, core, voters, authority_artifacts):
            continue
        distributed.add(phase)
    return distributed


def _authority_exclusive_action_in(roles: RoleLog, phase: str, voters: set[int],
                                   assigned_holders: list[set[int]]) -> bool:
    actions = {
        a.action
        for acts in roles.performed.values()
        for a in acts
        if a.phase == phase
    }
    for action in actions:
        performers = set(roles.performers(phase, action))
        if performers == voters:
            continue
        for holders in assigned_holders:
            if performers and performers <= holders:
                return True
    return False


def _core_consumes_authority_input(roles: RoleLog, phase: str, core: str,
                                   voters: set[int], artifacts: set[str]) -> bool:
    for pid in voters:
        for act in roles.performed.get(pid, ()):
            if act.phase == phase and act.action == core:
                if set(act.consumes) & artifacts:
                    return True
    return False


# -- message-complexity fits ---------------------------------------------------


@dataclass(frozen=True)
class ComplexityFit:
    points: tuple[tuple[int, float], ...]  # (n, mean message count)
    exponent: float
    r2: float


def fit_complexity(runs: list[tuple[int, Trace]]) -> ComplexityFit:
    """Least-squares slope of log(messages) against log(n)."""
    by_n: dict[int, list[int]] = {}
    for n, trace in runs:
        by_n.setdefault(n, []).append(trace.message_count())
    if len(by_n) < 3:
        raise AnalysisError("need at least 3 distinct n values to fit an exponent")
    points = tuple((n, sum(v) / len(v)) for n, v in sorted(by_n.items()))
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(m) for _, m in points]
    exponent, r2 = _least_squares(xs, ys)
    return ComplexityFit(points, exponent, r2)


def _least_squares(xs: list[float], ys: list[float]) -> tuple[float, float]:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, r2


# -- privacy probes ---------------------------------------------------------


class ProbeError(Exception):
    pass


def privacy_probe(trace: Trace, coalition: set[int], target: int,
                  trials: int = 2000) -> float:
    """Best-guess accuracy of a coalition about the target's choice.

    Re-runs the scenario echoed in the trace `trials` times with fresh
    seeds and a uniformly random target choice each time, extracts what
    the coalition observes during casting, and scores its best guess.
    The full message simulation is not replayed: for every supported
    protocol the coalition's view of the target is fixed by the casting
    material, which is reproduced exactly from the per-trial seed.
    """
    if trials < 100:
        raise ProbeError("fewer than 100 trials is statistically meaningless")
    if target in coalition:
        raise ProbeError("coalition must exclude the target")
    params = trace.params
    d = int(params.get("d", 2))
    if not coalition:
        return 1.0 / d  # uniform prior, nothing observed
    protocol = params.get("protocol")
    if protocol == "dpol":
        return _dpol_probe(params, coalition, target, trials)
    if protocol == "chainvote":
        return _chainvote_probe(params, coalition, target, trials)
    raise ProbeError(f"no adversary view extractor for protocol {protocol!r}")


def _dpol_probe(params: dict, coalition: set[int], target: int, trials: int) -> float:
    """Coalition members see the single share the target sent each of them.

    The overlay and recipient assignment stay fixed at the scenario's own
    (so "a recipient of the target" keeps meaning across trials); the
    target's choice and its share shuffle are re-drawn per trial.
    """
    dp = DpolParams(int(params["n"]), int(params["k"]), int(params["d"]))
    base_seed = int(params["seed"])
    _, rmap = ring_for(dp, base_seed)
    hits = 0
    for trial in range(trials):
        seed = wire.derive_seed(base_seed, "probe", trial)
        rng = random.Random(wire.derive_seed(seed, "probe-choice"))
        choice = rng.randrange(dp.d)
        shares = encode_shares(choice, dp, seed, owner=target).shares
        observed = [
            share
            for share, recipient in zip(shares, rmap.recipients[target])
            if recipient in coalition
        ]
        if observed:
            # Guess the option the observed shares point at most often.
            counts = [0] * dp.d
            for s in observed:
                counts[list(s).index(1)] += 1
            guess = counts.index(max(counts))
        else:
            guess = rng.randrange(dp.d)
        hits += guess == choice
    return hits / trials


def _chainvote_probe(params: dict, coalition: set[int], target: int,
                     trials: int) -> float:
    """Token-to-identity linkage: can the chain plus the issuer transcript
    tie the target to its token?

    The adversary tries exact-value matching between transcript entries
    and issued tokens; blinding guarantees no match, so it falls back to a
    uniform guess among the tokens on the chain. Reported accuracy is the
    fraction of trials where the guessed token is the target's.
    """
    n = int(params["n"])
    base_seed = int(params["seed"])
    key = generate_issuer_key(
        wire.derive_seed(base_seed, "probe-issuer"), int(params.get("issuer_bits", 768))
    )
    hits = 0
    for trial in range(trials):
        seed = wire.derive_seed(base_seed, "probe", trial)
        issuer = TokenIssuer(key, seed)
        tokens = {pid: issuer.issue(pid) for pid in range(n)}
        transcript_values = issuer.transcript.values()
        token_values = {
            pid: {
                tok.signature,
                int(tok.serial, 16),
                hash_serial(tok.serial, key.n),
            }
            for pid, tok in tokens.items()
        }
        linked = None
        for pid, values in token_values.items():
            if values & transcript_values:
                linked = pid  # exact-match linkage (never happens when blinded)
                break
        if linked is None:
            rng = random.Random(wire.derive_seed(seed, "probe-guess"))
            linked = rng.randrange(n)
        hits += linked == target
    return hits / trials


# -- robustness ------------------------------------------------------------


@dataclass(frozen=True)
class RobustnessRow:
    label: str
    completion: float
    exact: bool | None  # None when no peer produced a tally


def robustness_report(base: scenarios.Scenario,
                      fault_grid: list[tuple[str, object]]) -> list[RobustnessRow]:
    """Run ``base`` once per fault level and report completion and exactness.

    Exactness compares every produced tally against the plaintext
    histogram of the live voters' choices (the ballots actually cast).
    """
    rows = []
    for label, faults in fault_grid:
        sc = replace(base, faults=faults)
        outcome, _ = scenarios.run(sc)
        choices = scenarios.resolve_choices(sc)
        live = [pid for pid in range(sc.n) if pid not in faults.crashed]
        expected = histogram([choices[pid] for pid in live], sc.d)
        produced = [t for t in outcome.tallies.values() if t is not None]
        exact = None
        if produced:
            exact = all(tuple(t) == expected for t in produced)
        rows.append(RobustnessRow(label, outcome.completion, exact))
    return rows
