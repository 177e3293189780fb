"""Trace replay: taxonomy classification, complexity fits, a DPol privacy
probe and robustness tables.

The distribution taxonomy is verbal in origin, so this module pins down
computable stand-ins and applies them uniformly. Every rule reads one
of two structures, each built once per trace: the flow count (deliveries
per (src, dst) pair in casting and aggregation) and the action index
((phase, action) -> the peers that performed it, and -> the artifacts
voters' actions of that kind consumed).

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

A voter here is a live one (``FaultModel.live`` of the scenario echo): a
voter crashed from the start performs nothing and changes no row. Lossy runs
and ``crash-after-step`` peers still count every voter.

The privacy probe covers DPol alone. Chainvote's ballot secrecy rests on
token unlinkability, a property of the issuer's transcript that c06
(``test_c06_blind_token_unlinkability``) checks directly.
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, replace

from . import scenarios, wire
from .ballot import DpolParams, encode_shares, histogram
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
    if not roles.voters:
        raise UnclassifiableTrace("no voters recorded")
    voters = scenarios.parse_faults(trace.params.get("faults", {})).live(roles.voters)
    present = {phase for _, _, _, _, phase, _, _ in trace.events} - {PHASE_REGISTRATION}
    for needed in (PHASE_CASTING, PHASE_AGGREGATION, PHASE_EVALUATION):
        if needed not in present:
            raise UnclassifiableTrace(f"no {needed} events in trace")
    performers, consumed = _action_index(roles, voters)
    if (PHASE_EVALUATION, "evaluate") not in performers:
        raise UnclassifiableTrace("no peer completed evaluation")
    flow = Counter(
        (src, dst)
        for _, kind, src, dst, phase, _, _ in trace.events
        if kind == KIND_DELIVER and phase in (PHASE_CASTING, PHASE_AGGREGATION)
    )
    if not flow:
        raise UnclassifiableTrace("no casting or aggregation messages delivered")

    specialisation = _classify_specialisation(roles, voters, performers)
    topology = _classify_topology(flow, trace.params.get("overlay") or {})
    phases = _classify_phases(roles, voters, present, performers, consumed)
    return TaxonomyRow(protocol, specialisation, topology,
                       render_phases(phases, present))


def _action_index(roles: RoleLog, voters: set[int]):
    """(phase, action) -> the peers that performed it, and (phase, action) ->
    the artifacts voters' actions of that kind consumed."""
    performers: dict[tuple[str, str], set[int]] = defaultdict(set)
    consumed: dict[tuple[str, str], set[str]] = defaultdict(set)
    for pid, acts in roles.performed.items():
        for a in acts:
            performers[a.phase, a.action].add(pid)
            if pid in voters:
                consumed[a.phase, a.action].update(a.consumes)
    return performers, consumed


def _classify_specialisation(roles: RoleLog, voters: set[int], performers) -> str:
    all_peers = voters | {p for r in roles.assigned for p in r.holders}
    for origin, label in (("configured", SPEC_SELECTED), ("runtime", SPEC_RANDOM)):
        for role in roles.assigned:
            if role.origin == origin and role.holders and role.holders < all_peers:
                return label
    # Voters share one action set exactly when each action is done by all or none.
    equipotent = all(voters <= pids or not voters & pids for pids in performers.values())
    return SPEC_NONE if equipotent else SPEC_NONE_FLEXIBLE


def _classify_topology(flow: Counter, overlay: dict) -> str:
    indegree: Counter = Counter()
    for (_, dst), count in flow.items():
        indegree[dst] += count
    if max(indegree.values()) * 2 > flow.total():
        return TOPO_CENTRALISED

    kind = overlay.get("kind")
    if kind not in (RING_CLUSTERS, TREE_CLUSTERS):
        return TOPO_DISTRIBUTED
    cluster_of = {pid: ci for ci, members in enumerate(overlay.get("clusters", []))
                  for pid in members}
    m = len(set(cluster_of.values()))
    links = {tuple(l) for l in overlay.get("links", [])}
    for src, dst in flow:
        a, b = cluster_of.get(src), cluster_of.get(dst)
        if a is None or b is None:
            return TOPO_DISTRIBUTED
        if a == b:
            continue
        if kind == RING_CLUSTERS:
            adjacent = (a + 1) % m == b or (b + 1) % m == a
        else:
            adjacent = (a, b) in links or (b, a) in links
        if not adjacent:
            return TOPO_DISTRIBUTED
    return TOPO_RING if kind == RING_CLUSTERS else TOPO_TREE


def _classify_phases(roles: RoleLog, voters: set[int], present: set[str],
                     performers, consumed) -> set[str]:
    authority_artifacts = {a for r in roles.assigned for a in r.artifacts}
    # Phases in which an assigned authority did something the voters did not.
    exclusive = {
        phase
        for (phase, _), pids in performers.items()
        if pids != voters and any(pids <= r.holders for r in roles.assigned)
    }
    distributed = set()
    for phase in present - exclusive:
        core = _CORE_ACTIONS.get(phase)
        if core is None or not voters <= performers.get((phase, core), set()):
            continue
        if consumed.get((phase, core), set()) & authority_artifacts:
            continue
        distributed.add(phase)
    return distributed


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
    The full message simulation is not replayed: on DPol, the one
    protocol probed, the coalition's view of the target is fixed by the
    casting material, which is reproduced exactly from the per-trial
    seed. Any other protocol with a non-empty coalition is a ProbeError.
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
        expected = histogram([choices[pid] for pid in faults.live(range(sc.n))], sc.d)
        produced = [t for t in outcome.tallies.values() if t is not None]
        exact = None
        if produced:
            exact = all(tuple(t) == expected for t in produced)
        rows.append(RobustnessRow(label, outcome.completion, exact))
    return rows
