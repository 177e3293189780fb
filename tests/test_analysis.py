"""Classifier, complexity fits, privacy probes, robustness tables."""

import pytest

from votesim import analysis, scenarios
from votesim.analysis import (
    ProbeError,
    UnclassifiableTrace,
    classify,
    fit_complexity,
    fully_distributed,
    privacy_probe,
    robustness_report,
    static_paper_row,
)
from votesim.cli import EXPECTED_TABLE1
from votesim.overlay import RING_CLUSTERS, TREE_CLUSTERS
from votesim.simnet import FaultModel, PerformedAction, RoleLog, Trace


def run_canonical(protocol, seed=1):
    sc = scenarios.canonical_scenario(protocol, seed)
    return scenarios.run(sc)


@pytest.fixture(scope="module")
def canonical():
    return {p: run_canonical(p) for p in ("dpol", "spp", "helios", "chainvote", "mesh")}


def test_dpol_row(canonical):
    out, trace = canonical["dpol"]
    row = classify(trace, out.roles)
    assert row.as_tuple() == ("none", "structured-ring", "all")


def test_spp_row(canonical):
    out, trace = canonical["spp"]
    row = classify(trace, out.roles)
    assert row.as_tuple() == ("random-authorities", "structured-tree", "aggregation")


def test_helios_row(canonical):
    out, trace = canonical["helios"]
    row = classify(trace, out.roles)
    assert row.as_tuple() == ("selected-authorities", "centralised", "verification")


def test_chainvote_row(canonical):
    out, trace = canonical["chainvote"]
    row = classify(trace, out.roles)
    assert row.as_tuple() == ("none-flexible", "distributed", "all")


def test_mesh_row_is_fully_distributed(canonical):
    out, trace = canonical["mesh"]
    row = classify(trace, out.roles)
    assert row.topology == "distributed"
    assert row.distributed_phases == "all"


def test_fully_distributed_predicate(canonical):
    assert fully_distributed(static_paper_row())
    rows = {p: classify(t, o.roles) for p, (o, t) in canonical.items()}
    assert fully_distributed(rows["chainvote"])
    assert not fully_distributed(rows["spp"])
    assert not fully_distributed(rows["helios"])
    assert not fully_distributed(rows["dpol"])  # structured ring topology


def test_classifier_deterministic(canonical):
    out, trace = canonical["dpol"]
    assert classify(trace, out.roles) == classify(trace, out.roles)


def test_forced_spp_failure_is_unclassifiable():
    sc = scenarios.canonical_scenario("spp", 3)
    from votesim.overlay import build_tree_clusters
    from votesim import wire

    ov = build_tree_clusters(sc.n, sc.cluster_size, wire.derive_seed(sc.seed, "overlay"))
    byz = {pid: "crash-after-step 0" for pid in ov.members(0)[:2]}
    sc.faults = FaultModel(max_delay=3, byzantine=byz)
    outcome, trace = scenarios.run(sc)
    assert outcome.completion < 1.0
    with pytest.raises(UnclassifiableTrace):
        classify(trace, outcome.roles)


def test_fit_mesh_is_quadratic():
    runs = []
    for n in (8, 16, 32, 64):
        sc = scenarios.Scenario("mesh", n=n, d=2, seed=1)
        _, trace = scenarios.run(sc)
        runs.append((n, trace))
    fit = fit_complexity(runs)
    assert abs(fit.exponent - 2.0) <= 0.1
    assert fit.r2 > 0.99
    # oracle: the closed form 2n(n-1)
    for n, mean in fit.points:
        assert mean == 2 * n * (n - 1)


def test_fit_requires_three_sizes():
    sc = scenarios.Scenario("mesh", n=8, d=2, seed=1)
    _, trace = scenarios.run(sc)
    with pytest.raises(analysis.AnalysisError):
        fit_complexity([(8, trace), (16, trace)])


def test_probe_empty_coalition_uniform_prior(canonical):
    _, trace = canonical["dpol"]
    assert privacy_probe(trace, set(), target=0, trials=100) == 0.5


def test_probe_requires_enough_trials(canonical):
    _, trace = canonical["dpol"]
    with pytest.raises(ProbeError, match="statistically meaningless"):
        privacy_probe(trace, {1}, target=0, trials=50)


def test_probe_coalition_must_exclude_target(canonical):
    _, trace = canonical["dpol"]
    with pytest.raises(ProbeError):
        privacy_probe(trace, {0}, target=0, trials=100)


@pytest.mark.parametrize("protocol", ["chainvote", "helios", "spp", "mesh"])
def test_probe_refuses_protocols_without_a_view_extractor(canonical, protocol):
    # Only DPol is probed; chainvote's unlinkability is c06's check on the
    # issuer transcript. An empty coalition still gets the uniform prior.
    _, trace = canonical[protocol]
    assert privacy_probe(trace, set(), target=0, trials=100) == 0.5
    with pytest.raises(ProbeError, match=f"no adversary view extractor.*{protocol}"):
        privacy_probe(trace, {1}, target=0, trials=100)


def test_dpol_single_recipient_probe_near_two_thirds(canonical):
    # One observed share points at the true choice with probability
    # (k+1)/(2k+1); the coalition is every possible recipient, so exactly
    # one share of the target is always observed.
    _, trace = canonical["dpol"]
    coalition = set(range(9)) - {0}
    acc = privacy_probe(trace, coalition, target=0, trials=400)
    # with all recipients colluding they see all 2k+1 shares: majority vote
    # recovers the ballot, so accuracy should be ~1.0 here
    assert acc > 0.9


def test_robustness_report_contrasts_protocols():
    helios = scenarios.canonical_scenario("helios", 5)
    hub = helios.n  # hub peer id
    rows = robustness_report(
        helios,
        [("hub-crash", FaultModel(crashed=frozenset({hub}), max_delay=3))],
    )
    assert rows[0].completion == 0.0
    assert rows[0].exact is None

    dpol = scenarios.canonical_scenario("dpol", 5)
    rows = robustness_report(
        dpol, [("one-crash", FaultModel(crashed=frozenset({3}), max_delay=3)),
               ("honest", FaultModel(max_delay=3))]
    )
    assert rows[0].completion < 1.0
    assert rows[0].exact in (None, True)  # never a silently wrong tally
    assert (rows[1].completion, rows[1].exact) == (1.0, True)


# -- hand-built traces: one case per classifier rule ---------------------------

CAST, AGG, EVAL = "casting", "aggregation", "evaluation"
CORE = ((CAST, "cast"), (AGG, "aggregate"), (EVAL, "evaluate"))


def hand_run(flow=((0, 1), (1, 2), (2, 0)), *, voters=(0, 1, 2), overlay=None,
             phases=(CAST, AGG, EVAL), core=CORE, extra=(), roles=(), consumes=()):
    """A trace with one local event per phase and one casting delivery per
    (src, dst) of ``flow``, and a role log in which every voter performs
    the ``core`` actions (consuming ``consumes`` when casting), plus
    ``extra`` (pid, phase, action, *consumed) actions and ``roles``
    assignments."""
    events = [(0, "local-action", 0, None, p, "", 0) for p in phases]
    events += [(1, "deliver", s, d, CAST, "", 0) for s, d in flow]
    log = RoleLog(voters=frozenset(voters))
    for pid in voters:
        for phase, action in core:
            log.record(pid, PerformedAction(phase, action,
                                            consumes if phase == CAST else ()))
    for pid, phase, action, *consumed in extra:
        log.record(pid, PerformedAction(phase, action, tuple(consumed)))
    for role in roles:
        log.assign(*role)
    params = {"protocol": "hand", "overlay": overlay or {}}
    return Trace(events, params=params), log


def hand_row(**kwargs):
    return classify(*hand_run(**kwargs)).as_tuple()


def test_hand_built_equipotent_voters_are_fully_distributed():
    assert hand_row() == ("none", "distributed", "all")


@pytest.mark.parametrize("kwargs, diagnostics", [
    ({"voters": ()}, "no voters recorded"),
    ({"phases": (CAST, AGG)}, "no evaluation events in trace"),
    ({"phases": (AGG, EVAL), "flow": ()}, "no casting events in trace"),
    ({"core": CORE[:2]}, "no peer completed evaluation"),
    ({"flow": ()}, "no casting or aggregation messages delivered"),
    # The checks run in a fixed order: the evaluator before the flow.
    ({"core": CORE[:2], "flow": ()}, "no peer completed evaluation"),
])
def test_hand_built_unclassifiable(kwargs, diagnostics):
    with pytest.raises(UnclassifiableTrace) as info:
        classify(*hand_run(**kwargs))
    assert info.value.diagnostics == diagnostics


def test_hand_built_evaluator_need_not_be_a_voter():
    row = hand_row(core=CORE[:2], extra=[(3, EVAL, "evaluate")])
    assert row == ("none", "distributed", "casting,aggregation")


@pytest.mark.parametrize("flow, topology", [
    (((0, 3), (1, 3), (2, 3), (3, 0)), "centralised"),  # 3 of 4 deliveries
    (((0, 3), (1, 3), (3, 0), (3, 1)), "distributed"),  # exactly half is not more
])
def test_hand_built_hub_holds_more_than_half_the_flow(flow, topology):
    assert hand_row(flow=flow)[1] == topology


RING = {"kind": RING_CLUSTERS, "clusters": [[0], [1], [2], [3]], "links": []}
TREE = {"kind": TREE_CLUSTERS, "clusters": [[0], [1], [2], [3]],
        "links": [[0, 1], [0, 2], [1, 3]]}


@pytest.mark.parametrize("overlay, flow, topology", [
    (RING, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 0), (2, 1)), "structured-ring"),
    (RING, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)), "distributed"),  # non-adjacent
    (RING, ((0, 1), (1, 2), (2, 4), (4, 0)), "distributed"),  # 4 is in no cluster
    (TREE, ((1, 0), (2, 0), (3, 1), (0, 2)), "structured-tree"),
    (TREE, ((1, 0), (2, 0), (3, 1), (3, 2)), "distributed"),  # 3-2 is no link
    ({"kind": "other", "clusters": [[0], [1], [2]]}, ((0, 1), (1, 2), (2, 0)),
     "distributed"),
])
def test_hand_built_cluster_structure(overlay, flow, topology):
    assert hand_row(flow=flow, overlay=overlay)[1] == topology


@pytest.mark.parametrize("roles, specialisation", [
    ([("auth", {3}, "configured")], "selected-authorities"),
    ([("auth", {3}, "runtime")], "random-authorities"),
    ([("r", {0}, "runtime"), ("c", {3}, "configured")], "selected-authorities"),
    ([("everyone", {0, 1, 2}, "configured")], "none"),  # not a proper subset
    ([("nobody", set(), "runtime")], "none"),
])
def test_hand_built_configured_versus_runtime_role(roles, specialisation):
    assert hand_row(roles=roles)[0] == specialisation


def test_hand_built_voter_with_an_extra_action_is_none_flexible():
    assert hand_row(extra=[(1, AGG, "relay")]) == ("none-flexible", "distributed", "all")
    # The same action by every voter keeps them equipotent.
    relay = [(pid, AGG, "relay") for pid in (0, 1, 2)]
    assert hand_row(extra=relay) == ("none", "distributed", "all")


def test_hand_built_voter_missing_a_core_action():
    row = hand_row(extra=[(pid, AGG, "aggregate") for pid in (0, 1)],
                   core=(CORE[0], CORE[2]))
    assert row == ("none-flexible", "distributed", "casting,evaluation")


def test_hand_built_authority_exclusive_action():
    auth = [("auth", {3}, "configured")]
    row = hand_row(roles=auth, extra=[(3, AGG, "decrypt")])
    assert row == ("selected-authorities", "distributed", "casting,evaluation")
    # An action every voter also performs is not exclusive to the authority.
    shared = [(pid, AGG, "decrypt") for pid in (0, 1, 2, 3)]
    assert hand_row(roles=auth, extra=shared)[2] == "all"
    # A voter-held runtime role counts as an authority too.
    row = hand_row(roles=[("leader", {0}, "runtime")], extra=[(0, CAST, "mix")])
    assert row == ("random-authorities", "distributed", "aggregation,evaluation")


def test_hand_built_core_action_consuming_an_authority_artifact():
    auth = [("keys", {3}, "configured", ("pk",))]
    row = hand_row(roles=auth, consumes=("pk",))
    assert row == ("selected-authorities", "distributed", "aggregation,evaluation")
    # Data no role owns does not count, and neither does a non-voter's use.
    assert hand_row(roles=auth, consumes=("nonce",))[2] == "all"
    assert hand_row(roles=auth, extra=[(3, CAST, "cast", "pk")])[2] == "all"


HONEST_GRID = [(p, seed, delay) for p in scenarios.PROTOCOLS
               for seed in (2, 3) for delay in (1, 3)]


@pytest.mark.parametrize("protocol, seed, max_delay", HONEST_GRID)
def test_honest_grid_matches_table1(protocol, seed, max_delay):
    sc = scenarios.canonical_scenario(protocol, seed)
    sc.faults = FaultModel(max_delay=max_delay)
    out, trace = scenarios.run(sc)
    expected = {**EXPECTED_TABLE1,
                "mesh": ("none", "distributed", "all")}[protocol]
    assert classify(trace, out.roles).as_tuple() == expected


@pytest.mark.parametrize("protocol", ["helios", "chainvote"])
@pytest.mark.parametrize("seed", range(3))
def test_a_voter_crashed_from_the_start_leaves_the_row_unchanged(protocol, seed):
    # Voter 1 performs nothing. The classifier counts live voters only, as
    # completion does, so no phase loses its "every voter" core action.
    sc = scenarios.canonical_scenario(protocol, seed)
    if protocol == "chainvote":
        sc.difficulty, sc.issuer_bits = 6, 512
    sc.faults = FaultModel(crashed=frozenset({1}), max_delay=3)
    out, trace = scenarios.run(sc)
    assert out.completion == 1.0
    assert classify(trace, out.roles).as_tuple() == EXPECTED_TABLE1[protocol]
