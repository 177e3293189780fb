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
from votesim.simnet import FaultModel


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
    byz = {pid: "spp:silent-root" for pid in ov.members(0)[:2]}
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


def test_chainvote_linkage_probe_near_uniform():
    # With plaintext choices on the chain, the only protection is token
    # unlinkability: the adversary's token-to-identity linkage should sit
    # at the uniform-guess baseline 1/n.
    sc = scenarios.Scenario("chainvote", n=16, d=2, seed=9, degree=4,
                            difficulty=6, block_capacity=16, issuer_bits=512)
    scenarios.validate(sc)
    out, trace = scenarios.run(sc)
    acc = privacy_probe(trace, set(range(1, 16)), target=0, trials=600)
    assert abs(acc - 1 / 16) <= 0.05


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
        dpol, [("one-crash", FaultModel(crashed=frozenset({3}), max_delay=3))]
    )
    assert rows[0].completion < 1.0
    assert rows[0].exact in (None, True)  # never a silently wrong tally
