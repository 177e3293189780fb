"""DPol protocol runs checked against the plaintext histogram oracle."""

import random

import pytest

from votesim.ballot import DpolParams, histogram
from votesim.dpol import (
    BEHAVIOR_INVALID_SHARES,
    BEHAVIOR_LYING_SUM,
    BEHAVIOR_SILENT,
    cluster_tally,
    run_dpol,
)
from votesim.simnet import FaultModel, SendFilter, register_behavior


def faultless(**kw):
    return FaultModel(max_delay=3, **kw)


def test_honest_n9_all_peers_agree_on_exact_tally():
    choices = [0, 0, 0, 0, 0, 1, 1, 1, 1]
    out, trace = run_dpol(DpolParams(9, 1, 2), choices, faultless(), seed=42)
    assert out.completion == 1.0
    assert set(out.tallies.values()) == {(5, 4)}
    assert out.details["flagged"] == set()


@pytest.mark.parametrize("n,k,d", [(9, 1, 2), (16, 1, 2), (25, 2, 3), (25, 1, 2)])
def test_honest_grid_matches_histogram(n, k, d):
    rng = random.Random(n * 100 + k)
    choices = [rng.randrange(d) for _ in range(n)]
    out, _ = run_dpol(DpolParams(n, k, d), choices, faultless(), seed=7)
    assert out.completion == 1.0
    assert set(out.tallies.values()) == {histogram(choices, d)}


def test_cluster_tally_component_sum():
    # Each cluster tally sums the preceding cluster's (2k+1) * sqrt(n) shares.
    choices = [0] * 9
    out, trace = run_dpol(DpolParams(9, 1, 2), choices, faultless(), seed=1)
    total = next(iter(out.tallies.values()))
    assert sum(total) == 9  # decoded counts sum to n
    # global share conservation: (2k+1) * n entries across all cluster tallies
    # is reflected in the aggregate the decoders inverted
    assert total == (9, 0)


def test_trace_determinism():
    choices = [0, 1] * 8
    a = run_dpol(DpolParams(16, 1, 2), choices, faultless(), seed=3)[1]
    b = run_dpol(DpolParams(16, 1, 2), choices, faultless(), seed=3)[1]
    assert a.to_jsonl() == b.to_jsonl()
    c = run_dpol(DpolParams(16, 1, 2), choices, faultless(), seed=4)[1]
    assert a.to_jsonl() != c.to_jsonl()


def test_total_casting_loss_means_no_tally():
    choices = [0] * 9
    out, _ = run_dpol(
        DpolParams(9, 1, 2), choices, FaultModel(drop_probability=1.0), seed=1
    )
    assert out.completion == 0.0
    assert all(t is None for t in out.tallies.values())


def test_byzantine_invalid_shares_flagged_exactly():
    choices = [0, 1] * 8
    out, _ = run_dpol(
        DpolParams(16, 1, 2),
        choices,
        faultless(byzantine={3: BEHAVIOR_INVALID_SHARES}),
        seed=5,
        audit=True,
    )
    assert out.details["flagged"] == {3}


def test_audit_no_false_positives_over_seeds():
    choices = [0, 1, 0, 1, 0, 1, 0, 1, 0]
    for seed in range(10):
        out, _ = run_dpol(DpolParams(9, 1, 2), choices, faultless(), seed=seed,
                          audit=True)
        assert out.details["flagged"] == set()
        assert out.completion == 1.0


def test_lying_sum_never_yields_wrong_tally():
    choices = [0, 1] * 8
    out, _ = run_dpol(
        DpolParams(16, 1, 2),
        choices,
        faultless(byzantine={2: BEHAVIOR_LYING_SUM}),
        seed=6,
    )
    expected = histogram(choices, 2)
    for tally in out.tallies.values():
        assert tally is None or tally == expected


def test_silent_peer_causes_incompleteness():
    choices = [0] * 9
    out, _ = run_dpol(
        DpolParams(9, 1, 2), choices, faultless(byzantine={4: BEHAVIOR_SILENT}), seed=7
    )
    assert out.completion < 1.0


def test_crashed_peer_causes_incompleteness_not_wrong_tally():
    choices = [0, 1] * 8
    out, _ = run_dpol(
        DpolParams(16, 1, 2), choices, FaultModel(crashed=frozenset({5}), max_delay=3),
        seed=8,
    )
    assert out.completion < 1.0
    expected_full = histogram(choices, 2)
    for tally in out.tallies.values():
        assert tally is None or tally == expected_full  # never silently wrong


def test_single_message_loss_flags_incompleteness():
    # Drop each of several randomly placed single messages: some peers end
    # without a tally and nobody gets a wrong one.
    choices = [0, 1, 1] * 3
    params = DpolParams(9, 1, 2)
    base_out, base_trace = run_dpol(params, choices, faultless(), seed=9)
    total_sends = base_trace.message_count()
    expected = histogram(choices, 2)
    rng = random.Random(99)
    for _ in range(15):
        lost = rng.randrange(total_sends)
        out, _ = run_dpol(
            params, choices, faultless(lose_messages=frozenset({lost})), seed=9
        )
        assert out.completion < 1.0
        for tally in out.tallies.values():
            assert tally is None or tally == expected


def test_cluster_tally_units():
    assert cluster_tally([(0, 0), (0, 0), (0, 0)], 2) == (0, 0)
    assert cluster_tally([(2, 1), (1, 2), (3, 0)], 2) == (6, 3)
    assert cluster_tally([(2, 1), None, (3, 0)], 2) is None  # incomplete
    assert cluster_tally([], 2) is None


def test_cluster_tally_covers_preceding_cluster_shares():
    # Each cluster tally sums (2k+1) shares from each of sqrt(n) senders.
    choices = [0] * 9
    out, _ = run_dpol(DpolParams(9, 1, 2), choices, faultless(), seed=11)
    tally = next(iter(out.tallies.values()))
    assert sum(tally) == 9


def test_lying_maps_leave_conflict_records_in_trace():
    choices = [0, 1] * 8
    out, trace = run_dpol(
        DpolParams(16, 1, 2), choices, faultless(byzantine={2: BEHAVIOR_LYING_SUM}),
        seed=12,
    )
    conflicts = [
        a for acts in out.roles.performed.values() for a in acts
        if a.action == "map-conflict"
    ]
    assert conflicts  # honest peers recorded the diverging copies


def test_all_peers_terminate_honest_run():
    choices = [0, 1, 0] * 3
    out, _ = run_dpol(DpolParams(9, 1, 2), choices, faultless(), seed=13)
    assert out.completion == 1.0
    assert all(t is not None for t in out.tallies.values())


def test_roles_logged_for_all_voters():
    choices = [0] * 9
    out, _ = run_dpol(DpolParams(9, 1, 2), choices, faultless(), seed=10)
    for pid in range(9):
        acts = out.roles.action_types(pid)
        assert ("casting", "cast") in acts
        assert ("aggregation", "aggregate") in acts
        assert ("evaluation", "evaluate") in acts
    assert out.roles.assigned == []


def test_share_of_wrong_length_is_ignored():
    register_behavior(
        "test:short-share",
        lambda inner: SendFilter(
            inner, lambda msg: {**msg, "v": msg["v"][:1]} if msg.get("t") == "share" else msg
        ),
    )
    choices = [0, 1, 1, 0, 1, 0, 0, 1, 1]
    out, _ = run_dpol(DpolParams(9, 1, 2), choices, faultless(byzantine={4: "test:short-share"}),
                      seed=9)
    assert out.completion < 1.0
    assert all(t is None or t == histogram(choices, 2) for t in out.tallies.values())


def test_map_with_non_integer_round_is_ignored():
    register_behavior(
        "test:map-round-x",
        lambda inner: SendFilter(
            inner, lambda msg: {**msg, "r": "x"} if msg.get("t") == "map" else msg
        ),
    )
    choices = [0, 1, 1, 0, 1, 0, 0, 1, 1]
    out, _ = run_dpol(DpolParams(9, 1, 2), choices, faultless(byzantine={4: "test:map-round-x"}),
                      seed=9)
    assert all(t is None or t == histogram(choices, 2) for t in out.tallies.values())
