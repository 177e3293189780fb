"""SPP runs against the plaintext oracle, plus the majority-resolution unit
behavior and threshold decryption at the root."""

import random

import pytest

from votesim.ballot import histogram
from votesim.crypto import TEST_GROUP, encrypt_random, threshold_keygen
from votesim.overlay import build_tree_clusters
from votesim.simnet import FaultModel, SendFilter, register_behavior, resolve_behavior
from votesim.spp import (
    AggregateReport,
    BEHAVIOR_INVALID_PROOF,
    BEHAVIOR_LYING_AGGREGATE,
    BEHAVIOR_SILENT_ROOT,
    SppParams,
    SppVoter,
    resolve_divergence,
    run_spp,
)
from votesim import wire


def faultless(**kw):
    return FaultModel(max_delay=3, **kw)


def spp_choices(n, d, seed):
    rng = random.Random(seed)
    return [rng.randrange(d) for _ in range(n)]


def test_honest_n28_exact_everywhere():
    choices = spp_choices(28, 2, 1)
    out, _ = run_spp(SppParams(28, 4, 3, 2), choices, faultless(), seed=1,
                     group=TEST_GROUP)
    assert out.completion == 1.0
    assert set(out.tallies.values()) == {histogram(choices, 2)}
    assert out.details["accepted"] == 28


def test_honest_n8_two_clusters():
    choices = spp_choices(8, 3, 2)
    out, _ = run_spp(SppParams(8, 4, 2, 3), choices, faultless(), seed=2,
                     group=TEST_GROUP)
    assert out.completion == 1.0
    assert set(out.tallies.values()) == {histogram(choices, 3)}


def test_decryption_share_before_the_root_aggregate_is_held_back(monkeypatch):
    # With delays up to 5, a root member receives another's decryption share
    # before its own subtree aggregate exists; the share waits in
    # pending_decshares and is replayed once the aggregate is built.
    early = []
    collect = SppVoter._collect_decshare

    def spy(self, ctx, idx, values, agg_digest):
        if self.subtree_agg is None:
            early.append(self.pid)
        collect(self, ctx, idx, values, agg_digest)

    monkeypatch.setattr(SppVoter, "_collect_decshare", spy)
    choices = random.Random(1).choices(range(2), k=8)
    out, _ = run_spp(SppParams(8, 4, 2, 2), choices, FaultModel(max_delay=5), 1,
                     group=TEST_GROUP)
    assert early
    assert out.completion == 1.0
    assert set(out.tallies.values()) == {histogram(choices, 2)}


def test_lying_aggregator_in_child_cluster_is_outvoted():
    choices = spp_choices(28, 2, 3)
    ov = build_tree_clusters(28, 4, wire.derive_seed(3, "overlay"))
    liar = ov.members(3)[0]  # any member of a leaf cluster
    out, _ = run_spp(
        SppParams(28, 4, 3, 2), choices,
        faultless(byzantine={liar: BEHAVIOR_LYING_AGGREGATE}), seed=3,
        group=TEST_GROUP,
    )
    assert out.completion == 1.0
    assert set(out.tallies.values()) == {histogram(choices, 2)}


def test_one_liar_per_cluster_still_exact():
    choices = spp_choices(28, 2, 4)
    ov = build_tree_clusters(28, 4, wire.derive_seed(4, "overlay"))
    byz = {ov.members(ci)[-1]: BEHAVIOR_LYING_AGGREGATE for ci in range(7)}
    out, _ = run_spp(SppParams(28, 4, 3, 2), choices, faultless(byzantine=byz),
                     seed=4, group=TEST_GROUP)
    assert out.completion == 1.0
    assert set(out.tallies.values()) == {histogram(choices, 2)}


def test_invalid_proof_ballot_excluded():
    choices = spp_choices(28, 2, 5)
    out, _ = run_spp(
        SppParams(28, 4, 3, 2), choices,
        faultless(byzantine={7: BEHAVIOR_INVALID_PROOF}), seed=5, group=TEST_GROUP,
    )
    remaining = [c for pid, c in enumerate(choices) if pid != 7]
    assert out.details["accepted"] == 27
    expected = histogram(remaining, 2)
    for pid, tally in out.tallies.items():
        if pid != 7:
            assert tally == expected


def test_silent_root_members_leave_run_incomplete():
    choices = spp_choices(28, 2, 6)
    ov = build_tree_clusters(28, 4, wire.derive_seed(6, "overlay"))
    byz = {pid: BEHAVIOR_SILENT_ROOT for pid in ov.members(0)[:2]}
    out, _ = run_spp(SppParams(28, 4, 3, 2), choices, faultless(byzantine=byz),
                     seed=6, group=TEST_GROUP)
    assert out.completion < 1.0


def test_decryption_confined_to_root_cluster():
    choices = spp_choices(28, 2, 7)
    out, _ = run_spp(SppParams(28, 4, 3, 2), choices, faultless(), seed=7,
                     group=TEST_GROUP)
    ov = build_tree_clusters(28, 4, wire.derive_seed(7, "overlay"))
    decrypters = {pid for pid, acts in out.roles.performed.items()
                  if any((a.phase, a.action) == ("evaluation", "partial-decrypt")
                         for a in acts)}
    assert decrypters <= set(ov.members(0))
    assert len(decrypters) == 3


def test_trace_determinism():
    choices = spp_choices(8, 2, 8)
    a = run_spp(SppParams(8, 4, 2, 2), choices, faultless(), seed=8, group=TEST_GROUP)[1]
    b = run_spp(SppParams(8, 4, 2, 2), choices, faultless(), seed=8, group=TEST_GROUP)[1]
    assert a.to_jsonl() == b.to_jsonl()


# -- units ------------------------------------------------------------------


def _report(tag: int, count: int = 5, subtree: int = 1, reporter: int = 0):
    rng = random.Random(tag)
    pk, _ = threshold_keygen(1, 1, TEST_GROUP, seed=tag)
    cts = tuple(encrypt_random(pk, 1, rng) for _ in range(2))
    return AggregateReport(subtree, cts, count, reporter)


def test_resolve_majority_wins():
    a1, a2 = _report(1, reporter=0), _report(1, reporter=1)
    b = _report(2, reporter=2)
    assert resolve_divergence([a1, a2, b]) == (a1.cts, a1.count)


def test_resolve_tie_is_incomplete():
    assert resolve_divergence([_report(1), _report(2)]) is None


def test_resolve_singleton():
    r = _report(3)
    assert resolve_divergence([r]) == (r.cts, r.count)


def test_resolve_empty_is_error():
    with pytest.raises(ValueError):
        resolve_divergence([])


def test_single_liar_every_placement_still_exact():
    # Exhaustive placement at desk scale: any single lying aggregator,
    # wherever it sits, cannot move the selected aggregate.
    choices = spp_choices(8, 2, 11)
    expected = histogram(choices, 2)
    for liar in range(8):
        out, _ = run_spp(
            SppParams(8, 4, 2, 2), choices,
            faultless(byzantine={liar: BEHAVIOR_LYING_AGGREGATE}), seed=11,
            group=TEST_GROUP,
        )
        assert out.completion == 1.0, f"liar {liar}"
        assert set(out.tallies.values()) == {expected}


def test_conservation_component_sum_is_accepted_count():
    choices = spp_choices(28, 3, 10)
    out, _ = run_spp(SppParams(28, 4, 3, 3), choices, faultless(), seed=10,
                     group=TEST_GROUP)
    tally = next(t for t in out.tallies.values() if t is not None)
    assert sum(tally) == out.details["accepted"] == 28


def test_lying_aggregate_stays_in_the_run_group():
    # The c10 liars, with every report they send recorded after mutation.
    sent = []

    def record(msg):
        if msg.get("t") == "report":
            sent.append(msg)
        return msg

    register_behavior(
        "test:recorded-lying-aggregate",
        lambda inner: SendFilter(resolve_behavior(BEHAVIOR_LYING_AGGREGATE)(inner), record),
    )
    choices = spp_choices(28, 2, 101)
    ov = build_tree_clusters(28, 4, wire.derive_seed(101, "overlay"))
    byz = {ov.members(ci)[0]: "test:recorded-lying-aggregate" for ci in range(7)}
    out, _ = run_spp(SppParams(28, 4, 3, 2), choices, faultless(byzantine=byz), seed=101,
                     group=TEST_GROUP)
    assert len(sent) == 24  # six non-root liars, four parent members each
    assert all(TEST_GROUP.is_element(int(x)) for msg in sent for ct in msg["cts"] for x in ct)
    assert out.completion == 1.0
    assert set(out.tallies.values()) == {histogram(choices, 2)}


def test_report_with_non_integer_subtree_is_ignored():
    register_behavior(
        "test:subtree-x",
        lambda inner: SendFilter(
            inner, lambda msg: {**msg, "subtree": "x"} if msg.get("t") == "report" else msg
        ),
    )
    choices = spp_choices(8, 2, 12)
    ov = build_tree_clusters(8, 4, wire.derive_seed(12, "overlay"))
    liar = ov.members(1)[0]
    out, _ = run_spp(SppParams(8, 4, 2, 2), choices, faultless(byzantine={liar: "test:subtree-x"}),
                     seed=12, group=TEST_GROUP)
    assert all(t is None or t == histogram(choices, 2) for t in out.tallies.values())


def test_report_with_non_integer_count_is_ignored():
    register_behavior(
        "test:count-x",
        lambda inner: SendFilter(
            inner, lambda msg: {**msg, "count": "x"} if msg.get("t") == "report" else msg
        ),
    )
    choices = spp_choices(8, 2, 12)
    ov = build_tree_clusters(8, 4, wire.derive_seed(12, "overlay"))
    liar = ov.members(1)[0]
    out, _ = run_spp(SppParams(8, 4, 2, 2), choices, faultless(byzantine={liar: "test:count-x"}),
                     seed=12, group=TEST_GROUP)
    assert all(t is None or t == histogram(choices, 2) for t in out.tallies.values())


def test_malformed_report_is_ignored():
    register_behavior(
        "test:report-cts-x",
        lambda inner: SendFilter(
            inner, lambda msg: {**msg, "cts": "x"} if msg.get("t") == "report" else msg
        ),
    )
    choices = spp_choices(8, 2, 12)
    ov = build_tree_clusters(8, 4, wire.derive_seed(12, "overlay"))
    liar = ov.members(1)[0]
    out, _ = run_spp(SppParams(8, 4, 2, 2), choices,
                     faultless(byzantine={liar: "test:report-cts-x"}), seed=12, group=TEST_GROUP)
    assert all(t is None or t == histogram(choices, 2) for t in out.tallies.values())


@pytest.mark.parametrize("field,value", [("cts", "x"), ("cts", [[1, "x"], [1, 1]]),
                                         ("proof", {"comp": [], "sum": []})])
def test_malformed_ballot_counts_as_invalid(field, value):
    register_behavior(
        "test:ballot-malformed",
        lambda inner: SendFilter(
            inner, lambda msg: {**msg, field: value} if msg.get("t") == "ballot" else msg
        ),
    )
    choices = spp_choices(8, 2, 12)
    out, _ = run_spp(SppParams(8, 4, 2, 2), choices,
                     faultless(byzantine={5: "test:ballot-malformed"}), seed=12, group=TEST_GROUP)
    # The liar counts its own ballot, so only the liar may end without a tally.
    assert out.details["accepted"] == 7
    expected = histogram([c for pid, c in enumerate(choices) if pid != 5], 2)
    assert all(t == expected for pid, t in out.tallies.items() if pid != 5)
