"""SPP runs against the plaintext oracle, plus the majority-resolution unit
behavior and threshold decryption at the root."""

import random
from collections import Counter

import pytest

from votesim.ballot import histogram
from votesim.crypto import (TEST_GROUP, Group, cts_to_obj, encrypt_random, partial_decrypt,
                            prove_ballot, threshold_keygen)
from votesim.overlay import build_tree_clusters
from votesim.simnet import (
    PHASE_CASTING,
    PHASE_EVALUATION,
    PHASE_REGISTRATION,
    FaultModel,
    SendFilter,
    register_behavior,
    resolve_behavior,
)
from votesim.spp import (
    BEHAVIOR_INVALID_PROOF,
    BEHAVIOR_LYING_AGGREGATE,
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
    # before its own subtree aggregate exists; the share waits under its
    # aggregate digest and is combined once the aggregate is built.
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
    byz = {pid: "crash-after-step 0" for pid in ov.members(0)[:2]}
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


def test_a_rerun_under_the_same_key_computes_its_own_answers(monkeypatch):
    # Each election starts with an empty group memo, so running the same
    # election twice in a row computes the same powers and challenges twice.
    computed = Counter()
    uncached_exp, uncached_hash = Group._exp, Group._hash_scalar

    def counting_exp(self, base, e):
        computed["exp"] += 1
        return uncached_exp(self, base, e)

    def counting_hash(self, domain, parts):
        computed["hash"] += 1
        return uncached_hash(self, domain, parts)

    monkeypatch.setattr(Group, "_exp", counting_exp)
    monkeypatch.setattr(Group, "_hash_scalar", counting_hash)
    group = Group(TEST_GROUP.p, TEST_GROUP.q, TEST_GROUP.g)
    runs = []
    for _ in range(2):
        computed.clear()
        out, _ = run_spp(SppParams(8, 4, 2, 2), spp_choices(8, 2, 8), faultless(), seed=8,
                         group=group)
        assert out.completion == 1.0
        runs.append(dict(computed))
    assert runs[1] == runs[0]
    # One challenge per OR-proof and one per sum proof, each computed once.
    assert runs[0]["hash"] == 8 * (2 + 1) and runs[0]["exp"] > 0


# -- units ------------------------------------------------------------------


def _report(tag: int, count: int = 5):
    rng = random.Random(tag)
    pk, _ = threshold_keygen(1, 1, TEST_GROUP, seed=tag)
    cts = tuple(encrypt_random(pk, 1, rng) for _ in range(2))
    return cts, count


def test_resolve_majority_wins():
    a1, a2 = _report(1), _report(1)
    b = _report(2)
    assert resolve_divergence([a1, a2, b]) == a1


def test_resolve_tie_is_incomplete():
    assert resolve_divergence([_report(1), _report(2)]) is None


def test_resolve_singleton():
    r = _report(3)
    assert resolve_divergence([r]) == r


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


def test_tally_whose_sum_misses_the_count_fails_verification():
    # Three of the four root members add 1 to the count in every result they
    # send, so a majority of the parent cluster backs a tally whose components
    # do not sum to the count: every voter below the root rejects it.
    register_behavior(
        "test:result-count-plus-one",
        lambda inner: SendFilter(
            inner,
            lambda msg: {**msg, "count": msg["count"] + 1} if msg.get("t") == "result" else msg,
        ),
    )
    root = build_tree_clusters(8, 4, wire.derive_seed(12, "overlay")).members(0)
    assert root == (0, 1, 2, 5)
    out, _ = run_spp(SppParams(8, 4, 2, 2), [0, 1] * 4,
                     faultless(byzantine={pid: "test:result-count-plus-one" for pid in (0, 1, 2)}),
                     seed=12, group=TEST_GROUP)
    failed = {pid for pid, acts in out.roles.performed.items()
              if any(a.action == "verify-failed" for a in acts)}
    assert failed == {3, 4, 6, 7}
    assert {pid: t for pid, t in out.tallies.items() if t is not None} == {
        pid: (4, 4) for pid in root}
    assert out.completion == 0.5


def _casts_twice(inner: SppVoter) -> SppVoter:
    """Right after casting, the member sends its cluster a second valid
    ballot, for the other option."""
    cast = inner._cast

    def twice(ctx):
        cast(ctx)
        cts, proof = prove_ballot(inner.pk, 1 - inner.choice, inner.params.d, ctx.rng)
        ctx.send([m for m in inner.members if m != inner.pid],
                 {"t": "ballot", "cts": cts_to_obj(cts), "proof": proof.to_obj()}, PHASE_CASTING)

    inner._cast = twice
    return inner


def test_member_keeps_a_members_first_ballot_and_ignores_a_second():
    # With max_delay 1 both ballots reach each member in the order they were
    # sent; counting the second would give (3, 5).
    register_behavior("test:spp-casts-twice", _casts_twice, SppVoter)
    choices = [0, 1] * 4
    out, _ = run_spp(SppParams(8, 4, 2, 2), choices,
                     FaultModel(byzantine={0: "test:spp-casts-twice"}), seed=12, group=TEST_GROUP)
    assert out.completion == 1.0
    assert set(out.tallies.values()) == {(4, 4)}
    assert out.details["accepted"] == 8


def _forge_share(index):
    """A behaviour: once its subtree aggregate exists, the peer also sends the
    other root members the wrong decryption-share values [7, 7] under the
    index ``index(inner)``."""
    def factory(inner: SppVoter) -> SppVoter:
        send_up = inner._maybe_send_up

        def forging(ctx):
            had = inner.subtree_agg is not None
            send_up(ctx)
            if not had and inner.subtree_agg is not None:
                ctx.send([m for m in inner.members if m != inner.pid],
                         {"t": "decshare", "idx": index(inner), "v": [7, 7],
                          "agg": inner._agg_digest()},
                         PHASE_EVALUATION)

        inner._maybe_send_up = forging
        return inner

    return factory


def test_decryption_share_under_another_members_index_is_ignored():
    # Peer 2 is a root member outside the lowest t = 2, so it never
    # decrypts; its share under index 1 must not take member 0's slot.
    register_behavior("test:forge-share-one", _forge_share(lambda inner: 1), SppVoter)
    choices = [0, 1] * 4
    assert build_tree_clusters(8, 4, wire.derive_seed(12, "overlay")).members(0) == (0, 1, 2, 5)
    out, _ = run_spp(SppParams(8, 4, 2, 2), choices,
                     faultless(byzantine={2: "test:forge-share-one"}), seed=12, group=TEST_GROUP)
    assert out.completion == 1.0
    assert set(out.tallies.values()) == {histogram(choices, 2)}


@pytest.mark.parametrize("liar", [2, 5])
def test_wrong_share_from_a_root_member_outside_the_lowest_t_is_ignored(liar):
    # Root members 2 and 5 rank above the lowest t = 2, so nobody combines
    # their shares: wrong values under the liar's own index change nothing.
    # Peer 2's share reaches members 0, 1 and 5 before they finish; at this
    # seed peer 5's reaches its members only after they have finished.
    register_behavior("test:forge-share-own",
                      _forge_share(lambda inner: inner.key_share.index), SppVoter)
    choices = [0, 1] * 4
    out, _ = run_spp(SppParams(8, 4, 2, 2), choices,
                     faultless(byzantine={liar: "test:forge-share-own"}), seed=12,
                     group=TEST_GROUP)
    assert out.completion == 1.0
    assert set(out.tallies.values()) == {histogram(choices, 2)}


def test_wrong_decryption_share_never_yields_a_wrong_tally():
    # The lowest root member sends wrong share values under its own index:
    # the other root members cannot combine, and nobody accepts a wrong tally.
    register_behavior(
        "test:decshare-7",
        lambda inner: SendFilter(
            inner, lambda msg: {**msg, "v": [7, 7]} if msg.get("t") == "decshare" else msg
        ),
    )
    choices = [0, 1] * 4
    out, _ = run_spp(SppParams(8, 4, 2, 2), choices,
                     faultless(byzantine={0: "test:decshare-7"}), seed=12, group=TEST_GROUP)
    assert all(t is None or t == histogram(choices, 2) for t in out.tallies.values())


@pytest.mark.parametrize("kind", ["pubkey", "result"])
def test_pubkey_or_result_from_outside_the_parent_cluster_is_ignored(kind):
    # Members 4, 6 and 7, a cluster majority but not member 3's parent
    # cluster, each send member 3 a forged key or tally at the start: only
    # the parent-cluster check keeps member 3 from adopting it.
    forged = {"pubkey": ({"t": "pubkey", "h": TEST_GROUP.g}, PHASE_REGISTRATION),
              "result": ({"t": "result", "tally": [8, 0], "count": 8}, PHASE_EVALUATION)}

    def factory(inner: SppVoter) -> SppVoter:
        start = inner.on_start

        def forging(ctx):
            start(ctx)
            ctx.send((3,), *forged[kind])

        inner.on_start = forging
        return inner

    register_behavior("test:tell-member-3", factory, SppVoter)
    ov = build_tree_clusters(8, 4, wire.derive_seed(12, "overlay"))
    assert (ov.members(0), ov.members(1)) == ((0, 1, 2, 5), (3, 4, 6, 7))
    choices = [0, 1] * 4
    out, _ = run_spp(SppParams(8, 4, 2, 2), choices,
                     faultless(byzantine=dict.fromkeys((4, 6, 7), "test:tell-member-3")),
                     seed=12, group=TEST_GROUP)
    assert out.completion == 1.0
    assert set(out.tallies.values()) == {histogram(choices, 2)}
    assert out.details["accepted"] == 8


def _volunteer_share(inner: SppVoter) -> SppVoter:
    """A root member outside the lowest t that also decrypts: it keeps its
    own, correct decryption share and sends it to the other root members."""
    send_up = inner._maybe_send_up

    def volunteering(ctx):
        had = inner.subtree_agg is not None
        send_up(ctx)
        if not had and inner.subtree_agg is not None:
            idx, digest = inner.key_share.index, inner._agg_digest()
            values = [partial_decrypt(inner.key_share, ct) for ct in inner.subtree_agg]
            ctx.send([m for m in inner.members if m != inner.pid],
                     {"t": "decshare", "idx": idx, "v": values, "agg": digest}, PHASE_EVALUATION)
            inner._collect_decshare(ctx, idx, values, digest)

    inner._maybe_send_up = volunteering
    return inner


def test_wrong_share_among_the_lowest_t_is_passed_over_for_a_correct_one():
    # Root member 0 (index 1) sends wrong share values; root member 2
    # (index 3), outside the lowest t = 2, volunteers a correct share. The
    # other root members combine the first two shares that do: indices 2, 3.
    register_behavior(
        "test:decshare-7",
        lambda inner: SendFilter(
            inner, lambda msg: {**msg, "v": [7, 7]} if msg.get("t") == "decshare" else msg
        ),
    )
    register_behavior("test:volunteer-share", _volunteer_share, SppVoter)
    choices = [0, 1] * 4
    out, _ = run_spp(SppParams(8, 4, 2, 2), choices,
                     faultless(byzantine={0: "test:decshare-7", 2: "test:volunteer-share"}),
                     seed=12, group=TEST_GROUP)
    assert {pid for pid, t in out.tallies.items() if t is None} <= {0}
    assert set(out.tallies.values()) - {None} == {histogram(choices, 2)}
