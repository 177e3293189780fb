"""DPol protocol runs checked against the plaintext histogram oracle."""

import gc
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import events
from votesim import dpol, simnet, wire
from votesim.ballot import DpolParams, histogram
from votesim.dpol import (
    BEHAVIOR_INVALID_SHARES,
    BEHAVIOR_LYING_SUM,
    DpolVoter,
    cluster_tally,
    run_dpol,
)
from votesim.overlay import assign_recipients, build_ring_clusters
from votesim.simnet import PHASE_AGGREGATION, FaultModel, SendFilter, register_behavior


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


def test_trace_events_leave_the_cycle_collector():
    # Each event is a plain tuple of ints, strings and None, which a
    # collection untracks: a finished trace costs later collections nothing.
    _, trace = run_dpol(DpolParams(16, 1, 2), [0, 1] * 8, faultless(), seed=3)
    gc.collect()
    assert trace.events and not any(gc.is_tracked(e) for e in trace.events)


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
        DpolParams(16, 1, 2, audit=True),
        choices,
        faultless(byzantine={3: BEHAVIOR_INVALID_SHARES}),
        seed=5,
    )
    assert out.details["flagged"] == {3}


def test_audit_no_false_positives_over_seeds():
    choices = [0, 1, 0, 1, 0, 1, 0, 1, 0]
    for seed in range(10):
        out, _ = run_dpol(DpolParams(9, 1, 2, audit=True), choices, faultless(), seed=seed)
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
        DpolParams(9, 1, 2), choices, faultless(byzantine={4: "crash-after-step 0"}), seed=7
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
        acts = {(a.phase, a.action) for a in out.roles.performed[pid]}
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


# Hostile map bodies: a cluster key that is not an index, and a cluster tally
# that is not d ints. Either way the honest peer ignores the whole map.
HOSTILE_MAPS = {
    "key-x": lambda m: {"x": [0, 0]},
    "nested-tally": lambda m: {ci: [[1], [0]] for ci in m},
}


@pytest.mark.parametrize("body", sorted(HOSTILE_MAPS))
def test_map_with_malformed_body_is_ignored(body):
    register_behavior(
        f"test:map-{body}",
        lambda inner: SendFilter(
            inner,
            lambda msg: (
                {**msg, "m": HOSTILE_MAPS[body](msg["m"])} if msg.get("t") == "map" else msg
            ),
        ),
    )
    choices = [0, 1, 1, 0, 1, 0, 0, 1, 1]
    out, _ = run_dpol(DpolParams(9, 1, 2), choices, faultless(byzantine={4: f"test:map-{body}"}),
                      seed=9)
    assert all(t is None or t == histogram(choices, 2) for t in out.tallies.values())


def make_voter(n: int, k: int) -> DpolVoter:
    ov = build_ring_clusters(n, 1)
    return DpolVoter(0, DpolParams(n, k, 2), ov, assign_recipients(ov, k, 1), 0, 1,
                     [None] * len(ov.clusters))


class RecordingCtx:
    def __init__(self):
        self.actions = []

    def log_action(self, phase, action, consumes=(), detail=None):
        self.actions.append((phase, action, consumes, detail))


def merge_by_votes(voter: DpolVoter, ctx, per_round: dict[int, dict]) -> None:
    """The vote-counting merge of DpolVoter._merge_round, kept as the
    reference for its one-pass path over agreeing copies."""
    majority = voter.params.k + 1
    for ci in sorted({ci for m in per_round.values() for ci in m}):
        votes = {}
        for m in per_round.values():
            if ci in m:
                votes[m[ci]] = votes.get(m[ci], 0) + 1
        if len(votes) > 1:
            ctx.log_action(PHASE_AGGREGATION, "map-conflict", detail={"cluster": ci})
        winner = None
        for value, count in votes.items():
            if count >= majority:
                winner = value
        if winner is None:
            if sum(votes.values()) < majority:
                continue
            voter.poisoned.add(ci)
            ctx.log_action(PHASE_AGGREGATION, "tally-divergence", detail={"cluster": ci})
            continue
        if ci in voter.known:
            if voter.known[ci] != winner:
                ctx.log_action(PHASE_AGGREGATION, "tally-discrepancy", detail={"cluster": ci})
        else:
            voter.known[ci] = winner


INDICES = st.integers(0, 4)
TALLIES = st.tuples(st.integers(0, 2), st.integers(0, 2))
MAPS = st.dictionaries(INDICES, TALLIES, max_size=5)


@st.composite
def merge_cases(draw):
    """(k, copies of one round's map, known, poisoned). The copies all agree
    (one object or equal dicts), or some conflict, miss indices or differ."""
    k = draw(st.sampled_from([1, 2]))
    base = draw(MAPS)
    agree = draw(st.booleans())
    kinds = ["same", "equal"] + ([] if agree else ["conflict", "missing", "other"])
    copies = []
    for _ in range(draw(st.integers(1, 2 * k + 1))):
        kind = draw(st.sampled_from(kinds))
        if kind == "same":
            copies.append(base)
        elif kind == "equal":
            copies.append(dict(base))
        elif kind == "conflict":
            copies.append({**base, draw(INDICES): draw(TALLIES)})
        elif kind == "missing":
            copies.append({ci: v for ci, v in base.items() if ci != draw(INDICES)})
        else:
            copies.append(draw(MAPS))
    return k, copies, draw(MAPS), draw(st.sets(INDICES, max_size=2))


@settings(max_examples=300, deadline=None)
@given(case=merge_cases())
def test_merge_fast_path_equals_vote_counting(case):
    k, copies, known, poisoned = case
    per_round = dict(enumerate(copies))
    (fast, fast_ctx), (ref, ref_ctx) = [(make_voter(9 if k == 1 else 25, k), RecordingCtx())
                                        for _ in range(2)]
    for voter in (fast, ref):
        voter.known, voter.poisoned = dict(known), set(poisoned)
    fast._merge_round(fast_ctx, per_round)
    merge_by_votes(ref, ref_ctx, per_round)
    assert list(fast.known.items()) == list(ref.known.items())
    assert fast.poisoned == ref.poisoned
    assert fast_ctx.actions == ref_ctx.actions


HONEST_MAP = b'{"m":{"0":[1,5]},"r":0,"t":"map"}'


@pytest.mark.parametrize("lie", ["1.0", "true"])
def test_map_with_other_bytes_is_judged_on_its_own(lie):
    # Equal to the honest map as Python values, but not as bytes: the
    # decoder refuses it between two honest copies it parses.
    decode = dpol.decoder(DpolParams(9, 1, 2))
    liar = f'{{"m":{{"0":[{lie},5]}},"r":0,"t":"map"}}'.encode()
    first, lied, last = decode(HONEST_MAP), decode(liar), decode(HONEST_MAP)
    assert first == last == {"t": "map", "r": 0, "m": {0: (1, 5)}}
    assert lied is None
    assert all(type(x) is int for x in first["m"][0] + last["m"][0])


def record_decodes(monkeypatch) -> list[tuple]:
    """Patch run_dpol's decoder so each payload it decodes is recorded as
    (the payload, its JSON, what the decoder made of it)."""
    decoded, decoder = [], dpol.decoder

    def recording_decoder(params):
        decode = decoder(params)

        def recording(payload):
            msg = decode(payload)
            decoded.append((payload, json.loads(payload), msg))
            return msg

        return recording

    monkeypatch.setattr(dpol, "decoder", recording_decoder)
    return decoded


def record_merges(monkeypatch) -> list[set]:
    """Patch run_dpol's voters so each round they merge is recorded as the
    set of senders whose maps it holds."""
    merged = []

    class Recording(DpolVoter):
        def _merge_round(self, ctx, per_round):
            merged.append(set(per_round))
            super()._merge_round(ctx, per_round)

    monkeypatch.setattr(dpol, "DpolVoter", Recording)
    return merged


def test_value_equal_map_in_other_bytes_is_dropped(monkeypatch):
    """A liar re-sends each map with its ints as floats (4.0 for 4): equal to
    the honest copies as Python values but not as bytes, so the decoder
    refuses it even after it parsed an honest copy of the same round."""
    liar, decoded, merged = 4, record_decodes(monkeypatch), record_merges(monkeypatch)
    register_behavior("test:float-map", lambda inner: SendFilter(
        inner, lambda msg: {**msg, "m": {ci: [float(x) for x in v] for ci, v in msg["m"].items()}}
        if msg.get("t") == "map" else msg))
    run_dpol(DpolParams(9, 1, 2), [0, 1, 1, 0, 1, 0, 0, 1, 1],
             faultless(byzantine={liar: "test:float-map"}), seed=9)
    assert merged and all(liar not in senders for senders in merged)
    maps = [(obj, msg) for _, obj, msg in decoded if obj["t"] == "map"]
    lied = [msg for obj, msg in maps if any(type(x) is float for v in obj["m"].values() for x in v)]
    assert lied and all(msg is None for msg in lied)
    # The precondition: the decoder parsed an honest copy of a round before a
    # liar's copy whose JSON equals it (right before it: see the test above).
    assert any(a[0] == b[0] and a[1] is not None and b[1] is None
               for i, b in enumerate(maps) for a in maps[:i])


class StubCtx(RecordingCtx):
    def __init__(self):
        super().__init__()
        self.rounds_sent = []

    def send(self, dsts, msg, phase, payload=None):
        self.rounds_sent.append(msg["r"])

    def finish(self):
        pass


def test_map_for_a_merged_round_is_ignored():
    voter, ctx = make_voter(9, 1), StubCtx()
    voter.known[voter.pred_cluster] = (3, 0)
    honest = dpol.decoder(voter.params)(b'{"m":{"0":[1,5]},"r":0,"t":"map"}')
    for sender in sorted(voter.expected_senders):
        voter.on_message(ctx, sender, honest)
    assert ctx.rounds_sent == [1]  # round 0 merged, so the voter forwards round 1
    voter.on_message(ctx, min(voter.expected_senders), honest)
    assert 0 not in voter.round_maps


def record_map_runs(monkeypatch):
    """Patch run_dpol's voters, its decoder and wire.int_vector so each run
    records its voters, its deliveries, and for each payload it decoded the
    values the payload held and how many values were judged then."""
    runs, judged = [], [0]
    decoder, int_vector = dpol.decoder, wire.int_vector

    def counting(v, n):
        judged[0] += 1
        return int_vector(v, n)

    def recording_decoder(params):
        decode, run = decoder(params), {"voters": [], "parses": [], "delivered": 0,
                                        "judged_in_handlers": 0}
        runs.append(run)

        def recording(payload):
            before, obj = judged[0], json.loads(payload)
            msg = decode(payload)
            run["parses"].append((len(obj["m"]) if obj["t"] == "map" else 1,
                                  judged[0] - before, obj["t"]))
            return msg

        return recording

    class Recording(DpolVoter):
        def __init__(self, *args):
            super().__init__(*args)
            runs[-1]["voters"].append(self)

        def on_message(self, ctx, sender, msg):
            before = judged[0]
            super().on_message(ctx, sender, msg)
            runs[-1]["delivered"] += msg["t"] == "map"
            runs[-1]["judged_in_handlers"] += judged[0] - before

    monkeypatch.setattr(dpol, "DpolVoter", Recording)
    monkeypatch.setattr(dpol, "decoder", recording_decoder)
    monkeypatch.setattr(wire, "int_vector", counting)
    return runs


def test_each_map_object_is_judged_once_per_run(monkeypatch):
    runs = record_map_runs(monkeypatch)
    choices = [i % 2 for i in range(49)]
    for seed in (5, 6, 5):
        out, _ = run_dpol(DpolParams(49, 1, 2), choices, faultless(), seed=seed)
        assert set(out.tallies.values()) == {histogram(choices, 2)}
    assert len(runs) == 3
    for run in runs:
        assert len(run["voters"]) == 49
        # Each decoded payload judges every value it holds, once: a share's
        # or sum's vector, each of a map's tallies. No handler judges a
        # value, and voters share each decoded map.
        assert all(held == n for held, n, _ in run["parses"])
        assert run["judged_in_handlers"] == 0
        maps = sum(1 for _, _, kind in run["parses"] if kind == "map")
        assert 0 < maps < run["delivered"]
    # The repeated seed judged all its maps again: no parse came from a
    # run before it.
    assert runs[2]["parses"] == runs[0]["parses"]


@pytest.mark.parametrize("body", sorted(HOSTILE_MAPS))
def test_malformed_map_is_malformed_for_every_voter(monkeypatch, body):
    liar, decoded, merged = 4, record_decodes(monkeypatch), record_merges(monkeypatch)
    register_behavior(f"test:map-{body}", lambda inner: SendFilter(
        inner, lambda msg: {**msg, "m": HOSTILE_MAPS[body](msg["m"])}
        if msg.get("t") == "map" else msg))
    _, trace = run_dpol(DpolParams(9, 1, 2), [0, 1, 1, 0, 1, 0, 0, 1, 1],
                        faultless(byzantine={liar: f"test:map-{body}"}), seed=9)
    # The decoder refuses every hostile map and no honest message, and one
    # refused copy stands for several deliveries, to more than one voter.
    hostile = [payload for payload, obj, _ in decoded
               if obj["t"] == "map" and obj["m"] == HOSTILE_MAPS[body](obj["m"])]
    assert hostile and all((msg is None) == (payload in hostile) for payload, _, msg in decoded)
    digests = {wire.digest(payload) for payload in hostile}
    deliveries = [e.dst for e in events(trace) if e.kind == "deliver" and e.digest in digests]
    assert len(set(deliveries)) > 1 and len(hostile) < len(deliveries)
    assert merged and all(liar not in senders for senders in merged)


# -- the run's map cache: one (round, known, message, payload) slot per cluster


def record_map_sends(monkeypatch) -> list[tuple]:
    """Patch run_dpol's voters and Simulator.send so each map a voter sends
    is recorded as (pid, cluster, round, the map its own state makes, the
    payloads handed to the simulator for it)."""
    sends, open_sends, sim_send = [], [], simnet.Simulator.send

    def send(self, src, dsts, payload, phase):
        if open_sends:
            open_sends[-1].append(payload)
        sim_send(self, src, dsts, payload, phase)

    class Recording(DpolVoter):
        def _send_map(self, ctx, r):
            msg = {"t": "map", "r": r, "m": {str(ci): v for ci, v in self.known.items()}}
            open_sends.append([])
            super()._send_map(ctx, r)
            sends.append((self.pid, self.cluster, r, msg, open_sends.pop()))

    monkeypatch.setattr(simnet.Simulator, "send", send)
    monkeypatch.setattr(dpol, "DpolVoter", Recording)
    return sends


DPOL_LIAR = 2


@pytest.mark.parametrize("n, k", [(16, 1), (25, 2)])
@pytest.mark.parametrize("max_delay", [1, 5])
@pytest.mark.parametrize("behavior", [None, BEHAVIOR_LYING_SUM])
def test_every_map_payload_encodes_the_senders_own_map(monkeypatch, n, k, max_delay, behavior):
    sends = record_map_sends(monkeypatch)
    byzantine = {} if behavior is None else {DPOL_LIAR: behavior}
    choices = random.Random(n).choices(range(2), k=n)
    out, _ = run_dpol(DpolParams(n, k, 2), choices,
                      FaultModel(max_delay=max_delay, byzantine=byzantine), seed=n + max_delay)
    if behavior is None:
        assert out.completion == 1.0
    seen, reused = set(), 0
    for pid, _, _, msg, payloads in sends:
        if pid in byzantine:
            msg = dpol._mutate_lying_sum(msg)
        assert payloads and all(p == wire.dumps(msg) for p in payloads)
        reused += id(payloads[0]) in seen
        seen.update(map(id, payloads))
    # Most honest sends reuse a cluster-mate's bytes: the cache is in play.
    assert reused > len(sends) / 2


def cluster_pair() -> list[DpolVoter]:
    """Two members of cluster 0 of a DPol n=9 ring, sharing one map cache."""
    ov = build_ring_clusters(9, 1)
    params, rmap, maps = DpolParams(9, 1, 2), assign_recipients(ov, 1, 1), [None] * 3
    return [DpolVoter(pid, params, ov, rmap, 0, 1, maps) for pid in ov.members(0)[:2]]


class PayloadCtx:
    def __init__(self):
        self.payloads = []

    def send(self, dsts, msg, phase, payload=None):
        self.payloads.append(wire.dumps(msg) if payload is None else payload)


CACHED_KNOWN = {0: (1, 2), 2: (3, 4)}


@pytest.mark.parametrize("r, known", [
    (2, CACHED_KNOWN),  # another round
    (1, {0: (1, 3), 2: (3, 4)}),  # another value under the first index
    (1, {0: (1, 2), 2: (3, 5)}),  # ... under the second
    (1, {2: (1, 2), 0: (3, 4)}),  # the same values under swapped indices
    (1, {0: (1, 2), 1: (3, 4)}),  # the same values under another index
])
def test_member_unlike_the_cached_map_sends_its_own(r, known):
    first, second = cluster_pair()
    ctx = PayloadCtx()
    first.known, second.known = dict(CACHED_KNOWN), dict(known)
    first._send_map(ctx, 1)
    second._send_map(ctx, r)
    assert ctx.payloads[1] == wire.dumps(
        {"t": "map", "r": r, "m": {str(ci): v for ci, v in known.items()}})


def test_cached_map_is_not_the_senders_live_state():
    # The first sender learns another tally after sending; a member that
    # holds the grown map at the same round must not get the old bytes.
    first, second = cluster_pair()
    ctx = PayloadCtx()
    first.known = dict(CACHED_KNOWN)
    first._send_map(ctx, 1)
    first.known[1] = (5, 6)
    second.known = dict(first.known)
    second._send_map(ctx, 1)
    assert ctx.payloads[1] == wire.dumps(
        {"t": "map", "r": 1, "m": {str(ci): v for ci, v in first.known.items()}})


@pytest.mark.parametrize("n, k", [(16, 1), (25, 2)])
def test_lying_sum_liar_still_lies_beside_the_cache(monkeypatch, n, k):
    sends = record_map_sends(monkeypatch)
    choices = random.Random(n).choices(range(2), k=n)
    run_dpol(DpolParams(n, k, 2), choices,
             faultless(byzantine={DPOL_LIAR: BEHAVIOR_LYING_SUM}), seed=n)
    cluster = next(c for pid, c, *_ in sends if pid == DPOL_LIAR)
    lies = {r: set(payloads) for pid, _, r, _, payloads in sends if pid == DPOL_LIAR}
    honest = [(c, r, set(payloads)) for pid, c, r, _, payloads in sends if pid != DPOL_LIAR]
    # At round 0 the liar's inflated tally is the one its cluster-mates
    # summed from its inflated local sum, so the bytes agree by arithmetic;
    # from round 1 on it also inflates every tally it forwards.
    lied = set().union(*(lies[r] for r in lies if r > 0))
    assert len(lies) == int(n ** 0.5) - 1 and lied
    for c, r, payloads in honest:
        assert not payloads & lied
        if c == cluster and r > 0:
            assert payloads != lies[r]
