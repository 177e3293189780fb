"""Helios-like and full-mesh baselines."""

import random
from collections import Counter

import pytest

from votesim.ballot import histogram
from votesim.baselines import (
    BEHAVIOR_TAMPER_BULLETIN,
    HeliosParams,
    HeliosVoter,
    MESH_MODULUS,
    MeshParams,
    MeshVoter,
    run_helios_like,
    run_mesh_share,
)
from votesim.crypto import (DEFAULT_GROUP, TEST_GROUP, Group, cts_to_obj, lagrange_at_zero,
                            prove_ballot)
from votesim.crypto import group as group_mod
from votesim.simnet import (
    PHASE_CASTING,
    ConfigError,
    FaultModel,
    SendFilter,
    Simulator,
    register_behavior,
    resolve_behavior,
)


def h_choices(n, d, seed):
    rng = random.Random(seed)
    return [rng.randrange(d) for _ in range(n)]


def test_helios_honest_exact_and_verified():
    choices = h_choices(25, 2, 1)
    out, _ = run_helios_like(HeliosParams(25, 3, 2, 2), choices,
                             FaultModel(max_delay=3), seed=1, group=TEST_GROUP)
    assert out.completion == 1.0
    assert set(out.tallies.values()) == {histogram(choices, 2)}
    assert out.details["verification_failures"] == set()
    assert out.details["accepted"] == 25


def test_helios_memo_is_not_reused_across_elections(monkeypatch):
    # Every election starts with an empty memo, so re-running seed A, after
    # seed B or right after A itself, computes all of A's powers and
    # challenges again.
    computed = Counter()
    uncached_exp, uncached_hash = Group._exp, Group._hash_scalar
    uncached_jacobi = group_mod._jacobi

    def counting_exp(self, base, e):
        computed["exp"] += 1
        return uncached_exp(self, base, e)

    def counting_jacobi(a, n):
        computed["jacobi"] += 1
        return uncached_jacobi(a, n)

    def counting_hash(self, domain, parts):
        computed["hash"] += 1
        return uncached_hash(self, domain, parts)

    monkeypatch.setattr(Group, "_exp", counting_exp)
    monkeypatch.setattr(group_mod, "_jacobi", counting_jacobi)
    monkeypatch.setattr(Group, "_hash_scalar", counting_hash)
    params = HeliosParams(6, 3, 2, 2)
    group = Group(DEFAULT_GROUP.p, DEFAULT_GROUP.q, DEFAULT_GROUP.g)
    runs = []
    for seed in (1, 2, 1, 1):
        computed.clear()
        out, trace = run_helios_like(params, h_choices(6, 2, seed), FaultModel(max_delay=3),
                                     seed=seed, group=group)
        assert out.completion == 1.0
        runs.append((dict(computed), trace.to_jsonl()))
    assert runs[3] == runs[2] == runs[0]
    assert runs[0][0]["exp"] > 0 and runs[0][0]["jacobi"] > 0
    # One challenge per OR-proof and one per sum proof, each computed once.
    assert runs[0][0]["hash"] == 6 * (2 + 1)


def test_helios_hub_crash_completion_zero():
    choices = h_choices(25, 2, 2)
    params = HeliosParams(25, 3, 2, 2)
    out, trace = run_helios_like(
        params, choices, FaultModel(crashed=frozenset({params.hub}), max_delay=3),
        seed=2, group=TEST_GROUP,
    )
    assert out.completion == 0.0
    assert all(t is None for t in out.tallies.values())


def test_helios_tampered_bulletin_detected_by_voters():
    choices = h_choices(9, 2, 3)
    params = HeliosParams(9, 3, 2, 2)
    out, _ = run_helios_like(
        params, choices,
        FaultModel(max_delay=3, byzantine={params.hub: BEHAVIOR_TAMPER_BULLETIN}),
        seed=3, group=TEST_GROUP,
    )
    assert len(out.details["verification_failures"]) >= 1
    assert all(out.tallies[pid] is None for pid in out.details["verification_failures"])


def test_helios_tampered_bulletin_stays_in_the_run_group():
    bulletins = []

    def record(msg):
        if msg.get("t") == "bulletin":
            bulletins.append(msg)
        return msg

    register_behavior(
        "test:recorded-tamper-bulletin",
        lambda inner: SendFilter(resolve_behavior(BEHAVIOR_TAMPER_BULLETIN)(inner), record),
    )
    params = HeliosParams(9, 3, 2, 2)
    run_helios_like(
        params, h_choices(9, 2, 3),
        FaultModel(max_delay=3, byzantine={params.hub: "test:recorded-tamper-bulletin"}),
        seed=3, group=TEST_GROUP,
    )
    assert len(bulletins) == 9
    tampered = [ct for msg in bulletins for ct in msg["ballots"][0][1]]
    assert all(TEST_GROUP.is_element(int(x)) for ct in tampered for x in ct)


def test_helios_wrong_key_from_hub_is_detected_by_every_voter():
    # Ballots made under h*g fail at the hub, which then publishes an empty
    # bulletin with a zero tally; each voter misses its own ballot there.
    def wrong_key(msg):
        if msg.get("t") == "pubkey":
            return {**msg, "h": TEST_GROUP.mul(msg["h"], TEST_GROUP.g)}
        return msg

    register_behavior("test:helios-wrong-key", lambda inner: SendFilter(inner, wrong_key))
    params = HeliosParams(9, 3, 2, 2)
    out, _ = run_helios_like(
        params, h_choices(9, 2, 3),
        FaultModel(max_delay=3, byzantine={params.hub: "test:helios-wrong-key"}),
        seed=3, group=TEST_GROUP,
    )
    assert out.details["accepted"] == 0
    assert out.details["verification_failures"] == set(range(9))
    assert out.completion == 0.0


@pytest.mark.parametrize("field,value", [("cts", "x"), ("cts", [[1, 1]]),
                                         ("proof", {"comp": [[-1] * 8] * 2, "sum": [1, 1, 1]})])
def test_helios_malformed_ballot_counts_as_invalid(field, value):
    register_behavior(
        "test:helios-ballot-malformed",
        lambda inner: SendFilter(
            inner, lambda msg: {**msg, field: value} if msg.get("t") == "ballot" else msg
        ),
    )
    choices = h_choices(9, 2, 8)
    out, _ = run_helios_like(
        HeliosParams(9, 3, 2, 2), choices,
        FaultModel(max_delay=3, byzantine={2: "test:helios-ballot-malformed"}),
        seed=8, group=TEST_GROUP,
    )
    # Voter 2 cast a valid ballot that its own filter rewrote, so that ballot
    # is not on the bulletin and voter 2 rejects it; every other voter accepts.
    assert out.completion == 8 / 9
    assert out.details["accepted"] == 8
    assert out.details["verification_failures"] == {2}
    assert out.tallies[2] is None
    assert {out.tallies[pid] for pid in range(9) if pid != 2} == {
        histogram([c for pid, c in enumerate(choices) if pid != 2], 2)
    }


def _casts_twice(inner: HeliosVoter) -> HeliosVoter:
    """Right after casting, the voter sends the hub a second valid ballot,
    for the other option."""
    handle = inner.on_message

    def on_message(ctx, sender, msg):
        cast = inner.cast
        handle(ctx, sender, msg)
        if cast is None and inner.cast is not None:
            cts, proof = prove_ballot(inner.pk, 1 - inner.choice, inner.params.d, ctx.rng)
            ctx.send((inner.params.hub,), {"t": "ballot", "cts": cts_to_obj(cts),
                                           "proof": proof.to_obj()}, PHASE_CASTING)

    inner.on_message = on_message
    return inner


def test_helios_hub_keeps_a_voters_first_ballot_and_ignores_a_second():
    # With max_delay 1 both ballots reach the hub in the order they were sent.
    register_behavior("test:helios-casts-twice", _casts_twice, HeliosVoter)
    choices = [0, 0, 1, 1, 0]
    out, _ = run_helios_like(HeliosParams(5, 3, 2, 2), choices,
                             FaultModel(byzantine={0: "test:helios-casts-twice"}), seed=3,
                             group=TEST_GROUP)
    assert out.completion == 1.0
    assert set(out.tallies.values()) == {(3, 2)}
    assert out.details["accepted"] == 5
    assert out.details["verification_failures"] == set()


def test_helios_crashed_voters_do_not_block_the_rest():
    choices = h_choices(9, 2, 4)
    out, _ = run_helios_like(
        HeliosParams(9, 3, 2, 2), choices,
        FaultModel(crashed=frozenset({0, 1}), max_delay=3), seed=4, group=TEST_GROUP,
    )
    live = [c for pid, c in enumerate(choices) if pid not in (0, 1)]
    assert out.completion == 1.0  # among live voters
    for pid in range(2, 9):
        assert out.tallies[pid] == histogram(live, 2)


def test_helios_share_under_another_trustees_index_is_ignored():
    # Trustee 12 holds index 3 but sends its share under index 1; taking it
    # would leave the hub combining a wrong share in trustee 10's slot.
    register_behavior(
        "test:helios-share-as-one",
        lambda inner: SendFilter(
            inner,
            lambda msg: {**msg, "idx": 1, "v": [7, 7]} if msg.get("t") == "decshare" else msg,
        ),
    )
    params, choices = HeliosParams(9, 3, 2, 2), [0] * 5 + [1] * 4
    assert params.trustee_ids == (10, 11, 12)
    for seed in range(20):
        out, _ = run_helios_like(
            params, choices, FaultModel(max_delay=3, byzantine={12: "test:helios-share-as-one"}),
            seed=seed, group=TEST_GROUP,
        )
        assert out.completion == 1.0, seed
        assert set(out.tallies.values()) == {(5, 4)}


def test_helios_wrong_share_never_yields_a_wrong_tally():
    # Trustee 10 (index 1) sends wrong values under its own index, so the
    # shares the hub combines are inconsistent.
    register_behavior(
        "test:helios-decshare-7",
        lambda inner: SendFilter(
            inner, lambda msg: {**msg, "v": [7, 7]} if msg.get("t") == "decshare" else msg
        ),
    )
    choices = h_choices(9, 2, 3)
    out, _ = run_helios_like(
        HeliosParams(9, 3, 2, 2), choices,
        FaultModel(max_delay=3, byzantine={10: "test:helios-decshare-7"}),
        seed=3, group=TEST_GROUP,
    )
    assert all(t is None or t == histogram(choices, 2) for t in out.tallies.values())


@pytest.mark.parametrize("liar", [10, 11, 12])
def test_helios_wrong_share_is_passed_over_for_two_honest_ones(liar):
    # Whichever trustee sends wrong values under its own index, the other
    # two shares decrypt the tally and the hub publishes it.
    register_behavior(
        "test:helios-decshare-7",
        lambda inner: SendFilter(
            inner, lambda msg: {**msg, "v": [7, 7]} if msg.get("t") == "decshare" else msg
        ),
    )
    for seed in range(20):
        out, _ = run_helios_like(
            HeliosParams(9, 3, 2, 2), [0] * 5 + [1] * 4,
            FaultModel(max_delay=3, byzantine={liar: "test:helios-decshare-7"}),
            seed=seed, group=TEST_GROUP,
        )
        assert out.completion == 1.0, seed
        assert set(out.tallies.values()) == {(5, 4)}, seed


def _proof_emptied(msg):
    ballots = [list(b) for b in msg["ballots"]]
    ballots[0][2] = {"comp": [], "sum": []}
    return {**msg, "ballots": ballots}


@pytest.mark.parametrize("rewrite", [
    lambda msg: {**msg, "ballots": "x"},
    _proof_emptied,
    lambda msg: {**msg, "shares": msg["shares"][:1]},
], ids=["ballots-str", "proof-empty", "shares-below-t"])
def test_helios_malformed_bulletin_fails_every_voter(rewrite):
    register_behavior(
        "test:helios-bulletin-malformed",
        lambda inner: SendFilter(
            inner, lambda msg: rewrite(msg) if msg.get("t") == "bulletin" else msg
        ),
    )
    params = HeliosParams(9, 3, 2, 2)
    out, _ = run_helios_like(
        params, h_choices(9, 2, 3),
        FaultModel(max_delay=3, byzantine={params.hub: "test:helios-bulletin-malformed"}),
        seed=3, group=TEST_GROUP,
    )
    assert out.details["verification_failures"] == set(range(9))
    assert set(out.tallies.values()) == {None}


def _drop_a_vote_for_option_0(msg):
    """The hub's bulletin with one vote for option 0 decrypted away: component
    0 of the first listed share is multiplied by g^(1/λ), λ its Lagrange
    coefficient over the listed indices, so the shares combine to one less
    there; tally and accepted are published to match."""
    if msg.get("t") != "bulletin":
        return msg
    g, q = TEST_GROUP, TEST_GROUP.q
    (idx, values), *rest = msg["shares"]
    lam = lagrange_at_zero(idx, [i for i, _ in msg["shares"]], q)
    values = [g.mul(values[0], g.exp(g.g, pow(lam, -1, q))), *values[1:]]
    tally = [msg["tally"][0] - 1, *msg["tally"][1:]]
    return {**msg, "shares": [[idx, values], *rest], "tally": tally, "accepted": sum(tally)}


def test_helios_bulletin_whose_tally_misses_a_listed_ballot_fails_every_voter():
    # Decryption shares carry no proof, so the hub can move the sum: the
    # shares then combine to the published tally, which sums to accepted,
    # and only accepted == len(ballots) shows that a listed ballot is missing.
    register_behavior("test:helios-drop-a-vote",
                      lambda inner: SendFilter(inner, _drop_a_vote_for_option_0))
    params = HeliosParams(9, 3, 2, 2)
    out, _ = run_helios_like(
        params, [0] * 5 + [1] * 4,
        FaultModel(max_delay=3, byzantine={params.hub: "test:helios-drop-a-vote"}),
        seed=3, group=TEST_GROUP,
    )
    assert out.details["verification_failures"] == set(range(9))
    assert set(out.tallies.values()) == {None}


def test_helios_roles_are_configured_authorities():
    choices = h_choices(9, 2, 5)
    out, _ = run_helios_like(HeliosParams(9, 3, 2, 2), choices,
                             FaultModel(max_delay=3), seed=5, group=TEST_GROUP)
    origins = {r.name: r.origin for r in out.roles.assigned}
    assert origins == {"hub": "configured", "trustee": "configured"}


def test_helios_determinism():
    choices = h_choices(9, 2, 6)
    a = run_helios_like(HeliosParams(9, 2, 2, 2), choices, FaultModel(max_delay=3),
                        seed=6, group=TEST_GROUP)[1]
    b = run_helios_like(HeliosParams(9, 2, 2, 2), choices, FaultModel(max_delay=3),
                        seed=6, group=TEST_GROUP)[1]
    assert a.to_jsonl() == b.to_jsonl()


# -- mesh --------------------------------------------------------------------


def test_mesh_message_count_closed_form():
    for n in (2, 4, 8):
        choices = h_choices(n, 2, n)
        out, trace = run_mesh_share(MeshParams(n, 2), choices, FaultModel(), seed=n)
        assert trace.message_count() == 2 * n * (n - 1)
        assert out.completion == 1.0


def test_mesh_exact_histogram():
    choices = [0, 1, 0, 1, 0, 0, 1, 0]  # 5/3 split
    out, _ = run_mesh_share(MeshParams(8, 2), choices, FaultModel(), seed=1)
    assert set(out.tallies.values()) == {(5, 3)}


def test_mesh_rejects_single_peer():
    with pytest.raises(ConfigError):
        run_mesh_share(MeshParams(1, 2), [0], FaultModel(), seed=1)


def test_mesh_missing_share_means_incomplete():
    choices = h_choices(6, 2, 7)
    out, _ = run_mesh_share(MeshParams(6, 2), choices,
                            FaultModel(lose_messages=frozenset({0})), seed=7)
    assert out.completion < 1.0


def test_mesh_outgoing_shares_look_uniform():
    # Chi-square over 16 bins of the low bits of every share scalar sent by
    # one voter across seeds; threshold is the 0.999 quantile for df=15.
    bins = [0] * 16
    samples = 0
    for seed in range(40):
        sim = Simulator(FaultModel(), seed)
        voters = [MeshVoter(pid, 6, 2, 0) for pid in range(6)]
        for v in voters:
            sim.add_peer(v)
        sim.run_until_quiescent()
        for pid, share in voters[1].received.items():
            if pid == 1:
                continue  # the balancing share never leaves the sender
            for x in share:
                bins[x % 16] += 1
                samples += 1
    expected = samples / 16
    chi2 = sum((b - expected) ** 2 / expected for b in bins)
    assert chi2 < 37.7  # chi-square 0.999 quantile, 15 degrees of freedom


def test_mesh_partial_reconstruction_fails():
    # Summing the n-1 shares a coalition can see (everything except the
    # balancing share) should essentially never equal the ballot vector.
    hits = 0
    trials = 200
    for seed in range(trials):
        sim = Simulator(FaultModel(), seed)
        voters = [MeshVoter(pid, 5, 2, 0) for pid in range(5)]
        for v in voters:
            sim.add_peer(v)
        sim.run_until_quiescent()
        target = voters[0]
        coalition_view = [
            voters[pid].received[0] for pid in range(1, 5)
        ]
        total = [0, 0]
        for share in coalition_view:
            total = [(a + s) % MESH_MODULUS for a, s in zip(total, share)]
        hits += tuple(total) == (1, 0)
    assert hits == 0


@pytest.mark.parametrize("kind", ["share", "colsum"])
@pytest.mark.parametrize("rewrite", [lambda v: "x", lambda v: v[:1], lambda v: [*v[:1], "x"]],
                         ids=["string", "short", "non-int"])
def test_mesh_malformed_vector_is_ignored(kind, rewrite):
    register_behavior(
        "test:mesh-malformed",
        lambda inner: SendFilter(
            inner, lambda msg: {**msg, "v": rewrite(msg["v"])} if msg.get("t") == kind else msg
        ),
    )
    choices = h_choices(5, 2, 9)
    out, _ = run_mesh_share(MeshParams(5, 2), choices,
                            FaultModel(byzantine={1: "test:mesh-malformed"}), seed=9)
    assert all(out.tallies[pid] is None for pid in range(5) if pid != 1)
