"""Helios-like and full-mesh baselines."""

import random
from collections import Counter

import pytest

from votesim.ballot import histogram
from votesim.baselines import (
    BEHAVIOR_TAMPER_BULLETIN,
    HeliosParams,
    MESH_MODULUS,
    MeshParams,
    MeshVoter,
    run_helios_like,
    run_mesh_share,
)
from votesim.crypto import DEFAULT_GROUP, TEST_GROUP, Group
from votesim.crypto import group as group_mod
from votesim.simnet import (
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
    # Every election fixes a fresh key, which empties the group's memo, so
    # re-running seed A after seed B computes all of A's powers again.
    computed = Counter()
    uncached_exp, uncached_jacobi = Group._exp, group_mod._jacobi

    def counting_exp(self, base, e):
        computed["exp"] += 1
        return uncached_exp(self, base, e)

    def counting_jacobi(a, n):
        computed["jacobi"] += 1
        return uncached_jacobi(a, n)

    monkeypatch.setattr(Group, "_exp", counting_exp)
    monkeypatch.setattr(group_mod, "_jacobi", counting_jacobi)
    params = HeliosParams(6, 3, 2, 2)
    group = Group(DEFAULT_GROUP.p, DEFAULT_GROUP.q, DEFAULT_GROUP.g)
    runs = []
    for seed in (1, 2, 1):
        computed.clear()
        out, trace = run_helios_like(params, h_choices(6, 2, seed), FaultModel(max_delay=3),
                                     seed=seed, group=group)
        assert out.completion == 1.0
        runs.append((dict(computed), trace.to_jsonl()))
    assert runs[2] == runs[0]
    assert runs[0][0]["exp"] > 0 and runs[0][0]["jacobi"] > 0


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
