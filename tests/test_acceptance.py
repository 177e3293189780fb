"""Acceptance gate: the eleven end-to-end properties this package promises,
each with its tolerance pinned here.

Each test prints a single PASS line when it holds (run pytest with -s or
read test_output.txt to see them). Expected values come from independent
oracles computed in this file: plaintext histograms, closed-form and
pre-derived message counts, exhaustive enumeration, and direct-secret
decryption for the threshold checks.
"""

import itertools
import json
import random

import pytest

from votesim import analysis, scenarios, wire
from votesim.ballot import (
    DpolParams,
    decode_tally,
    encode_shares,
    histogram,
    vector_sum,
)
from votesim.baselines import HeliosParams, MeshParams, run_helios_like, run_mesh_share
from votesim.chainvote import ChainParams, run_chainvote
from votesim.cli import EXPECTED_TABLE1, table1_rows
from votesim.crypto import (
    InsufficientShares,
    TEST_GROUP,
    combine,
    decrypt,
    encrypt_random,
    lagrange_at_zero,
    partial_decrypt,
    prove_ballot,
    prove_vector,
    threshold_keygen,
    verify_ballot,
)
from votesim.crypto.blindsig import (
    blind,
    generate_issuer_key,
    random_blinding,
    random_serial,
    sign_blinded,
    unblind,
    verify_token,
)
from votesim.crypto.proofs import BallotProof, ComponentProof
from votesim.dpol import BEHAVIOR_INVALID_SHARES, ring_for, run_dpol
from votesim.overlay import build_gossip_mesh, build_tree_clusters
from votesim.simnet import FaultModel
from votesim.spp import BEHAVIOR_LYING_AGGREGATE, SppParams, run_spp


def ok(criterion: str, detail: str = "") -> None:
    print(f"PASS {criterion}" + (f": {detail}" if detail else ""))


def seeded_choices(n: int, d: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(d) for _ in range(n)]


# -- 1. taxonomy table reproduction (flagship) ------------------------------


def test_c01_taxonomy_table_reproduction():
    for seed in (1, 2, 3):
        rows = table1_rows(seed)
        got = {r.protocol: r.as_tuple() for r in rows}
        assert got == EXPECTED_TABLE1, f"seed {seed}: {got}"
    ok("criterion 1 (taxonomy table)", "5 rows exact over seeds 1-3")


# -- 2. Tally exactness -------------------------------------------------------


def test_c02_tally_exactness():
    checked = 0
    for d in (2, 3):
        # DPol: (d-1) | k and 2k+1 <= sqrt(n) leave only n=25 for d=3
        for n in (9, 16, 25):
            k = d - 1
            if 2 * k + 1 > int(n ** 0.5):
                continue
            choices = seeded_choices(n, d, 1000 + n + d)
            out, _ = run_dpol(DpolParams(n, k, d), choices, FaultModel(max_delay=3),
                              seed=20 + n)
            assert out.completion == 1.0
            assert set(out.tallies.values()) == {histogram(choices, d)}
            checked += 1
        for n in (16, 28, 64):
            choices = seeded_choices(n, d, 2000 + n + d)
            out, _ = run_spp(SppParams(n, 4, 3, d), choices, FaultModel(max_delay=3),
                             seed=30 + n)
            assert out.completion == 1.0
            assert set(out.tallies.values()) == {histogram(choices, d)}
            checked += 1

            choices = seeded_choices(n, d, 3000 + n + d)
            out, _ = run_chainvote(
                ChainParams(n, d, degree=4, difficulty=8, block_capacity=n),
                choices, FaultModel(max_delay=3), seed=40 + n,
            )
            assert out.completion == 1.0
            assert set(out.tallies.values()) == {histogram(choices, d)}
            checked += 1

            choices = seeded_choices(n, d, 4000 + n + d)
            out, _ = run_helios_like(
                HeliosParams(n, 3, 2, d), choices, FaultModel(max_delay=3), seed=50 + n
            )
            assert out.completion == 1.0
            assert set(out.tallies.values()) == {histogram(choices, d)}
            checked += 1

            choices = seeded_choices(n, d, 5000 + n + d)
            out, _ = run_mesh_share(MeshParams(n, d), choices, FaultModel(), seed=60 + n)
            assert out.completion == 1.0
            assert set(out.tallies.values()) == {histogram(choices, d)}
            checked += 1
    ok("criterion 2 (tally exactness)", f"{checked} grid points, zero tolerance")


# -- 3. DPol encode/decode inverse ---------------------------------------------


def test_c03_encode_decode_inverse():
    cases = 0
    for d in (2, 3, 5):
        for k in range(1, 5):
            if k % (d - 1):
                continue
            for n in range(0, 26):
                rng = random.Random(n * 31 + k * 7 + d)
                choices = [rng.randrange(d) for _ in range(n)]
                p = DpolParams(n, k, d)
                shares = []
                for owner, c in enumerate(choices):
                    shares.extend(encode_shares(c, p, seed=owner + d, owner=owner).shares)
                assert decode_tally(vector_sum(shares, d), p) == histogram(choices, d)
                cases += 1
    ok("criterion 3 (encode/decode inverse)", f"{cases} (n,k,d) cases, brute-force oracle")


# -- 4. Threshold property ---------------------------------------------------


def test_c04_threshold_property():
    rng = random.Random(4444)
    for i in range(200):
        n_holders = rng.randint(1, 6)
        t = rng.randint(1, n_holders)
        pk, shares = threshold_keygen(t, n_holders, TEST_GROUP, seed=i)
        m = rng.randrange(12)
        c = encrypt_random(pk, m, rng)
        # oracle: interpolate the secret from the first t shares, decrypt directly
        idx = [s.index for s in shares[:t]]
        x = sum(
            s.value * lagrange_at_zero(s.index, idx, TEST_GROUP.q) for s in shares[:t]
        ) % TEST_GROUP.q
        expected = decrypt(TEST_GROUP, x, c, 12)
        assert expected == m
        for subset in itertools.combinations(shares, t):
            dec = {s.index: partial_decrypt(s, c) for s in subset}
            assert combine(pk, dec, c, 12) == expected
        if t > 1:
            for subset in itertools.combinations(shares, t - 1):
                dec = {s.index: partial_decrypt(s, c) for s in subset}
                with pytest.raises(InsufficientShares):
                    combine(pk, dec, c, 12)
    ok("criterion 4 (threshold property)", "200 instances, all t-subsets agree")


# -- 5. Ballot-proof soundness and completeness -------------------------------


def test_c05_ballot_proof_soundness():
    pk, _ = threshold_keygen(2, 3, TEST_GROUP, seed=55)
    rng = random.Random(55)
    honest = 0
    for i in range(1000):
        d = 2 + (i % 3)  # d in {2,3,4}
        c = i % d
        cts, proof = prove_ballot(pk, c, d, rng)
        assert verify_ballot(pk, cts, proof)
        honest += 1

    rejected = 0
    # two-hot vectors
    for i in range(100):
        d = 2 + (i % 3)
        ms = [0] * d
        ms[i % d] = 1
        ms[(i + 1) % d] = 1
        cts, proof = prove_vector(pk, ms, rng)
        assert not verify_ballot(pk, cts, proof)
        rejected += 1
    # out-of-range exponents
    for i in range(100):
        d = 2 + (i % 3)
        ms = [0] * d
        ms[i % d] = 2 + (i % 5)
        cts, proof = prove_vector(pk, ms, rng)
        assert not verify_ballot(pk, cts, proof)
        rejected += 1
    # transcript tampering: bump one field of an honest proof
    for i in range(120):
        d = 2 + (i % 3)
        cts, proof = prove_ballot(pk, i % d, d, rng)
        comp = list(proof.components[0].to_obj())
        comp[i % 8] = (comp[i % 8] + 1) % TEST_GROUP.p
        bad = BallotProof(
            (ComponentProof.from_obj(comp),) + proof.components[1:], proof.sum_proof
        )
        assert not verify_ballot(pk, cts, bad)
        rejected += 1
    assert honest == 1000 and rejected >= 300
    ok("criterion 5 (proof soundness)", f"{honest} honest accepted, {rejected} malformed rejected")


# -- 6. Blind-token unlinkability ---------------------------------------------


def test_c06_blind_token_unlinkability():
    key = generate_issuer_key(seed=66, bits=768)
    rng = random.Random(66)
    transcript: set[int] = set()
    issued: set[int] = set()
    for _ in range(100):
        serial = random_serial(rng)
        r = random_blinding(rng, key.public)
        blinded = blind(serial, key.public, r)
        bsig = sign_blinded(blinded, key)
        token = unblind(bsig, r, key.public, serial)
        assert verify_token(token, key.public)
        transcript |= {blinded, bsig}
        issued |= {int(token.serial, 16), token.signature}
    assert transcript & issued == set()
    ok("criterion 6 (blind-token unlinkability)", "100 issuances, empty intersection")


# -- 7. Complexity exponents ---------------------------------------------------


def _analytic_mesh(n: int) -> int:
    return 2 * n * (n - 1)


def _analytic_dpol(n: int, k: int = 1) -> int:
    # casting + intra-cluster sums + (sqrt(n)-1) map rounds to 2k+1 recipients
    r = 2 * k + 1
    root = int(n ** 0.5)
    return n * r + n * (root - 1) + n * r * (root - 1)


def _analytic_spp(n: int, c: int = 4, t: int = 3) -> int:
    # DKG + downward key copies + in-cluster ballots + upward reports +
    # decryption shares + downward results
    m = n // c
    return 2 * c * (c - 1) + n * (c - 1) + 3 * c * c * (m - 1) + t * (c - 1)


def test_c07_complexity_exponents():
    mesh_runs = []
    for n in (8, 16, 32, 64):
        choices = seeded_choices(n, 2, n)
        _, trace = run_mesh_share(MeshParams(n, 2), choices, FaultModel(), seed=n)
        assert trace.message_count() == _analytic_mesh(n)
        mesh_runs.append((n, trace))
    fit = analysis.fit_complexity(mesh_runs)
    assert abs(fit.exponent - 2.0) <= 0.1

    dpol_runs = []
    for n in (16, 64, 256):
        choices = seeded_choices(n, 2, n)
        _, trace = run_dpol(DpolParams(n, 1, 2), choices, FaultModel(max_delay=3), seed=n)
        assert trace.message_count() == _analytic_dpol(n)
        dpol_runs.append((n, trace))
    dfit = analysis.fit_complexity(dpol_runs)
    assert abs(dfit.exponent - 1.5) <= 0.2

    spp_runs = []
    for n in (16, 32, 64, 128):
        choices = seeded_choices(n, 2, n)
        _, trace = run_spp(SppParams(n, 4, 3, 2), choices, FaultModel(max_delay=3),
                           seed=n, group=TEST_GROUP)
        assert trace.message_count() == _analytic_spp(n)
        spp_runs.append((n, trace))
    sfit = analysis.fit_complexity(spp_runs)
    assert abs(sfit.exponent - 1.0) <= 0.2
    ok(
        "criterion 7 (complexity exponents)",
        f"mesh {fit.exponent:.3f}, dpol {dfit.exponent:.3f}, spp {sfit.exponent:.3f}; "
        "counts equal the analytic oracles",
    )


# -- 8. DPol single-recipient leakage -----------------------------------------


def test_c08_dpol_leakage():
    results = {}
    for k, n in ((1, 9), (2, 25)):
        sc = scenarios.Scenario("dpol", n=n, d=2, seed=8, k=k)
        scenarios.validate(sc)
        out, trace = scenarios.run(sc)
        _, rmap = ring_for(DpolParams(n, k, 2), 8)
        coalition = {rmap.recipients[0][0]}  # one recipient of the target
        acc = analysis.privacy_probe(trace, coalition, target=0, trials=2000)
        expected = (k + 1) / (2 * k + 1)
        assert abs(acc - expected) <= 0.05, f"k={k}: {acc} vs {expected}"
        results[k] = acc
    ok("criterion 8 (single-recipient leakage)",
       f"k=1: {results[1]:.3f}~0.667, k=2: {results[2]:.3f}~0.600")


# -- 9. Robustness contrast ----------------------------------------------------


def test_c09_robustness_contrast():
    # Helios: crash the hub, nobody completes.
    params = HeliosParams(16, 3, 2, 2)
    choices = seeded_choices(16, 2, 91)
    out, _ = run_helios_like(
        params, choices, FaultModel(crashed=frozenset({params.hub}), max_delay=3),
        seed=91,
    )
    assert out.completion == 0.0

    # chainvote: 20% crashes on a still-connected residual mesh.
    n = 16
    crash_rng = random.Random(92)
    mesh_seed = wire.derive_seed(92, "overlay")
    ov = build_gossip_mesh(n, 4, mesh_seed)
    while True:
        crashed = frozenset(crash_rng.sample(range(n), round(0.2 * n)))
        alive = [p for p in range(n) if p not in crashed]
        adj = {p: [q for q in ov.neighbors(p) if q not in crashed] for p in alive}
        seen, frontier = {alive[0]}, [alive[0]]
        while frontier:
            u = frontier.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        if len(seen) == len(alive):
            break
    choices = seeded_choices(n, 2, 92)
    out, _ = run_chainvote(
        ChainParams(n, 2, degree=4, difficulty=8, block_capacity=n),
        choices, FaultModel(crashed=crashed, max_delay=3), seed=92,
    )
    assert out.completion == 1.0  # among survivors
    survivors = [p for p in range(n) if p not in crashed]
    expected = histogram([choices[p] for p in survivors], 2)
    assert all(out.tallies[p] == expected for p in survivors)

    # DPol: any single message loss flags incompleteness, never a wrong tally.
    dp = DpolParams(9, 1, 2)
    choices = seeded_choices(9, 2, 93)
    honest_out, honest_trace = run_dpol(dp, choices, FaultModel(max_delay=3), seed=93)
    total = honest_trace.message_count()
    expected = histogram(choices, 2)
    loss_rng = random.Random(93)
    placements = loss_rng.sample(range(total), 100) if total >= 100 else [
        loss_rng.randrange(total) for _ in range(100)
    ]
    for lost in placements:
        out, _ = run_dpol(
            dp, choices, FaultModel(max_delay=3, lose_messages=frozenset({lost})),
            seed=93,
        )
        assert out.completion < 1.0, f"loss of message {lost} went unnoticed"
        for tally in out.tallies.values():
            assert tally is None or tally == expected
    ok("criterion 9 (robustness contrast)",
       "hub crash -> 0, chainvote survivors -> 1.0 exact, 100 dpol losses flagged")


# -- 10. Byzantine tolerance -----------------------------------------------------


def test_c10_byzantine_tolerance():
    # SPP: one lying aggregator in every cluster, tally still exact.
    choices = seeded_choices(28, 2, 101)
    ov = build_tree_clusters(28, 4, wire.derive_seed(101, "overlay"))
    byz = {ov.members(ci)[0]: BEHAVIOR_LYING_AGGREGATE for ci in range(7)}
    out, _ = run_spp(SppParams(28, 4, 3, 2), choices,
                     FaultModel(max_delay=3, byzantine=byz), seed=101, group=TEST_GROUP)
    assert out.completion == 1.0
    assert set(out.tallies.values()) == {histogram(choices, 2)}

    # chainvote: every double spend rejected over 100 seeded attempts.
    for seed in range(100):
        n = 8
        choices = seeded_choices(n, 2, 10_000 + seed)
        spender = seed % n
        out, _ = run_chainvote(
            ChainParams(n, 2, degree=3, difficulty=6, block_capacity=n, issuer_bits=512),
            choices, FaultModel(max_delay=3, byzantine={spender: "chain:double-spend"}),
            seed=seed,
        )
        assert len(out.details["double_spend_serials"]) == 1
        tallies = {t for pid, t in out.tallies.items() if t is not None}
        assert len(tallies) == 1
        tally = tallies.pop()
        assert sum(tally) == n  # each token counted exactly once

    # DPol audit: flags exactly the injected peers, never an honest one.
    for seed in range(20):
        rng = random.Random(seed)
        bad = set(rng.sample(range(16), 2))
        choices = seeded_choices(16, 2, 20_000 + seed)
        out, _ = run_dpol(
            DpolParams(16, 1, 2, audit=True), choices,
            FaultModel(max_delay=3,
                       byzantine={p: BEHAVIOR_INVALID_SHARES for p in bad}),
            seed=seed,
        )
        assert out.details["flagged"] == bad
    ok("criterion 10 (byzantine tolerance)",
       "spp liars outvoted, 100 double spends rejected, audit exact")


# -- 11. Determinism -------------------------------------------------------------


def test_c11_determinism():
    reruns = 0
    for protocol in ("dpol", "spp", "helios", "chainvote", "mesh"):
        sc = scenarios.canonical_scenario(protocol, seed=11)
        (out_a, trace_a), (out_b, trace_b) = scenarios.run(sc), scenarios.run(sc)
        assert trace_a.to_jsonl() == trace_b.to_jsonl(), protocol
        assert json.dumps(out_a.to_obj(), sort_keys=True) == json.dumps(
            out_b.to_obj(), sort_keys=True
        ), protocol
        reruns += 1
    # a faulty scenario reruns identically too
    sc = scenarios.canonical_scenario("dpol", seed=12)
    sc.faults = FaultModel(max_delay=3, drop_probability=0.2,
                           byzantine={3: BEHAVIOR_INVALID_SHARES})
    sc.audit = True
    (out_a, trace_a), (out_b, trace_b) = scenarios.run(sc), scenarios.run(sc)
    assert trace_a.to_jsonl() == trace_b.to_jsonl()
    assert json.dumps(out_a.to_obj(), sort_keys=True) == json.dumps(
        out_b.to_obj(), sort_keys=True
    )
    reruns += 1
    ok("criterion 11 (determinism)", f"{reruns} scenarios byte-identical on rerun")
