"""Bulletin-board voting: token issuance, gossip, PoW, forks, double spends."""

import hashlib
import random
from dataclasses import replace

import pytest
from conftest import events
from hypothesis import given, settings, strategies as st

from votesim import chainvote, wire
from votesim.ballot import histogram
from votesim.chainvote import (
    BEHAVIOR_DOUBLE_SPEND,
    Block,
    BEHAVIOR_WITHHOLD,
    ChainError,
    ChainParams,
    ChainView,
    GENESIS_HASH,
    IssuanceRefused,
    TokenIssuer,
    Transaction,
    issue_tokens,
    mine_block,
    run_chainvote,
    tally_chain,
)
from votesim.crypto.blindsig import Token, generate_issuer_key, hash_serial, verify_token
from votesim.simnet import (
    PHASE_AGGREGATION,
    FaultModel,
    SendFilter,
    register_behavior,
)

DIFF = 6  # cheap PoW for unit tests


@pytest.fixture(scope="module")
def issuer_key():
    return generate_issuer_key(seed=500, bits=768)


@pytest.fixture(scope="module")
def tokens16(issuer_key):
    return issue_tokens(list(range(16)), issuer_key, seed=500)


def params(n=16, **kw):
    base = dict(n=n, d=2, degree=4, difficulty=8, block_capacity=32)
    base.update(kw)
    return ChainParams(**base)


def chain_choices(n, d, seed):
    rng = random.Random(seed)
    return [rng.randrange(d) for _ in range(n)]


def test_issue_distinct_verifying_tokens(issuer_key, tokens16):
    tokens, transcript = tokens16
    assert len(tokens) == 16
    assert len({t.serial for t in tokens.values()}) == 16
    assert all(verify_token(t, issuer_key.public) for t in tokens.values())


def test_second_issuance_refused(issuer_key):
    issuer = TokenIssuer(issuer_key, seed=7)
    issuer.issue(3)
    with pytest.raises(IssuanceRefused):
        issuer.issue(3)


def test_transcript_never_matches_issued_values(issuer_key, tokens16):
    tokens, transcript = tokens16
    issued = set()
    for t in tokens.values():
        issued |= {t.signature, int(t.serial, 16), hash_serial(t.serial, issuer_key.n)}
    assert transcript.values() & issued == set()


def test_honest_run_exact_and_agreed():
    choices = chain_choices(16, 2, 1)
    out, trace = run_chainvote(params(), choices, FaultModel(max_delay=3), seed=1)
    assert out.completion == 1.0
    assert set(out.tallies.values()) == {histogram(choices, 2)}
    assert len(out.details["proposers"]) >= 1


def test_determinism():
    choices = chain_choices(16, 2, 2)
    a = run_chainvote(params(), choices, FaultModel(max_delay=3), seed=2)[1]
    b = run_chainvote(params(), choices, FaultModel(max_delay=3), seed=2)[1]
    assert a.to_jsonl() == b.to_jsonl()


def test_flood_reaches_every_honest_peer():
    # On a connected mesh every cast transaction ends up counted by every
    # peer: each tally covers all 16 tokens.
    choices = chain_choices(16, 2, 7)
    out, _ = run_chainvote(params(), choices, FaultModel(max_delay=3), seed=7)
    for tally in out.tallies.values():
        assert tally is not None and sum(tally) == 16


def test_double_spender_counted_exactly_once():
    choices = chain_choices(16, 2, 3)
    out, _ = run_chainvote(
        params(), choices, FaultModel(max_delay=3, byzantine={5: BEHAVIOR_DOUBLE_SPEND}),
        seed=3,
    )
    assert len(out.details["double_spend_serials"]) == 1
    # everyone agrees, total counted = 16 (one per token), and the double
    # spender contributed exactly one of its two choices
    tallies = {t for t in out.tallies.values() if t is not None}
    assert len(tallies) == 1
    tally = tallies.pop()
    assert sum(tally) == 16
    others = [c for pid, c in enumerate(choices) if pid != 5]
    base = histogram(others, 2)
    diff = tuple(t - b for t, b in zip(tally, base))
    assert sorted(diff) == [0, 1]  # exactly one extra vote somewhere


def test_crashed_peer_casts_nothing():
    choices = chain_choices(16, 2, 4)
    out, trace = run_chainvote(
        params(), choices, FaultModel(max_delay=3, crashed=frozenset({0})), seed=4
    )
    live = [c for pid, c in enumerate(choices) if pid != 0]
    expected = histogram(live, 2)
    for pid, tally in out.tallies.items():
        if pid != 0:
            assert tally == expected
    assert out.tallies[0] is None
    assert {e.src for e in events(trace) if e.kind == "send"}.isdisjoint({0})


def test_silent_peer_forwards_nothing():
    choices = chain_choices(16, 2, 5)
    out, trace = run_chainvote(
        params(), choices, FaultModel(max_delay=3, byzantine={2: "crash-after-step 0"}), seed=5
    )
    assert all(e.src != 2 for e in events(trace) if e.kind == "send")
    live = [c for pid, c in enumerate(choices) if pid != 2]
    tallies = {t for pid, t in out.tallies.items() if pid != 2 and t is not None}
    assert tallies == {histogram(live, 2)}


def test_withholding_proposer_does_not_stop_honest_peers():
    choices = chain_choices(16, 2, 6)
    out, _ = run_chainvote(
        params(), choices, FaultModel(max_delay=3, byzantine={1: BEHAVIOR_WITHHOLD}),
        seed=6,
    )
    honest = {t for pid, t in out.tallies.items() if pid != 1 and t is not None}
    assert len(honest) == 1
    assert sum(honest.pop()) == 16  # every token still counted


def test_pow_attempt_count_matches_geometric_expectation(issuer_key, tokens16):
    # Mean attempts over many blocks should be near 2^D (within 2x).
    tokens, _ = tokens16
    d = 6
    attempts = []
    rng = random.Random(42)
    tx_pool = [
        Transaction(tok, rng.randrange(2), rng.getrandbits(256).to_bytes(32, "big").hex())
        for tok in tokens.values()
    ]
    parent = GENESIS_HASH
    for i in range(120):
        block, a = mine_block(parent, 1, (tx_pool[i % 16],), i, d)
        attempts.append(a)
    mean = sum(attempts) / len(attempts)
    assert 2 ** d / 2 <= mean <= 2 ** d * 2


def test_spent_token_block_rejected(issuer_key, tokens16):
    tokens, _ = tokens16
    view = ChainView(issuer_key.public, DIFF)
    tok = tokens[0]
    tx1 = Transaction(tok, 0, "11" * 32)
    tx2 = Transaction(tok, 1, "22" * 32)
    b1, _ = mine_block(GENESIS_HASH, 1, (tx1,), 0, DIFF)
    assert view.add_block(b1) == "added"
    b2, _ = mine_block(b1.block_hash(), 2, (tx2,), 1, DIFF)
    assert view.add_block(b2) == "invalid"
    # in-block duplicates are rejected too
    b3, _ = mine_block(GENESIS_HASH, 1, (tx1, tx2), 2, DIFF)
    assert ChainView(issuer_key.public, DIFF).add_block(b3) == "invalid"


def test_fork_resolution_longest_then_lowest_hash(issuer_key, tokens16):
    tokens, _ = tokens16
    view = ChainView(issuer_key.public, DIFF)
    tx_a = Transaction(tokens[1], 0, "aa" * 32)
    tx_b = Transaction(tokens[2], 1, "bb" * 32)
    fork_a, _ = mine_block(GENESIS_HASH, 1, (tx_a,), 0, DIFF)
    fork_b, _ = mine_block(GENESIS_HASH, 1, (tx_b,), 1, DIFF)
    view.add_block(fork_a)
    view.add_block(fork_b)
    lower = min([fork_a, fork_b], key=lambda b: int(b.block_hash(), 16))
    assert view.best == lower.block_hash()
    # extending the higher-hash fork flips the decision to length
    higher = fork_a if lower is fork_b else fork_b
    ext, _ = mine_block(higher.block_hash(), 2, (), 2, DIFF)
    view.add_block(ext)
    assert view.best == ext.block_hash()


def test_orphan_blocks_attach_when_parent_arrives(issuer_key, tokens16):
    tokens, _ = tokens16
    view = ChainView(issuer_key.public, DIFF)
    b1, _ = mine_block(GENESIS_HASH, 1, (), 0, DIFF)
    b2, _ = mine_block(b1.block_hash(), 2, (), 0, DIFF)
    assert view.add_block(b2) == "orphan"
    assert view.add_block(b1) == "added"
    assert view.best == b2.block_hash()


@pytest.fixture(scope="module")
def long_chain():
    """1,200 empty blocks on genesis at difficulty 4, parent first."""
    blocks, parent = [], GENESIS_HASH
    for height in range(1, 1201):
        block, _ = mine_block(parent, height, (), 0, 4)
        blocks.append(block)
        parent = block.block_hash()
    return blocks


def test_child_first_chain_is_adopted_without_recursion(issuer_key, long_chain):
    # Each block waits as an orphan until genesis' child arrives last; one
    # call frame per generation would overflow the interpreter's stack.
    view = ChainView(issuer_key.public, 4)
    assert [view.add_block(b) for b in reversed(long_chain[1:])] == ["orphan"] * 1199
    assert view.add_block(long_chain[0]) == "added"
    assert view.best_height == 1200
    assert view.best == long_chain[-1].block_hash()
    assert not view.orphans


class _BlocksAtStart(SendFilter):
    """Sends its neighbours the given blocks, in order, at start, then runs
    the honest peer."""

    def __init__(self, inner, blocks: list[Block]):
        super().__init__(inner, lambda msg: msg)
        self.blocks = blocks

    def on_start(self, ctx):
        for block in self.blocks:
            ctx.send(self.inner.neighbors, {"t": "block", "block": block.to_obj()},
                     PHASE_AGGREGATION)
        super().on_start(ctx)


def test_child_first_chain_from_a_byzantine_peer_crashes_no_honest_peer(long_chain):
    register_behavior("test:child-first-chain",
                      lambda inner: _BlocksAtStart(inner, long_chain[:1000][::-1]))
    choices = random.Random(0).choices(range(2), k=8)
    out, _ = run_chainvote(
        ChainParams(n=8, d=2, degree=3, difficulty=4, block_capacity=8, issuer_bits=512),
        choices, FaultModel(byzantine={0: "test:child-first-chain"}), 0)
    assert out.completion == 1.0
    assert set(out.tallies.values()) == {histogram(choices, 2)} == {(4, 4)}


def test_orphan_without_proof_of_work_is_neither_stored_nor_flooded(monkeypatch):
    rng, junk = random.Random(0), []
    while len(junk) < 200:
        block = Block(rng.getrandbits(256).to_bytes(32, "big").hex(), 1, (), 0, 0)
        if not block.meets_difficulty(4):  # nonce 0 meets difficulty 4 one time in 16
            junk.append(block)
    junk_digests = {wire.digest(wire.dumps({"t": "block", "block": b.to_obj()})) for b in junk}
    voters = []

    class Recording(chainvote.ChainVoter):
        def __init__(self, *args):
            super().__init__(*args)
            voters.append(self)

    monkeypatch.setattr(chainvote, "ChainVoter", Recording)
    register_behavior("test:junk-orphans", lambda inner: _BlocksAtStart(inner, junk))
    choices = random.Random(0).choices(range(2), k=8)
    out, trace = run_chainvote(
        ChainParams(n=8, d=2, degree=3, difficulty=4, block_capacity=8, issuer_bits=512),
        choices, FaultModel(byzantine={0: "test:junk-orphans"}), 0)
    liar, honest = voters[0], voters[1:]  # built in pid order
    assert liar.pid == 0 and all(not v.view.orphans for v in honest)
    # The liar's own sends are all the junk there is: no honest peer relays it.
    sent = [e for e in events(trace) if e.kind == "send" and e.digest in junk_digests]
    assert len(sent) == 200 * len(liar.neighbors) and {e.src for e in sent} == {0}
    assert out.completion == 1.0


def test_orphan_with_proof_of_work_is_not_flooded():
    # Mined on parents that never arrive, these orphans carry proof of work,
    # so a peer may keep them; it relays none, since none ever connects.
    rng = random.Random(0)
    junk = [mine_block(rng.getrandbits(256).to_bytes(32, "big").hex(), 1, (), 0, 4)[0]
            for _ in range(200)]
    junk_digests = {wire.digest(wire.dumps({"t": "block", "block": b.to_obj()})) for b in junk}
    register_behavior("test:mined-orphans", lambda inner: _BlocksAtStart(inner, junk))
    choices = random.Random(0).choices(range(2), k=8)
    out, trace = run_chainvote(
        ChainParams(n=8, d=2, degree=3, difficulty=4, block_capacity=8, issuer_bits=512),
        choices, FaultModel(byzantine={0: "test:mined-orphans"}), 0)
    sent = {e.src for e in events(trace) if e.kind == "send" and e.digest in junk_digests}
    assert sent == {0}
    assert out.completion == 1.0
    assert set(out.tallies.values()) == {histogram(choices, 2)}


def test_adopted_orphan_is_flooded(long_chain):
    # The liar sends its neighbours a child before its parent; every honest
    # peer relays the child, and only after the parent that adopts it.
    child_first = long_chain[:2][::-1]
    register_behavior("test:two-child-first", lambda inner: _BlocksAtStart(inner, child_first))
    choices = random.Random(0).choices(range(2), k=8)
    out, trace = run_chainvote(
        ChainParams(n=8, d=2, degree=3, difficulty=4, block_capacity=8, issuer_bits=512),
        choices, FaultModel(byzantine={0: "test:two-child-first"}), 0)
    child, parent = (wire.digest(wire.dumps({"t": "block", "block": b.to_obj()}))
                     for b in child_first)
    for src in range(1, 8):
        sent = [e.digest for e in events(trace) if e.kind == "send" and e.src == src]
        assert sent.index(parent) < sent.index(child)
    assert out.completion == 1.0


def test_tally_chain_counts_first_spend_only(issuer_key, tokens16):
    tokens, _ = tokens16
    view = ChainView(issuer_key.public, DIFF)
    tx1 = Transaction(tokens[3], 0, "33" * 32)
    tx1_again = Transaction(tokens[3], 1, "44" * 32)
    tx2 = Transaction(tokens[4], 1, "55" * 32)
    b1, _ = mine_block(GENESIS_HASH, 1, (tx1, tx2), 0, DIFF)
    view.add_block(b1)
    assert tally_chain(view, 2) == (1, 1)


def test_empty_chain_zero_counts(issuer_key):
    view = ChainView(issuer_key.public, DIFF)
    assert tally_chain(view, 3) == (0, 0, 0)


def test_proposers_cover_all_peers_across_seeds():
    # Equipotency: over enough seeds, every peer gets to propose a block.
    n = 8
    union = set()
    for seed in range(30):
        choices = chain_choices(n, 2, seed + 1000)
        out, _ = run_chainvote(
            ChainParams(n=n, d=2, degree=3, difficulty=5, block_capacity=2),
            choices, FaultModel(max_delay=3), seed=seed,
        )
        union |= out.details["proposers"]
        if union == set(range(n)):
            break
    assert union == set(range(n))


def naive_mine(parent, height, txs, proposer, difficulty):
    """Reference grind: build every candidate block and test its hash."""
    nonce = 0
    while True:
        block = Block(parent, height, txs, proposer, nonce)
        if block.meets_difficulty(difficulty):
            return block, nonce + 1
        nonce += 1


@settings(max_examples=60, deadline=None)
@given(
    picks=st.lists(st.integers(0, 15), unique=True, max_size=6),
    parent=st.binary(min_size=32, max_size=32).map(bytes.hex),
    height=st.integers(0, 2 ** 40),
    proposer=st.integers(0, 2 ** 20),
    difficulty=st.integers(1, 8),
)
def test_mine_block_matches_naive_grind(tokens16, picks, parent, height, proposer, difficulty):
    tokens, _ = tokens16
    txs = tuple(Transaction(tokens[i], i % 2, f"{i:064x}") for i in picks)
    assert mine_block(parent, height, txs, proposer, difficulty) == naive_mine(
        parent, height, txs, proposer, difficulty
    )


@settings(max_examples=60, deadline=None)
@given(
    drawn=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 2 ** 16),
                             st.binary(min_size=32, max_size=32).map(bytes.hex)), max_size=6),
    difficulty=st.integers(1, 8),
)
def test_mined_block_hash_is_its_header_hash(tokens16, drawn, difficulty):
    """mine_block hands back the block with its hash already known, so one
    mine plus one hash serializes each transaction once."""
    tokens, _ = tokens16
    txs = tuple(Transaction(tokens[i], choice, nonce) for i, choice, nonce in drawn)
    calls, serialize = [], Transaction.serialize
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Transaction, "serialize", lambda tx: calls.append(tx) or serialize(tx))
        block, _ = mine_block(GENESIS_HASH, 1, txs, 0, difficulty)
        block_hash = block.block_hash()
    assert len(calls) == len(txs)
    assert block_hash == hashlib.sha256(block.header_bytes()).hexdigest()


def test_known_serial_with_changed_signature_is_rejected(issuer_key, tokens16):
    tokens, _ = tokens16
    tok = tokens[5]
    view = ChainView(issuer_key.public, DIFF)
    genuine = Transaction(tok, 0, "66" * 32)
    assert view.add_transaction(genuine)  # the view has now verified this serial
    forged = Transaction(Token(tok.serial, tok.signature ^ 1), 0, "77" * 32)
    assert not view.add_transaction(forged)
    block, _ = mine_block(GENESIS_HASH, 1, (forged,), 0, DIFF)
    assert view.add_block(block) == "invalid"
    block, _ = mine_block(GENESIS_HASH, 1, (genuine,), 0, DIFF)
    assert view.add_block(block) == "added"


def plant(view, blocks, keys=None):
    """Put ``blocks`` on the best chain under ``keys`` (their hashes by
    default), bypassing add_block's checks."""
    for key, block in zip(keys or [b.block_hash() for b in blocks], blocks):
        view.blocks[key] = block
    view.best = key


def defective_chains(tokens):
    """For each reason a block can fail against its parent, the blocks after
    genesis of a chain whose last block fails for that reason."""
    tok = tokens[6]
    spend, _ = mine_block(GENESIS_HASH, 1, (Transaction(tok, 0, "88" * 32),), 0, DIFF)
    respend, _ = mine_block(spend.block_hash(), 2, (Transaction(tok, 1, "99" * 32),), 1, DIFF)
    forged = Transaction(Token(tok.serial, tok.signature ^ 1), 0, "aa" * 32)
    unsealed = Block(GENESIS_HASH, 1, (), 0, 0)
    while unsealed.meets_difficulty(DIFF):
        unsealed = replace(unsealed, work_nonce=unsealed.work_nonce + 1)
    return {
        "bad height": [mine_block(GENESIS_HASH, 2, (), 0, DIFF)[0]],
        "insufficient proof of work": [unsealed],
        "invalid token in chain": [mine_block(GENESIS_HASH, 1, (forged,), 0, DIFF)[0]],
        "double spend in chain": [spend, respend],
    }


@pytest.mark.parametrize("reason", ["bad height", "insufficient proof of work",
                                    "invalid token in chain", "double spend in chain"])
def test_verify_chain_and_add_block_refuse_the_same_block(issuer_key, tokens16, reason):
    *prefix, bad = defective_chains(tokens16[0])[reason]
    planted = ChainView(issuer_key.public, DIFF)
    plant(planted, [*prefix, bad])
    with pytest.raises(ChainError, match=f"^{reason}$"):
        planted.verify_chain()
    view = ChainView(issuer_key.public, DIFF)
    assert [view.add_block(b) for b in prefix] == ["added"] * len(prefix)
    assert view.add_block(bad) == "invalid"


def test_verify_chain_refuses_a_broken_parent_link(issuer_key):
    b1, _ = mine_block(GENESIS_HASH, 1, (), 0, DIFF)
    b2, _ = mine_block("ab" * 32, 2, (), 0, DIFF)
    view = ChainView(issuer_key.public, DIFF)
    plant(view, [b1, b2], keys=["ab" * 32, b2.block_hash()])
    with pytest.raises(ChainError, match="^broken parent link$"):
        view.verify_chain()


def _with_tx(msg, **fields):
    return {**msg, "tx": {**msg["tx"], **fields}}


# One hostile rewrite per malformed payload: a non-hex transaction nonce, a
# list as the token signature, a non-hex block parent and a list as the
# whole message.
HOSTILE_SENDS = {
    "not-a-dict": lambda msg: [msg] if msg.get("t") == "tx" else msg,
    "tx-nonce": lambda msg: _with_tx(msg, nonce="zz" * 32) if msg.get("t") == "tx" else msg,
    "token-sig": lambda msg: (
        _with_tx(msg, token={**msg["tx"]["token"], "sig": [1]}) if msg.get("t") == "tx" else msg
    ),
    "block-parent": lambda msg: (
        {**msg, "block": {**msg["block"], "parent": "zz" * 32}} if msg.get("t") == "block"
        else msg
    ),
}


@pytest.mark.parametrize("field", sorted(HOSTILE_SENDS))
def test_malformed_payload_is_ignored(field):
    register_behavior(f"test:chain-{field}", lambda inner: SendFilter(inner, HOSTILE_SENDS[field]))
    choices = chain_choices(8, 2, 21)
    out, _ = run_chainvote(
        ChainParams(n=8, d=2, degree=3, difficulty=5, block_capacity=8), choices,
        FaultModel(max_delay=3, byzantine={3: f"test:chain-{field}"}), seed=21,
    )
    assert out.completion == 1.0
    # The liar's own vote may not reach the honest peers, but they agree.
    honest = {t for pid, t in out.tallies.items() if pid != 3}
    without_liar = histogram([c for pid, c in enumerate(choices) if pid != 3], 2)
    assert len(honest) == 1
    assert honest.pop() in (histogram(choices, 2), without_liar)


SMALL = ChainParams(n=8, d=2, degree=3, difficulty=5, block_capacity=8)


def test_verify_token_runs_once_per_token_per_election(monkeypatch):
    # The voters of a run share one verdict set, and the next run starts a
    # new one: a set carried over would leave the repeated seed unchecked.
    checked = []
    monkeypatch.setattr(chainvote, "verify_token",
                        lambda token, pk: checked.append(token) or verify_token(token, pk))
    counts = []
    for seed in (1, 2, 1):
        checked.clear()
        out, _ = run_chainvote(SMALL, chain_choices(8, 2, seed), FaultModel(max_delay=3), seed)
        assert out.completion == 1.0
        counts.append(len(checked))
    assert counts == [8, 8, 8]


def test_each_payload_object_is_parsed_once_per_run(monkeypatch):
    parsed = []  # every object handed to a parser, kept alive so ids stay distinct
    for name in ("parse_transaction", "parse_block"):
        original = getattr(chainvote, name)
        monkeypatch.setattr(chainvote, name,
                            lambda obj, original=original: parsed.append(obj) or original(obj))
    out, trace = run_chainvote(SMALL, chain_choices(8, 2, 3), FaultModel(max_delay=3), 3)
    assert out.completion == 1.0
    assert len({id(obj) for obj in parsed}) == len(parsed)
    assert 0 < len(parsed) < sum(e.kind == "deliver" for e in events(trace))


def test_forged_token_on_fresh_serial_is_rejected_beside_accepted_ones():
    liar, fresh = 7, "ab" * 32
    voters, verdicts_at_forgery = [], []

    def forge(inner):
        voters.append(inner)

        def rewrite(msg):
            if msg.get("t") != "tx":
                return msg
            verdicts_at_forgery.append(set(inner.view.verified))
            return {**msg, "tx": {**msg["tx"], "token": {**msg["tx"]["token"], "serial": fresh}}}
        return SendFilter(inner, rewrite)

    register_behavior("test:chain-forge-fresh-serial", forge)
    choices = chain_choices(8, 2, 22)
    out, _ = run_chainvote(SMALL, choices, FaultModel(
        max_delay=3, byzantine={liar: "test:chain-forge-fresh-serial"}), seed=22)
    # Every voter's genuine token was in the election's shared verdict set
    # before the forgery left the liar.
    assert verdicts_at_forgery and len(verdicts_at_forgery[0]) == 8
    verified = voters[0].view.verified
    assert len(verified) == 8 and fresh not in {t.serial for t in verified}
    assert out.completion == 1.0
    honest = {t for pid, t in out.tallies.items() if pid != liar}
    without_liar = histogram([c for pid, c in enumerate(choices) if pid != liar], 2)
    assert len(honest) == 1
    assert honest.pop() in (histogram(choices, 2), without_liar)
