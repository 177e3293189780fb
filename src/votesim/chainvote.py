"""Bulletin-board voting on a toy blockchain.

Registration hands every voter a blind-signature eligibility token. Cast
transactions spend the token on a choice and flood over the gossip mesh.
Any peer may gather pending transactions into a block: a simplified
proof-of-work (D leading zero bits) is ground out eagerly and the attempt
count doubles as the mining delay, so block races come out of the seeded
simulation rather than a schedule. Validators accept the longest chain
(ties to the lowest tip hash), reject double spends, and every peer
tallies and re-verifies its own copy of the chain once nothing is left to
mine.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field
from functools import cached_property

from . import simnet, wire
from .crypto.blindsig import (
    IssuerKey,
    IssuerPublicKey,
    Token,
    blind,
    generate_issuer_key,
    random_blinding,
    random_serial,
    sign_blinded,
    unblind,
    verify_token,
)
from .overlay import build_gossip_mesh
from .simnet import (
    CrashAfterSteps,
    FaultModel,
    Peer,
    PHASE_AGGREGATION,
    PHASE_CASTING,
    PHASE_EVALUATION,
    PHASE_REGISTRATION,
    PHASE_VERIFICATION,
    SendFilter,
    Trace,
    register_behavior,
)

BEHAVIOR_DOUBLE_SPEND = "chain:double-spend"
BEHAVIOR_WITHHOLD = "chain:withhold-block"
BEHAVIOR_SILENT = "chain:silent"

GENESIS_PARENT = "0" * 64

# Serials, transaction nonces and block hashes: 32 bytes as lowercase hex.
_HEX32 = re.compile("[0-9a-f]{64}")


class ChainError(Exception):
    pass


class IssuanceRefused(Exception):
    pass


@dataclass(frozen=True)
class ChainParams:
    n: int
    d: int
    degree: int = 4
    difficulty: int = 8
    block_capacity: int = 64
    cutoff_height: int | None = None
    issuer_bits: int = 768

    def __post_init__(self) -> None:
        if not 1 <= self.difficulty <= 24:
            raise simnet.ConfigError("difficulty: must be in [1, 24]")
        if self.block_capacity < 1:
            raise simnet.ConfigError("block_capacity: must be >= 1")
        if self.cutoff_height is not None and self.cutoff_height < 1:
            raise simnet.ConfigError("cutoff_height: must be >= 1 when set")
        if not 512 <= self.issuer_bits <= 4096:
            raise simnet.ConfigError("issuer_bits: must be in [512, 4096]")


@dataclass(frozen=True)
class Transaction:
    token: Token
    choice: int
    nonce: str  # 32-byte hex

    def serialize(self) -> bytes:
        return (
            self.token.serialize()
            + wire.ser_ints(self.choice)
            + bytes.fromhex(self.nonce)
        )

    @cached_property
    def txid(self) -> str:
        return hashlib.sha256(self.serialize()).hexdigest()

    def to_obj(self) -> dict:
        return {"token": self.token.to_obj(), "choice": self.choice, "nonce": self.nonce}


@dataclass(frozen=True)
class Block:
    parent: str
    height: int
    txs: tuple[Transaction, ...]
    proposer: int
    work_nonce: int

    def header_bytes(self) -> bytes:
        head, tail = header_parts(self.parent, self.height, self.proposer, tx_root(self.txs))
        return head + wire.ser_ints(self.work_nonce) + tail

    def block_hash(self) -> str:
        return self._hash

    @cached_property
    def _hash(self) -> str:
        return hashlib.sha256(self.header_bytes()).hexdigest()

    def meets_difficulty(self, bits: int) -> bool:
        return int(self.block_hash(), 16) >> (256 - bits) == 0

    def to_obj(self) -> dict:
        return {
            "parent": self.parent,
            "height": self.height,
            "txs": [t.to_obj() for t in self.txs],
            "proposer": self.proposer,
            "nonce": self.work_nonce,
        }


def tx_root(txs: tuple[Transaction, ...]) -> bytes:
    return hashlib.sha256(b"".join(t.serialize() for t in txs)).digest()


def header_parts(parent: str, height: int, proposer: int, root: bytes) -> tuple[bytes, bytes]:
    """The block header bytes before and after the work nonce.

    The header is ``head + wire.ser_ints(nonce) + tail``; only the middle
    changes while a block is mined.
    """
    return bytes.fromhex(parent) + wire.ser_ints(height, proposer), root


def _nonneg_int(value) -> bool:
    return type(value) is int and value >= 0


def _is_hex32(value) -> bool:
    return isinstance(value, str) and _HEX32.fullmatch(value) is not None


def parse_transaction(obj) -> Transaction | None:
    """A received transaction, or None if any field has the wrong type or form."""
    if not (isinstance(obj, dict) and _nonneg_int(obj.get("choice"))
            and _is_hex32(obj.get("nonce"))):
        return None
    token = obj.get("token")
    if not (isinstance(token, dict) and _is_hex32(token.get("serial"))
            and _nonneg_int(token.get("sig"))):
        return None
    return Transaction(Token(token["serial"], token["sig"]), obj["choice"], obj["nonce"])


def parse_block(obj) -> Block | None:
    """A received block, or None if any field has the wrong type or form."""
    if not (isinstance(obj, dict) and _is_hex32(obj.get("parent"))
            and all(_nonneg_int(obj.get(k)) for k in ("height", "proposer", "nonce"))
            and isinstance(obj.get("txs"), list)):
        return None
    txs = tuple(parse_transaction(t) for t in obj["txs"])
    if any(tx is None for tx in txs):
        return None
    return Block(obj["parent"], obj["height"], txs, obj["proposer"], obj["nonce"])


def decode(payload: bytes) -> tuple[dict, Transaction | Block | None] | None:
    """The payload decoder of a chainvote run: the JSON object and the
    transaction or block it carries (None when malformed), or None for any
    other JSON value. The simulator decodes each payload in flight once, so
    every peer it reaches shares one frozen Transaction or Block."""
    msg = simnet.json_object(payload)
    if msg is None:
        return None
    kind = msg.get("t")
    return msg, (parse_transaction(msg.get("tx")) if kind == "tx"
                 else parse_block(msg.get("block")) if kind == "block" else None)


GENESIS = Block(GENESIS_PARENT, 0, (), 0, 0)
GENESIS_HASH = GENESIS.block_hash()


def mine_block(parent: str, height: int, txs: tuple[Transaction, ...], proposer: int,
               difficulty: int) -> tuple[Block, int]:
    """Grind the work nonce; returns the sealed block and the attempt count.

    The hash state of the fixed header prefix is computed once, so each
    attempt hashes only the nonce and the transaction root.
    """
    head, tail = header_parts(parent, height, proposer, tx_root(txs))
    prefix = hashlib.sha256(head)
    shift = 256 - difficulty
    nonce = 0
    while True:
        h = prefix.copy()
        h.update(wire.ser_ints(nonce) + tail)
        if int.from_bytes(digest := h.digest(), "big") >> shift == 0:
            block = Block(parent, height, txs, proposer, nonce)
            block.__dict__["_hash"] = digest.hex()  # what block_hash() would compute
            return block, nonce + 1
        nonce += 1


class ChainView:
    """One peer's copy of the block tree plus the longest-chain choice."""

    def __init__(self, issuer_pk: IssuerPublicKey, difficulty: int,
                 verified: set[Token] | None = None):
        self.issuer_pk = issuer_pk
        self.difficulty = difficulty
        self.blocks: dict[str, Block] = {GENESIS_HASH: GENESIS}
        self.spent: dict[str, frozenset[str]] = {GENESIS_HASH: frozenset()}
        self.best = GENESIS_HASH
        self.orphans: dict[str, list[Block]] = {}
        self.mempool: dict[str, Transaction] = {}
        # Tokens whose signature has checked out under issuer_pk, shared by
        # the views of one election; keyed by the whole token, so a known
        # serial under another signature is verified afresh.
        self.verified = set() if verified is None else verified

    @property
    def best_height(self) -> int:
        return self.blocks[self.best].height

    def token_valid(self, token: Token) -> bool:
        """verify_token, run at most once per distinct valid token per verdict set."""
        if token in self.verified:
            return True
        if not verify_token(token, self.issuer_pk):
            return False
        self.verified.add(token)
        return True

    def add_transaction(self, tx: Transaction) -> bool:
        """Admit a transaction to the mempool if its token verifies."""
        txid = tx.txid
        if txid in self.mempool or not self.token_valid(tx.token):
            return False
        self.mempool[txid] = tx
        return True

    def add_block(self, block: Block) -> str:
        """Returns one of "known", "orphan", "invalid", "added"."""
        h = block.block_hash()
        if h in self.blocks:
            return "known"
        if block.parent not in self.blocks:
            self.orphans.setdefault(block.parent, []).append(block)
            return "orphan"
        if self.block_defect(block, self.blocks[block.parent], self.spent[block.parent]):
            return "invalid"
        self.blocks[h] = block
        self.spent[h] = self.spent[block.parent] | {t.token.serial for t in block.txs}
        # The longest chain wins; the lower tip hash breaks a tie.
        if (block.height, -int(h, 16)) > (self.best_height, -int(self.best, 16)):
            self.best = h
        for child in self.orphans.pop(h, []):
            self.add_block(child)
        return "added"

    def block_defect(self, block: Block, parent: Block,
                     spent: set[str] | frozenset[str]) -> str | None:
        """Why ``block`` cannot extend ``parent`` once the serials in ``spent``
        are spent, or None; the caller checks that ``block`` links to ``parent``."""
        if block.height != parent.height + 1:
            return "bad height"
        if not block.meets_difficulty(self.difficulty):
            return "insufficient proof of work"
        seen = set()
        for tx in block.txs:
            if not self.token_valid(tx.token):
                return "invalid token in chain"
            if tx.token.serial in spent or tx.token.serial in seen:
                return "double spend in chain"
            seen.add(tx.token.serial)
        return None

    def best_chain(self) -> list[Block]:
        chain = []
        h = self.best
        while True:
            block = self.blocks[h]
            chain.append(block)
            if h == GENESIS_HASH:
                break
            h = block.parent
        chain.reverse()
        return chain

    def pending(self, capacity: int | None = None) -> list[Transaction]:
        """Mempool transactions still spendable against the best chain."""
        spent = set(self.spent[self.best])
        out = []
        for tx in self.mempool.values():
            if tx.token.serial not in spent:
                out.append(tx)
                spent.add(tx.token.serial)
                if capacity is not None and len(out) >= capacity:
                    break
        return out

    def verify_chain(self) -> None:
        """Re-validate the whole best chain; raises ChainError on any defect."""
        chain = self.best_chain()
        spent: set[str] = set()
        for prev, block in zip(chain, chain[1:]):
            if block.parent != prev.block_hash():
                raise ChainError("broken parent link")
            if defect := self.block_defect(block, prev, spent):
                raise ChainError(defect)
            spent.update(tx.token.serial for tx in block.txs)


def tally_chain(view: ChainView, d: int, cutoff_height: int | None = None) -> tuple[int, ...]:
    """Count spends per option along the best chain up to the cutoff;
    ``verify_chain`` refuses a chain that spends any serial twice."""
    view.verify_chain()
    counts = [0] * d
    for block in view.best_chain():
        if cutoff_height is not None and block.height > cutoff_height:
            break
        for tx in block.txs:
            if 0 <= tx.choice < d:
                counts[tx.choice] += 1
    return tuple(counts)


# -- token issuance (registration) ---------------------------------------


@dataclass
class IssuanceTranscript:
    """Everything the issuer sees: blinded requests and blinded signatures."""

    blinded: list[int] = field(default_factory=list)
    blinded_sigs: list[int] = field(default_factory=list)

    def values(self) -> set[int]:
        return set(self.blinded) | set(self.blinded_sigs)


class TokenIssuer:
    """One-token-per-identity issuer; never sees serials or final signatures."""

    def __init__(self, key: IssuerKey, seed: int):
        self.key = key
        self.seed = seed
        self.transcript = IssuanceTranscript()
        self._served: set[int] = set()

    def issue(self, identity: int) -> Token:
        if identity in self._served:
            raise IssuanceRefused(f"identity {identity} already holds a token")
        self._served.add(identity)
        rng = random.Random(wire.derive_seed(self.seed, "token", identity))
        serial = random_serial(rng)
        r = random_blinding(rng, self.key.public)
        blinded = blind(serial, self.key.public, r)
        blinded_sig = sign_blinded(blinded, self.key)
        self.transcript.blinded.append(blinded)
        self.transcript.blinded_sigs.append(blinded_sig)
        return unblind(blinded_sig, r, self.key.public, serial)


def issue_tokens(voters: list[int], key: IssuerKey,
                 seed: int) -> tuple[dict[int, Token], IssuanceTranscript]:
    issuer = TokenIssuer(key, seed)
    tokens = {pid: issuer.issue(pid) for pid in voters}
    return tokens, issuer.transcript


# -- the peer ----------------------------------------------------------------


class ChainVoter(Peer):
    def __init__(self, pid: int, params: ChainParams, neighbors: tuple[int, ...],
                 issuer_pk: IssuerPublicKey, token: Token, choice: int,
                 verified: set[Token]):
        super().__init__(pid)
        self.params = params
        self.neighbors = neighbors
        self.token = token
        self.choice = choice
        self.view = ChainView(issuer_pk, params.difficulty, verified)
        self.seen_blocks: set[str] = {GENESIS_HASH}
        self.mining: tuple[Block, str] | None = None  # (candidate, parent at start)
        self.tally: tuple[int, ...] | None = None
        self.proposed = False
        self.double_spend = False

    # -- casting -----------------------------------------------------------

    def on_start(self, ctx):
        ctx.log_action(PHASE_REGISTRATION, "register")
        ctx.log_action(PHASE_CASTING, "cast")
        txs = [Transaction(self.token, self.choice, self._nonce(ctx))]
        if self.double_spend:
            txs.append(
                Transaction(self.token, (self.choice + 1) % self.params.d, self._nonce(ctx))
            )
        for tx in txs:
            self.view.add_transaction(tx)
            self._flood(ctx, {"t": "tx", "tx": tx.to_obj()}, PHASE_CASTING)

    def _nonce(self, ctx) -> str:
        return ctx.rng.getrandbits(256).to_bytes(32, "big").hex()

    def _flood(self, ctx, payload: dict, phase: str, skip: int | None = None):
        ctx.send([nb for nb in self.neighbors if nb != skip], payload, phase)

    # -- gossip ----------------------------------------------------------

    def on_message(self, ctx, sender, decoded):
        # decoded is decode(payload); a malformed payload is ignored like one
        # from an unexpected sender, so every Transaction and Block past the
        # parse is well-typed and its Token hashable.
        msg, obj = decoded
        if isinstance(obj, Transaction):
            if self.view.add_transaction(obj):
                self._flood(ctx, msg, PHASE_CASTING, skip=sender)
        elif isinstance(obj, Block):
            h = obj.block_hash()
            if h in self.seen_blocks:
                return
            self.seen_blocks.add(h)
            status = self.view.add_block(obj)
            if status in ("added", "orphan"):
                self._flood(ctx, msg, PHASE_AGGREGATION, skip=sender)
            if status == "added":
                ctx.log_action(PHASE_AGGREGATION, "aggregate")
                if self.mining is not None and self.mining[1] != self.view.best:
                    self.mining = None  # chain moved on; candidate is stale

    # -- mining and finalization -------------------------------------------

    def on_idle(self, ctx):
        pending = self.view.pending(self.params.block_capacity)
        if pending and self.mining is None:
            parent = self.view.best
            candidate, attempts = mine_block(
                parent, self.view.best_height + 1, tuple(pending), self.pid,
                self.params.difficulty,
            )
            self.mining = (candidate, parent)
            ctx.set_timer(attempts, "mined", candidate.block_hash())
        elif not pending and self.mining is None:
            self._finalize(ctx)

    def on_timer(self, ctx, tag, data):
        if tag != "mined" or self.mining is None:
            return
        candidate, parent = self.mining
        if data != candidate.block_hash():
            return  # timer belongs to an abandoned candidate
        self.mining = None
        if parent != self.view.best:
            return  # lost the race while grinding
        self.seen_blocks.add(candidate.block_hash())
        if self.view.add_block(candidate) == "added":
            self.proposed = True
            ctx.log_action(PHASE_AGGREGATION, "propose-block")
            ctx.log_action(PHASE_AGGREGATION, "aggregate")
            self._flood(ctx, {"t": "block", "block": candidate.to_obj()}, PHASE_AGGREGATION)

    def _finalize(self, ctx):
        try:
            # tally_chain re-verifies the whole chain before it counts.
            self.tally = tally_chain(self.view, self.params.d, self.params.cutoff_height)
        except ChainError:
            self.tally = None
            ctx.log_action(PHASE_VERIFICATION, "verify-failed")
        else:
            ctx.log_action(PHASE_EVALUATION, "evaluate")
            ctx.log_action(PHASE_VERIFICATION, "verify")
        ctx.finish()


register_behavior(BEHAVIOR_SILENT, lambda inner: CrashAfterSteps(inner, 0), ChainVoter)
register_behavior(
    BEHAVIOR_WITHHOLD,
    lambda inner: SendFilter(inner, lambda msg: None if msg.get("t") == "block" else msg),
    ChainVoter,
)


def _enable_double_spend(inner: ChainVoter) -> ChainVoter:
    inner.double_spend = True
    return inner


register_behavior(BEHAVIOR_DOUBLE_SPEND, _enable_double_spend, ChainVoter)


def run_chainvote(params: ChainParams, choices: list[int], faults: FaultModel,
                  seed: int) -> tuple[simnet.Outcome, Trace]:
    """Run a full bulletin-board election.

    Tokens are issued to every voter identity up front (the registration
    phase); crashed peers hold tokens but never cast. Peers tally as soon
    as the network is quiet and nothing remains to mine.
    """
    ov = build_gossip_mesh(params.n, params.degree, wire.derive_seed(seed, "overlay"))
    key = generate_issuer_key(wire.derive_seed(seed, "issuer"), params.issuer_bits)
    tokens, _ = issue_tokens(list(range(params.n)), key, seed)
    # One token verdict set per election, shared by its voters.
    verified: set[Token] = set()

    def details(voters: list[ChainVoter]) -> dict:
        return {
            "proposers": {v.pid for v in voters if v.proposed},
            "double_spend_serials": _double_spend_serials(voters),
        }

    return simnet.run_election(
        "chainvote", params, choices, faults, seed,
        lambda pid, choice: ChainVoter(pid, params, ov.neighbors(pid), key.public,
                                       tokens[pid], choice, verified),
        details, decode=decode,
    )


def _double_spend_serials(voters: list[ChainVoter]) -> set[str]:
    """Serials that appear in more than one distinct mempool transaction."""
    by_serial: dict[str, set[str]] = {}
    for v in voters:
        for tx in v.view.mempool.values():
            by_serial.setdefault(tx.token.serial, set()).add(tx.txid)
    return {serial for serial, txids in by_serial.items() if len(txids) > 1}
