"""Reference protocols the distributed ones are measured against.

Helios-like: voters send encrypted, proof-carrying ballots to one hub
(star topology); fixed trustees threshold-decrypt the homomorphic sum;
the hub publishes ballots, proofs, decryption shares and tally, and every
voter independently re-verifies the whole bulletin. The hub is a single
point of failure on purpose.

Mesh: information-theoretic additive secret sharing over a full mesh.
Every voter splits its unit vector into n additive shares, one per peer;
everyone broadcasts its column sum and reconstructs the histogram. This
costs exactly 2n(n-1) messages and has no loss tolerance at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from . import simnet, wire
from .crypto import (
    Ciphertext,
    CryptoError,
    KeyShare,
    PublicKey,
    combine,  # not called here; perfbench's tracer looks it up under this module
    combine_vector,
    cts_to_obj,
    hom_add_vectors,
    parse_ballot,
    parse_cts,
    parse_decshare,
    partial_decrypt,
    prove_ballot,
    threshold_keygen,
    verify_ballot,
)
from .crypto.group import DEFAULT_GROUP, Group
from .crypto.proofs import BallotProof
from .simnet import (
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

BEHAVIOR_TAMPER_BULLETIN = "helios:tamper-bulletin"

ROLE_HUB = "hub"
ROLE_TRUSTEE = "trustee"
ARTIFACT_PUBKEY = "threshold-public-key"
ARTIFACT_TALLY = "threshold-tally"

MESH_MODULUS = (1 << 61) - 1  # prime; share scalars live in Z_q


@dataclass(frozen=True)
class HeliosParams:
    n: int
    trustees: int
    t: int
    d: int

    @property
    def hub(self) -> int:
        return self.n

    @property
    def trustee_ids(self) -> tuple[int, ...]:
        return tuple(range(self.n + 1, self.n + 1 + self.trustees))

    def __post_init__(self) -> None:
        if not 1 <= self.t <= self.trustees:
            raise simnet.ConfigError("t: must be in [1, trustees]")


class HeliosVoter(Peer):
    def __init__(self, pid: int, params: HeliosParams, choice: int, group: Group):
        super().__init__(pid)
        self.params = params
        self.choice = choice
        self.group = group
        self.pk: PublicKey | None = None
        self.cast: list[Ciphertext] | None = None
        self.tally: tuple[int, ...] | None = None
        self.verify_failed = False

    def on_message(self, ctx, sender, msg):
        kind, h = msg.get("t"), msg.get("h")
        if (kind == "pubkey" and self.pk is None and sender == self.params.hub
                and type(h) is int and 0 < h < self.group.p):
            self.pk = PublicKey(self.group, h, t=self.params.t)
            ctx.log_action(PHASE_CASTING, "cast", consumes=(ARTIFACT_PUBKEY,))
            self.cast, proof = prove_ballot(self.pk, self.choice, self.params.d, ctx.rng)
            ctx.send((self.params.hub,), {"t": "ballot", "cts": cts_to_obj(self.cast),
                                          "proof": proof.to_obj()}, PHASE_CASTING)
        elif kind == "bulletin" and sender == self.params.hub:
            self._verify_bulletin(ctx, msg)

    def _parse_bulletin(self, msg: dict) -> tuple | None:
        """(ballots, the ciphertexts listed under this voter's id, shares by
        trustee index, tally, accepted), or None when any field of the
        bulletin is malformed."""
        group, d = self.group, self.params.d
        entries, pairs, accepted = msg.get("ballots"), msg.get("shares"), msg.get("accepted")
        tally = wire.int_vector(msg.get("tally"), d)
        if not (isinstance(entries, list) and isinstance(pairs, list) and tally is not None
                and type(accepted) is int
                and all(isinstance(e, list) and len(e) == 3 for e in entries)
                and all(isinstance(p, list) and len(p) == 2 and type(p[0]) is int for p in pairs)):
            return None
        ballots = [parse_ballot(group, d, cts, proof) if type(voter) is int else None
                   for voter, cts, proof in entries]
        shares = {idx: parse_decshare(group, self.params.trustees, idx, vals, d)
                  for idx, vals in pairs}
        if None in ballots or None in shares.values():
            return None
        mine = [b[0] for (voter, _, _), b in zip(entries, ballots) if voter == self.pid]
        return ballots, mine, shares, tally, accepted

    def _verify_bulletin(self, ctx, msg):
        """Check that the bulletin lists exactly the ballot this voter cast
        under its id, and recompute everything the hub published: proofs, the
        homomorphic sum, the threshold combination and the claimed tally. A
        malformed bulletin fails verification."""
        parsed = self._parse_bulletin(msg) if self.pk is not None else None
        ok = (parsed is not None and parsed[1] == [self.cast]
              and all(verify_ballot(self.pk, *b) for b in parsed[0]))
        if ok:
            ballots, _, shares, tally, accepted = parsed
            agg = hom_add_vectors(self.pk, self.params.d, (cts for cts, _ in ballots))
            try:
                ok = combine_vector(self.pk, shares, agg, self.params.n) == tally
            except CryptoError:
                ok = False
            ok = ok and sum(tally) == accepted == len(ballots)
        ctx.log_action(PHASE_VERIFICATION, "verify")
        if ok:
            self.tally = tally
        else:
            self.verify_failed = True
            ctx.log_action(PHASE_VERIFICATION, "verify-failed")
        ctx.finish()


class HeliosHub(Peer):
    def __init__(self, params: HeliosParams, pk: PublicKey, group: Group):
        super().__init__(params.hub)
        self.params = params
        self.pk = pk
        self.group = group
        self.ballots: dict[int, tuple[list[Ciphertext], BallotProof] | None] = {}
        self.aggregated = False
        self.agg: list[Ciphertext] | None = None
        self.accepted = 0
        self.valid: list = []
        self.dec_shares: dict[int, list[int]] = {}
        self.tally: tuple[int, ...] | None = None

    def on_start(self, ctx):
        ctx.log_action(PHASE_REGISTRATION, "publish-key")
        ctx.send(range(self.params.n), {"t": "pubkey", "h": self.pk.h}, PHASE_REGISTRATION)

    def on_message(self, ctx, sender, msg):
        """A malformed ballot counts as collected and invalid; a malformed
        decryption share is ignored."""
        kind, idx, d = msg.get("t"), msg.get("idx"), self.params.d
        if kind == "ballot" and 0 <= sender < self.params.n and sender not in self.ballots:
            ctx.log_action(PHASE_CASTING, "collect")
            self.ballots[sender] = parse_ballot(self.group, d, msg.get("cts"), msg.get("proof"))
            if len(self.ballots) == self.params.n:
                self._aggregate(ctx)
        elif kind == "decshare" and sender in self.params.trustee_ids and self.aggregated:
            values = parse_decshare(self.group, self.params.trustees, idx, msg.get("v"), d)
            if values is not None and idx not in self.dec_shares:
                self.dec_shares[idx] = values
                if len(self.dec_shares) >= self.params.t:
                    self._evaluate(ctx)

    def on_idle(self, ctx):
        # Voters that crashed will never cast; proceed with what arrived.
        if not self.aggregated:
            self._aggregate(ctx)

    def _aggregate(self, ctx):
        if self.aggregated:
            return
        self.aggregated = True
        ballots = [(voter, self.ballots[voter]) for voter in sorted(self.ballots)]
        self.valid = [(voter, *b) for voter, b in ballots
                      if b is not None and verify_ballot(self.pk, *b)]
        ctx.log_action(PHASE_AGGREGATION, "aggregate")
        self.agg = hom_add_vectors(self.pk, self.params.d, (cts for _, cts, _ in self.valid))
        self.accepted = len(self.valid)
        ctx.send(self.params.trustee_ids, {"t": "decrypt", "cts": cts_to_obj(self.agg)},
                 PHASE_EVALUATION)

    def _evaluate(self, ctx):
        shares = sorted(self.dec_shares.items())[: self.params.t]
        try:
            self.tally = combine_vector(self.pk, dict(shares), self.agg, self.params.n)
        except CryptoError:
            return  # inconsistent shares: publish nothing
        ctx.log_action(PHASE_EVALUATION, "evaluate")
        bulletin = {
            "t": "bulletin",
            "ballots": [[v, cts_to_obj(cts), proof.to_obj()] for v, cts, proof in self.valid],
            "shares": [[idx, vals] for idx, vals in shares],
            "tally": list(self.tally),
            "accepted": self.accepted,
        }
        ctx.send(range(self.params.n), bulletin, PHASE_EVALUATION)
        ctx.finish()


class HeliosTrustee(Peer):
    def __init__(self, pid: int, params: HeliosParams, share: KeyShare, group: Group):
        super().__init__(pid)
        self.params = params
        self.share = share
        self.group = group

    def on_message(self, ctx, sender, msg):
        cts = parse_cts(self.group, msg.get("cts"), self.params.d)
        if msg.get("t") == "decrypt" and sender == self.params.hub and cts is not None:
            ctx.log_action(PHASE_EVALUATION, "partial-decrypt")
            values = [partial_decrypt(self.share, ct).value for ct in cts]
            ctx.send(
                (self.params.hub,),
                {"t": "decshare", "idx": self.share.index, "v": values},
                PHASE_EVALUATION,
            )
            ctx.finish()


def _tamper_bulletin(group: Group, msg: dict) -> dict:
    if msg.get("t") == "bulletin" and msg["ballots"]:
        ballots = [list(b) for b in msg["ballots"]]
        voter, cts_obj, proof = ballots[0]
        cts = [list(pair) for pair in cts_obj]
        cts[0][1] = group.mul(int(cts[0][1]), group.g)
        ballots[0] = [voter, cts, proof]
        return {**msg, "ballots": ballots}
    return msg


# Only the hub sends bulletins, so no other peer may run the behaviour.
register_behavior(
    BEHAVIOR_TAMPER_BULLETIN,
    lambda inner: SendFilter(inner, partial(_tamper_bulletin, inner.group)),
    HeliosHub,
)


def run_helios_like(params: HeliosParams, choices: list[int], faults: FaultModel,
                    seed: int, group: Group = DEFAULT_GROUP) -> tuple[simnet.Outcome, Trace]:
    """Centralized homomorphic election with trustee threshold decryption.

    The hub and trustees are distinguished non-voter peers fixed by the
    scenario; a crashed hub takes the whole election down by design.
    """
    pk, shares = threshold_keygen(
        params.t, params.trustees, group, wire.derive_seed(seed, "trustee-keys")
    )
    hub = HeliosHub(params, pk, group)
    trustees = tuple(
        HeliosTrustee(tid, params, shares[i], group)
        for i, tid in enumerate(params.trustee_ids)
    )

    def details(voters: list[HeliosVoter]) -> dict:
        return {
            "accepted": hub.accepted if hub.tally is not None else None,
            "verification_failures": {v.pid for v in voters if v.verify_failed},
        }

    return simnet.run_election(
        "helios", params, choices, faults, seed,
        lambda pid, choice: HeliosVoter(pid, params, choice, group), details,
        others=(hub, *trustees),
        roles=((ROLE_HUB, {params.hub}, "configured"),
               (ROLE_TRUSTEE, set(params.trustee_ids), "configured",
                (ARTIFACT_PUBKEY, ARTIFACT_TALLY))),
    )


# -- full-mesh additive secret sharing ---------------------------------------


@dataclass(frozen=True)
class MeshParams:
    n: int
    d: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise simnet.ConfigError("n: the mesh baseline needs n >= 2")


class MeshVoter(Peer):
    def __init__(self, pid: int, n: int, d: int, choice: int):
        super().__init__(pid)
        self.n = n
        self.d = d
        self.choice = choice
        self.received: dict[int, tuple[int, ...]] = {}
        self.colsums: dict[int, tuple[int, ...]] = {}
        self.tally: tuple[int, ...] | None = None

    def on_start(self, ctx):
        q = MESH_MODULUS
        ctx.log_action(PHASE_CASTING, "cast")
        unit = [1 if j == self.choice else 0 for j in range(self.d)]
        acc = [0] * self.d
        for peer in range(self.n):
            if peer == self.pid:
                continue
            share = tuple(ctx.rng.randrange(q) for _ in range(self.d))
            acc = [(a + s) % q for a, s in zip(acc, share)]
            ctx.send((peer,), {"t": "share", "v": list(share)}, PHASE_CASTING)
        # The balancing share stays with the voter, so every share that
        # leaves the machine is an independent uniform vector.
        self.received[self.pid] = tuple((u - a) % q for u, a in zip(unit, acc))
        self._maybe_column(ctx)

    def on_message(self, ctx, sender, msg):
        kind, v = msg.get("t"), wire.int_vector(msg.get("v"), self.d)
        if v is None:
            return  # not d ints
        if kind == "share" and sender not in self.received:
            self.received[sender] = tuple(x % MESH_MODULUS for x in v)
            self._maybe_column(ctx)
        elif kind == "colsum" and sender not in self.colsums:
            self.colsums[sender] = tuple(x % MESH_MODULUS for x in v)
            self._maybe_total(ctx)

    def _maybe_column(self, ctx):
        if len(self.received) < self.n:
            return
        q = MESH_MODULUS
        col = [0] * self.d
        for sender in sorted(self.received):
            col = [(a + s) % q for a, s in zip(col, self.received[sender])]
        ctx.log_action(PHASE_AGGREGATION, "aggregate")
        ctx.send([p for p in range(self.n) if p != self.pid], {"t": "colsum", "v": list(col)},
                 PHASE_AGGREGATION)
        self.colsums[self.pid] = tuple(col)
        self._maybe_total(ctx)

    def _maybe_total(self, ctx):
        if len(self.colsums) < self.n:
            return
        q = MESH_MODULUS
        total = [0] * self.d
        for sender in sorted(self.colsums):
            total = [(a + s) % q for a, s in zip(total, self.colsums[sender])]
        self.tally = tuple(total)
        ctx.log_action(PHASE_EVALUATION, "evaluate")
        ctx.finish()


def run_mesh_share(params: MeshParams, choices: list[int], faults: FaultModel,
                   seed: int) -> tuple[simnet.Outcome, Trace]:
    """Additive-sharing baseline; exactly 2n(n-1) messages, no robustness."""
    n, d = params.n, params.d
    return simnet.run_election(
        "mesh", params, choices, faults, seed,
        lambda pid, choice: MeshVoter(pid, n, d, choice),
    )
