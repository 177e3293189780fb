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
from typing import Callable

from . import simnet, wire
from .crypto import (
    Ciphertext,
    KeyShare,
    PublicKey,
    combine,  # not called here; perfbench's tracer looks it up under this module
    cts_to_obj,
    partial_decrypt,
    prove_ballot,
    threshold_keygen,
    verify_ballot,  # likewise
)
from .crypto.elgamal import decrypt_tally
from .crypto.group import DEFAULT_GROUP, Group
from .crypto.proofs import BallotProof, count_ballots, decoder
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
        kind = msg.get("t")
        if kind == "pubkey" and self.pk is None and sender == self.params.hub:
            self.pk = PublicKey(self.group, msg["h"], t=self.params.t)
            ctx.log_action(PHASE_CASTING, "cast", consumes=(ARTIFACT_PUBKEY,))
            self.cast, proof = prove_ballot(self.pk, self.choice, self.params.d, ctx.rng)
            ctx.send((self.params.hub,), {"t": "ballot", "cts": cts_to_obj(self.cast),
                                          "proof": proof.to_obj()}, PHASE_CASTING)
        elif kind == "bulletin" and sender == self.params.hub:
            self._verify_bulletin(ctx, msg["bulletin"])

    def _verify_bulletin(self, ctx, bulletin: tuple | None):
        """Check that the bulletin lists exactly the ballot this voter cast
        under its id, and recompute everything the hub published: proofs, the
        homomorphic sum, the threshold combination and the claimed tally. A
        malformed bulletin (None) fails verification."""
        ok = (self.pk is not None and bulletin is not None
              and [b[0] for voter, b in bulletin[0] if voter == self.pid] == [self.cast])
        if ok:
            ballots, shares, tally, accepted = bulletin
            valid, agg = count_ballots(self.pk, self.params.d, ballots)
            found = decrypt_tally(self.pk, shares, agg, self.params.n)
            ok = (len(valid) == len(ballots) and found is not None and found[1] == tally
                  and sum(tally) == accepted == len(ballots))
        ctx.log_action(PHASE_VERIFICATION, "verify")
        if ok:
            self.tally = tally
        else:
            self.verify_failed = True
            ctx.log_action(PHASE_VERIFICATION, "verify-failed")
        ctx.finish()


class HeliosHub(Peer):
    def __init__(self, params: HeliosParams, pk: PublicKey):
        super().__init__(params.hub)
        self.params = params
        self.pk = pk
        self.ballots: dict[int, tuple[list[Ciphertext], BallotProof] | None] = {}
        self.agg: list[Ciphertext] | None = None
        self.valid: list = []
        self.dec_shares: dict[int, list[int]] = {}
        self.tally: tuple[int, ...] | None = None

    def on_start(self, ctx):
        ctx.log_action(PHASE_REGISTRATION, "publish-key")
        ctx.send(range(self.params.n), {"t": "pubkey", "h": self.pk.h}, PHASE_REGISTRATION)

    def on_message(self, ctx, sender, msg):
        """A voter's first ballot counts, a malformed one (None) as invalid;
        a decryption share under another trustee's index is ignored."""
        kind, idx = msg.get("t"), msg.get("idx")
        if kind == "ballot" and 0 <= sender < self.params.n and sender not in self.ballots:
            ctx.log_action(PHASE_CASTING, "collect")
            self.ballots[sender] = msg["ballot"]
            if len(self.ballots) == self.params.n:
                self._aggregate(ctx)
        elif (kind == "decshare" and sender in self.params.trustee_ids and self.agg is not None
              and idx == self.params.trustee_ids.index(sender) + 1 and idx not in self.dec_shares):
            self.dec_shares[idx] = msg["v"]
            self._evaluate(ctx)

    def on_idle(self, ctx):
        # Voters that crashed will never cast; proceed with what arrived.
        self._aggregate(ctx)

    def _aggregate(self, ctx):
        if self.agg is not None:
            return
        self.valid, self.agg = count_ballots(self.pk, self.params.d, sorted(self.ballots.items()))
        ctx.log_action(PHASE_AGGREGATION, "aggregate")
        ctx.send(self.params.trustee_ids, {"t": "decrypt", "cts": cts_to_obj(self.agg)},
                 PHASE_EVALUATION)

    def _evaluate(self, ctx):
        found = decrypt_tally(self.pk, self.dec_shares, self.agg, self.params.n)
        if found is None:
            return  # no t shares combine yet: publish nothing
        shares, self.tally = found
        ctx.log_action(PHASE_EVALUATION, "evaluate")
        bulletin = {
            "t": "bulletin",
            "ballots": [[v, cts_to_obj(cts), proof.to_obj()] for v, (cts, proof) in self.valid],
            "shares": [[idx, vals] for idx, vals in shares.items()],
            "tally": list(self.tally),
            "accepted": len(self.valid),
        }
        ctx.send(range(self.params.n), bulletin, PHASE_EVALUATION)
        ctx.finish()


class HeliosTrustee(Peer):
    def __init__(self, pid: int, params: HeliosParams, share: KeyShare):
        super().__init__(pid)
        self.params = params
        self.share = share

    def on_message(self, ctx, sender, msg):
        if msg.get("t") == "decrypt" and sender == self.params.hub:
            ctx.log_action(PHASE_EVALUATION, "partial-decrypt")
            values = [partial_decrypt(self.share, ct) for ct in msg["cts"]]
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
    lambda inner: SendFilter(inner, partial(_tamper_bulletin, inner.pk.group)),
    HeliosHub,
)


def run_helios_like(params: HeliosParams, choices: list[int], faults: FaultModel,
                    seed: int, group: Group = DEFAULT_GROUP) -> tuple[simnet.Outcome, Trace]:
    """Centralized homomorphic election with trustee threshold decryption.

    The hub and trustees are distinguished non-voter peers fixed by the
    scenario; a crashed hub takes the whole election down by design.
    """
    group.forget()
    pk, shares = threshold_keygen(
        params.t, params.trustees, group, wire.derive_seed(seed, "trustee-keys")
    )
    hub = HeliosHub(params, pk)
    trustees = tuple(HeliosTrustee(tid, params, shares[i])
                     for i, tid in enumerate(params.trustee_ids))

    def details(voters: list[HeliosVoter]) -> dict:
        return {
            "accepted": len(hub.valid) if hub.tally is not None else None,
            "verification_failures": {v.pid for v in voters if v.verify_failed},
        }

    return simnet.run_election(
        "helios", params, choices, faults, seed,
        lambda pid, choice: HeliosVoter(pid, params, choice, group), details,
        others=(hub, *trustees),
        roles=((ROLE_HUB, {params.hub}, "configured"),
               (ROLE_TRUSTEE, set(params.trustee_ids), "configured",
                (ARTIFACT_PUBKEY, ARTIFACT_TALLY))),
        decode=decoder(group, params.d, params.trustees),
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
        kind = msg.get("t")  # mesh_decoder(d) has parsed v
        if kind == "share" and sender not in self.received:
            self.received[sender] = msg["v"]
            self._maybe_column(ctx)
        elif kind == "colsum" and sender not in self.colsums:
            self.colsums[sender] = msg["v"]
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


def mesh_decoder(d: int) -> Callable[[bytes], dict | None]:
    """The mesh decoder: a share's or colsum's ``v`` as d ints mod MESH_MODULUS."""
    def vector(value) -> tuple[int, ...] | None:
        v = wire.int_vector(value, d)
        return None if v is None else tuple(x % MESH_MODULUS for x in v)

    return wire.decoder({"share": {"v": vector}, "colsum": {"v": vector}})


def run_mesh_share(params: MeshParams, choices: list[int], faults: FaultModel,
                   seed: int) -> tuple[simnet.Outcome, Trace]:
    """Additive-sharing baseline; exactly 2n(n-1) messages, no robustness."""
    n, d = params.n, params.d
    return simnet.run_election(
        "mesh", params, choices, faults, seed,
        lambda pid, choice: MeshVoter(pid, n, d, choice), decode=mesh_decoder(d),
    )
