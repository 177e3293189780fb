"""Scalable and secure aggregation over a binary tree of clusters.

Key setup: the root cluster jointly generates a threshold keypair and the
public key travels down the tree. Casting: every voter encrypts its
unit-vector ballot, attaches a validity proof and shares it with its own
cluster. Aggregation: cluster members verify proofs, homomorphically add
the valid ballots and push subtree aggregates upward, resolving diverging
copies by majority. Evaluation: the lowest t root members publish
decryption shares, every root member combines them, and the plaintext
tally travels back down. Verification: every voter checks that the tally
components sum to the number of accepted ballots.
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
    verify_ballot,
)
from .crypto.elgamal import poly_eval
from .crypto.group import DEFAULT_GROUP, Group
from .crypto.proofs import BallotProof
from .overlay import Overlay, build_tree_clusters
from .simnet import (
    FaultModel,
    Peer,
    PHASE_AGGREGATION,
    PHASE_CASTING,
    PHASE_EVALUATION,
    PHASE_REGISTRATION,
    PHASE_VERIFICATION,
    CrashAfterSteps,
    SendFilter,
    Trace,
    register_behavior,
)

BEHAVIOR_LYING_AGGREGATE = "spp:lying-aggregate"
BEHAVIOR_INVALID_PROOF = "spp:invalid-proof"
BEHAVIOR_SILENT_ROOT = "spp:silent-root"

ROLE_KEY_HOLDER = "key-share-holder"
ARTIFACT_PUBKEY = "threshold-public-key"
ARTIFACT_TALLY = "threshold-tally"


@dataclass(frozen=True)
class SppParams:
    n: int
    cluster_size: int
    t: int
    d: int

    def __post_init__(self) -> None:
        if not 1 <= self.t <= self.cluster_size:
            raise simnet.ConfigError("t: must be in [1, cluster_size]")


@dataclass(frozen=True)
class AggregateReport:
    """One member's claim about a subtree aggregate."""

    subtree: int
    cts: tuple[Ciphertext, ...]
    count: int
    reporter: int


def resolve_divergence(reports: list[AggregateReport]) -> tuple[tuple[Ciphertext, ...], int] | None:
    """Majority rule over identical (ciphertexts, count) claims.

    Returns the winning (ciphertexts, count) or None when no strict
    majority exists (the subtree is then incomplete).
    """
    if not reports:
        raise ValueError("resolve_divergence needs at least one report")
    votes: dict[tuple[tuple[Ciphertext, ...], int], int] = {}
    for r in reports:
        votes[(r.cts, r.count)] = votes.get((r.cts, r.count), 0) + 1
    for claim, count in votes.items():
        if count * 2 > len(reports):
            return claim
    return None


class SppVoter(Peer):
    def __init__(self, pid: int, params: SppParams, ov: Overlay, choice: int,
                 group: Group = DEFAULT_GROUP):
        super().__init__(pid)
        self.params = params
        self.group = group
        self.choice = choice
        self.cluster = ov.cluster_of(pid)
        self.members = ov.members(self.cluster)
        self.rank = self.members.index(pid)
        self.is_root = self.cluster == 0
        parent = ov.parent(self.cluster) if not self.is_root else None
        self.parent_members = ov.members(parent) if parent is not None else ()
        self.children = ov.children(self.cluster)
        self.child_members = {c: ov.members(c) for c in self.children}
        c = params.cluster_size
        self.majority = c // 2 + 1
        # DKG state (root only)
        self.poly: list[int] = []
        self.dkg_shares: dict[int, int] = {}
        self.dkg_commits: dict[int, int] = {}
        self.key_share: KeyShare | None = None
        # protocol state
        self.pk: PublicKey | None = None
        self.pk_votes: dict[int, set[int]] = {}
        self.cast_done = False
        self.ballots: dict[int, tuple[list[Ciphertext], BallotProof] | None] = {}
        self.cluster_agg: list[Ciphertext] | None = None
        self.cluster_accepted = 0
        self.reports: dict[int, dict[int, AggregateReport]] = {c: {} for c in self.children}
        self.resolved: dict[int, tuple[tuple[Ciphertext, ...], int]] = {}
        self.stalled_subtrees: set[int] = set()
        self.subtree_agg: list[Ciphertext] | None = None
        self.subtree_count: int | None = None
        self.pending_decshares: list[tuple[int, list[int], str]] = []
        self.dec_shares: dict[int, list[int]] = {}
        self.result_votes: dict[tuple, set[int]] = {}
        self.tally: tuple[int, ...] | None = None
        self.accepted: int | None = None
        self.verified = False

    # -- key setup --------------------------------------------------------

    def on_start(self, ctx):
        if not self.is_root:
            return
        rng = ctx.rng
        self.poly = [self.group.rand_scalar(rng) for _ in range(self.params.t)]
        ctx.log_action(PHASE_REGISTRATION, "dkg-deal")
        commit = self.group.exp(self.group.g, self.poly[0])
        for member in self.members:
            share = poly_eval(self.poly, self.members.index(member) + 1, self.group.q)
            if member == self.pid:
                self._dkg_receive(ctx, self.pid, share, commit)
            else:
                ctx.send((member,), {"t": "dkg-share", "v": share}, PHASE_REGISTRATION)
                ctx.send((member,), {"t": "dkg-commit", "v": commit}, PHASE_REGISTRATION)

    def _dkg_receive(self, ctx, dealer: int, share: int | None, commit: int | None):
        if share is not None:
            self.dkg_shares.setdefault(dealer, share)
        if commit is not None:
            self.dkg_commits.setdefault(dealer, commit)
        c = self.params.cluster_size
        if self.key_share is None and len(self.dkg_shares) == c and len(self.dkg_commits) == c:
            value = sum(self.dkg_shares[m] for m in sorted(self.dkg_shares)) % self.group.q
            self.key_share = KeyShare(self.rank + 1, value)
            h = 1
            for m in sorted(self.dkg_commits):
                h = self.group.mul(h, self.dkg_commits[m])
            self.pk = PublicKey(self.group, h, t=self.params.t)
            ctx.log_action(PHASE_REGISTRATION, "dkg-complete")
            self._spread_pubkey(ctx)
            self._cast(ctx)

    def _spread_pubkey(self, ctx):
        ctx.send([m for c in self.children for m in self.child_members[c]],
                 {"t": "pubkey", "h": self.pk.h}, PHASE_REGISTRATION)

    def _adopt_pubkey(self, ctx, sender: int, h: int):
        if self.pk is not None or sender not in self.parent_members:
            return
        voters = self.pk_votes.setdefault(h, set())
        voters.add(sender)
        if len(voters) >= self.majority:
            self.pk = PublicKey(self.group, h, t=self.params.t)
            self._spread_pubkey(ctx)
            self._cast(ctx)

    # -- casting ----------------------------------------------------------

    def _cast(self, ctx):
        if self.cast_done:
            return
        self.cast_done = True
        ctx.log_action(PHASE_CASTING, "cast", consumes=(ARTIFACT_PUBKEY,))
        cts, proof = prove_ballot(self.pk, self.choice, self.params.d, ctx.rng)
        payload = {"t": "ballot", "cts": cts_to_obj(cts), "proof": proof.to_obj()}
        self.ballots[self.pid] = (cts, proof)
        ctx.send([m for m in self.members if m != self.pid], payload, PHASE_CASTING)
        self._maybe_aggregate(ctx)

    # -- aggregation --------------------------------------------------------

    def on_message(self, ctx, sender, msg):
        """Each field is type-checked here. A malformed ballot counts as
        received and invalid; any other malformed message is ignored."""
        kind, v, group, d = msg.get("t"), msg.get("v"), self.group, self.params.d
        root_member = self.is_root and sender in self.members
        if kind == "dkg-share" and root_member and type(v) is int and 0 <= v < group.q:
            self._dkg_receive(ctx, sender, v, None)
        elif kind == "dkg-commit" and root_member and type(v) is int and 0 < v < group.p:
            self._dkg_receive(ctx, sender, None, v)
        elif kind == "pubkey" and type(msg.get("h")) is int and 0 < msg["h"] < group.p:
            self._adopt_pubkey(ctx, sender, msg["h"])
        elif kind == "ballot":
            if sender in self.members and sender not in self.ballots:
                self.ballots[sender] = parse_ballot(group, d, msg.get("cts"), msg.get("proof"))
                self._maybe_aggregate(ctx)
        elif kind == "report":
            subtree, count = msg.get("subtree"), msg.get("count")
            cts = parse_cts(group, msg.get("cts"), d)
            if (cts is not None and type(subtree) is int and type(count) is int
                    and subtree in self.reports and sender in self.child_members[subtree]
                    and sender not in self.reports[subtree]):
                self.reports[subtree][sender] = AggregateReport(subtree, tuple(cts), count, sender)
                self._maybe_resolve(ctx, subtree)
        elif kind == "decshare":
            idx, agg = msg.get("idx"), msg.get("agg")
            values = parse_decshare(group, self.params.cluster_size, idx, v, d)
            if root_member and values is not None and type(agg) is str:
                self._collect_decshare(ctx, idx, values, agg)
        elif kind == "result":
            tally, count = wire.int_vector(msg.get("tally"), d), msg.get("count")
            if tally is not None and type(count) is int:
                self._adopt_result(ctx, sender, tally, count)

    def _maybe_aggregate(self, ctx):
        if self.cluster_agg is not None or self.pk is None:
            return
        if len(self.ballots) < self.params.cluster_size:
            return
        ballots = [self.ballots[member] for member in self.members]
        valid = [b[0] for b in ballots if b is not None and verify_ballot(self.pk, *b)]
        self.cluster_agg = hom_add_vectors(self.pk, self.params.d, valid)
        self.cluster_accepted = len(valid)
        ctx.log_action(PHASE_AGGREGATION, "aggregate")
        self._maybe_send_up(ctx)

    def _maybe_resolve(self, ctx, subtree: int):
        if subtree in self.resolved or subtree in self.stalled_subtrees:
            return
        got = self.reports[subtree]
        if len(got) < self.params.cluster_size:
            return
        winner = resolve_divergence([got[s] for s in sorted(got)])
        if winner is None:
            self.stalled_subtrees.add(subtree)
            ctx.log_action(PHASE_AGGREGATION, "divergence-unresolved",
                           detail={"subtree": subtree})
            return
        self.resolved[subtree] = winner
        self._maybe_send_up(ctx)

    def _maybe_send_up(self, ctx):
        if self.subtree_agg is not None or self.cluster_agg is None:
            return
        if len(self.resolved) < len(self.children):
            return
        claims = [self.resolved[child] for child in self.children]
        self.subtree_agg = agg = hom_add_vectors(
            self.pk, self.params.d, [self.cluster_agg, *(cts for cts, _ in claims)])
        self.subtree_count = count = self.cluster_accepted + sum(c for _, c in claims)
        ctx.log_action(PHASE_AGGREGATION, "aggregate")
        if self.is_root:
            self._start_decryption(ctx)
            for idx, values, digest in self.pending_decshares:
                self._collect_decshare(ctx, idx, values, digest)
            self.pending_decshares.clear()
        else:
            payload = {"t": "report", "subtree": self.cluster, "cts": cts_to_obj(agg),
                       "count": count}
            ctx.send(self.parent_members, payload, PHASE_AGGREGATION)

    # -- evaluation -----------------------------------------------------------

    def _agg_digest(self) -> str:
        return wire.digest(b"".join(c.serialize() for c in self.subtree_agg))

    def _start_decryption(self, ctx):
        decrypters = sorted(self.members)[: self.params.t]
        if self.pid not in decrypters:
            return
        ctx.log_action(PHASE_EVALUATION, "partial-decrypt")
        values = [partial_decrypt(self.key_share, ct).value for ct in self.subtree_agg]
        payload = {
            "t": "decshare",
            "idx": self.key_share.index,
            "v": values,
            "agg": self._agg_digest(),
        }
        for member in self.members:
            if member == self.pid:
                self._collect_decshare(ctx, self.key_share.index, values, payload["agg"])
            else:
                ctx.send((member,), payload, PHASE_EVALUATION)

    def _collect_decshare(self, ctx, idx: int, values: list[int], agg_digest: str):
        if self.tally is not None:
            return
        if self.subtree_agg is None:
            self.pending_decshares.append((idx, list(values), agg_digest))
            return
        if agg_digest != self._agg_digest():
            return  # share computed against a different aggregate
        self.dec_shares.setdefault(idx, values)
        if len(self.dec_shares) < self.params.t:
            return
        try:
            self.tally = combine_vector(self.pk, self.dec_shares, self.subtree_agg, self.params.n)
        except CryptoError:
            return  # inconsistent shares: stay incomplete
        self.accepted = self.subtree_count
        ctx.log_action(PHASE_EVALUATION, "evaluate")
        self._spread_result(ctx)
        self._verify(ctx)

    def _spread_result(self, ctx):
        payload = {"t": "result", "tally": list(self.tally), "count": self.accepted}
        ctx.send([m for c in self.children for m in self.child_members[c]], payload,
                 PHASE_EVALUATION)

    def _adopt_result(self, ctx, sender: int, tally: tuple[int, ...], count: int):
        if sender not in self.parent_members:
            return
        key = (tally, count)
        voters = self.result_votes.setdefault(key, set())
        voters.add(sender)
        if len(voters) >= self.majority:
            self.tally = tally
            self.accepted = count
            ctx.log_action(PHASE_EVALUATION, "evaluate", consumes=(ARTIFACT_TALLY,))
            self._spread_result(ctx)
            self._verify(ctx)

    # -- verification -----------------------------------------------------

    def _verify(self, ctx):
        ctx.log_action(PHASE_VERIFICATION, "verify", consumes=(ARTIFACT_TALLY,))
        self.verified = sum(self.tally) == self.accepted
        if not self.verified:
            ctx.log_action(PHASE_VERIFICATION, "verify-failed")
            self.tally = None
        ctx.finish()


def _mutate_report(group: Group, msg: dict) -> dict:
    if msg.get("t") == "report":
        cts = [list(pair) for pair in msg["cts"]]
        cts[0][1] = group.mul(int(cts[0][1]), group.g)
        return {**msg, "cts": cts}
    return msg


def _mutate_proof(msg: dict) -> dict:
    if msg.get("t") == "ballot":
        proof = {
            "comp": [list(c) for c in msg["proof"]["comp"]],
            "sum": list(msg["proof"]["sum"]),
        }
        proof["sum"][2] = int(proof["sum"][2]) + 1
        return {**msg, "proof": proof}
    return msg


register_behavior(
    BEHAVIOR_LYING_AGGREGATE,
    lambda inner: SendFilter(inner, partial(_mutate_report, inner.group)),
    SppVoter,
)
register_behavior(BEHAVIOR_INVALID_PROOF, lambda inner: SendFilter(inner, _mutate_proof),
                  SppVoter)


def _silent_root(inner: SppVoter) -> CrashAfterSteps:
    if not inner.is_root:
        raise simnet.ConfigError(
            f"faults.byzantine: behaviour {BEHAVIOR_SILENT_ROOT!r} does not act on "
            f"peer {inner.pid} (SppVoter outside the root cluster)")
    return CrashAfterSteps(inner, 0)


register_behavior(BEHAVIOR_SILENT_ROOT, _silent_root, SppVoter)


def run_spp(params: SppParams, choices: list[int], faults: FaultModel, seed: int,
            group: Group = DEFAULT_GROUP) -> tuple[simnet.Outcome, Trace]:
    """Run one SPP election; fewer than t live root members means the run
    ends incomplete rather than failing."""
    ov = build_tree_clusters(params.n, params.cluster_size, wire.derive_seed(seed, "overlay"))
    return simnet.run_election(
        "spp", params, choices, faults, seed,
        lambda pid, choice: SppVoter(pid, params, ov, choice, group),
        lambda voters: {"accepted": next((v.accepted for v in voters if v.verified), None)},
        overlay=ov.to_obj(),
        roles=((ROLE_KEY_HOLDER, set(ov.members(0)), "runtime",
                (ARTIFACT_PUBKEY, ARTIFACT_TALLY)),),
    )
