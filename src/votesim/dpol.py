"""Decentralised polling over a ring of clusters.

Casting: every voter splits its ballot into 2k+1 share vectors and sends
one to each of its recipients in the succeeding cluster. Aggregation:
recipients sum their received shares, exchange local sums within the
cluster to obtain the preceding cluster's tally, then push their growing
map of cluster tallies around the ring, one round per hop. Evaluation:
once a peer holds every cluster tally it decodes the election result
locally. No cryptography is involved anywhere.
"""

from __future__ import annotations

import contextlib
import math
from functools import partial
from typing import Callable

from . import simnet
from .ballot import (
    DpolParams,
    InconsistentAggregate,
    ShareSet,
    audit_share_set,
    decode_tally,
    encode_shares,
    unit_vector,
    vector_sum,
    AUDIT_INVALID,
)
from .overlay import Overlay, RecipientMap, assign_recipients, build_ring_clusters
from .simnet import (
    FaultModel,
    Peer,
    PHASE_AGGREGATION,
    PHASE_CASTING,
    PHASE_EVALUATION,
    Trace,
    register_behavior,
    SendFilter,
)
from . import wire

BEHAVIOR_INVALID_SHARES = "dpol:invalid-shares"
BEHAVIOR_LYING_SUM = "dpol:lying-sum"


def cluster_tally(local_sums: list[tuple[int, ...] | None], d: int) -> tuple[int, ...] | None:
    """Component-wise sum of one cluster's local sums.

    Equals the sum of every share the preceding cluster sent. Returns None
    (incomplete) when any member's sum is missing.
    """
    if not local_sums or any(s is None for s in local_sums):
        return None
    return vector_sum(local_sums, d)


def decoder(params: DpolParams) -> Callable[[bytes], dict | None]:
    """The payload decoder of a DPol run: a share's or sum's ``v`` as d ints,
    a map's round ``r`` as an int and its ``m`` as {cluster index: d ints}.
    The simulator decodes each payload in flight once, so every voter it
    reaches shares one parse."""
    keys = {str(ci): ci for ci in range(math.isqrt(params.n))}
    vector = partial(wire.int_vector, n=params.d)

    def tallies(m) -> dict[int, tuple[int, ...]] | None:
        if not isinstance(m, dict):
            return None
        parsed = {keys.get(ci): vector(v) for ci, v in m.items()}
        return None if None in parsed or None in parsed.values() else parsed

    return wire.decoder({"share": {"v": vector}, "sum": {"v": vector},
                         "map": {"r": wire.int_in(-math.inf, math.inf), "m": tallies}})


class DpolVoter(Peer):
    def __init__(self, pid: int, params: DpolParams, overlay, rmap: RecipientMap,
                 choice: int, run_seed: int, maps: list[tuple | None]):
        super().__init__(pid)
        self.params = params
        self.choice = choice
        self.run_seed = run_seed
        self.cluster = overlay.cluster_of(pid)
        self.cluster_members = overlay.members(self.cluster)
        self.pred_cluster = overlay.predecessor(self.cluster)
        self.recipients = rmap.recipients[pid]
        self.expected_senders = frozenset(rmap.senders[pid])
        self.rounds_total = int(math.isqrt(params.n)) - 1
        self.shares_by_sender: dict[int, tuple[int, ...]] = {}
        self.local_sum: tuple[int, ...] | None = None
        self.sums_by_member: dict[int, tuple[int, ...]] = {}
        self.known: dict[int, tuple[int, ...]] = {}
        self.poisoned: set[int] = set()
        # Maps of the rounds not merged yet; a round is dropped once merged.
        self.round_maps: dict[int, dict[int, dict]] = {}
        self.merged = 0
        self.tally: tuple[int, ...] | None = None
        self.decode_failed = False
        # The run's last map per cluster, shared by every voter (see _send_map).
        self.maps = maps

    # -- casting --------------------------------------------------------

    def on_start(self, ctx):
        ctx.log_action(PHASE_CASTING, "cast")
        share_set: ShareSet = encode_shares(
            self.choice, self.params, self.run_seed, owner=self.pid
        )
        for share, recipient in zip(share_set.shares, self.recipients):
            ctx.send((recipient,), {"t": "share", "v": list(share)}, PHASE_CASTING)

    # -- aggregation ------------------------------------------------------

    def on_message(self, ctx, sender, msg):
        kind = msg.get("t")  # decoder(params) has parsed v, r and m
        if (kind == "share" and sender in self.expected_senders
                and sender not in self.shares_by_sender):
            self.shares_by_sender[sender] = msg["v"]
            if len(self.shares_by_sender) == self.params.shares_per_voter:
                self._compute_local_sum(ctx)
        elif kind == "sum" and sender in self.cluster_members and sender not in self.sums_by_member:
            self.sums_by_member[sender] = msg["v"]
            self._maybe_cluster_tally(ctx)
        elif (kind == "map" and sender in self.expected_senders
              and self.merged <= msg["r"] < self.rounds_total):
            per_round = self.round_maps.setdefault(msg["r"], {})
            if sender not in per_round:
                per_round[sender] = msg["m"]
                self._maybe_process_rounds(ctx)

    def _compute_local_sum(self, ctx):
        self.local_sum = vector_sum(
            [self.shares_by_sender[s] for s in sorted(self.shares_by_sender)],
            self.params.d,
        )
        ctx.log_action(PHASE_AGGREGATION, "aggregate")
        self.sums_by_member[self.pid] = self.local_sum
        ctx.send([m for m in self.cluster_members if m != self.pid],
                 {"t": "sum", "v": list(self.local_sum)}, PHASE_AGGREGATION)
        self._maybe_cluster_tally(ctx)

    def _maybe_cluster_tally(self, ctx):
        if self.local_sum is None or len(self.sums_by_member) < len(self.cluster_members):
            return
        tally = cluster_tally(
            [self.sums_by_member[m] for m in sorted(self.sums_by_member)],
            self.params.d,
        )
        self.known[self.pred_cluster] = tally
        ctx.log_action(PHASE_AGGREGATION, "aggregate")
        self._send_map(ctx, 0)
        self._maybe_process_rounds(ctx)

    def _send_map(self, ctx, r: int):
        # Honest members of a cluster send the same map each round: the
        # cluster's slot keeps the last (round, known, message, payload) sent,
        # a member with an equal round and known sends those bytes, and any
        # other encodes its own map into the slot. Equal content means equal
        # bytes only because every value in known is a tuple of exact ints
        # (the decoder and vector_sum make nothing else): 1 == 1.0 == True
        # encode apart. A filtered context ignores the payload and encodes
        # what its filter makes of the message.
        slot = self.maps[self.cluster]
        if slot is None or slot[0] != r or slot[1] != self.known:
            known = dict(self.known)
            msg = {
                "t": "map",
                "r": r,
                "m": {str(ci): v for ci, v in known.items()},  # dumps sorts the keys
            }
            slot = self.maps[self.cluster] = (r, known, msg, wire.dumps(msg))
        ctx.send(self.recipients, slot[2], PHASE_AGGREGATION, slot[3])

    def _maybe_process_rounds(self, ctx):
        if self.pred_cluster not in self.known:
            return
        # Rounds are processed in order so the forwarded map grows
        # monotonically hop by hop.
        while self.merged < self.rounds_total:
            if len(self.round_maps.get(self.merged, ())) < self.params.shares_per_voter:
                return
            self._merge_round(ctx, self.round_maps.pop(self.merged))
            self.merged += 1
            if self.merged < self.rounds_total:
                self._send_map(ctx, self.merged)
        self._finalize(ctx)

    def _merge_round(self, ctx, per_round: dict[int, dict]):
        majority = self.params.k + 1
        maps = list(per_round.values())
        if len(maps) >= majority and all(m is maps[0] or m == maps[0] for m in maps):
            # Every copy agrees, so each index wins with all its votes.
            for ci in sorted(maps[0]):
                self._adopt(ctx, ci, maps[0][ci])
            return
        for ci in sorted({ci for m in maps for ci in m}):
            votes: dict[tuple[int, ...], int] = {}
            for m in maps:
                if ci in m:
                    votes[m[ci]] = votes.get(m[ci], 0) + 1
            if len(votes) > 1:
                # Conflicting copies of the same cluster tally: on record
                # even when the majority rule still settles the value.
                ctx.log_action(
                    PHASE_AGGREGATION, "map-conflict", detail={"cluster": ci}
                )
            winner = None
            for value, count in votes.items():
                if count >= majority:
                    winner = value
            if winner is None:
                if sum(votes.values()) < majority:
                    continue  # minority fabrication; honest copies never split so thin
                # Enough copies but no strict majority: this cluster index
                # can never be trusted; the peer ends incomplete.
                self.poisoned.add(ci)
                ctx.log_action(
                    PHASE_AGGREGATION, "tally-divergence", detail={"cluster": ci}
                )
                continue
            self._adopt(ctx, ci, winner)

    def _adopt(self, ctx, ci: int, value: tuple[int, ...]):
        """Take a cluster tally the round settled, or log that it differs
        from the one already known."""
        if ci not in self.known:
            self.known[ci] = value
        elif self.known[ci] != value:
            ctx.log_action(PHASE_AGGREGATION, "tally-discrepancy", detail={"cluster": ci})

    # -- evaluation -------------------------------------------------------

    def _finalize(self, ctx):
        clusters = int(math.isqrt(self.params.n))
        ctx.log_action(PHASE_EVALUATION, "evaluate")
        if len(self.known) == clusters and not self.poisoned:
            total = vector_sum(
                [self.known[ci] for ci in sorted(self.known)], self.params.d
            )
            with contextlib.suppress(InconsistentAggregate):
                self.tally = decode_tally(total, self.params)
        if self.tally is None:
            self.decode_failed = True
            ctx.log_action(PHASE_EVALUATION, "tally-inconsistent")
        ctx.finish()


def _mutate_invalid_shares(msg: dict) -> dict:
    if msg.get("t") == "share":
        d = len(msg["v"])
        return {"t": "share", "v": list(unit_vector(0, d))}
    return msg


def _mutate_lying_sum(msg: dict) -> dict:
    """Lying aggregator: inflates option 0 in its local sum and in every
    cluster tally it forwards around the ring."""
    if msg.get("t") == "sum":
        v = list(msg["v"])
        v[0] += 1
        return {"t": "sum", "v": v}
    if msg.get("t") == "map":
        lied = {}
        for ci, v in msg["m"].items():
            v = list(v)
            v[0] += 1
            lied[ci] = v
        return {**msg, "m": lied}
    return msg


register_behavior(BEHAVIOR_INVALID_SHARES,
                  lambda inner: SendFilter(inner, _mutate_invalid_shares), DpolVoter)
register_behavior(BEHAVIOR_LYING_SUM,
                  lambda inner: SendFilter(inner, _mutate_lying_sum), DpolVoter)


def ring_for(params: DpolParams, seed: int) -> tuple[Overlay, RecipientMap]:
    """The ring and recipient map of the DPol election run with ``seed``.
    Raises an OverlayError when n is not a perfect square >= 4 or 2k+1
    exceeds the cluster size."""
    ov = build_ring_clusters(params.n, wire.derive_seed(seed, "overlay"))
    return ov, assign_recipients(ov, params.k, wire.derive_seed(seed, "recipients"))


def run_dpol(params: DpolParams, choices: list[int], faults: FaultModel,
             seed: int) -> tuple[simnet.Outcome, Trace]:
    """Run one complete DPol election on the simulator.

    Incomplete runs (losses, crashes, byzantine stalls) report
    completion < 1 instead of failing. With params.audit, each sender's
    delivered share multiset is pooled after the run and checked against
    the honest pattern; flagged peers are returned in the outcome.
    """
    ov, rmap = ring_for(params, seed)
    maps: list[tuple | None] = [None] * len(ov.clusters)

    def details(voters: list[DpolVoter]) -> dict:
        return {
            "flagged": _pooled_audit(params, rmap, voters) if params.audit else set(),
            "inconsistent": {v.pid for v in voters if v.decode_failed},
            "audited": params.audit,
        }

    return simnet.run_election(
        "dpol", params, choices, faults, seed,
        lambda pid, choice: DpolVoter(pid, params, ov, rmap, choice, seed, maps), details,
        overlay=ov.to_obj(), decode=decoder(params),
    )


def _pooled_audit(params: DpolParams, rmap: RecipientMap,
                  voters: list[DpolVoter]) -> set[int]:
    """Forensic audit: pool every sender's delivered shares and check them.

    Pooling reveals the sender's ballot, so this runs only when the
    scenario explicitly asks for it. Senders with missing copies are
    inconclusive, never flagged.
    """
    by_pid = {v.pid: v for v in voters}
    flagged = set()
    for sender in sorted(rmap.recipients):
        pooled = []
        for recipient in rmap.recipients[sender]:
            share = by_pid[recipient].shares_by_sender.get(sender)
            if share is not None:
                pooled.append(share)
        if audit_share_set(pooled, params) == AUDIT_INVALID:
            flagged.add(sender)
    return flagged
