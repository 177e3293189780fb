"""Ballot-validity proofs: each component encrypts 0 or 1, and the
components sum to exactly one.

Per component a two-branch disjunctive Chaum-Pedersen proof (Fiat-Shamir,
domain-separated); the component sum is tied down by one more
Chaum-Pedersen proof on the homomorphic sum of the ciphertexts. The
verifier recomputes every challenge and returns False on any
inconsistency in a ballot that parse_ballot accepted.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .. import wire
from .elgamal import (Ciphertext, PublicKey, encrypt, hom_add_vectors, hom_sum, parse_cts,
                      parse_elements)
from .group import Group

_OR_DOMAIN = "votesim/ballot-or/v1"
_SUM_DOMAIN = "votesim/ballot-sum/v1"


@dataclass(frozen=True)
class ComponentProof:
    """OR-proof transcript: commitments, split challenges, responses."""

    a0: int
    b0: int
    a1: int
    b1: int
    e0: int
    e1: int
    z0: int
    z1: int

    def to_obj(self) -> list[int]:
        return [self.a0, self.b0, self.a1, self.b1, self.e0, self.e1, self.z0, self.z1]

    @classmethod
    def from_obj(cls, obj) -> "ComponentProof":
        return cls(*(int(x) for x in obj))


@dataclass(frozen=True)
class SumProof:
    w1: int
    w2: int
    z: int

    def to_obj(self) -> list[int]:
        return [self.w1, self.w2, self.z]

    @classmethod
    def from_obj(cls, obj) -> "SumProof":
        return cls(*(int(x) for x in obj))


@dataclass(frozen=True)
class BallotProof:
    components: tuple[ComponentProof, ...]
    sum_proof: SumProof

    def to_obj(self) -> dict:
        return {
            "comp": [c.to_obj() for c in self.components],
            "sum": self.sum_proof.to_obj(),
        }

    @classmethod
    def from_obj(cls, obj) -> "BallotProof":
        return cls(
            tuple(ComponentProof.from_obj(c) for c in obj["comp"]),
            SumProof.from_obj(obj["sum"]),
        )


def _statement(pk: PublicKey, cts: list[Ciphertext]) -> list[int]:
    nums = [pk.h]
    for ct in cts:
        nums.extend((ct.a, ct.b))
    return nums


def prove_ballot(pk: PublicKey, choice: int, d: int,
                 rng: random.Random) -> tuple[list[Ciphertext], BallotProof]:
    """Encrypt the unit vector for `choice` and prove it well-formed;
    `choice` must be in [0, d), as ``simnet.check_election`` makes every
    election's choices."""
    ms = [1 if j == choice else 0 for j in range(d)]
    return prove_vector(pk, ms, rng)


def prove_vector(pk: PublicKey, ms: list[int],
                 rng: random.Random) -> tuple[list[Ciphertext], BallotProof]:
    """Prove an arbitrary 0/1-intended plaintext vector.

    Exists so that byzantine behaviors and soundness tests can produce
    syntactically well-formed but invalid ballots (two-hot vectors,
    components outside {0, 1}); such proofs do not verify.
    """
    group = pk.group
    g, h, q = group.g, pk.h, group.q
    rs = [group.rand_scalar(rng) for _ in ms]
    cts = [encrypt(pk, m, r) for m, r in zip(ms, rs)]
    stmt = _statement(pk, cts)

    comps = []
    for j, (ct, m, r) in enumerate(zip(cts, ms, rs)):
        real = m if m in (0, 1) else 1
        sim = 1 - real
        e_sim = group.rand_scalar(rng)
        z_sim = group.rand_scalar(rng)
        # Simulated branch: pick challenge and response, derive commitments.
        bv = group.mul(ct.b, group.inv(group.exp(g, sim)))
        a_sim = group.mul(group.exp(g, z_sim), group.inv(group.exp(ct.a, e_sim)))
        b_sim = group.mul(group.exp(h, z_sim), group.inv(group.exp(bv, e_sim)))
        w = group.rand_scalar(rng)
        a_real = group.exp(g, w)
        b_real = group.exp(h, w)
        four = (a_real, b_real, a_sim, b_sim) if real == 0 else (a_sim, b_sim, a_real, b_real)
        e = group.hash_scalar(_OR_DOMAIN, *stmt, j, *four)
        e_real = (e - e_sim) % q
        z_real = (w + e_real * r) % q
        if real == 0:
            comps.append(ComponentProof(*four, e_real, e_sim, z_real, z_sim))
        else:
            comps.append(ComponentProof(*four, e_sim, e_real, z_sim, z_real))

    big_r = sum(rs) % q
    w = group.rand_scalar(rng)
    w1, w2 = group.exp(g, w), group.exp(h, w)
    e_s = group.hash_scalar(_SUM_DOMAIN, *stmt, w1, w2)
    z = (w + e_s * big_r) % q
    return cts, BallotProof(tuple(comps), SumProof(w1, w2, z))


def parse_ballot(group: Group, d: int, cts_obj,
                 proof_obj) -> tuple[list[Ciphertext], BallotProof] | None:
    """A received ballot, or None unless it has d ciphertexts (see
    parse_cts) and a proof of d lists of 8 non-negative ints plus 3 for the
    sum proof."""
    cts = parse_cts(group, cts_obj, d)
    comps = proof_obj.get("comp") if isinstance(proof_obj, dict) else None
    if cts is None or not isinstance(comps, list) or len(comps) != d:
        return None
    parts = [wire.int_vector(x, n) for x, n in zip([*comps, proof_obj.get("sum")], [8] * d + [3])]
    if None in parts or min(map(min, parts)) < 0:
        return None
    return cts, BallotProof.from_obj(proof_obj)


def decoder(group: Group, d: int, holders: int) -> Callable[[bytes], dict | None]:
    """The payload decoder of a Helios or SPP run; both send the same
    ``pubkey``, ``ballot``, ``decshare`` and ciphertext-vector messages. It
    hands over the JSON object with its kind's fields parsed, by type and
    range only (key-share indices in 1..holders), or None for any other
    value or a malformed message. A malformed ballot or bulletin arrives
    with that field None: receivers count it as received and invalid."""
    element, index = wire.int_in(1, group.p), wire.int_in(1, holders + 1)
    integer = wire.int_in(-math.inf, math.inf)

    def bulletin(msg: dict) -> tuple | None:
        """(ballots as (voter, (cts, proof)), shares by index, tally, accepted)."""
        entries, pairs, accepted = msg.get("ballots"), msg.get("shares"), msg.get("accepted")
        tally = wire.int_vector(msg.get("tally"), d)
        if not (isinstance(entries, list) and isinstance(pairs, list) and tally is not None
                and type(accepted) is int
                and all(isinstance(e, list) and len(e) == 3 for e in entries)
                and all(isinstance(p, list) and len(p) == 2 and type(p[0]) is int for p in pairs)):
            return None
        ballots = [parse_ballot(group, d, cts, proof) if type(voter) is int else None
                   for voter, cts, proof in entries]
        shares = {idx: index(idx) and parse_elements(group, vals, d) for idx, vals in pairs}
        if None in ballots or None in shares.values():
            return None
        return [(e[0], b) for e, b in zip(entries, ballots)], shares, tally, accepted

    cts = partial(parse_cts, group, d=d)
    parse = wire.decoder({
        "pubkey": {"h": element}, "dkg-commit": {"v": element},
        "dkg-share": {"v": wire.int_in(0, group.q)}, "decrypt": {"cts": cts},
        "report": {"subtree": integer, "cts": cts, "count": integer},
        # Only SPP reads agg: a non-string agg matches no aggregate.
        "decshare": {"idx": index, "v": partial(parse_elements, group, d=d),
                     "agg": lambda x: x if type(x) is str else ""},
        "result": {"tally": partial(wire.int_vector, n=d), "count": integer},
    })

    def decode(payload: bytes) -> dict | None:
        msg = parse(payload)
        kind = msg.get("t") if msg is not None else None
        if kind == "ballot":
            return {**msg, "ballot": parse_ballot(group, d, msg.get("cts"), msg.get("proof"))}
        if kind == "bulletin":
            return {**msg, "bulletin": bulletin(msg)}
        return msg

    return decode


def verify_ballot(pk: PublicKey, cts: list[Ciphertext], proof: BallotProof) -> bool:
    """Check the disjunctive proofs and the sum proof. Expects a ballot that
    parse_ballot accepted or prove_vector made; returns False when it fails."""
    group = pk.group
    g, h, q = group.g, pk.h, group.q
    if len(cts) != len(proof.components) or not cts:
        return False
    for ct in cts:
        if not (group.is_element(ct.a) and group.is_element(ct.b)):
            return False
    stmt = _statement(pk, cts)
    for j, (ct, c) in enumerate(zip(cts, proof.components)):
        e = group.hash_scalar(_OR_DOMAIN, *stmt, j, c.a0, c.b0, c.a1, c.b1)
        if (c.e0 + c.e1) % q != e:
            return False
        for v, (av, bv_c, ev, zv) in enumerate(
            ((c.a0, c.b0, c.e0, c.z0), (c.a1, c.b1, c.e1, c.z1))
        ):
            bv = group.mul(ct.b, group.inv(group.exp(g, v)))
            if group.exp(g, zv) != group.mul(av, group.exp(ct.a, ev)):
                return False
            if group.exp(h, zv) != group.mul(bv_c, group.exp(bv, ev)):
                return False
    total = hom_sum(cts)
    sp = proof.sum_proof
    e_s = group.hash_scalar(_SUM_DOMAIN, *stmt, sp.w1, sp.w2)
    bv = group.mul(total.b, group.inv(g))
    if group.exp(g, sp.z) != group.mul(sp.w1, group.exp(total.a, e_s)):
        return False
    return group.exp(h, sp.z) == group.mul(sp.w2, group.exp(bv, e_s))


def count_ballots(pk: PublicKey, d: int, ballots) -> tuple[list, list[Ciphertext]]:
    """The ballot rule of Helios and SPP: of ``ballots``, (voter, ballot)
    pairs in counting order, the pairs whose ballot parsed (is not None) and
    carries valid proofs, and the homomorphic sum of their ciphertexts."""
    valid = [(voter, b) for voter, b in ballots if b is not None and verify_ballot(pk, *b)]
    return valid, hom_add_vectors(pk, d, (b[0] for _, b in valid))
