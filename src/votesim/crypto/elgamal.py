"""Exponential ElGamal with (t, n)-threshold decryption.

Encryption hides g^m, so ciphertexts add homomorphically and the tally
comes back through a bounded discrete log. Key shares are Shamir shares
of the secret exponent; any t of them decrypt, fewer raise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .. import wire
from .group import CryptoError, Group, lagrange_at_zero


class InsufficientShares(CryptoError):
    pass


class PlaintextOutOfRange(CryptoError):
    pass


@dataclass(frozen=True)
class PublicKey:
    group: Group
    h: int
    t: int = 1

    def __post_init__(self) -> None:
        self.group.fix_base(self.h)


@dataclass(frozen=True)
class Ciphertext:
    """(a, b) = (g^r, g^m * h^r); both components live in the subgroup."""

    group: Group
    a: int
    b: int

    def serialize(self) -> bytes:
        return wire.ser_ints(self.a, self.b)


@dataclass(frozen=True)
class KeyShare:
    index: int  # Shamir evaluation point, >= 1
    value: int


@dataclass(frozen=True)
class DecryptionShare:
    index: int
    value: int  # a^share


def keygen(group: Group, rng: random.Random) -> tuple[PublicKey, int]:
    """Plain ElGamal keypair (the t = 1, n = 1 degenerate threshold)."""
    x = group.rand_scalar(rng)
    return PublicKey(group, group.exp(group.g, x)), x


def encrypt(pk: PublicKey, m: int, r: int) -> Ciphertext:
    if m < 0:
        raise CryptoError("plaintexts are non-negative integers")
    g, p = pk.group.g, pk.group.p
    a = pk.group.exp(g, r)
    b = pk.group.exp(g, m) * pk.group.exp(pk.h, r) % p
    return Ciphertext(pk.group, a, b)


def encrypt_random(pk: PublicKey, m: int, rng: random.Random) -> Ciphertext:
    return encrypt(pk, m, pk.group.rand_scalar(rng))


def hom_add(c1: Ciphertext, c2: Ciphertext) -> Ciphertext:
    if c1.group != c2.group:
        raise CryptoError("ciphertexts from different groups")
    return Ciphertext(c1.group, c1.group.mul(c1.a, c2.a), c1.group.mul(c1.b, c2.b))


def hom_sum(cts: list[Ciphertext]) -> Ciphertext:
    if not cts:
        raise CryptoError("empty ciphertext sum")
    acc = cts[0]
    for c in cts[1:]:
        acc = hom_add(acc, c)
    return acc


def hom_add_vectors(pk: PublicKey, d: int, vectors) -> list[Ciphertext]:
    """Component-wise sum of ciphertext vectors, starting from d copies of
    (1, 1): the encryption of 0 with r = 0, the homomorphic identity."""
    agg = [Ciphertext(pk.group, 1, 1)] * d
    for cts in vectors:
        agg = [hom_add(a, c) for a, c in zip(agg, cts)]
    return agg


def cts_to_obj(cts) -> list[list[int]]:
    return [[c.a, c.b] for c in cts]


def _parse_elements(group: Group, obj, d: int) -> tuple[int, ...] | None:
    """d received ints in (0, p), or None. Subgroup membership is not checked."""
    values = wire.int_vector(obj, d)
    return values if values is not None and all(0 < x < group.p for x in values) else None


def parse_cts(group: Group, obj, d: int) -> list[Ciphertext] | None:
    """d received [a, b] pairs (see _parse_elements) as ciphertexts, or None."""
    ok = isinstance(obj, list) and len(obj) == d
    pairs = [_parse_elements(group, x, 2) for x in obj] if ok else [None]
    return None if None in pairs else [Ciphertext(group, a, b) for a, b in pairs]


def parse_decshare(group: Group, holders: int, idx, values, d: int) -> tuple[int, ...] | None:
    """The d decryption-share values of holder index idx in 1..holders, or None."""
    return _parse_elements(group, values, d) if type(idx) is int and 1 <= idx <= holders else None


def decrypt(group: Group, x: int, c: Ciphertext, bound: int) -> int:
    gm = group.mul(c.b, group.inv(group.exp(c.a, x)))
    return dlog_recover(group, gm, bound)


def threshold_keygen(t: int, n_holders: int, group: Group,
                     seed: int) -> tuple[PublicKey, list[KeyShare]]:
    """Joint-Feldman style key generation, honest-but-curious.

    Every holder deals a random degree-(t-1) polynomial; shares are the
    summed evaluations and the public key is g^(sum of constant terms).
    No complaint or disqualification rounds are simulated.
    """
    if t < 1 or t > n_holders:
        raise CryptoError("need 1 <= t <= n_holders")
    q = group.q
    polys = []
    for dealer in range(n_holders):
        rng = random.Random(wire.derive_seed(seed, "dkg-dealer", dealer))
        polys.append([group.rand_scalar(rng) for _ in range(t)])
    x = sum(poly[0] for poly in polys) % q
    shares = []
    for j in range(1, n_holders + 1):
        value = sum(poly_eval(poly, j, q) for poly in polys) % q
        shares.append(KeyShare(index=j, value=value))
    pk = PublicKey(group, group.exp(group.g, x), t=t)
    return pk, shares


def poly_eval(coeffs: list[int], x: int, q: int) -> int:
    y = 0
    for i, c in enumerate(coeffs):
        y = (y + c * pow(x, i, q)) % q
    return y


def partial_decrypt(share: KeyShare, c: Ciphertext) -> DecryptionShare:
    return DecryptionShare(share.index, c.group.exp(c.a, share.value))


def combine(pk: PublicKey, shares: list[DecryptionShare], c: Ciphertext,
            bound: int) -> int:
    """Lagrange-combine >= t decryption shares and recover the plaintext."""
    indices = [s.index for s in shares]
    if len(set(indices)) != len(indices):
        raise CryptoError("decryption shares must come from distinct indices")
    if len(shares) < pk.t:
        raise InsufficientShares(
            f"insufficient shares: got {len(shares)}, need {pk.t}"
        )
    group = pk.group
    take = sorted(shares, key=lambda s: s.index)[: pk.t]
    idx = [s.index for s in take]
    ax = 1
    for s in take:
        lam = lagrange_at_zero(s.index, idx, group.q)
        ax = group.mul(ax, group.exp(s.value, lam))
    gm = group.mul(c.b, group.inv(ax))
    return dlog_recover(group, gm, bound)


def combine_vector(pk: PublicKey, shares_by_index: dict[int, list[int]], cts,
                   bound: int) -> tuple[int, ...]:
    """Threshold-decrypt each component of cts; shares_by_index maps a
    holder's index to its decryption-share value for every component."""
    shares = sorted(shares_by_index.items())
    return tuple(combine(pk, [DecryptionShare(i, vals[comp]) for i, vals in shares], ct, bound)
                 for comp, ct in enumerate(cts))


_DLOG_TABLES: dict[tuple[int, int], dict[int, int]] = {}


def dlog_recover(group: Group, element: int, bound: int) -> int:
    """Find m <= bound with g^m = element via a cached incremental table."""
    if bound < 0:
        raise CryptoError("bound must be >= 0")
    key = (group.p, group.g)
    table = _DLOG_TABLES.setdefault(key, {1: 0})
    if len(table) <= bound:
        cur = group.exp(group.g, len(table) - 1)
        for m in range(len(table), bound + 1):
            cur = group.mul(cur, group.g)
            table.setdefault(cur, m)
    m = table.get(element)
    if m is None or m > bound:
        raise PlaintextOutOfRange(f"plaintext out of range (bound {bound})")
    return m
