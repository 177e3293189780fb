"""Exponential ElGamal with (t, n)-threshold decryption.

Encryption hides g^m, so ciphertexts add homomorphically and the tally
comes back through a bounded discrete log. Key shares are Shamir shares
of the secret exponent; any t of them decrypt, fewer raise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

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


def parse_elements(group: Group, obj, d: int) -> tuple[int, ...] | None:
    """d received ints in (0, p), or None. Subgroup membership is not checked."""
    values = wire.int_vector(obj, d)
    return values if values is not None and all(0 < x < group.p for x in values) else None


def parse_cts(group: Group, obj, d: int) -> list[Ciphertext] | None:
    """d received [a, b] pairs (see parse_elements) as ciphertexts, or None."""
    ok = isinstance(obj, list) and len(obj) == d
    pairs = [parse_elements(group, x, 2) for x in obj] if ok else [None]
    return None if None in pairs else [Ciphertext(group, a, b) for a, b in pairs]


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


def partial_decrypt(share: KeyShare, c: Ciphertext) -> int:
    """The decryption share a^share of the holder of share.index."""
    return c.group.exp(c.a, share.value)


def combine(pk: PublicKey, shares: dict[int, int], c: Ciphertext, bound: int) -> int:
    """Lagrange-combine the decryption shares of the t lowest holder indices
    in shares ({index: a^share}) and recover the plaintext."""
    if len(shares) < pk.t:
        raise InsufficientShares(
            f"insufficient shares: got {len(shares)}, need {pk.t}"
        )
    group = pk.group
    idx = sorted(shares)[: pk.t]
    ax = 1
    for i in idx:
        ax = group.mul(ax, group.exp(shares[i], lagrange_at_zero(i, idx, group.q)))
    gm = group.mul(c.b, group.inv(ax))
    return dlog_recover(group, gm, bound)


def decrypt_tally(pk: PublicKey, shares: dict[int, list[int]], cts,
                  bound: int) -> tuple[dict[int, list[int]], tuple[int, ...]] | None:
    """The share rule of Helios and SPP: the first pk.t of ``shares`` ({index:
    values per component of cts}), in index order, that combine, and the tally
    of cts they give; None if none do, so a wrong share spoils only its subsets."""
    for subset in combinations(sorted(shares), pk.t):
        used = {i: shares[i] for i in subset}
        try:
            return used, tuple(combine(pk, {i: vals[comp] for i, vals in used.items()}, ct, bound)
                               for comp, ct in enumerate(cts))
        except CryptoError:
            pass
    return None


def dlog_recover(group: Group, element: int, bound: int) -> int:
    """The least m <= bound with g^m = element, found by walking g^0, g^1, ..."""
    if bound < 0:
        raise CryptoError("bound must be >= 0")
    cur = 1
    for m in range(bound + 1):
        if cur == element:
            return m
        cur = group.mul(cur, group.g)
    raise PlaintextOutOfRange(f"plaintext out of range (bound {bound})")
