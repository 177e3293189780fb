"""RSA blind signatures for eligibility tokens.

The issuer signs a blinded hash of a random serial; after unblinding, the
holder owns a token that verifies under the issuer key but cannot be
matched to anything in the issuer's transcript. Key sizes are desk-scale,
and generation is fully seeded so runs stay reproducible.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from .. import wire
from .group import CryptoError

_SERIAL_DOMAIN = b"votesim/token-serial/v1\x00"

_SMALL_PRIMES = [p for p in range(3, 1000) if all(p % d for d in range(2, p))]


def _is_probable_prime(n: int, rng: random.Random, rounds: int = 30) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _gen_prime(bits: int, rng: random.Random) -> int:
    while True:
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(cand, rng):
            return cand


@dataclass(frozen=True)
class IssuerPublicKey:
    n: int
    e: int

    def serialize(self) -> bytes:
        return wire.ser_ints(self.n, self.e)


@dataclass(frozen=True)
class IssuerKey:
    n: int
    e: int
    d: int

    @property
    def public(self) -> IssuerPublicKey:
        return IssuerPublicKey(self.n, self.e)


@dataclass(frozen=True)
class Token:
    """Eligibility token: random 256-bit serial plus RSA signature on H(serial)."""

    serial: str  # lowercase hex, 32 bytes
    signature: int

    def serialize(self) -> bytes:
        return bytes.fromhex(self.serial) + wire.ser_ints(self.signature)

    def to_obj(self) -> dict:
        return {"serial": self.serial, "sig": self.signature}


def generate_issuer_key(seed: int, bits: int = 1024) -> IssuerKey:
    """Deterministic RSA keypair with a modulus of roughly `bits` bits."""
    rng = random.Random(wire.derive_seed(seed, "issuer-key", bits))
    e = 65537
    while True:
        p = _gen_prime(bits // 2, rng)
        q = _gen_prime(bits // 2, rng)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        if math.gcd(e, phi) != 1:
            continue
        return IssuerKey(p * q, e, pow(e, -1, phi))


def hash_serial(serial_hex: str, n: int) -> int:
    """Full-domain-ish hash of the serial into Z_n (256 bits < n)."""
    h = hashlib.sha256(_SERIAL_DOMAIN + bytes.fromhex(serial_hex)).digest()
    return int.from_bytes(h, "big") % n


def random_serial(rng: random.Random) -> str:
    return rng.getrandbits(256).to_bytes(32, "big").hex()


def random_blinding(rng: random.Random, pk: IssuerPublicKey) -> int:
    while True:
        r = rng.randrange(2, pk.n - 1)
        if math.gcd(r, pk.n) == 1:
            return r


def blind(serial_hex: str, pk: IssuerPublicKey, r: int) -> int:
    if math.gcd(r, pk.n) != 1:
        raise CryptoError("blinding factor must be coprime to the modulus")
    return hash_serial(serial_hex, pk.n) * pow(r, pk.e, pk.n) % pk.n


def sign_blinded(blinded: int, key: IssuerKey) -> int:
    return pow(blinded, key.d, key.n)


def unblind(blinded_sig: int, r: int, pk: IssuerPublicKey, serial_hex: str) -> Token:
    sig = blinded_sig * pow(r, -1, pk.n) % pk.n
    return Token(serial_hex, sig)


def verify_token(token: Token, pk: IssuerPublicKey) -> bool:
    try:
        return pow(token.signature, pk.e, pk.n) == hash_serial(token.serial, pk.n)
    except ValueError:  # the serial is not hex
        return False
