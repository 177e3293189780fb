"""Share encoding for decentralised polling.

A choice among d options becomes 2k+1 unit vectors in {0,1}^d: k+1 copies
of the chosen option's vector and k/(d-1) copies of every other one. The
component-wise sum of all voters' shares is an affine image of the choice
histogram, so the tally decodes exactly; a pooled multiset of one sender's
shares can be audited against the honest pattern with no false positives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import wire
from .simnet import ConfigError

AUDIT_VALID = "valid"
AUDIT_INVALID = "invalid"
AUDIT_INCONCLUSIVE = "inconclusive"


class InconsistentAggregate(Exception):
    """The share sum cannot come from honest encodings (byzantine or loss)."""


@dataclass(frozen=True)
class DpolParams:
    """n voters, privacy parameter k, d options; m = k/(d-1) shares per
    non-chosen option. ``audit`` asks a run for the forensic share audit.
    Construction checks the encoding rules; the ring's shape rules belong
    to the overlay builders (``dpol.ring_for``)."""

    n: int
    k: int
    d: int
    audit: bool = False

    @property
    def m(self) -> int:
        return self.k // (self.d - 1)

    @property
    def shares_per_voter(self) -> int:
        return 2 * self.k + 1

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ConfigError("n: must be >= 0")
        if self.d < 2:
            raise ConfigError("d: must be >= 2")
        if self.k < 1:
            raise ConfigError("k: must be >= 1")
        if self.k % (self.d - 1) != 0:
            raise ConfigError("k: must be divisible by d-1")


@dataclass(frozen=True)
class ShareSet:
    """The 2k+1 share vectors one voter distributes, in send order."""

    shares: tuple[tuple[int, ...], ...]
    owner: int


def unit_vector(j: int, d: int) -> tuple[int, ...]:
    return tuple(1 if i == j else 0 for i in range(d))


def encode_shares(choice: int, params: DpolParams, seed: int,
                  owner: int = 0) -> ShareSet:
    """Build the share multiset for one ballot and shuffle its order.

    The shuffle matters: recipients must not be able to infer anything
    from the position of the share they receive. ``choice`` must be in
    [0, d), as ``simnet.check_election`` makes every election's choices.
    """
    shares = [unit_vector(choice, params.d)] * (params.k + 1)
    for j in range(params.d):
        if j != choice:
            shares.extend([unit_vector(j, params.d)] * params.m)
    rng = random.Random(wire.derive_seed(seed, "shares", owner))
    rng.shuffle(shares)
    return ShareSet(tuple(shares), owner)


def decode_tally(total: tuple[int, ...], params: DpolParams) -> tuple[int, ...]:
    """Invert the aggregate sum back to per-option vote counts.

    With m = k/(d-1), option j contributes k+1 to its own component and m
    to each other, so T_j = m*n + (k+1-m) * n_j. Raises
    InconsistentAggregate when the counts are not non-negative integers
    summing to n.
    """
    if len(total) != params.d:
        raise InconsistentAggregate(f"aggregate must have {params.d} components")
    denom = params.k + 1 - params.m
    counts = []
    for j, t in enumerate(total):
        num = t - params.m * params.n
        if num < 0 or num % denom != 0:
            raise InconsistentAggregate(
                f"component {j} does not decode to a vote count"
            )
        counts.append(num // denom)
    if sum(counts) != params.n:
        raise InconsistentAggregate(
            f"decoded counts sum to {sum(counts)}, expected {params.n}"
        )
    return tuple(counts)


def audit_share_set(shares: list[tuple[int, ...]], params: DpolParams) -> str:
    """Check a pooled sender multiset against the honest pattern.

    Returns "inconclusive" unless all 2k+1 shares are present (never flags
    on partial data), "valid" iff the multiset is k+1 copies of one unit
    vector plus m copies of every other, else "invalid".
    """
    if len(shares) < params.shares_per_voter:
        return AUDIT_INCONCLUSIVE
    if len(shares) > params.shares_per_voter:
        return AUDIT_INVALID
    counts = [0] * params.d
    for s in shares:
        if len(s) != params.d or any(x not in (0, 1) for x in s) or sum(s) != 1:
            return AUDIT_INVALID
        counts[list(s).index(1)] += 1
    expected = sorted([params.k + 1] + [params.m] * (params.d - 1))
    return AUDIT_VALID if sorted(counts) == expected else AUDIT_INVALID


def histogram(choices: list[int], d: int) -> tuple[int, ...]:
    """Direct plaintext count of a choice list: the tally oracle."""
    out = [0] * d
    for c in choices:
        out[c] += 1
    return tuple(out)


def vector_sum(vectors, d: int) -> tuple[int, ...]:
    out = [0] * d
    for v in vectors:
        for i in range(d):
            out[i] += v[i]
    return tuple(out)
