"""Share encoding against brute-force plaintext oracles."""

from collections import Counter

import pytest

from votesim.ballot import (
    AUDIT_INCONCLUSIVE,
    AUDIT_INVALID,
    AUDIT_VALID,
    DpolParams,
    InconsistentAggregate,
    audit_share_set,
    decode_tally,
    encode_shares,
    histogram,
    unit_vector,
    vector_sum,
)
from votesim.simnet import ConfigError


def multiset(shares):
    return Counter(tuple(s) for s in shares)


def test_encode_d2_k1_multiset():
    ss = encode_shares(0, DpolParams(4, 1, 2), seed=1)
    assert multiset(ss.shares) == Counter({(1, 0): 2, (0, 1): 1})


def test_encode_d3_k2_multiset():
    ss = encode_shares(1, DpolParams(4, 2, 3), seed=2)
    assert multiset(ss.shares) == Counter({(0, 1, 0): 3, (1, 0, 0): 1, (0, 0, 1): 1})


def test_encode_rejects_indivisible_k():
    with pytest.raises(ConfigError, match="divisible"):
        encode_shares(0, DpolParams(4, 1, 3), seed=1)


def test_encode_order_is_shuffled_by_seed():
    p = DpolParams(4, 2, 2)
    a = encode_shares(0, p, seed=1, owner=0).shares
    b = encode_shares(0, p, seed=2, owner=0).shares
    assert multiset(a) == multiset(b)
    assert a != b  # with 5 shares two seeds almost surely order differently


def test_decode_worked_example_n5():
    p = DpolParams(5, 1, 2)
    assert decode_tally((8, 7), p) == (3, 2)


def test_decode_unanimous_n4():
    p = DpolParams(4, 1, 2)
    assert decode_tally((4, 8), p) == (0, 4)


def test_decode_zero_votes():
    p = DpolParams(0, 1, 2)
    assert decode_tally((0, 0), p) == (0, 0)


def test_decode_rejects_inconsistent():
    p = DpolParams(5, 1, 2)
    with pytest.raises(InconsistentAggregate):
        decode_tally((9, 7), p)  # sums to 16 != 15
    with pytest.raises(InconsistentAggregate):
        decode_tally((1, 14), p)  # component below m*n


def grid_cases():
    for d in (2, 3, 5):
        for k in (1, 2, 3, 4):
            if k % (d - 1):
                continue
            for n in (1, 2, 5, 10, 25):
                yield n, k, d


@pytest.mark.parametrize("n,k,d", list(grid_cases()))
def test_round_trip_against_brute_force(n, k, d):
    p = DpolParams(n, k, d)
    rng_choices = [(i * 7 + k) % d for i in range(n)]
    all_shares = []
    for owner, c in enumerate(rng_choices):
        all_shares.extend(encode_shares(c, p, seed=owner + 1, owner=owner).shares)
    total = vector_sum(all_shares, d)
    assert decode_tally(total, p) == histogram(rng_choices, d)


def test_single_share_leakage_rate():
    # The first share equals the chosen option's vector with probability
    # (k+1)/(2k+1) over the seeded shuffle.
    for k, expected in ((1, 2 / 3), (2, 3 / 5)):
        p = DpolParams(4, k, 2)
        hits = 0
        trials = 2000
        for i in range(trials):
            ss = encode_shares(0, p, seed=i, owner=i)
            hits += ss.shares[0] == unit_vector(0, 2)
        assert abs(hits / trials - expected) <= 0.05


def test_audit_honest_sets_valid():
    for d in (2, 3):
        for k in (2,) if d == 3 else (1, 2):
            p = DpolParams(9, k, d)
            for c in range(d):
                ss = encode_shares(c, p, seed=c, owner=c)
                assert audit_share_set(list(ss.shares), p) == AUDIT_VALID


def test_audit_flags_byzantine_multiset():
    p = DpolParams(9, 1, 2)
    assert audit_share_set([(1, 0)] * 3, p) == AUDIT_INVALID


def test_audit_partial_data_inconclusive():
    p = DpolParams(9, 1, 2)
    assert audit_share_set([(1, 0), (0, 1)], p) == AUDIT_INCONCLUSIVE


def test_audit_exhaustive_d2():
    # Every multiset of 2k+1 unit vectors is flagged iff it is not the
    # honest pattern, for d=2 and k in {1, 2}.
    from itertools import product

    for k in (1, 2):
        p = DpolParams(9, k, 2)
        r = 2 * k + 1
        honest = set()
        for c in (0, 1):
            counts = [0, 0]
            counts[c] = k + 1
            counts[1 - c] = k
            honest.add(tuple(counts))
        for combo in product((0, 1), repeat=r):
            shares = [unit_vector(c, 2) for c in combo]
            counts = (combo.count(0), combo.count(1))
            verdict = audit_share_set(shares, p)
            assert verdict == (AUDIT_VALID if counts in honest else AUDIT_INVALID)


def test_audit_rejects_non_unit_vectors():
    p = DpolParams(9, 1, 2)
    assert audit_share_set([(1, 1), (1, 0), (0, 1)], p) == AUDIT_INVALID
    assert audit_share_set([(2, 0), (1, 0), (0, 1)], p) == AUDIT_INVALID
