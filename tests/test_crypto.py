"""Crypto primitives against small independent oracles.

The tiny test group keeps exhaustive sweeps fast; a handful of checks run
on the default group to make sure the constants are sound.
"""

import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from votesim import scenarios, wire
from votesim.crypto import (
    DEFAULT_GROUP,
    Ciphertext,
    Group,
    InsufficientShares,
    PlaintextOutOfRange,
    PublicKey,
    TEST_GROUP,
    combine,
    cts_to_obj,
    decrypt,
    dlog_recover,
    encrypt_random,
    hom_add,
    hom_sum,
    keygen,
    lagrange_at_zero,
    parse_ballot,
    partial_decrypt,
    prove_ballot,
    prove_vector,
    threshold_keygen,
    verify_ballot,
)
from votesim.crypto import blindsig, proofs
from votesim.crypto.blindsig import (
    blind,
    generate_issuer_key,
    random_blinding,
    random_serial,
    sign_blinded,
    unblind,
    verify_token,
)
from votesim.crypto.elgamal import decrypt_tally
from votesim.crypto.group import CryptoError
from votesim.crypto.proofs import BallotProof, ComponentProof, SumProof, count_ballots


def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first 20 primes as bases."""
    bases = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x not in (1, n - 1) and all(pow(x, 2 ** r, n) != n - 1 for r in range(1, s)):
            return False
    return True


def test_group_constants_are_sound():
    for g in (TEST_GROUP, DEFAULT_GROUP):
        # Safe prime: the subgroup of order q is exactly the quadratic residues.
        assert g.p == 2 * g.q + 1
        assert _is_probable_prime(g.p) and _is_probable_prime(g.q)
        assert pow(g.g, g.q, g.p) == 1
        assert g.g != 1
        assert g.is_element(g.exp(g.g, 12345))


@settings(max_examples=50)
@given(group=st.sampled_from([DEFAULT_GROUP, TEST_GROUP]), domain=st.text(max_size=8),
       parts=st.lists(st.integers(0, 2**300), max_size=4))
def test_hash_scalar_hashes_domain_then_group_then_parts(group, domain, parts):
    def hashed(domain, parts):
        data = domain.encode() + b"\x00" + wire.ser_ints(group.p, group.q, group.g, *parts)
        return int.from_bytes(hashlib.sha256(data).digest(), "big") % group.q

    # The memo's key is the whole input: a warm group answers each domain
    # and each order of the same parts as a fresh group does.
    p, q, g = group.p, group.q, group.g
    warm = Group(p, q, g)
    asks = [(dom, ps) for dom in (domain, proofs._OR_DOMAIN, proofs._SUM_DOMAIN)
            for ps in (parts, parts[::-1])]
    for dom, ps in asks + asks:  # cold, then warm
        want = hashed(dom, ps)
        assert warm.hash_scalar(dom, *ps) == Group(p, q, g).hash_scalar(dom, *ps) == want
        assert warm._memo[dom, tuple(ps)] == want
    assert group.hash_scalar(domain, *parts) == hashed(domain, parts)


def test_group_refuses_a_modulus_that_is_not_a_safe_prime():
    with pytest.raises(CryptoError, match="safe prime"):
        Group(p=23, q=7, g=4)
    assert Group(p=23, q=11, g=4).is_element(4)


GROUPS = pytest.mark.parametrize("group", [TEST_GROUP, DEFAULT_GROUP], ids=["test", "default"])


def _exponents(q: int):
    return (st.sampled_from([0, 1, -1, q - 1, q, q + 1, -q, 2 * q, q ** 3 + 5])
            | st.integers(-(q ** 2), q ** 2) | st.integers(0, q - 1))


@GROUPS
@settings(max_examples=80)
@given(data=st.data())
def test_exp_matches_pow_for_every_base(group, data):
    # A fresh group has an empty memo: each operand is computed, then recalled.
    p, q, g = group.p, group.q, group.g
    group = Group(p, q, g)
    key = data.draw(st.integers(1, q - 1).map(lambda x: pow(g, x, p)) | st.integers(1, p - 1))
    PublicKey(group, key)
    other = data.draw(st.sampled_from([0, 1, p - 1, p, p + 1, -2, -p - 3, 2 * p + 5])
                      | st.integers(-p, 2 * p))
    for e in data.draw(st.lists(_exponents(q), min_size=1, max_size=4)):
        for base in (g, key, other):
            want = pow(base, e % q, p)
            assert group.exp(base, e) == want
            assert group._memo[base, e % q] == want
            assert group.exp(base, e) == want
    assert g in group._tables and key in group._tables


@GROUPS
@settings(max_examples=200)
@given(data=st.data())
def test_is_element_matches_euler_criterion(group, data):
    p, q = group.p, group.q
    group = Group(p, q, group.g)
    a = data.draw(st.sampled_from([0, 1, p - 1, p, p + 1, -1, -p, 2 * p])
                  | st.integers(-p, 2 * p) | st.integers(1, p - 1))
    values = [a, a % p, a + p, a - p]
    for b in values + values:  # cold, then warm
        assert group.is_element(b) == (0 < b < p and pow(b, q, p) == 1)
    # Only in-range values reach the memo; the range check runs on every call.
    assert set(group._memo) == {a % p} - {0}


def test_is_element_matches_euler_criterion_on_all_of_test_group():
    p, q = TEST_GROUP.p, TEST_GROUP.q
    assert all(TEST_GROUP.is_element(a) == (pow(a, q, p) == 1) for a in range(1, p))


@settings(max_examples=15)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 2) | st.integers(0, 2 ** 64)),
                min_size=1, max_size=12))
def test_key_table_cache_stays_bounded(keys):
    # A group holds g's table and at most one key's. Fixing g or the current
    # key changes nothing; a new key replaces the old key's table and
    # empties the memo.
    for default, x in keys:
        group = DEFAULT_GROUP if default else TEST_GROUP
        h = group.exp(group.g, x)
        tables, memo = dict(group._tables), dict(group._memo)
        PublicKey(group, h)
        assert group.g in group._tables and h in group._tables and len(group._tables) <= 2
        if h in tables:  # g, or the current key
            assert group._tables.keys() == tables.keys()
            assert all(group._tables[b] is rows for b, rows in tables.items())
            assert group._memo == memo
        else:
            assert set(group._tables) == {group.g, h}
            assert not group._memo
        group.is_element(h)  # something for the next new key to empty


def test_encrypt_decrypt_zero():
    rng = random.Random(1)
    pk, x = keygen(TEST_GROUP, rng)
    assert decrypt(TEST_GROUP, x, encrypt_random(pk, 0, rng), bound=5) == 0


def test_homomorphic_addition_matches_plaintext_oracle():
    rng = random.Random(2)
    pk, x = keygen(TEST_GROUP, rng)
    # oracle: plaintext addition
    for a, b in [(2, 3), (0, 0), (7, 11), (1, 0)]:
        c = hom_add(encrypt_random(pk, a, rng), encrypt_random(pk, b, rng))
        assert decrypt(TEST_GROUP, x, c, bound=50) == a + b


def test_hom_sum_of_25_ones():
    rng = random.Random(3)
    pk, x = keygen(TEST_GROUP, rng)
    c = hom_sum([encrypt_random(pk, 1, rng) for _ in range(25)])
    assert decrypt(TEST_GROUP, x, c, bound=25) == 25


@GROUPS
@pytest.mark.parametrize("m, bound", [(0, 0), (1, 0), (0, 10), (7, 10), (10, 10), (11, 10)])
def test_dlog_recover_cases(group, m, bound):
    element = group.exp(group.g, m)
    if m <= bound:
        assert dlog_recover(group, element, bound) == m
    else:
        with pytest.raises(PlaintextOutOfRange):
            dlog_recover(group, element, bound)
    with pytest.raises(PlaintextOutOfRange):  # p - 1 is outside <g>
        dlog_recover(group, group.p - 1, bound)


def test_threshold_degenerate_is_plain_elgamal():
    pk, shares = threshold_keygen(1, 1, TEST_GROUP, seed=4)
    rng = random.Random(4)
    c = encrypt_random(pk, 3, rng)
    assert combine(pk, {1: partial_decrypt(shares[0], c)}, c, 10) == 3


def test_threshold_2_of_3_any_subset_matches_direct_decryption():
    pk, shares = threshold_keygen(2, 3, TEST_GROUP, seed=5)
    # oracle: interpolate the secret directly and decrypt with it
    q = TEST_GROUP.q
    x = sum(
        s.value * lagrange_at_zero(s.index, [1, 2], q) for s in shares[:2]
    ) % q
    assert pk.h == TEST_GROUP.exp(TEST_GROUP.g, x)
    rng = random.Random(6)
    c = encrypt_random(pk, 9, rng)
    direct = decrypt(TEST_GROUP, x, c, 20)
    assert direct == 9
    for pick in ([0, 1], [0, 2], [1, 2]):
        dec = {shares[i].index: partial_decrypt(shares[i], c) for i in pick}
        assert combine(pk, dec, c, 20) == direct


def test_combine_interpolates_over_the_lowest_t_shares_only():
    # A wrong share above the lowest t indices changes nothing: a holder
    # outside the lowest t may send one, and it must not enter the sum.
    pk, shares = threshold_keygen(2, 3, TEST_GROUP, seed=5)
    c = encrypt_random(pk, 9, random.Random(6))
    lowest = {s.index: partial_decrypt(s, c) for s in shares[:2]}
    wrong = TEST_GROUP.mul(partial_decrypt(shares[2], c), TEST_GROUP.g)
    assert combine(pk, {**lowest, shares[2].index: wrong}, c, 20) == combine(pk, lowest, c, 20)
    assert combine(pk, lowest, c, 20) == 9


def test_threshold_requires_t_at_most_n():
    with pytest.raises(CryptoError):
        threshold_keygen(3, 2, TEST_GROUP, seed=1)


def test_insufficient_shares_raise():
    pk, shares = threshold_keygen(2, 3, TEST_GROUP, seed=7)
    rng = random.Random(7)
    c = encrypt_random(pk, 1, rng)
    with pytest.raises(InsufficientShares, match="insufficient shares"):
        combine(pk, {1: partial_decrypt(shares[0], c)}, c, 10)


def test_decrypt_tally_takes_the_first_t_shares_that_combine():
    pk, shares = threshold_keygen(3, 4, TEST_GROUP, seed=9)
    rng = random.Random(9)
    agg = [encrypt_random(pk, 5, rng), encrypt_random(pk, 2, rng)]

    def by_index(holders):
        return {s.index: [partial_decrypt(s, ct) for ct in agg] for s in holders}

    assert decrypt_tally(pk, by_index(shares[:3]), agg, bound=7) == (by_index(shares[:3]), (5, 2))
    assert decrypt_tally(pk, by_index(shares), agg, bound=7) == (by_index(shares[:3]), (5, 2))
    assert decrypt_tally(pk, by_index(shares[1:]), agg, bound=7) == (by_index(shares[1:]), (5, 2))
    assert decrypt_tally(pk, by_index(shares[:2]), agg, bound=7) is None
    # Holder 1's wrong share spoils the three subsets that hold it.
    wrong = {**by_index(shares), 1: [7, 7]}
    assert decrypt_tally(pk, wrong, agg, bound=7) == (by_index(shares[1:]), (5, 2))
    assert decrypt_tally(pk, {**by_index(shares[:3]), 1: [7, 7]}, agg, bound=7) is None


def test_count_ballots_sums_the_ballots_that_parsed_and_verify():
    pk, _ = threshold_keygen(1, 1, TEST_GROUP, seed=3)
    rng = random.Random(3)
    first, second = (prove_ballot(pk, choice, 2, rng) for choice in (0, 1))
    forged = (second[0], prove_ballot(pk, 0, 2, rng)[1])
    valid, agg = count_ballots(pk, 2, [(4, first), (1, None), (2, forged), (0, second)])
    assert valid == [(4, first), (0, second)]
    assert agg == [hom_add(a, b) for a, b in zip(first[0], second[0])]


def test_plaintext_bound_violation():
    pk, shares = threshold_keygen(2, 3, TEST_GROUP, seed=8)
    rng = random.Random(8)
    c = hom_sum([encrypt_random(pk, 1, rng) for _ in range(25)])
    dec = {s.index: partial_decrypt(s, c) for s in shares[:2]}
    with pytest.raises(PlaintextOutOfRange, match="out of range"):
        combine(pk, dec, c, 10)


# -- ballot proofs -------------------------------------------------------


def _tiny_pk(seed=9):
    pk, shares = threshold_keygen(2, 3, TEST_GROUP, seed=seed)
    return pk, shares


def test_honest_ballots_verify_for_every_choice():
    pk, _ = _tiny_pk()
    rng = random.Random(10)
    for d in (2, 3, 5):
        for c in range(d):
            cts, proof = prove_ballot(pk, c, d, rng)
            assert verify_ballot(pk, cts, proof)


def test_ballot_ciphertexts_decrypt_to_unit_vector():
    pk, shares = _tiny_pk()
    rng = random.Random(11)
    cts, _ = prove_ballot(pk, 1, 3, rng)
    got = []
    for ct in cts:
        dec = {s.index: partial_decrypt(s, ct) for s in shares[:2]}
        got.append(combine(pk, dec, ct, 1))
    assert got == [0, 1, 0]


def test_two_hot_ballot_rejected():
    pk, _ = _tiny_pk()
    rng = random.Random(12)
    cts, proof = prove_vector(pk, [1, 1, 0], rng)
    assert not verify_ballot(pk, cts, proof)


def test_out_of_range_component_rejected():
    pk, _ = _tiny_pk()
    rng = random.Random(13)
    cts, proof = prove_vector(pk, [2, 0], rng)
    assert not verify_ballot(pk, cts, proof)


def test_tampered_transcript_rejected():
    pk, _ = _tiny_pk()
    rng = random.Random(14)
    cts, proof = prove_ballot(pk, 0, 2, rng)
    comp = proof.components[0]
    bad = BallotProof(
        (ComponentProof(comp.a0, comp.b0, comp.a1, comp.b1, comp.e0, comp.e1,
                        (comp.z0 + 1) % TEST_GROUP.q, comp.z1),)
        + proof.components[1:],
        proof.sum_proof,
    )
    assert not verify_ballot(pk, cts, bad)


def test_verifier_never_raises_on_garbage():
    pk, _ = _tiny_pk()
    rng = random.Random(15)
    cts, proof = prove_ballot(pk, 0, 2, rng)
    assert verify_ballot(pk, cts[:1], proof) is False
    assert verify_ballot(pk, [], proof) is False
    obj = proof.to_obj()
    obj["comp"][0] = obj["comp"][0][:4]  # truncated transcript
    assert verify_ballot(pk, cts, BallotProof.from_obj({"comp": [[1] * 8], "sum": [1, 1, 1]})) is False


def test_proof_roundtrips_through_wire_object():
    pk, _ = _tiny_pk()
    rng = random.Random(16)
    cts, proof = prove_ballot(pk, 1, 2, rng)
    again = BallotProof.from_obj(proof.to_obj())
    assert again == proof
    assert verify_ballot(pk, cts, again)


def test_default_group_proof_roundtrip():
    pk, shares = threshold_keygen(2, 3, DEFAULT_GROUP, seed=17)
    rng = random.Random(17)
    cts, proof = prove_ballot(pk, 0, 2, rng)
    assert verify_ballot(pk, cts, proof)
    dec = {s.index: partial_decrypt(s, cts[0]) for s in shares[1:]}
    assert combine(pk, dec, cts[0], 1) == 1


# -- one forged transcript per ballot-proof check ---------------------------
#
# Each forgery below fails exactly one of verify_ballot's checks, as an
# oracle written with pow() finds; so deleting that check from verify_ballot
# makes it accept the forgery. Every check has such a forgery: none is
# implied by the others.


def _failing_checks(pk, cts, proof) -> set[str]:
    """The names of verify_ballot's checks that (cts, proof) fails."""
    group = pk.group
    g, h, p, q = group.g, pk.h, group.p, group.q
    failed = set()
    if not all(0 < x < p and pow(x, q, p) == 1 for ct in cts for x in (ct.a, ct.b)):
        failed.add("subgroup")
    stmt = proofs._statement(pk, cts)
    for j, (ct, c) in enumerate(zip(cts, proof.components)):
        if (c.e0 + c.e1) % q != group.hash_scalar(proofs._OR_DOMAIN, *stmt, j,
                                                  c.a0, c.b0, c.a1, c.b1):
            failed.add("or-challenge")
        for v, (a, b, e, z) in enumerate(((c.a0, c.b0, c.e0, c.z0), (c.a1, c.b1, c.e1, c.z1))):
            if pow(g, z, p) != a * pow(ct.a, e, p) % p:
                failed.add("or-g")
            if pow(h, z, p) != b * pow(ct.b * pow(g, -v, p), e, p) % p:
                failed.add("or-h")
    big_a = big_b = 1
    for ct in cts:
        big_a, big_b = big_a * ct.a % p, big_b * ct.b % p
    sp = proof.sum_proof
    e = group.hash_scalar(proofs._SUM_DOMAIN, *stmt, sp.w1, sp.w2)
    if pow(g, sp.z, p) != sp.w1 * pow(big_a, e, p) % p:
        failed.add("sum-g")
    if pow(h, sp.z, p) != sp.w2 * pow(big_b * pow(g, -1, p), e, p) % p:
        failed.add("sum-h")
    return failed


def _forge(pk, ms, proven, replaced, negate_a, rng):
    """A ballot encrypting the ints ms, transcript made by a cheating prover.
    proven[j] is the branch component j proves from its randomness, or None
    to simulate both branches under free challenges. replaced names the one
    commitment drawn at random before hashing: "a" of each proven branch, or
    the sum proof's "w1" or "w2". negate_a puts p - a in component 0."""
    group = pk.group
    g, h, p, q = group.g, pk.h, group.p, group.q

    def rand():
        return group.rand_scalar(rng)

    rs = [rand() for _ in ms]
    cts = [Ciphertext(group, pow(g, r, p), pow(g, m % q, p) * pow(h, r, p) % p)
           for m, r in zip(ms, rs)]
    if negate_a:
        cts[0] = Ciphertext(group, p - cts[0].a, cts[0].b)
    stmt = proofs._statement(pk, cts)

    def simulated(ct, v, e):
        z = rand()
        return [pow(g, z, p) * pow(ct.a, -e, p) % p,
                pow(h, z, p) * pow(ct.b * pow(g, -v, p), -e, p) % p, e, z]

    comps = []
    for j, (ct, r, v) in enumerate(zip(cts, rs, proven)):
        if v is None:
            branches = [simulated(ct, 0, rand()), simulated(ct, 1, rand())]
        else:
            w, sim = rand(), simulated(ct, 1 - v, rand())
            real = [pow(g, rand() if replaced == "a" else w, p), pow(h, w, p)]
            branches = [real, sim] if v == 0 else [sim, real]
            e = (group.hash_scalar(proofs._OR_DOMAIN, *stmt, j, *branches[0][:2],
                                   *branches[1][:2]) - sim[2]) % q
            real += [e, (w + e * r) % q]
        (a0, b0, e0, z0), (a1, b1, e1, z1) = branches
        comps.append(ComponentProof(a0, b0, a1, b1, e0, e1, z0, z1))
    w = rand()
    w1, w2 = pow(g, rand() if replaced == "w1" else w, p), pow(h, rand() if replaced == "w2" else w, p)
    e = group.hash_scalar(proofs._SUM_DOMAIN, *stmt, w1, w2)
    return cts, BallotProof(tuple(comps), SumProof(w1, w2, (w + e * sum(rs)) % q))


# check -> (plaintexts, proven branches, replaced commitment, negate a). The
# (2, -1) ballots sum to 1, so their sum proof is honest.
FORGERIES = {
    "or-challenge": ((2, -1), (None, None), None, False),  # both branches simulated
    "or-g": ((1, 0), (1, 0), "a", False),  # proven against b alone
    "or-h": ((2, -1), (1, 0), None, False),  # proven against a alone
    "sum-g": ((1, 0), (1, 0), "w1", False),
    "sum-h": ((1, 0), (1, 0), "w2", False),
    "subgroup": ((1, 0), (1, 0), None, True),  # p - a, outside the subgroup
}


@pytest.mark.parametrize("check", sorted(FORGERIES))
def test_each_ballot_proof_check_alone_refuses_its_forgery(check):
    pk, _ = _tiny_pk()
    rng = random.Random(check)
    # p - a passes the other checks only where the challenges it meets are
    # even, since (p - a)^e = (-1)^e a^e; the other forgeries need one try.
    for _ in range(64):
        cts, proof = _forge(pk, *FORGERIES[check], rng)
        if _failing_checks(pk, cts, proof) == {check}:
            break
    else:
        pytest.fail(f"no forgery fails {check} alone")
    assert verify_ballot(pk, cts, proof) is False
    assert parse_ballot(TEST_GROUP, 2, cts_to_obj(cts), proof.to_obj()) == (cts, proof)


def _alter(kind, group, cts, proof, data):
    """An honest ballot as a byzantine voter alters it."""
    if kind == "tampered":  # one transcript number, in a component or the sum proof
        obj = proof.to_obj()
        rows = [*obj["comp"], obj["sum"]]
        row = rows[data.draw(st.integers(0, len(rows) - 1))]
        i = data.draw(st.integers(0, len(row) - 1))
        row[i] = (row[i] + 1) % group.q
        return cts, BallotProof.from_obj(obj)
    if kind == "times p-1":  # leaves the subgroup, keeps the range (0, p)
        j = data.draw(st.integers(0, len(cts) - 1))
        a, b = cts[j].a, cts[j].b
        if data.draw(st.booleans()):
            a = a * (group.p - 1) % group.p
        else:
            b = b * (group.p - 1) % group.p
        return [*cts[:j], Ciphertext(group, a, b), *cts[j + 1:]], proof
    return cts, proof


@GROUPS
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_warm_memo_gives_the_verdicts_of_a_fresh_group(group, data):
    p, q, g = group.p, group.q, group.g
    maker = Group(p, q, g)
    pk, _ = threshold_keygen(2, 3, maker, seed=data.draw(st.integers(0, 2 ** 32)))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    d = data.draw(st.integers(2, 3))
    kinds = data.draw(st.lists(st.sampled_from(["honest", "two-hot", "tampered", "times p-1"]),
                               min_size=1, max_size=5))
    honest, sent = [], []
    for kind in kinds:
        cts, proof = prove_ballot(pk, rng.randrange(d), d, rng)
        honest.append((cts, proof))
        if kind == "two-hot":
            sent.append(prove_vector(pk, [1, 1] + [0] * (d - 2), rng))
        else:
            sent.append(_alter(kind, maker, cts, proof, data))

    def verdict(verifier, cts, proof):
        received = parse_ballot(verifier, d, cts_to_obj(cts), proof.to_obj())
        return received is not None and verify_ballot(PublicKey(verifier, pk.h), *received)

    # Helios order: the hub checks each ballot as it arrives, then a voter
    # checks the bulletin with what the hub's checks left in the memo.
    warm = Group(p, q, g)
    assert all(verdict(warm, *ballot) for ballot in honest)
    got = [verdict(warm, *ballot) for ballot in sent]
    assert got == [verdict(Group(p, q, g), *ballot) for ballot in sent]
    assert all(ok for kind, ok in zip(kinds, got) if kind == "honest")
    assert not any(ok for kind, ok in zip(kinds, got) if kind == "times p-1")


# Group.exp, Group.is_element and verify_ballot calls of one canonical run
# (seed 1), whatever ran before it in the process.
CRYPTO_WORK = {"helios": (16261, 2600, 650), "spp": (3338, 448, 112)}


@pytest.mark.parametrize("protocol", sorted(CRYPTO_WORK))
def test_canonical_crypto_work_does_not_depend_on_earlier_runs(protocol, monkeypatch):
    counts = Counter()

    def counting(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(Group, "exp", counting("exp", Group.exp))
    monkeypatch.setattr(Group, "is_element", counting("is_element", Group.is_element))
    monkeypatch.setattr(proofs, "verify_ballot", counting("verify", proofs.verify_ballot))
    runs = []
    for _ in range(2):
        counts.clear()
        scenarios.run(scenarios.canonical_scenario(protocol, seed=1))
        runs.append((counts["exp"], counts["is_element"], counts["verify"]))
    assert runs == [CRYPTO_WORK[protocol]] * 2


# -- blind signatures ------------------------------------------------------


@pytest.fixture(scope="module")
def issuer():
    return generate_issuer_key(seed=100, bits=768)


def test_blind_signature_roundtrip(issuer):
    rng = random.Random(20)
    serial = random_serial(rng)
    r = random_blinding(rng, issuer.public)
    token = unblind(sign_blinded(blind(serial, issuer.public, r), issuer), r,
                    issuer.public, serial)
    assert verify_token(token, issuer.public)


def test_flipped_bit_fails(issuer):
    rng = random.Random(21)
    serial = random_serial(rng)
    r = random_blinding(rng, issuer.public)
    token = unblind(sign_blinded(blind(serial, issuer.public, r), issuer), r,
                    issuer.public, serial)
    from votesim.crypto.blindsig import Token

    assert not verify_token(Token(token.serial, token.signature ^ 1), issuer.public)
    flipped = bytearray(bytes.fromhex(token.serial))
    flipped[0] ^= 1
    assert not verify_token(Token(flipped.hex(), token.signature), issuer.public)


def test_issuer_transcript_disjoint_from_tokens(issuer):
    rng = random.Random(22)
    transcript = set()
    issued = set()
    for _ in range(20):
        serial = random_serial(rng)
        r = random_blinding(rng, issuer.public)
        blinded = blind(serial, issuer.public, r)
        bsig = sign_blinded(blinded, issuer)
        token = unblind(bsig, r, issuer.public, serial)
        assert verify_token(token, issuer.public)
        transcript |= {blinded, bsig}
        issued |= {int(token.serial, 16), token.signature}
    assert transcript & issued == set()


@pytest.fixture(scope="module")
def issuer_keys(issuer):
    return {512: generate_issuer_key(seed=101, bits=512), 768: issuer}


@pytest.mark.parametrize("bits", [512, 768])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_crt_signing_matches_pow(issuer_keys, bits, data):
    key = issuer_keys[bits]
    p, q, n = key.p, key.q, key.n
    assert p * q == n and key.e * key.d % ((p - 1) * (q - 1)) == 1
    x = data.draw(st.one_of(
        st.sampled_from([0, 1, p, q, n - p, n - q, n - 1]),
        st.integers(0, q - 1).map(lambda i: i * p),
        st.integers(0, p - 1).map(lambda i: i * q),
        st.integers(0, n - 1),
    ))
    assert sign_blinded(x, key) == pow(x, key.d, n)


def test_small_primes_are_the_odd_primes_below_1000():
    # The list as it was first written: trial division by every d < p.
    assert blindsig._SMALL_PRIMES == [p for p in range(3, 1000)
                                      if all(p % d for d in range(2, p))]


def test_issuer_key_repr_hides_the_secrets(issuer):
    assert repr(issuer) == f"IssuerKey(n={issuer.n}, e={issuer.e})"
