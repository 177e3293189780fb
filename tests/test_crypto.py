"""Crypto primitives against small independent oracles.

The tiny test group keeps exhaustive sweeps fast; a handful of checks run
on the default group to make sure the constants are sound.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from votesim.crypto import (
    DEFAULT_GROUP,
    Ciphertext,
    Group,
    InsufficientShares,
    PlaintextOutOfRange,
    PublicKey,
    TEST_GROUP,
    combine,
    combine_vector,
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
from votesim.crypto.blindsig import (
    blind,
    generate_issuer_key,
    random_blinding,
    random_serial,
    sign_blinded,
    unblind,
    verify_token,
)
from votesim.crypto.group import _KEY_TABLES, _MEMO, CryptoError
from votesim.crypto.proofs import BallotProof, ComponentProof


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
    assert len(TEST_GROUP._memo) == _MEMO


@settings(max_examples=15)
@given(st.lists(st.tuples(st.booleans(), st.integers(1, 2 ** 64)), min_size=1, max_size=12))
def test_key_table_cache_stays_bounded(keys):
    for default, x in keys:
        group = DEFAULT_GROUP if default else TEST_GROUP
        h = group.exp(group.g, x)
        new_key = h not in group._tables
        PublicKey(group, h)
        assert len(group._keys) <= _KEY_TABLES
        assert set(group._tables) <= {group.g, *group._keys}
        assert h in group._tables
        if new_key:
            assert not group._memo
            if not default:  # overfill the memo: the oldest entries go first
                values = [(x + i) % (group.p - 1) + 1 for i in range(_MEMO + 3)]
                for a in values:
                    group.is_element(a)
                assert list(group._memo) == values[3:]
        assert len(group._memo) <= _MEMO


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


def test_dlog_recover_cases():
    g = TEST_GROUP
    assert dlog_recover(g, 1, 10) == 0
    assert dlog_recover(g, g.exp(g.g, 7), 10) == 7
    with pytest.raises(PlaintextOutOfRange):
        dlog_recover(g, g.exp(g.g, 11), 10)


def test_threshold_degenerate_is_plain_elgamal():
    pk, shares = threshold_keygen(1, 1, TEST_GROUP, seed=4)
    rng = random.Random(4)
    c = encrypt_random(pk, 3, rng)
    assert combine(pk, [partial_decrypt(shares[0], c)], c, 10) == 3


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
        dec = [partial_decrypt(shares[i], c) for i in pick]
        assert combine(pk, dec, c, 20) == direct


def test_threshold_requires_t_at_most_n():
    with pytest.raises(CryptoError):
        threshold_keygen(3, 2, TEST_GROUP, seed=1)


def test_insufficient_shares_raise():
    pk, shares = threshold_keygen(2, 3, TEST_GROUP, seed=7)
    rng = random.Random(7)
    c = encrypt_random(pk, 1, rng)
    with pytest.raises(InsufficientShares, match="insufficient shares"):
        combine(pk, [partial_decrypt(shares[0], c)], c, 10)


def test_combine_vector_threshold_semantics():
    pk, shares = threshold_keygen(3, 4, TEST_GROUP, seed=9)
    rng = random.Random(9)
    agg = [encrypt_random(pk, 5, rng), encrypt_random(pk, 2, rng)]

    def by_index(holders):
        return {s.index: [partial_decrypt(s, ct).value for ct in agg] for s in holders}

    assert combine_vector(pk, by_index(shares[:3]), agg, bound=7) == (5, 2)
    assert combine_vector(pk, by_index(shares[1:]), agg, bound=7) == (5, 2)
    with pytest.raises(InsufficientShares):
        combine_vector(pk, by_index(shares[:2]), agg, bound=7)


def test_plaintext_bound_violation():
    pk, shares = threshold_keygen(2, 3, TEST_GROUP, seed=8)
    rng = random.Random(8)
    c = hom_sum([encrypt_random(pk, 1, rng) for _ in range(25)])
    dec = [partial_decrypt(s, c) for s in shares[:2]]
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
        dec = [partial_decrypt(s, ct) for s in shares[:2]]
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
    dec = [partial_decrypt(s, cts[0]) for s in shares[1:]]
    assert combine(pk, dec, cts[0], 1) == 1


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
