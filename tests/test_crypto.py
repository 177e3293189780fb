"""Crypto primitives against small independent oracles.

The tiny test group keeps exhaustive sweeps fast; a handful of checks run
on the default group to make sure the constants are sound.
"""

import random

import pytest

from votesim.crypto import (
    DEFAULT_GROUP,
    InsufficientShares,
    PlaintextOutOfRange,
    TEST_GROUP,
    combine,
    combine_vector,
    decrypt,
    dlog_recover,
    encrypt_random,
    hom_add,
    hom_sum,
    keygen,
    lagrange_at_zero,
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
from votesim.crypto.group import CryptoError
from votesim.crypto.proofs import BallotProof, ComponentProof


def test_group_constants_are_sound():
    for g in (TEST_GROUP, DEFAULT_GROUP):
        assert pow(g.g, g.q, g.p) == 1
        assert g.g != 1
        assert g.is_element(g.exp(g.g, 12345))


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
