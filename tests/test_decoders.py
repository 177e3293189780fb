"""The payload decoders never raise, whatever JSON a byzantine peer sends,
and each hands its handlers only the shapes they expect: a message whose
listed field is malformed decodes to None, except a Helios or SPP ballot or
bulletin, which arrives with that field None."""

import json
import random

from hypothesis import given, settings, strategies as st

from test_dpol import HOSTILE_MAPS
from test_hostile_payloads import JSON_VALUES
from votesim import chainvote, dpol, simnet, wire
from votesim.ballot import DpolParams
from votesim.baselines import MESH_MODULUS, mesh_decoder
from votesim.chainvote import Block, Transaction, parse_block, parse_transaction
from votesim.crypto import (TEST_GROUP, Ciphertext, cts_to_obj, parse_ballot, prove_ballot,
                            threshold_keygen)
from votesim.crypto.proofs import BallotProof, decoder

DPOL = DpolParams(9, 1, 2)  # three clusters, d = 2
HONEST_MAPS = st.dictionaries(st.sampled_from("012"),
                              st.lists(st.integers(), min_size=2, max_size=2), max_size=3)
TX = {"token": {"serial": "ab" * 32, "sig": 5}, "choice": 1, "nonce": "cd" * 32}
BLOCK = {"parent": "0" * 64, "height": 1, "proposer": 0, "nonce": 3, "txs": [TX]}

# Helios and SPP share one decoder; here on TEST_GROUP, d = 2, holders 1..3.
G, HOLDERS = TEST_GROUP, 3
PK, _ = threshold_keygen(2, HOLDERS, G, seed=1)
CTS, PROOF = prove_ballot(PK, 1, 2, random.Random(1))
BALLOT = {"cts": cts_to_obj(CTS), "proof": PROOF.to_obj()}
ELEMENTS = [ct.a for ct in CTS]
HONEST = [  # one honest Helios, SPP or mesh message of every kind
    {"t": "pubkey", "h": PK.h}, {"t": "dkg-share", "v": 5}, {"t": "dkg-commit", "v": PK.h},
    {"t": "ballot", **BALLOT}, {"t": "decrypt", "cts": BALLOT["cts"]},
    {"t": "report", "subtree": 1, "cts": BALLOT["cts"], "count": 4},
    {"t": "decshare", "idx": 2, "v": ELEMENTS}, {"t": "decshare", "idx": 3, "v": ELEMENTS,
                                                 "agg": "ab" * 32},
    {"t": "result", "tally": [3, 1], "count": 4},
    {"t": "bulletin", "ballots": [[0, BALLOT["cts"], BALLOT["proof"]]],
     "shares": [[1, ELEMENTS], [3, ELEMENTS]], "tally": [0, 1], "accepted": 1},
    {"t": "share", "v": [1, 2]}, {"t": "colsum", "v": [MESH_MODULUS + 3, 4]},
]
# Values at the edges of the ranges the decoders check. A replaced field
# takes one, a pair or a pair of pairs of them, or any JSON value.
EDGE_VALUES = [0, 1, -1, True, 1.0, "1", None, G.q - 1, G.q, G.p - 1, G.p, HOLDERS, HOLDERS + 1]
EDGES = st.sampled_from(EDGE_VALUES)
FIELD_VALUES = st.one_of(EDGES, st.lists(EDGES, min_size=2, max_size=2),
                         st.lists(st.lists(EDGES, min_size=2, max_size=2), min_size=2,
                                  max_size=2), JSON_VALUES)

PAYLOADS = st.one_of(
    JSON_VALUES,
    # Maps: honest, rewritten by a HOSTILE_MAPS body, or any JSON value.
    st.builds(lambda m, r: {"t": "map", "r": r, "m": m}, HONEST_MAPS, JSON_VALUES),
    st.builds(lambda body, m: {"t": "map", "r": 0, "m": HOSTILE_MAPS[body](m)},
              st.sampled_from(sorted(HOSTILE_MAPS)), HONEST_MAPS),
    st.builds(lambda t, value: {"t": t, "m": value, "tx": value, "block": value},
              st.sampled_from(["map", "tx", "block", "share"]), JSON_VALUES),
    # Well-formed transactions and blocks, one field now and then replaced.
    st.builds(lambda t, key, value, swap: {"t": t, t: {**(TX if t == "tx" else BLOCK),
                                                        **({key: value} if swap else {})}},
              st.sampled_from(["tx", "block"]),
              st.sampled_from(sorted({*TX, *BLOCK})), JSON_VALUES, st.booleans()),
).map(wire.dumps)
# Honest Helios, SPP and mesh messages, one field now and then replaced.
HONEST_VARIANTS = st.sampled_from(HONEST).flatmap(lambda msg: st.builds(
    lambda key, value, swap: {**msg, **({key: value} if swap else {})},
    st.sampled_from(sorted(msg)), FIELD_VALUES, st.booleans())).map(wire.dumps)
HONEST_PAYLOADS = {wire.dumps(m) for m in HONEST}


def ints_in(lo, hi):
    return lambda x: type(x) is int and lo <= x < hi


def is_int(x) -> bool:
    return type(x) is int


def pairs_of(ok):
    return lambda x: isinstance(x, list) and len(x) == 2 and all(ok(y) for y in x)


ELEMENT = ints_in(1, G.p)
CTS_FIELD = (pairs_of(pairs_of(ELEMENT)), lambda x: [Ciphertext(G, a, b) for a, b in x])
INT_FIELD = (is_int, int)
VECTOR = (pairs_of(is_int), tuple)
# kind -> field -> (is the raw value well formed, what the decoder makes of it)
FIELDS = {
    "pubkey": {"h": (ELEMENT, int)},
    "dkg-share": {"v": (ints_in(0, G.q), int)},
    "dkg-commit": {"v": (ELEMENT, int)},
    "decrypt": {"cts": CTS_FIELD},
    "report": {"subtree": INT_FIELD, "cts": CTS_FIELD, "count": INT_FIELD},
    # Only SPP reads agg: a non-string one refuses nothing and matches no aggregate.
    "decshare": {"idx": (ints_in(1, HOLDERS + 1), int), "v": (pairs_of(ELEMENT), tuple),
                 "agg": (lambda x: True, lambda x: x if type(x) is str else "")},
    "result": {"tally": VECTOR, "count": INT_FIELD},
}
DPOL_FIELDS = {
    "share": {"v": VECTOR}, "sum": {"v": VECTOR},
    "map": {"r": INT_FIELD,
            "m": (lambda m: isinstance(m, dict) and all(
                ci in ("0", "1", "2") and pairs_of(is_int)(v) for ci, v in m.items()),
                  lambda m: {int(ci): tuple(v) for ci, v in m.items()})},
}
MESH_VECTOR = (pairs_of(is_int), lambda v: tuple(x % MESH_MODULUS for x in v))
MESH_FIELDS = {"share": {"v": MESH_VECTOR}, "colsum": {"v": MESH_VECTOR}}
# The chain parsers are the reference here, as parse_ballot is for ballots;
# tests/test_chainvote.py holds them to their rules.
CHAIN_FIELDS = {
    "tx": {"tx": (lambda x: parse_transaction(x) is not None, parse_transaction)},
    "block": {"block": (lambda x: parse_block(x) is not None, parse_block)},
}


def is_bulletin(parsed, obj: dict) -> bool:
    """Whether parsed is what the bulletin obj holds, each part well formed."""
    ballots, shares, tally, accepted = parsed
    return (ballots == [(v, parse_ballot(G, 2, cts, proof)) for v, cts, proof in obj["ballots"]]
            and all(type(v) is int for v, _ in ballots)
            and shares == {i: tuple(v) for i, v in obj["shares"]}
            and all(ints_in(1, HOLDERS + 1)(i) and all(map(ELEMENT, v)) for i, v in shares.items())
            and tally == tuple(obj["tally"]) and pairs_of(is_int)(obj["tally"])
            and type(tally) is tuple and accepted == obj["accepted"] and type(accepted) is int)


def is_tally_map(m) -> bool:
    return isinstance(m, dict) and all(
        ci in range(3) and type(v) is tuple and len(v) == DPOL.d
        and all(type(x) is int for x in v) for ci, v in m.items())


def without(msg: dict, keys) -> bytes:
    return wire.dumps({k: v for k, v in msg.items() if k not in keys})


def check_decoded(msg, obj, kinds: dict) -> None:
    """msg is what a decoder built from kinds made of obj: None for a
    non-object or a listed field that is malformed; otherwise obj with each
    listed field parsed, every other field as it was."""
    if not isinstance(obj, dict):
        assert msg is None
        return
    kind = obj.get("t")
    fields = kinds.get(kind, {}) if type(kind) is str else {}
    assert (msg is None) == (not all(ok(obj.get(k)) for k, (ok, _) in fields.items()))
    if msg is not None:
        for key, (_, parse) in fields.items():
            want = parse(obj.get(key))
            assert msg[key] == want and type(msg[key]) is type(want)
        assert set(msg) == {*obj, *fields} and without(msg, fields) == without(obj, fields)


@settings(max_examples=400)
@given(payload=PAYLOADS, honest_variant=HONEST_VARIANTS)
def test_decoders_never_raise(payload, honest_variant):
    check_decoders(payload)
    check_decoders(honest_variant)


def leaf_rewrites(obj, value):
    """Copies of obj with one leaf, at any depth, replaced by value."""
    if not (isinstance(obj, (dict, list)) and obj):
        yield value
        return
    for key in sorted(obj) if isinstance(obj, dict) else range(len(obj)):
        for child in leaf_rewrites(obj[key], value):
            copy = dict(obj) if isinstance(obj, dict) else list(obj)
            copy[key] = child
            yield copy


def test_helios_spp_and_mesh_decoders_at_every_edge():
    # Hypothesis draws few of these: every leaf of every honest message,
    # replaced by every edge value in turn.
    for msg in HONEST:
        for edge in EDGE_VALUES:
            for variant in leaf_rewrites(msg, edge):
                check_decoders(wire.dumps(variant))


def check_decoders(payload: bytes) -> None:
    obj = json.loads(payload)
    check_decoded(simnet.json_object(payload), obj, {})

    msg = dpol.decoder(DPOL)(payload)
    check_decoded(msg, obj, DPOL_FIELDS)
    assert msg is None or msg.get("t") != "map" or is_tally_map(msg["m"])

    msg = chainvote.decoder()(payload)
    check_decoded(msg, obj, CHAIN_FIELDS)
    kind = msg.get("t") if msg is not None else None
    assert kind not in ("tx", "block") or type(msg[kind]) is {"tx": Transaction,
                                                               "block": Block}[kind]

    # Helios and SPP: None exactly for a non-object or a malformed message
    # that is neither a ballot nor a bulletin; those two keep a None field.
    msg = decoder(G, 2, HOLDERS)(payload)
    kind = obj.get("t") if isinstance(obj, dict) else None
    if kind in ("ballot", "bulletin"):
        assert set(msg) == {*obj, kind} and without(msg, {kind}) == without(obj, {kind})
        if kind == "ballot":
            assert msg[kind] == parse_ballot(G, 2, obj.get("cts"), obj.get("proof"))
            assert msg[kind] is None or type(msg[kind][1]) is BallotProof
        assert msg[kind] is not None or payload not in HONEST_PAYLOADS
        assert kind == "ballot" or msg[kind] is None or is_bulletin(msg[kind], obj)
    else:
        check_decoded(msg, obj, FIELDS)

    # Mesh: a share's or colsum's v arrives as two ints, reduced.
    check_decoded(mesh_decoder(2)(payload), obj, MESH_FIELDS)
