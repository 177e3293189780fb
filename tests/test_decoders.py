"""The payload decoders never raise, whatever JSON a byzantine peer sends,
and each hands its handlers only the shapes they expect."""

import json

from hypothesis import given, settings, strategies as st

from test_dpol import HOSTILE_MAPS
from test_hostile_payloads import JSON_VALUES
from votesim import chainvote, dpol, simnet, wire
from votesim.ballot import DpolParams
from votesim.chainvote import Block, Transaction

DPOL = DpolParams(9, 1, 2)  # three clusters, d = 2
HONEST_MAPS = st.dictionaries(st.sampled_from("012"),
                              st.lists(st.integers(), min_size=2, max_size=2), max_size=3)
TX = {"token": {"serial": "ab" * 32, "sig": 5}, "choice": 1, "nonce": "cd" * 32}
BLOCK = {"parent": "0" * 64, "height": 1, "proposer": 0, "nonce": 3, "txs": [TX]}

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


def is_tally_map(m) -> bool:
    return isinstance(m, dict) and all(
        ci in range(3) and type(v) is tuple and len(v) == DPOL.d
        and all(type(x) is int for x in v) for ci, v in m.items())


def without_m(msg: dict) -> bytes:
    return wire.dumps({k: v for k, v in msg.items() if k != "m"})


@settings(max_examples=400)
@given(payload=PAYLOADS)
def test_decoders_never_raise(payload):
    obj = json.loads(payload)

    msg = simnet.json_object(payload)
    assert (msg is None) == (not isinstance(obj, dict))
    assert msg is None or wire.dumps(msg) == payload

    msg = dpol.decoder(DPOL)(payload)
    assert (msg is None) == (not isinstance(obj, dict))
    if msg is not None:
        assert msg.get("m") is None or is_tally_map(msg["m"])
        assert without_m(msg) == without_m(obj)

    decoded = chainvote.decode(payload)
    assert (decoded is None) == (not isinstance(obj, dict))
    if decoded is not None:
        msg, parsed = decoded
        assert wire.dumps(msg) == payload
        assert parsed is None or type(parsed) is {"tx": Transaction,
                                                  "block": Block}.get(msg.get("t"))
