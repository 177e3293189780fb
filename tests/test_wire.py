import json

from hypothesis import given, settings, strategies as st

from test_hostile_payloads import JSON_VALUES
from votesim import wire


def test_dumps_is_canonical():
    a = wire.dumps({"b": 1, "a": [2, 3]})
    b = wire.dumps({"a": [2, 3], "b": 1})
    assert a == b
    assert wire.loads(a) == {"a": [2, 3], "b": 1}


def test_digest_is_lowercase_hex_256_bit():
    d = wire.digest(b"hello")
    assert len(d) == 64
    assert d == d.lower()


def test_ser_ints_length_prefixed():
    data = wire.ser_ints(1, 256)
    # 1 -> len 1 + 0x01 ; 256 -> len 2 + 0x0100
    assert data == b"\x00\x00\x00\x01\x01" + b"\x00\x00\x00\x02\x01\x00"


def test_ser_ints_distinguishes_boundaries():
    assert wire.ser_ints(1, 2) != wire.ser_ints(12)
    assert wire.ser_ints(0) == b"\x00\x00\x00\x01\x00"


def test_derive_seed_stable_and_label_sensitive():
    assert wire.derive_seed(1, "a") == wire.derive_seed(1, "a")
    assert wire.derive_seed(1, "a") != wire.derive_seed(1, "b")
    assert wire.derive_seed(1, "a") != wire.derive_seed(2, "a")


def reference_dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


@settings(max_examples=300)
@given(JSON_VALUES)
def test_dumps_equals_json_dumps(value):
    assert wire.dumps(value) == reference_dumps(value)


# DPol maps as a voter sends them: cluster index -> tally tuple.
DPOL_MAPS = st.builds(
    lambda r, m: {"t": "map", "r": r, "m": {str(ci): v for ci, v in m.items()}},
    st.integers(0, 30),
    st.dictionaries(st.integers(0, 30), st.tuples(st.integers(), st.integers()), max_size=12),
)


@settings(max_examples=300)
@given(DPOL_MAPS)
def test_tally_tuples_encode_as_lists(msg):
    as_lists = {**msg, "m": {ci: list(v) for ci, v in msg["m"].items()}}
    assert wire.dumps(msg) == reference_dumps(msg) == reference_dumps(as_lists)
