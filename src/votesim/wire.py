"""Canonical byte encodings shared by the simulator and the protocols.

Everything that is hashed, digested or compared byte-for-byte goes through
this module so that traces stay identical across runs and platforms, except
trace lines: ``simnet.Trace.to_jsonl`` writes them itself, and
``tests/test_simnet.py::test_to_jsonl_matches_wire_dumps`` holds it to ``dumps``.
"""

import hashlib
import json
from typing import Any, Callable

# What json.dumps(obj, sort_keys=True, separators=(",", ":")) builds per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps(obj: Any) -> bytes:
    """Encode a JSON-compatible message payload to canonical bytes.

    Keys are sorted and separators fixed, so equal values always produce
    equal bytes. Tuples encode as lists.
    """
    return _ENCODER.encode(obj).encode()


def loads(data: bytes) -> Any:
    return json.loads(data.decode())


def decoder(kinds: dict[str, dict[str, Callable[[Any], Any]]]) -> Callable[[bytes], dict | None]:
    """A payload decoder from a table {message kind "t": {field: parser}}: it
    returns the JSON object with each listed field replaced by its parsed
    value, or None when the payload is not an object or a listed field parses
    to None. Kinds not in the table pass through unparsed."""
    def decode(payload: bytes) -> dict | None:
        msg = loads(payload)  # looked up per call, so a tracer's wrapper counts it
        if not isinstance(msg, dict):
            return None
        kind = msg.get("t")
        parsers = kinds.get(kind) if type(kind) is str else None
        if not parsers:
            return msg
        parsed = {key: parse(msg.get(key)) for key, parse in parsers.items()}
        return None if None in parsed.values() else {**msg, **parsed}

    return decode


def int_in(lo: float, hi: float) -> Callable[[Any], int | None]:
    """A parser of one received int in [lo, hi); None for anything else."""
    return lambda x: x if type(x) is int and lo <= x < hi else None


def int_vector(value: Any, n: int) -> tuple[int, ...] | None:
    """A received list of n ints as a tuple; None when it is anything else."""
    if not isinstance(value, list) or len(value) != n:
        return None
    for x in value:  # a plain loop: this runs on every DPol share, sum and map entry
        if type(x) is not int:
            return None
    return tuple(value)


def digest(data: bytes) -> str:
    """Lowercase hex SHA-256 of raw payload bytes."""
    return hashlib.sha256(data).hexdigest()


def ser_ints(*values: int) -> bytes:
    """Length-prefixed big-endian integer serialization.

    Each value is encoded as a 4-byte big-endian length followed by the
    minimal big-endian byte representation. Used wherever bit-exact bytes
    gate validity (ciphertexts, proofs, tokens, block hashing).
    """
    out = bytearray()
    for v in values:
        if v < 0:
            raise ValueError("ser_ints encodes non-negative integers only")
        body = v.to_bytes((v.bit_length() + 7) // 8 or 1, "big")
        out += len(body).to_bytes(4, "big")
        out += body
    return bytes(out)


def derive_seed(master: int, *labels: object) -> int:
    """Derive an independent 63-bit seed from a master seed and labels."""
    tag = "|".join([str(master)] + [str(x) for x in labels]).encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:8], "big") >> 1
