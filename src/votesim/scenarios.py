"""Scenario files: a single JSON document describing one experiment.

The schema is versioned. Every bad configuration raises a
``simnet.ConfigError`` whose message starts with the field's path. A key
that names no field (a misspelling) is refused, not ignored. Field
types, the rules every protocol shares (``simnet.check_election``) and
each protocol's parameter rules (checked when its params dataclass is
built) fail when the file is read. Overlay shape rules (a DPol n that is
not a perfect square, an SPP n that is not a multiple of
``cluster_size``, a chainvote ``degree`` >= n) fail when ``run`` builds
the overlay, still before any message is sent. Choices may be listed
explicitly (for reproducing worked examples) or drawn from a seeded
categorical distribution (for sweeps).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, fields
from pathlib import Path
from sys import float_info

from . import wire
from .ballot import DpolParams
from .baselines import HeliosParams, MeshParams, run_helios_like, run_mesh_share
from .chainvote import ChainParams, run_chainvote
from .dpol import run_dpol
from .simnet import ConfigError, FaultModel, Outcome, Trace, check_election
from .spp import SppParams, run_spp

SCHEMA = "votesim-scenario/1"

# Each protocol's parameter dataclass and its runner. Every params field is
# a Scenario field of the same name, and every runner is called as
# runner(params, choices, faults, seed).
RUNNERS = {
    "dpol": (DpolParams, run_dpol),
    "spp": (SppParams, run_spp),
    "chainvote": (ChainParams, run_chainvote),
    "helios": (HeliosParams, run_helios_like),
    "mesh": (MeshParams, run_mesh_share),
}
PROTOCOLS = tuple(RUNNERS)


@dataclass
class Scenario:
    protocol: str
    n: int
    d: int = 2
    seed: int = 0
    choices: list[int] | None = None
    choice_weights: list[float] | None = None
    k: int = 1
    cluster_size: int = 4
    t: int = 2
    trustees: int = 3
    degree: int = 4
    difficulty: int = 8
    block_capacity: int = 64
    issuer_bits: int = 768
    audit: bool = False
    faults: FaultModel = field(default_factory=FaultModel)

    def to_obj(self) -> dict:
        obj: dict = {"schema": SCHEMA}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, list):
                value = list(value)
            obj[f.name] = value.to_obj() if f.name == "faults" else value
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2, sort_keys=True) + "\n"


# JSON type each optional Scenario field must have, keyed by the head of its
# annotation ("list[int] | None" -> "list").
_JSON_TYPES = {"int": int, "bool": bool, "list": list}


def _is(value, types) -> bool:
    """isinstance, except that a JSON true/false is not a number."""
    return isinstance(value, types) and (types is bool or not isinstance(value, bool))


def _need(obj: dict, key: str, types, path: str = ""):
    where = f"{path}{key}"
    if key not in obj or obj[key] is None:
        raise ConfigError(f"{where}: required field missing")
    if not _is(obj[key], types):
        raise ConfigError(f"{where}: wrong type, expected {types}")
    return obj[key]


def _opt(obj: dict, key: str, types, default, path: str = ""):
    if key not in obj or obj[key] is None:
        return default
    return _need(obj, key, types, path)


def _peer_ids(obj: dict, key: str, default: frozenset[int]) -> frozenset[int]:
    ids = _opt(obj, key, list, default, "faults.")
    if not all(_is(x, int) for x in ids):
        raise ConfigError(f"faults.{key}: every entry must be an integer")
    return frozenset(ids)


def _known(obj: dict, names, path: str = "") -> None:
    """A key that names no field is a typo, not a default."""
    for key in obj:
        if key not in names:
            raise ConfigError(f"{path}{key}: unknown field")


def parse_faults(obj: dict) -> FaultModel:
    """A missing key takes FaultModel's own default."""
    _known(obj, {f.name for f in fields(FaultModel)}, "faults.")
    base = FaultModel()
    drop = _opt(obj, "drop_probability", (int, float), base.drop_probability, "faults.")
    byz = _opt(obj, "byzantine", dict, base.byzantine, "faults.")
    try:
        byzantine = {int(k): v for k, v in byz.items()}
    except (TypeError, ValueError) as exc:
        raise ConfigError("faults.byzantine: keys must be peer ids") from exc
    if not all(isinstance(v, str) for v in byzantine.values()):
        raise ConfigError("faults.byzantine: values must be behaviour names")
    return FaultModel(
        crashed=_peer_ids(obj, "crashed", base.crashed),
        drop_probability=float(drop) if 0 <= drop <= 1 else drop,  # FaultModel refuses the rest
        byzantine=byzantine,
        max_delay=_opt(obj, "max_delay", int, base.max_delay, "faults."),
        lose_messages=_peer_ids(obj, "lose_messages", base.lose_messages),
    )


def parse(obj: dict) -> Scenario:
    if not isinstance(obj, dict):
        raise ConfigError("scenario: document must be a JSON object")
    schema = _need(obj, "schema", str)
    if schema != SCHEMA:
        raise ConfigError(f"schema: expected {SCHEMA!r}, got {schema!r}")
    _known(obj, {"schema", *(f.name for f in fields(Scenario))})
    protocol = _need(obj, "protocol", str)
    optional = {
        f.name: _opt(obj, f.name, _JSON_TYPES[f.type.split("[")[0].split(" ")[0]], f.default)
        for f in fields(Scenario)
        if f.name not in ("protocol", "n", "faults")
    }
    sc = Scenario(protocol=protocol, n=_need(obj, "n", int), **optional,
                  faults=parse_faults(_opt(obj, "faults", dict, {})))
    validate(sc)
    return sc


def validate(sc: Scenario) -> None:
    """Check every rule but the overlay shapes, which ``run`` checks."""
    if sc.protocol not in RUNNERS:
        raise ConfigError(f"protocol: unknown protocol {sc.protocol!r}")
    check_election(sc.n, sc.d, sc.choices)
    if sc.choice_weights is not None:
        if len(sc.choice_weights) != sc.d:
            raise ConfigError("choice_weights: need one weight per option")
        if not all(_is(w, (int, float)) for w in sc.choice_weights):
            raise ConfigError("choice_weights: every weight must be a number")
        if min(sc.choice_weights) < 0 or not 0 < sum(sc.choice_weights) < float_info.max:
            raise ConfigError("choice_weights: weights must be non-negative, sum finite and > 0")
    _protocol_params(sc)  # each params dataclass checks its own fields


def from_file(path: str | Path) -> Scenario:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"scenario: file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, not UTF-8
        raise ConfigError(f"scenario: cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ConfigError(f"scenario: not valid JSON: {exc}") from exc
    return parse(obj)


def resolve_choices(sc: Scenario) -> list[int]:
    if sc.choices is not None:
        return list(sc.choices)
    rng = random.Random(wire.derive_seed(sc.seed, "choices", sc.protocol, sc.n, sc.d))
    if sc.choice_weights is not None:
        return rng.choices(range(sc.d), weights=sc.choice_weights, k=sc.n)
    return [rng.randrange(sc.d) for _ in range(sc.n)]


def _protocol_params(sc: Scenario):
    """The parameter object the scenario's protocol runner takes."""
    cls, _ = RUNNERS[sc.protocol]
    return cls(**{f.name: getattr(sc, f.name) for f in fields(cls)})


def run(sc: Scenario) -> tuple[Outcome, Trace]:
    """Dispatch a validated scenario to its protocol runner, whose overlay
    builder checks the shape rules before any message is sent."""
    _, runner = RUNNERS[sc.protocol]
    return runner(_protocol_params(sc), resolve_choices(sc), sc.faults, sc.seed)


# Each protocol's canonical fields on top of Scenario(protocol, d=2, seed=seed).
_CANONICAL = {
    "dpol": dict(n=9, k=1),
    "spp": dict(n=28, cluster_size=4, t=3),
    "chainvote": dict(n=16, degree=4, difficulty=8, block_capacity=32),
    "helios": dict(n=25, trustees=3, t=2),
    "mesh": dict(n=16),
}


def canonical_scenario(protocol: str, seed: int) -> Scenario:
    """The honest, fault-free configuration each protocol is classified on."""
    if protocol not in _CANONICAL:
        raise ConfigError(f"protocol: unknown protocol {protocol!r}")
    sc = Scenario(protocol, d=2, seed=seed, **_CANONICAL[protocol])
    validate(sc)
    return sc
