"""Scenario files: a single JSON document describing one experiment.

The schema is versioned; validation reports field paths so a bad file
fails before any simulation starts. Choices may be listed explicitly (for
reproducing worked examples) or drawn from a seeded categorical
distribution (for sweeps).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import wire
from .ballot import DpolParams, EncodingError
from .baselines import HeliosParams, MeshParams, run_helios_like, run_mesh_share
from .chainvote import ChainParams, run_chainvote
from .dpol import run_dpol
from .simnet import MAX_TICKS, ConfigError, FaultModel, Outcome, Trace
from .spp import SppParams, run_spp

SCHEMA = "votesim-scenario/1"
PROTOCOLS = ("dpol", "spp", "chainvote", "helios", "mesh")


class ScenarioError(Exception):
    """Invalid scenario document; the message names the offending field."""


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
    cutoff_height: int | None = None
    issuer_bits: int = 768
    audit: bool = False
    max_ticks: int = MAX_TICKS
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


def _need(obj: dict, key: str, types, path: str = ""):
    where = f"{path}{key}"
    if key not in obj or obj[key] is None:
        raise ScenarioError(f"{where}: required field missing")
    value = obj[key]
    if not isinstance(value, types) or isinstance(value, bool) and types is int:
        raise ScenarioError(f"{where}: wrong type, expected {types}")
    return value


def _opt(obj: dict, key: str, types, default, path: str = ""):
    if key not in obj or obj[key] is None:
        return default
    value = obj[key]
    if not isinstance(value, types):
        raise ScenarioError(f"{path}{key}: wrong type, expected {types}")
    return value


def parse_faults(obj: dict) -> FaultModel:
    crashed = _opt(obj, "crashed", list, [], "faults.")
    drop = _opt(obj, "drop_probability", (int, float), 0.0, "faults.")
    byz = _opt(obj, "byzantine", dict, {}, "faults.")
    max_delay = _opt(obj, "max_delay", int, 3, "faults.")
    lose = _opt(obj, "lose_messages", list, [], "faults.")
    if not 0.0 <= float(drop) <= 1.0:
        raise ScenarioError("faults.drop_probability: must be within [0, 1]")
    if max_delay < 1:
        raise ScenarioError("faults.max_delay: must be >= 1")
    try:
        byz_map = {int(k): str(v) for k, v in byz.items()}
    except (TypeError, ValueError) as exc:
        raise ScenarioError("faults.byzantine: keys must be peer ids") from exc
    return FaultModel(
        crashed=frozenset(int(x) for x in crashed),
        drop_probability=float(drop),
        byzantine=byz_map,
        max_delay=int(max_delay),
        lose_messages=frozenset(int(x) for x in lose),
    )


def parse(obj: dict) -> Scenario:
    if not isinstance(obj, dict):
        raise ScenarioError("scenario: document must be a JSON object")
    schema = _need(obj, "schema", str)
    if schema != SCHEMA:
        raise ScenarioError(f"schema: expected {SCHEMA!r}, got {schema!r}")
    protocol = _need(obj, "protocol", str)
    if protocol not in PROTOCOLS:
        raise ScenarioError(f"protocol: unknown protocol {protocol!r}")
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
    if sc.n < 1:
        raise ScenarioError("n: must be positive")
    if sc.d < 2:
        raise ScenarioError("d: must be >= 2")
    if sc.choices is not None:
        if len(sc.choices) != sc.n:
            raise ScenarioError(f"choices: expected {sc.n} entries, got {len(sc.choices)}")
        if any(not isinstance(c, int) or not 0 <= c < sc.d for c in sc.choices):
            raise ScenarioError("choices: every entry must be an option index in [0, d)")
    if sc.choice_weights is not None:
        if len(sc.choice_weights) != sc.d:
            raise ScenarioError("choice_weights: need one weight per option")
        if any(w < 0 for w in sc.choice_weights) or sum(sc.choice_weights) <= 0:
            raise ScenarioError("choice_weights: weights must be non-negative, sum > 0")
    params = _protocol_params(sc)
    try:
        if isinstance(params, DpolParams):
            params.validate_ring()
        else:
            params.validate()
    except (ConfigError, EncodingError) as exc:
        raise ScenarioError(f"{sc.protocol}: {exc}") from exc


def from_file(path: str | Path) -> Scenario:
    try:
        obj = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ScenarioError(f"scenario file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
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
    if sc.protocol == "dpol":
        return DpolParams(sc.n, sc.k, sc.d)
    if sc.protocol == "spp":
        return SppParams(sc.n, sc.cluster_size, sc.t, sc.d)
    if sc.protocol == "helios":
        return HeliosParams(sc.n, sc.trustees, sc.t, sc.d)
    if sc.protocol == "chainvote":
        return ChainParams(sc.n, sc.d, sc.degree, sc.difficulty, sc.block_capacity,
                           sc.cutoff_height, sc.issuer_bits)
    if sc.protocol == "mesh":
        return MeshParams(sc.n, sc.d)
    raise ScenarioError(f"protocol: unknown protocol {sc.protocol!r}")


def run(sc: Scenario) -> tuple[Outcome, Trace]:
    """Dispatch a validated scenario to its protocol runner."""
    choices = resolve_choices(sc)
    params = _protocol_params(sc)
    if sc.protocol == "dpol":
        return run_dpol(params, choices, sc.faults, sc.seed, audit=sc.audit,
                        max_ticks=sc.max_ticks)
    if sc.protocol == "spp":
        return run_spp(params, choices, sc.faults, sc.seed, max_ticks=sc.max_ticks)
    if sc.protocol == "helios":
        return run_helios_like(params, choices, sc.faults, sc.seed, max_ticks=sc.max_ticks)
    if sc.protocol == "chainvote":
        return run_chainvote(params, choices, sc.faults, sc.seed, max_ticks=sc.max_ticks)
    return run_mesh_share(sc.n, sc.d, choices, sc.seed, sc.faults, max_ticks=sc.max_ticks)


def canonical_scenario(protocol: str, seed: int) -> Scenario:
    """The honest, fault-free configuration each protocol is classified on."""
    if protocol == "dpol":
        sc = Scenario("dpol", n=9, d=2, seed=seed, k=1)
    elif protocol == "spp":
        sc = Scenario("spp", n=28, d=2, seed=seed, cluster_size=4, t=3)
    elif protocol == "helios":
        sc = Scenario("helios", n=25, d=2, seed=seed, trustees=3, t=2)
    elif protocol == "chainvote":
        sc = Scenario("chainvote", n=16, d=2, seed=seed, degree=4, difficulty=8,
                      block_capacity=32)
    elif protocol == "mesh":
        sc = Scenario("mesh", n=16, d=2, seed=seed)
    else:
        raise ScenarioError(f"protocol: unknown protocol {protocol!r}")
    validate(sc)
    return sc
