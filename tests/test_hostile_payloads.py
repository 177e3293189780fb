"""One byzantine peer that rewrites a random field of every payload it sends
never crashes an election, in any of the five protocols."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from votesim import wire
from votesim.ballot import DpolParams
from votesim.baselines import HeliosParams, MeshParams, run_helios_like, run_mesh_share
from votesim.chainvote import ChainParams, run_chainvote
from votesim.crypto import TEST_GROUP
from votesim.dpol import run_dpol
from votesim.simnet import FaultModel, SendFilter, register_behavior
from votesim.spp import SppParams, run_spp

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)

# Desk-size elections: protocol -> (voters, peers, runner(choices, faults, seed)).
# Helios peers 4..7 are the hub and the three trustees.
CHAIN = ChainParams(n=8, d=2, degree=3, difficulty=4, block_capacity=8, issuer_bits=512)
ELECTIONS = {
    "dpol": (9, 9, lambda c, f, s: run_dpol(DpolParams(9, 1, 2), c, f, s)),
    "spp": (8, 8, lambda c, f, s: run_spp(SppParams(8, 4, 2, 2), c, f, s, group=TEST_GROUP)),
    "helios": (4, 8, lambda c, f, s: run_helios_like(HeliosParams(4, 3, 2, 2), c, f, s,
                                                     group=TEST_GROUP)),
    "chainvote": (8, 8, lambda c, f, s: run_chainvote(CHAIN, c, f, s)),
    "mesh": (4, 4, lambda c, f, s: run_mesh_share(MeshParams(4, 2), c, f, s)),
}


def rewrite_random_field(rng: random.Random, values: list, msg: dict) -> dict:
    """A copy of msg with one field, at any depth, replaced by a drawn value;
    now and then the whole message is replaced (None withholds it)."""
    if rng.random() < 0.05:
        return rng.choice(values)
    msg = wire.loads(wire.dumps(msg))
    node = msg
    while True:
        key = rng.choice(sorted(node) if isinstance(node, dict) else range(len(node)))
        child = node[key]
        if isinstance(child, (dict, list)) and child and rng.random() < 0.5:
            node = child
        else:
            node[key] = rng.choice(values)
            return msg


@pytest.mark.parametrize("protocol", sorted(ELECTIONS))
@settings(max_examples=100)
@given(data=st.data(), seed=st.integers(0, 2**16), rng_seed=st.integers(0, 2**32),
       values=st.lists(JSON_VALUES, min_size=1, max_size=4))
def test_random_field_rewrites_never_crash(protocol, data, seed, rng_seed, values):
    voters, peers, run = ELECTIONS[protocol]
    liar = data.draw(st.integers(0, peers - 1), label="liar")
    rng = random.Random(rng_seed)
    register_behavior(
        "test:random-field",
        lambda inner: SendFilter(inner, lambda msg: rewrite_random_field(rng, values, msg)),
    )
    choices = random.Random(seed).choices(range(2), k=voters)
    out, _ = run(choices, FaultModel(max_delay=3, byzantine={liar: "test:random-field"}), seed)
    assert 0.0 <= out.completion <= 1.0
