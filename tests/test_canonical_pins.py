"""Golden digests of the canonical runs.

Refactors of the run plumbing must leave every canonical trace and outcome
byte-identical; a digest that moves means observable behaviour changed.
"""

import hashlib
import json

import pytest

from votesim import scenarios

# protocol -> (SHA-256 of trace.to_jsonl(), SHA-256 of the sorted outcome JSON)
PINS = {
    "dpol": ("3ce2cfbb08912ac5c969597461e11accca4aa846b719fce4c8ff5a8fd9c0d1b0",
             "3ffb76d9f6e5f897b3a0272624a5d0a35e90e62ca9d029d4894235a5d6a57fb1"),
    "spp": ("4effce9a8500553f2647e6ce705e8cd5b952d71336844273cb2c07166b45cb63",
            "0425c529958d6c614764c38a76f996c0a49a402b9253e1b24791edc7b0efdd7c"),
    "helios": ("45eef3235dac77f4a86dec81e2c04f5b5411a2def555088cef0320ade8b22603",
               "4ff25dde0ff7119bba214e1d76b57b20cd631b7bcc690c707f6e801720c1334c"),
    # The outcome pin moved once, when chainvote's outcome gained the
    # double_spend_serials field ([] on this honest run).
    "chainvote": ("8ee4fac618d82f25810feb6ac31e47d76a1372bc859825c9978aea92ae190360",
                  "7e83490449bb8ee05197b2cbe188a61e0fc68ee6005019830200107ee327002f"),
    "mesh": ("95e4cd385fffa97fe2cfa7e45a0195eb3d34475864040c524e166e5dfcea6cfc",
             "90a468c5f9d01ba05d8a55271757ac413321ccf2252c4acce6b778026ac1a033"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("protocol", sorted(PINS))
def test_canonical_run_matches_pins(protocol):
    outcome, trace = scenarios.run(scenarios.canonical_scenario(protocol, seed=1))
    trace_pin, outcome_pin = PINS[protocol]
    assert _sha256(trace.to_jsonl()) == trace_pin
    assert _sha256(json.dumps(outcome.to_obj(), sort_keys=True)) == outcome_pin
