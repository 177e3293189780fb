"""The benchmark's election inputs still build against the current schema.

``perfbench/elections.py`` builds every timed scenario from ``Scenario``
fields and validates it. It is loaded from its file here, and each
workload's inputs and warm-up scenario are built without being run, so a
schema or ``*Params`` change that breaks them fails here instead of only
in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from votesim import scenarios

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_elections", Path(__file__).resolve().parents[1] / "perfbench" / "elections.py")
elections = importlib.util.module_from_spec(_SPEC)
# Its dataclasses look their module up in sys.modules while being defined.
sys.modules[_SPEC.name] = elections
_SPEC.loader.exec_module(elections)


@pytest.mark.parametrize("name", sorted(elections.WORKLOADS))
def test_workload_inputs_build(name):
    workload = elections.WORKLOADS[name]
    inputs = elections.make_inputs(workload, elections.DEFAULT_SEED)
    warmup = elections.warmup_scenario(workload, elections.DEFAULT_SEED)
    assert len(inputs) == elections.INPUTS
    for sc in [*inputs, warmup]:
        assert isinstance(sc, scenarios.Scenario)
        assert sc.protocol == workload.protocol
        assert scenarios.resolve_choices(sc) == sc.choices
