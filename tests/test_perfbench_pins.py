"""The benchmark's first seed-7 election of each workload still matches its pins.

Each election runs under ``perfbench/layers.Tracer``; its exact counts go
through ``measure.count_problems`` and its outcome, taxonomy row and trace
digest through ``elections.check``, against ``perfbench/pins.json``, which
this test only reads. A change that moves the simulated work fails here
instead of only in a traced benchmark run.
"""

import sys
from pathlib import Path

import pytest

# measure.py imports its siblings by module name, as run.py does.
_PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, _PERFBENCH)
try:
    import elections
    import layers
    import measure
finally:
    sys.path.remove(_PERFBENCH)


@pytest.mark.parametrize("name", sorted(elections.WORKLOADS))
def test_first_seed7_election_matches_its_pins(name):
    workload = elections.WORKLOADS[name]
    sc = elections.make_inputs(workload, elections.DEFAULT_SEED)[0]
    pins = elections.load_pins()[name]
    assert str(sc.seed) in pins
    tracer = layers.Tracer()
    with tracer.installed():
        el = elections.run_election(sc)
    rec = measure.layer_record(tracer, el, election_s=1.0)
    assert measure.count_problems(workload, tracer, rec, pins[str(sc.seed)]) == []
    assert elections.check(sc, el, pins) == []
