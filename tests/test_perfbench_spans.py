"""Every span the benchmark's tracer wraps still names a function of votesim.

``perfbench/layers.py`` uses only the standard library, so it is loaded
from its file here without importing the rest of the benchmark. A rename
in ``src/votesim`` that a span still points at fails here instead of only
in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_layers", Path(__file__).resolve().parents[1] / "perfbench" / "layers.py")
layers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layers)


@pytest.mark.parametrize("span", sorted(layers.SPANS))
def test_span_resolves_against_votesim(span):
    module, dotted = layers.SPANS[span]
    importlib.import_module(module)
    _, _, target = layers._resolve(module, dotted)
    assert callable(target), f"{span}: {module}.{dotted} is not callable"
