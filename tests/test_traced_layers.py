"""The traced benchmark run wraps named package functions; they must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize(
    "mod_name, attr",
    [target for targets in _layers().values() for target in targets],
)
def test_layer_target_resolves(mod_name, attr):
    obj = importlib.import_module(f"fracplate.{mod_name}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
