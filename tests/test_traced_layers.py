"""The traced benchmark run wraps named package functions and counts
ml_profile's bands; both must match the package."""

import importlib
import importlib.util
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "mod_name, attr",
    [target for targets in _spans().LAYERS.values() for target in targets],
)
def test_layer_target_resolves(mod_name, attr):
    obj = importlib.import_module(f"fracplate.{mod_name}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


@pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0])
def test_ml_profile_hook_counts_match_the_band_edges(alpha):
    # the traced run's band counters use the edges ml_profile routes by
    from fracplate.special_functions import _profile_B, _profile_zf

    zf, big_edge = _profile_zf(alpha), _profile_B(alpha)
    z = np.concatenate([-np.geomspace(1e-3, 1e5, 400), [0.0, -zf, -big_edge]])
    rec = SimpleNamespace(counters=defaultdict(float), _pairs=set())
    _spans()._ml_profile_hook(rec, 0.0, (alpha, 1.0, z), {})
    # ml_profile's split: Taylor up to zf, the band up to big_edge
    a = np.abs(z)
    big = np.count_nonzero(a > big_edge)
    mid = np.count_nonzero((a > zf) & (a <= big_edge))
    assert big > 0 and mid > 0
    name = "special_functions.ml_profile"
    assert rec.counters[f"{name}.points"] == z.size
    assert rec.counters[f"{name}.points_big"] == big
    assert rec.counters[f"{name}.points_mid"] == mid


def test_rl_integral_builds_no_weight_rows():
    # rl_integral contracts its tiles itself, so the traced counters see no
    # rl_integral_matrix call from it, and one call per direct request of
    # rows; run in a child so this process stays unwrapped
    code = f"""
import json, sys
sys.path.insert(0, {str(SPANS.parent)!r})
import numpy as np
from fracplate import cli, fractional_calculus as fc
from spans import Recorder
recorder = Recorder()
recorder.install()
g = fc.TimeGrid.graded(1.0, 4096, 4.0)
fc.rl_integral(g, np.cos(g.nodes), 0.5)
before = recorder.metrics()
fc.rl_integral_matrix(g, 0.5, [4096, 2048])
print(json.dumps([before, recorder.metrics()]))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    before, after = json.loads(proc.stdout.splitlines()[-1])
    name = "fractional_calculus.rl_integral_matrix"
    assert before[f"{name}.calls"] == 0
    assert before[f"{name}.distinct"] == 0
    assert before["fractional_calculus.rl_integral.self_s"] > 0.0
    assert after[f"{name}.calls"] == 1
    assert after[f"{name}.distinct"] == 1


def test_square_probe_forms_no_boundary_nodes(tmp_path):
    # the probe's trace energy comes from the closed-form boundary factor:
    # no boundary quadrature, gradient tensor or normal-trace energy is traced
    code = f"""
import json, sys
sys.path.insert(0, {str(SPANS.parent)!r})
from fracplate import cli
from spans import Recorder
recorder = Recorder()
recorder.install()
argv = ["probe", "--domain", "rectangle:pixpi", "--modes", "16,32",
        "--out", {str(tmp_path / "probe.json")!r}]
assert cli.main(argv) == 0
print(json.dumps(recorder.metrics()))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    assert metrics["hidden_regularity.direct_inequality_probe.self_s"] > 0.0
    for name in (
        "spectral_domain.quadrature",
        "spectral_domain.mode_gradients",
        "hidden_regularity.trace_energy",
    ):
        assert metrics[f"{name}.self_s"] == 0.0, name
