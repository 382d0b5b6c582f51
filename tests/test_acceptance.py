"""Acceptance gate: every release criterion at its declared tolerance.

Each test runs one criterion of :mod:`fracplate.acceptance` in the full
profile and prints a single PASS/FAIL line with the measured metrics, so a
plain ``pytest -s tests/test_acceptance.py`` doubles as the sign-off
artifact.  Criterion 7 (byte-determinism of the CLI report) runs the quick
profile twice through the real entry point.
"""

import itertools
import subprocess
import sys
from types import SimpleNamespace

import pytest

from fracplate import acceptance
from fracplate.acceptance import (
    _gate_runtime,
    criterion_1_mittag_leffler,
    criterion_2_kernel_identities,
    criterion_3_fractional_operators,
    criterion_4_solver_residuals,
    criterion_5_multiplier_identities,
    criterion_6_hidden_regularity,
)
from fracplate.report import VerificationReport


def _announce(report):
    status = "PASS" if report.all_passed else "FAIL"
    worst = {
        k: f"{report.metrics[k]:.3e}" for k in report.tolerances
    }
    print(f"[{status}] {report.name}: {worst}")
    return report.all_passed


def test_criterion_1_mittag_leffler_correctness():
    rep = criterion_1_mittag_leffler(quick=False)
    ok = _announce(rep)
    assert rep.metrics["oracle_agreement"] <= 1e-10
    assert rep.metrics["cos_special_case"] <= 1e-12
    assert rep.metrics["exp_special_case"] <= 1e-12
    assert rep.runtime_s < 10.0
    assert ok


def test_criterion_2_identity_suite():
    rep = criterion_2_kernel_identities(quick=False)
    ok = _announce(rep)
    assert rep.metrics["derivative_identity_residual"] <= 1e-5
    assert rep.metrics["laplace_pair_residual"] <= 1e-8
    assert rep.runtime_s < 60.0
    assert ok


def test_criterion_3_fractional_operator_suite():
    rep = criterion_3_fractional_operators(quick=False)
    ok = _announce(rep)
    assert rep.metrics["power_rule_rel_error"] <= 1e-6
    assert rep.metrics["semigroup_min_refinement_factor"] >= 1.8
    assert rep.metrics["gagliardo_linear_rel_error"] <= 0.02
    assert ok


def test_criterion_4_solver_residuals():
    rep = criterion_4_solver_residuals(quick=False)
    ok = _announce(rep)
    assert rep.metrics["mode_residual_scaled"] <= 5e-3
    assert rep.metrics["mode_residual_order_shortfall"] == 0.0
    assert rep.metrics["weak_residual"] <= 5e-3
    assert rep.metrics["weak_residual_order_shortfall"] == 0.0
    assert rep.metrics["initial_condition_u0"] <= 1e-12
    assert rep.metrics["initial_condition_u1"] <= 1e-12
    assert rep.metrics["lifting_identity_rel"] <= 1e-14
    assert ok


def test_criterion_5_multiplier_identities():
    rep = criterion_5_multiplier_identities(quick=False)
    ok = _announce(rep)
    assert rep.metrics["static_interval_rel"] <= 1e-8
    assert rep.metrics["static_square_rel"] <= 1e-8
    assert rep.metrics["filtered_identity_rel"] <= 1e-3
    assert rep.metrics["filtered_identity2_rel"] <= 1e-3
    assert rep.metrics["filtered_order_shortfall"] == 0.0
    assert rep.runtime_s < 300.0
    assert ok


def test_criterion_6_hidden_regularity_probe():
    rep = criterion_6_hidden_regularity(quick=False)
    ok = _announce(rep)
    assert rep.metrics["sweep_not_finite"] == 0.0
    assert rep.metrics["growth_factor_max"] <= 1.25
    for key in ("u1_sweep_ratio_n1", "u1_sweep_ratio_n8", "u1_sweep_ratio_n64"):
        assert rep.metrics[f"lock_dev_{key}"] <= 1e-6
    # the constant in the trace inequality is never claimed numerically
    assert any("not" in note and "reproduced" in note for note in rep.notes)
    assert ok


def test_criterion_7_report_determinism(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        proc = subprocess.run(
            [sys.executable, "-m", "fracplate.cli", "report",
             "--profile", "quick", "--seed", "42", "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=900,
        )
        assert proc.returncode == 0, proc.stderr
    identical = out1.read_bytes() == out2.read_bytes()
    print(f"[{'PASS' if identical else 'FAIL'}] criterion_7_report_determinism: "
          f"byte-identical={identical}")
    assert identical


@pytest.mark.parametrize(
    "criterion, quick",
    [(criterion_1_mittag_leffler, True), (criterion_2_kernel_identities, False)],
)
def test_report_bytes_do_not_depend_on_the_clock(monkeypatch, criterion, quick):
    texts = []
    for step in (1.0, 7.0):  # both within every runtime budget
        ticks = itertools.count(0.0, step)
        clock = SimpleNamespace(perf_counter=lambda: next(ticks))
        monkeypatch.setattr(acceptance, "time", clock)
        texts.append(criterion(quick=quick).to_json())
    assert texts[0] == texts[1]


def test_runtime_gate_records_the_overrun():
    rep = VerificationReport(name="stub", runtime_s=12.5)
    _gate_runtime(rep, 10.0)
    assert rep.metrics["runtime_over_budget_s"] == 2.5
    assert not rep.evaluate()
    rep = VerificationReport(name="stub", runtime_s=3.0)
    _gate_runtime(rep, 10.0)
    assert rep.metrics["runtime_over_budget_s"] == 0.0
    assert rep.evaluate()
