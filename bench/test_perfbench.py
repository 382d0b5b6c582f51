"""Tests of the benchmark's own machinery: the Mittag-Leffler reference and
the span self-time arithmetic.  Run with ``python -m pytest bench``."""

import math

import numpy as np
import pytest

import spans
from mlref import RHO_SWITCH, MittagLeffler


class TestReferenceClosedForms:
    def test_exp_on_the_series_range(self):
        e = MittagLeffler(1.0, 1.0)
        for z in np.linspace(-40.0, 10.0, 41):
            assert e(z) == pytest.approx(math.exp(z), rel=1e-13)

    def test_exp_near_the_switch_is_absolutely_accurate(self):
        # exp is exponentially small there, so only the absolute error of the
        # cancelling sum is controlled
        e = MittagLeffler(1.0, 1.0)
        for z in np.linspace(-RHO_SWITCH + 0.01, -40.0, 9):
            assert abs(e(z) - math.exp(z)) < 1e-25

    def test_exp_beyond_the_switch(self):
        e = MittagLeffler(1.0, 1.0)
        for z in (-50.0, -60.0, -200.0, -700.0):
            assert e(z) == pytest.approx(math.exp(z), rel=1e-14)

    @pytest.mark.parametrize("x", [0.0, 0.3, 1.0, 7.5, 30.0, 49.9, 50.1, 123.4, 2000.0])
    def test_cos(self, x):
        assert abs(MittagLeffler(2.0, 1.0)(-x * x) - math.cos(x)) < 1e-14

    @pytest.mark.parametrize("x", [0.3, 1.0, 7.5, 30.0, 49.9, 50.1, 123.4, 2000.0])
    def test_sinc(self, x):
        assert abs(MittagLeffler(2.0, 2.0)(-x * x) - math.sin(x) / x) < 1e-15

    @pytest.mark.parametrize("z", [-3.0, -300.0, -1.0e4, -1.0e7])
    def test_beta_recurrence_on_both_paths(self, z):
        # E_{a,b}(z) = 1/Gamma(b) + z E_{a,a+b}(z)
        a = 1.5
        lhs = MittagLeffler(a, 1.0)(z)
        rhs = 1.0 + z * MittagLeffler(a, 1.0 + a)(z)
        assert abs(lhs - rhs) < 1e-13

    def test_table_matches_pointwise(self):
        e = MittagLeffler(1.5, 2.0)
        z = np.array([[0.0, -1.0], [-400.0, -5.0e5]])
        assert np.array_equal(e.table(z), np.array([[e(v) for v in row] for row in z]))


class TestSelfTimes:
    def test_nested_and_overlapping_children(self):
        # 0: [0, 10] root; 1: [1, 4] and 2: [3, 6] overlap; 3: [2, 3] under 1;
        # 4: [9, 12] starts inside the root and runs past its end
        span_list = [
            (None, 0.0, 10.0),
            (0, 1.0, 4.0),
            (0, 3.0, 6.0),
            (1, 2.0, 3.0),
            (0, 9.0, 12.0),
        ]
        got = spans.self_times(span_list)
        # root: children cover [1, 6] and [9, 10]
        assert got == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])

    def test_leaf_self_time_is_its_duration(self):
        assert spans.self_times([(None, 2.0, 2.5)]) == pytest.approx([0.5])

    def test_recorder_spans_and_counts(self, monkeypatch):
        ticks = iter(range(100))
        monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(ticks)))
        rec = spans.Recorder()
        inner = rec.wrap("solver.solve", lambda: None)

        def body():
            inner()
            inner()

        outer = rec.wrap("cli.main", body)
        outer()
        m = rec.metrics()
        # cli.main spans [0, 5]; the two solve spans [1, 2] and [3, 4]
        assert m["cli.main.self_s"] == 3.0
        assert m["solver.solve.self_s"] == 2.0
        assert m["solver.solve.calls"] == 2.0
        assert set(m) == {name for name, _ in spans.metric_names()}
