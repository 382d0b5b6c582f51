"""Series solutions: evaluation, residuals, classification, estimates."""

import math

import numpy as np
import pytest

from fracplate.fractional_calculus import TimeGrid, caputo_derivative
from fracplate.solver import (
    apriori_estimate_check,
    classify,
    lift,
    mode_ode_residual,
    mode_residual_scale,
    solve,
    weak_form_residual,
)
from fracplate.spectral_domain import (
    Interval,
    Rectangle,
    eigenmodes,
    mode_gradients,
    mode_values,
)
from fracplate.special_functions import ml_eval, ml_profile


def _u(s, t, x):
    """u(t, x): the coefficient row at t against the mode values at x."""
    return float(s.coefficients([t])[0] @ mode_values(s.modes, s.domain, [x])[0])


@pytest.fixture(scope="module")
def interval_modes():
    d = Interval(math.pi)
    return d, eigenmodes(d, 8)


class TestSolve:
    def test_single_mode_collapse(self, interval_modes):
        d, modes = interval_modes
        s = solve(d, 8, 1.5, [1.0] + [0] * 7, [0] * 8, 1.0)
        t, x = 0.6, 0.9
        expect = (
            ml_eval(1.5, 1.0, -(t**1.5))[0]
            * math.sqrt(2 / math.pi)
            * math.sin(x)
        )
        assert _u(s, t, x) == pytest.approx(expect, abs=1e-13)

    def test_zero_data_zero_solution(self, interval_modes):
        d, modes = interval_modes
        s = solve(d, 8, 1.5, [0] * 8, [0] * 8, 1.0)
        assert _u(s, 0.5, 1.0) == 0.0

    def test_velocity_mode_collapse(self, interval_modes):
        # u1 = e_2: u(t,x) = t E_{a,2}(-16 t^a) e_2(x)
        d, modes = interval_modes
        u1 = [0.0] * 8
        u1[1] = 1.0
        s = solve(d, 8, 1.5, [0] * 8, u1, 1.0)
        t, x = 0.4, 0.7
        expect = (
            t
            * ml_eval(1.5, 2.0, -16.0 * t**1.5)[0]
            * math.sqrt(2 / math.pi)
            * math.sin(2 * x)
        )
        assert _u(s, t, x) == pytest.approx(expect, abs=1e-13)

    def test_alpha_out_of_range(self, interval_modes):
        d, modes = interval_modes
        with pytest.raises(ValueError):
            solve(d, 8, 2.5, [1] + [0] * 7, [0] * 8, 1.0)

    def test_linearity_in_data(self, interval_modes):
        d, modes = interval_modes
        rng = np.random.default_rng(11)
        u0a, u1a = rng.standard_normal(8), rng.standard_normal(8)
        u0b, u1b = rng.standard_normal(8), rng.standard_normal(8)
        sa = solve(d, 8, 1.5, u0a, u1a, 1.0)
        sb = solve(d, 8, 1.5, u0b, u1b, 1.0)
        sc = solve(d, 8, 1.5, 2 * u0a - u0b, 2 * u1a - u1b, 1.0)
        ts = np.linspace(0, 1, 5)
        assert np.allclose(
            sc.coefficients(ts),
            2 * sa.coefficients(ts) - sb.coefficients(ts),
            rtol=1e-12,
            atol=1e-14,
        )

    def test_truncation_tail_report(self, interval_modes):
        d, modes = interval_modes
        vals = np.array([1.0, 0.5, 0.25, 0.125, 0.1, 0.05, 0.02, 0.01])
        s = solve(d, 4, 1.5, vals, 0.5 * vals, 1.0)
        expect = float(np.sum(modes.lam[4:] * vals[4:] ** 2))
        assert s.tail_u0 == pytest.approx(expect, rel=1e-13)
        assert s.tail_u1 == pytest.approx(0.25 * np.sum(vals[4:] ** 2), rel=1e-13)
        assert len(s.modes) == len(s.u0) == len(s.u1) == 4

    def test_modes_are_the_prefix_of_the_data_modes(self):
        d = Rectangle(1.3, 0.7)
        s = solve(d, 5, 1.5, np.ones(40), np.ones(12), 1.0)
        assert np.array_equal(s.modes.index, eigenmodes(d, 5).index)
        assert np.array_equal(s.lambdas, eigenmodes(d, 5).lam)
        assert s.tail_u0 == pytest.approx(float(np.sum(eigenmodes(d, 40).lam[5:])))
        assert s.tail_u1 == 7.0

    @pytest.mark.parametrize("n0, n1", [(3, 8), (8, 3), (3, 3)])
    def test_short_data_rejected(self, interval_modes, n0, n1):
        d, _ = interval_modes
        with pytest.raises(ValueError, match="N=4"):
            solve(d, 4, 1.5, np.ones(n0), np.ones(n1), 1.0)


class TestPointwiseEvaluation:
    def test_initial_displacement_reproduced(self, interval_modes):
        d, modes = interval_modes
        u0 = [0.3, -0.2, 0.5, 0.0, 0.1, 0.0, 0.0, 0.2]
        s = solve(d, 8, 1.5, u0, [0] * 8, 1.0)
        c0 = s.coefficients(np.array([0.0]))[0]
        assert np.max(np.abs(c0 - np.array(u0))) < 1e-12

    def test_initial_velocity_reproduced(self, interval_modes):
        d, modes = interval_modes
        u1 = [0.4, 0.1, -0.2, 0.0, 0.0, 0.3, 0.0, 0.0]
        s = solve(d, 8, 1.5, [0] * 8, u1, 1.0)
        x = 1.3
        expect = sum(
            u1[i] * math.sqrt(2 / math.pi) * math.sin((i + 1) * x)
            for i in range(8)
        )
        ut = s.coefficient_derivatives([0.0])[0] @ mode_values(modes, d, [x])[0]
        assert ut == pytest.approx(expect, abs=1e-12)

    def test_caputo_equals_minus_u_for_fundamental(self, interval_modes):
        # lam_1 = 1 on Interval(pi), so dt^alpha u = -u: the discrete Caputo
        # derivative of u(., x) on graded grids, past the start-up layer
        d, modes = interval_modes
        s = solve(d, 8, 1.5, [1.0] + [0] * 7, [0] * 8, 1.0)
        e = mode_values(modes, d, [2.0])[0]
        ut0 = s.coefficient_derivatives([0.0])[0] @ e
        defects = []
        for M in (1024, 2048):
            grid = TimeGrid.graded(1.0, M, 4.0)
            u = s.coefficients(grid.nodes) @ e
            dt_u = caputo_derivative(grid, u, 1.5, ut0)
            defects.append(np.max(np.abs(dt_u + u)[M // 32 :]))
        assert defects[1] <= 1e-4
        assert defects[0] / defects[1] >= 3.0  # second order

    def test_grad_laplacian_direction(self, interval_modes):
        d, modes = interval_modes
        s = solve(d, 8, 1.5, [1.0] + [0] * 7, [0] * 8, 1.0)
        t, x = 0.5, 0.9
        c = s.coefficients(np.array([t]))[0]
        # grad lap u = sum c_n (-mu_n) grad e_n
        grad_lap = mode_gradients(s.modes, d, [x])[0] @ (-s.modes.mu * c)
        expect = -c[0] * math.sqrt(2 / math.pi) * math.cos(x)
        assert grad_lap[0] == pytest.approx(expect, rel=1e-12)


class TestResiduals:
    def test_zero_data_zero_residual(self, interval_modes):
        d, modes = interval_modes
        s = solve(d, 8, 1.5, [0] * 8, [0] * 8, 1.0)
        grid = TimeGrid.graded(1.0, 512, 4.0)
        assert mode_ode_residual(s, 1, grid, s.coefficients(grid.nodes)) == 0.0

    def test_fundamental_mode_contract(self, interval_modes):
        d, modes = interval_modes
        s = solve(d, 8, 1.5, [1.0] + [0] * 7, [0] * 8, 1.0)
        r1, r2 = (mode_ode_residual(s, 1, g, s.coefficients(g.nodes))
                  for g in (TimeGrid.graded(1.0, 1024, 4.0),
                            TimeGrid.graded(1.0, 2048, 4.0)))
        assert r2 <= 5e-3
        assert r1 / r2 >= 2.0  # halving under refinement

    def test_stiff_mode_scaled_contract(self, interval_modes):
        d, modes = interval_modes
        u0 = [0.0] * 8
        u0[4] = 1.0  # lam = 625
        s = solve(d, 8, 1.5, u0, [0] * 8, 1.0)
        grid = TimeGrid.graded(1.0, 2048, 4.0)
        lam = modes.lam[4]
        C = s.coefficients(grid.nodes)
        scale = max(1.0, lam * float(np.max(np.abs(C[:, 4]))))
        assert mode_ode_residual(s, 5, grid, C) <= 5e-3 * scale

    def test_weak_form_single_mode(self, interval_modes):
        d, modes = interval_modes
        s = solve(d, 8, 1.5, [1.0] + [0] * 7, [0] * 8, 1.0)
        v = [1.0] + [0.0] * 7
        grid = TimeGrid.graded(1.0, 2048, 4.0)
        assert weak_form_residual(s, v, grid, s.coefficients(grid.nodes)) <= 1e-2

    def test_weak_form_orthogonal_test_function(self, interval_modes):
        d, modes = interval_modes
        s = solve(d, 8, 1.5, [1.0, 0.5] + [0] * 6, [0] * 8, 1.0)
        v = np.eye(8)[5]
        grid = TimeGrid.graded(1.0, 512, 4.0)
        assert weak_form_residual(s, v, grid, s.coefficients(grid.nodes)) == 0.0

    def test_zero_weak_residual_for_zero_solution(self, interval_modes):
        d, modes = interval_modes
        s = solve(d, 8, 1.5, [0] * 8, [0] * 8, 1.0)
        v = [1.0] + [0.0] * 7
        grid = TimeGrid.graded(1.0, 512, 4.0)
        assert weak_form_residual(s, v, grid, s.coefficients(grid.nodes)) == 0.0

    def test_weak_form_on_rectangle(self):
        d = Rectangle(math.pi, math.pi)
        u0 = [1.0, -0.5, 0.25, 0.0, 0.0, 0.0]
        u1 = [0.0, 0.3, 0.0, -0.2, 0.0, 0.0]
        s = solve(d, 6, 1.5, u0, u1, 1.0)
        v = [0.0, 1.0, -0.5, 0.0, 0.0, 0.0]
        r1, r2 = (weak_form_residual(s, v, g, s.coefficients(g.nodes))
                  for g in (TimeGrid.graded(1.0, 1024, 4.0),
                            TimeGrid.graded(1.0, 2048, 4.0)))
        assert r2 <= 1e-2
        assert r1 / r2 >= 2.0

    @pytest.mark.parametrize("length", [5, 7])
    def test_weak_form_needs_one_test_coefficient_per_mode(self, length):
        s = solve(Rectangle(math.pi, math.pi), 6, 1.5, [1.0] * 6, [0.0] * 6, 1.0)
        grid = TimeGrid.graded(1.0, 512, 4.0)
        with pytest.raises(ValueError, match=f"{length} test coefficients for 6"):
            weak_form_residual(s, np.eye(length)[1], grid, s.coefficients(grid.nodes))

    def test_mode_position_range_checked(self, interval_modes):
        d, modes = interval_modes
        s = solve(d, 8, 1.5, [1.0] + [0] * 7, [0] * 8, 1.0)
        grid = TimeGrid.graded(1.0, 512, 4.0)
        for n in (0, 9, [1, 9]):
            with pytest.raises(ValueError, match="not part of the solution"):
                mode_ode_residual(s, n, grid, s.coefficients(grid.nodes))

    def test_positions_block_matches_scalar_calls(self, interval_modes):
        d, modes = interval_modes
        u0 = [1.0, -0.5, 0.25] + [0.0] * 5
        u1 = [0.0, 0.3, -0.2] + [0.0] * 5
        s = solve(d, 8, 1.5, u0, u1, 1.0)
        grid = TimeGrid.graded(1.0, 1024, 4.0)
        C = s.coefficients(grid.nodes)
        block = mode_ode_residual(s, [1, 2, 3], grid, C)
        scalar = [mode_ode_residual(s, n, grid, C) for n in (1, 2, 3)]
        assert all(isinstance(r, float) for r in block + scalar)
        assert block == pytest.approx(scalar, rel=1e-6)

    def test_residual_scale_is_the_largest_equation_term(self, interval_modes):
        d, modes = interval_modes
        s = solve(d, 8, 1.5, [2.0, -0.5, 1e-6] + [0.0] * 5, [0.0] * 8, 1.0)
        grid = TimeGrid.graded(1.0, 512, 4.0)
        C = s.coefficients(grid.nodes)
        peak = np.max(np.abs(C), axis=0)
        # lam_n max |c_n| for the first two modes, the floor 1 for the third
        expect = [modes.lam[0] * peak[0], modes.lam[1] * peak[1], 1.0]
        assert expect[0] > 1.0 and expect[1] > 1.0
        assert list(mode_residual_scale(s, [1, 2, 3], C)) == expect

    @pytest.mark.parametrize("shape", [(512, 8), (513, 7), (8, 513), (513,)])
    @pytest.mark.parametrize("data", [0.0, 1.0])
    @pytest.mark.parametrize("probe", ["mode", "weak", "apriori"])
    def test_table_shape_refused_before_any_work(
        self, interval_modes, monkeypatch, probe, data, shape
    ):
        # zero data or a zero test function would return early, so the
        # shape is checked first
        from fracplate import solver

        def no_work(*args, **kwargs):
            raise AssertionError("work before the table's shape was checked")

        monkeypatch.setattr(solver, "caputo_derivative", no_work)
        monkeypatch.setattr(solver, "fractional_norm", no_work)
        d, modes = interval_modes
        s = solve(d, 8, 1.5, [data] + [0.0] * 7, [0.0] * 8, 1.0)
        grid = TimeGrid.graded(1.0, 512, 4.0)
        call = {
            "mode": lambda C: mode_ode_residual(s, 1, grid, C),
            "weak": lambda C: weak_form_residual(s, [data] + [0.0] * 7, grid, C),
            "apriori": lambda C: apriori_estimate_check(s, grid, C),
        }[probe]
        with pytest.raises(ValueError, match=r"table of shape .* need \(513, 8\)"):
            call(np.zeros(shape))


class TestLifting:
    def test_round_trip(self, interval_modes):
        d, modes = interval_modes
        rng = np.random.default_rng(2)
        s = solve(
            d, 8, 1.5, rng.standard_normal(8), rng.standard_normal(8), 1.0
        )
        back = lift(lift(s, -0.5), 0.5)
        assert np.max(np.abs(back.u0 - s.u0)) < 1e-13 * np.max(np.abs(s.u0))

    def test_lift_commutes_with_solve(self, interval_modes):
        # solving lifted data equals lifting the solved coefficients
        d, modes = interval_modes
        rng = np.random.default_rng(4)
        u0, u1 = rng.standard_normal(8), rng.standard_normal(8)
        s = solve(d, 8, 1.5, u0, u1, 1.0)
        lam = s.lambdas
        s_pre = solve(d, 8, 1.5, u0 * lam**-0.5, u1 * lam**-0.5, 1.0)
        ts = np.linspace(0.0, 1.0, 9)
        a = lift(s, -0.5).coefficients(ts)
        b = s_pre.coefficients(ts)
        denom = np.maximum(np.abs(b), 1e-300)
        assert np.max(np.abs(a - b) / denom) < 1e-14

    def test_single_mode_decay_envelope(self, interval_modes):
        # |c_n(t)| <= |u0_n| + t |u1_n| sup|E_{a,2}| with the empirical bound
        # c_hat = max |E_{a,2}(z)| (1 + |z|) over a log-uniform sample of z < 0
        d, modes = interval_modes
        x = 10.0 ** np.linspace(-8.0, 8.0, 200)
        c_hat = float(np.max(np.abs(ml_profile(1.5, 2.0, -x)) * (1.0 + x)))
        s = solve(d, 8, 1.5, [0.7] + [0] * 7, [0.3] + [0] * 7, 1.0)
        ts = np.linspace(0.0, 1.0, 33)
        c = s.coefficients(ts)[:, 0]
        bound = 0.7 + ts * 0.3 * c_hat
        assert np.all(np.abs(c) <= bound + 1e-12)


class TestClassification:
    def test_fundamental_mode_unit_norms(self, interval_modes):
        d, modes = interval_modes
        tables = classify(solve(d, 8, 1.5, [1.0] + [0] * 7, [0] * 8, 1.0))
        assert set(tables) == {"u0", "u1"}
        for v in tables["u0"].values():
            assert v == pytest.approx(1.0)

    def test_velocity_dual_norm(self, interval_modes):
        d, modes = interval_modes
        u1 = [0.0] * 8
        u1[1] = 1.0
        tables = classify(solve(d, 8, 1.5, [0] * 8, u1, 1.0))
        assert tables["u1"]["theta=-0.25"] == pytest.approx(0.5)

    def test_decaying_data_finite_table(self, interval_modes):
        d, modes = interval_modes
        rng = np.random.default_rng(9)
        vals = rng.standard_normal(8) * np.arange(1, 9, dtype=float) ** -3
        tables = classify(solve(d, 8, 1.5, vals, vals, 1.0))
        assert all(math.isfinite(v) for v in tables["u0"].values())
        assert all(math.isfinite(v) for v in tables["u1"].values())


class TestAprioriEstimates:
    def test_vacuous_for_zero_data(self, interval_modes):
        d, modes = interval_modes
        s = solve(d, 8, 1.5, [0] * 8, [0] * 8, 1.0)
        grid = TimeGrid.graded(1.0, 512, 4.0)
        rep = apriori_estimate_check(s, grid, s.coefficients(grid.nodes))
        assert rep.get("vacuous") == 1.0

    def test_single_mode_ratio_finite(self, interval_modes):
        d, modes = interval_modes
        s = solve(d, 8, 1.5, [1.0] + [0] * 7, [0] * 8, 1.0)
        grid = TimeGrid.graded(1.0, 1024, 4.0)
        rep = apriori_estimate_check(s, grid, s.coefficients(grid.nodes))
        assert 0.0 < rep["ratio_dtalpha_l2"] < 10.0
        assert 0.0 < rep["ratio_gradlap_dtheta"] < 10.0

    def test_ratio_bounded_nonincreasing_as_modes_double(self):
        # regression-locked: the empirical ratio stays bounded and trends
        # down as the truncation doubles, which is the estimate's signature
        locks = [0.3906831731696096, 0.311751468447686, 0.2481085847546335]
        d = Interval(math.pi)
        grid = TimeGrid.graded(1.0, 1024, 4.0)
        ratios = []
        for N in (16, 32, 64):
            vals = np.arange(1, N + 1, dtype=float) ** -2
            s = solve(d, N, 1.5, vals, np.zeros(N), 1.0)
            rep = apriori_estimate_check(s, grid, s.coefficients(grid.nodes))
            ratios.append(rep["ratio_dtalpha_l2"])
        assert ratios[0] >= ratios[1] >= ratios[2] > 0.0
        for got, lock in zip(ratios, locks):
            assert got == pytest.approx(lock, rel=1e-6)


class TestRectangleSolutions:
    def test_anisotropic_rectangle_end_to_end(self):
        from fracplate.hidden_regularity import normal_trace, trace_energy
        from fracplate.spectral_domain import Rectangle

        d = Rectangle(1.0, 2.0)
        modes = eigenmodes(d, 6)
        rng = np.random.default_rng(31)
        u0 = rng.standard_normal(6) / np.arange(1, 7)
        u1 = rng.standard_normal(6) / np.arange(1, 7)
        s = solve(d, 6, 1.7, u0, u1, 0.8)

        # initial data reproduced coefficientwise
        c0 = s.coefficients(np.array([0.0]))[0]
        assert np.max(np.abs(c0 - u0)) < 1e-12

        # pointwise value against a direct per-mode sum
        t, x = 0.37, (0.4, 1.1)
        expect = 0.0
        for i, ((j, k), lam) in enumerate(zip(modes.index.tolist(), modes.lam)):
            e1 = ml_eval(1.7, 1.0, -lam * t**1.7)[0]
            e2 = ml_eval(1.7, 2.0, -lam * t**1.7)[0]
            # e_jk = (2 / sqrt(a b)) sin(j pi x / a) sin(k pi y / b), a = 1, b = 2
            e_jk = math.sqrt(2.0) * math.sin(j * math.pi * x[0])
            e_jk *= math.sin(k * math.pi * x[1] / 2.0)
            expect += (u0[i] * e1 + u1[i] * t * e2) * e_jk
        assert _u(s, t, x) == pytest.approx(expect, abs=1e-12)

        # lifting identity on the rectangle
        lam = s.lambdas
        s_pre = solve(d, 6, 1.7, u0 * lam**-0.5, u1 * lam**-0.5, 0.8)
        ts = np.linspace(0.0, 0.8, 5)
        a = lift(s, -0.5).coefficients(ts)
        b = s_pre.coefficients(ts)
        assert np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)) < 1e-14

        # finite positive trace energy
        grid = TimeGrid.graded(0.8, 256, 4.0)
        samples, w = normal_trace(s, grid)
        assert samples.shape == (len(grid), len(w))
        assert trace_energy(s, grid) > 0.0

    def test_mode_residual_on_rectangle(self):
        from fracplate.spectral_domain import Rectangle

        d = Rectangle(math.pi, math.pi)
        modes = eigenmodes(d, 4)
        u0 = [1.0, 0.0, 0.0, 0.0]
        s = solve(d, 4, 1.5, u0, [0.0] * 4, 1.0)
        grid = TimeGrid.graded(1.0, 1024, 4.0)
        lam = modes.lam[0]  # 4 on the pi x pi square
        r = mode_ode_residual(s, 1, grid, s.coefficients(grid.nodes))
        assert r <= 5e-3 * max(1.0, lam)
