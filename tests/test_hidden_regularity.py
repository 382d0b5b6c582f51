"""Traces, multiplier identities, and the direct-inequality probe."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from fracplate.families import _gaussian_draws, _ndtri, family_members, parse_family
from fracplate.fractional_calculus import TimeGrid, default_grading
from fracplate.hidden_regularity import (
    _FIRST_CHUNK,
    _multiplier_terms,
    direct_inequality_probe,
    filtered_identity_residual,
    filtered_identity_terms,
    normal_trace,
    static_multiplier_identity_residual,
    static_multiplier_identity_terms,
    trace_energy,
    trace_energy_ratios,
)
from fracplate.solver import lift, solve
from fracplate.spectral_domain import (
    Interval,
    Rectangle,
    boundary_quadrature,
    boundary_trace_factor,
    eigenmodes,
    fractional_norm,
    parse_domain,
)
from fracplate.special_functions import ml_eval, ml_profile


@pytest.fixture(scope="module")
def interval_setup():
    d = Interval(math.pi)
    modes = eigenmodes(d, 8)
    return d, modes


def _solution(d, u0, u1, alpha=1.5, T=1.0):
    return solve(d, len(u0), alpha, u0, u1, T)


def _data_energy(s):
    """||u0||_{H^1_0}^2 + ||u1||_{H^-1}^2 of a solution's data."""
    return (
        fractional_norm(s.lambdas, s.u0, 0.25) ** 2
        + fractional_norm(s.lambdas, s.u1, -0.25) ** 2
    )


def _projected_energy(s, grid):
    """Trace energy of a solution from the closed-form boundary factor, in
    the probe's contraction order: chunks of modes with edges 16, 32, 64,
    ..., each projected from the kernel tables onto the columns of P it
    reaches, the sum stored transposed."""
    t = grid.nodes
    Z = np.outer(-(t**s.alpha), s.lambdas)
    e1, e2 = ml_profile(s.alpha, 1.0, Z), ml_profile(s.alpha, 2.0, Z)
    P, w = boundary_trace_factor(s.modes, s.domain)
    S = np.zeros((P.shape[1], len(t)))
    lo = 0
    while lo < len(s.modes):
        hi = min(max(_FIRST_CHUNK, 2 * lo), len(s.modes))
        live = np.flatnonzero(P[lo:hi].any(axis=0))
        Q = P[lo:hi, live].T
        S[live] += (Q * s.u0[lo:hi]) @ e1[:, lo:hi].T + (
            (Q * s.u1[lo:hi]) @ e2[:, lo:hi].T
        ) * t
        lo = hi
    return float(np.trapezoid(w @ S**2, t))


def _lifted_laplacian(s):
    """lap w for the lifted solution w = A^(-1/2) u: data times -mu_n."""
    w = lift(s, -0.5)
    return replace(w, u0=-w.modes.mu * w.u0, u1=-w.modes.mu * w.u1)


class TestMultiplierField:
    # _multiplier_terms drops h . nu from the boundary term: the affine field
    # h = (2x - s)/s built from d.sides must have unit normal component at
    # every node boundary_quadrature returns
    @pytest.mark.parametrize(
        "d", [Interval(math.pi), Interval(2.0), Rectangle(math.pi, math.pi), Rectangle(1.0, 2.5)]
    )
    def test_normal_alignment(self, d):
        pts, _, normals = boundary_quadrature(d, 24)
        s = np.array(d.sides)
        hv = (2.0 * pts - s) / s
        assert np.max(np.abs(np.sum(hv * normals, axis=1) - 1.0)) < 1e-12


class TestNormalTrace:
    def test_zero_solution(self, interval_setup):
        d, modes = interval_setup
        s = _solution(d, [0.0] * 8, [0.0] * 8)
        grid = TimeGrid.graded(1.0, 512, 4.0)
        samples, _ = normal_trace(s, grid)
        assert np.max(np.abs(samples)) == 0.0
        assert trace_energy(s, grid) == 0.0

    def test_single_mode_trace_value(self, interval_setup):
        d, modes = interval_setup
        s = _solution(d, [1.0] + [0.0] * 7, [0.0] * 8)
        grid = TimeGrid.graded(1.0, 512, 4.0)
        samples, _ = normal_trace(s, grid)
        i = 300
        t = grid.nodes[i]
        expect = -math.sqrt(2 / math.pi) * ml_eval(1.5, 1.0, -(t**1.5))[0]
        assert samples[i, 0] == pytest.approx(expect, rel=1e-11)

    def test_lifted_sign_identity(self, interval_setup):
        # per-mode -mu lam^(-1/2) = -1, so d_nu lap w is exactly -trace(u)
        d, modes = interval_setup
        rng = np.random.default_rng(8)
        s = _solution(d, rng.standard_normal(8), rng.standard_normal(8))
        grid = TimeGrid.graded(1.0, 256, 4.0)
        tr_u, _ = normal_trace(s, grid)
        tr_d, _ = normal_trace(_lifted_laplacian(s), grid)
        scale = np.max(np.abs(tr_u))
        assert np.max(np.abs(tr_d + tr_u)) < 1e-13 * scale


class TestTraceEnergy:
    def test_single_mode_against_quadrature_oracle(self, interval_setup):
        # (4/pi) int_0^1 E_{3/2}(-t^{3/2})^2 dt; both endpoints carry 2/pi
        d, modes = interval_setup
        s = _solution(d, [1.0] + [0.0] * 7, [0.0] * 8)
        grid = TimeGrid.graded(1.0, 2048, 4.0)
        got = trace_energy(s, grid)
        oracle = (4 / math.pi) * quad(
            lambda t: ml_eval(1.5, 1.0, -(t**1.5))[0] ** 2,
            0.0,
            1.0,
            limit=200,
        )[0]
        assert got == pytest.approx(oracle, rel=1e-5)

    def test_quadratic_scaling(self, interval_setup):
        d, modes = interval_setup
        rng = np.random.default_rng(13)
        u0, u1 = rng.standard_normal(8), rng.standard_normal(8)
        grid = TimeGrid.graded(1.0, 256, 4.0)
        e1 = trace_energy(_solution(d, u0, u1), grid)
        e2 = trace_energy(_solution(d, 3.0 * u0, 3.0 * u1), grid)
        assert e2 == pytest.approx(9.0 * e1, rel=1e-12)


class TestStaticIdentity:
    def test_zero_function(self, interval_setup):
        d, modes = interval_setup
        assert static_multiplier_identity_residual(modes, np.zeros(8), d) == 0.0

    def test_sine_on_interval_reduction(self, interval_setup):
        # w = sin(x): 2 int w'''' h w''' = [h (w''')^2] - int h' (w''')^2
        d, modes = interval_setup
        w = [math.sqrt(math.pi / 2.0)]
        terms = static_multiplier_identity_terms(modes[:1], w, d)
        assert terms["lhs"] == pytest.approx(1.0, abs=1e-12)
        assert terms["boundary"] == pytest.approx(2.0, abs=1e-12)
        assert terms["jacobian"] == pytest.approx(-2.0, abs=1e-12)
        assert terms["divergence"] == pytest.approx(1.0, abs=1e-12)
        assert static_multiplier_identity_residual(modes[:1], w, d) < 1e-10

    @pytest.mark.parametrize(
        "d, i, c",
        [
            (Interval(math.pi), 0, math.sqrt(math.pi / 2.0)),  # w = sin(x)
            (Interval(2.0), 2, 0.7),
            (Rectangle(math.pi, math.pi), 1, -1.3),
            (Rectangle(1.0, 2.5), 0, 1.0),
            (Rectangle(1.3, 0.7), 1, 0.4),
        ],
        ids=["interval-pi", "interval-2", "square", "rect-1x2.5", "rect-1.3x0.7"],
    )
    def test_single_mode_closed_form(self, d, i, c):
        # w = c e with -lap e = mu e, h = (2x - s)/s: every term is closed form,
        # lhs = divergence = mu^3 c^2 sum(2/s_i) and
        # boundary = -jacobian = 4 mu^2 c^2 sum(p_i^2/s_i), p_i = index_i pi/s_i
        modes = eigenmodes(d, i + 1)[i:]
        terms = static_multiplier_identity_terms(modes, [c], d)
        s = np.array(d.sides)
        mu = modes.mu[0]
        p = modes.index[0] * math.pi / s
        interior = mu**3 * c**2 * np.sum(2.0 / s)
        edge = 4.0 * mu**2 * c**2 * np.sum(p**2 / s)
        assert terms["lhs"] == pytest.approx(interior, rel=1e-12)
        assert terms["divergence"] == pytest.approx(interior, rel=1e-12)
        assert terms["boundary"] == pytest.approx(edge, rel=1e-12)
        assert terms["jacobian"] == pytest.approx(-edge, rel=1e-12)

    def test_sixteen_mode_interval(self):
        d = Interval(math.pi)
        modes = eigenmodes(d, 16)
        rng = np.random.default_rng(21)
        w = rng.standard_normal(16) / np.arange(1, 17)
        terms = static_multiplier_identity_terms(modes, w, d)
        scale = max(abs(terms["lhs"]), abs(terms["boundary"]))
        assert static_multiplier_identity_residual(modes, w, d) < 1e-8 * scale

    def test_two_mode_square(self):
        d = Rectangle(math.pi, math.pi)
        modes = eigenmodes(d, 3)
        w = [1.0, 0.0, 1.0]  # e_{11} + e_{21}
        terms = static_multiplier_identity_terms(modes, w, d)
        scale = max(abs(terms["lhs"]), abs(terms["boundary"]))
        assert static_multiplier_identity_residual(modes, w, d) < 1e-8 * scale

    def test_spectral_convergence_under_quadrature_refinement(self):
        d = Rectangle(math.pi, math.pi)
        modes = eigenmodes(d, 4)
        w = np.array([0.8, -0.4, 0.4, 0.2])
        # the public identity fixes its order; the term assembly takes any
        res = []
        for order in (12, 28):
            lhs, bnd, jac, div = _multiplier_terms(modes, d, order, w, w)
            res.append(abs(lhs - (bnd + jac + div)))
        coarse, fine = res
        assert fine <= coarse
        assert fine < 1e-10

    @pytest.mark.parametrize("values", [[1.0], [1.0, 0.0, 0.0, 0.0, 0.0]])
    def test_one_value_per_mode(self, values):
        modes = eigenmodes(Rectangle(math.pi, math.pi), 4)
        with pytest.raises(ValueError, match="4 modes but"):
            static_multiplier_identity_terms(modes, values, Rectangle(math.pi, math.pi))


class TestFilteredIdentities:
    def test_vacuous_at_time_zero(self, interval_setup):
        d, modes = interval_setup
        s = _solution(d, [1.0] + [0.0] * 7, [0.0] * 8)
        grid = TimeGrid.graded(1.0, 512, 4.0)
        C = s.coefficients(grid.nodes)
        assert filtered_identity_residual(s, 0.25, grid, C, 0) == 0.0

    def test_zero_data(self, interval_setup):
        d, modes = interval_setup
        s = _solution(d, [0.0] * 8, [0.0] * 8)
        grid = TimeGrid.graded(1.0, 512, 4.0)
        C = s.coefficients(grid.nodes)
        assert filtered_identity_residual(s, 0.25, grid, C, 512) < 1e-300

    def test_single_mode_within_contract(self, interval_setup):
        d, modes = interval_setup
        s = _solution(d, [1.0] + [0.0] * 7, [0.0] * 8)
        grid = TimeGrid.graded(1.0, 2048, 4.0)
        C = s.coefficients(grid.nodes)
        r = filtered_identity_residual(s, 0.25, grid, C, 2048)
        terms = filtered_identity_terms(s, 0.25, grid, C, 2048)
        assert r <= 1e-3 * max(abs(terms["lhs_boundary"]), 1e-300)

    def test_decays_under_refinement(self, interval_setup):
        d, modes = interval_setup
        rng = np.random.default_rng(5)
        s = _solution(d, rng.standard_normal(8) / np.arange(1, 9),
                      rng.standard_normal(8) / np.arange(1, 9))
        res = []
        for M in (512, 1024, 2048):
            grid = TimeGrid.graded(1.0, M, 4.0)
            C = s.coefficients(grid.nodes)
            res.append(filtered_identity_residual(s, 0.25, grid, C, M))
        assert res[0] > res[1] > res[2]
        assert math.log2(res[1] / res[2]) >= 1.0

    def test_two_time_identity(self, interval_setup):
        d, modes = interval_setup
        s = _solution(d, [0.5, -0.3] + [0.0] * 6, [0.1, 0.2] + [0.0] * 6)
        grid = TimeGrid.graded(1.0, 1024, 4.0)
        C = s.coefficients(grid.nodes)
        assert filtered_identity_residual(s, 0.25, grid, C, 700, 700) == 0.0
        r = filtered_identity_residual(s, 0.25, grid, C, 1024, 512)
        r_swap = filtered_identity_residual(s, 0.25, grid, C, 512, 1024)
        assert r == pytest.approx(r_swap, rel=1e-12)
        assert r < 1e-2

    def test_two_time_terms_from_time_zero_are_the_one_time_terms(
        self, interval_setup
    ):
        # tau = 0 (the exact filter at t = 0) subtracts zeros: every term is
        # the one-time term at M to rounding; the product of two weight rows
        # can round the row at M an ulp apart from the one-row product
        d, modes = interval_setup
        s = _solution(d, [0.5, -0.3] + [0.0] * 6, [0.1, 0.2] + [0.0] * 6)
        grid = TimeGrid.graded(1.0, 512, 4.0)
        C = s.coefficients(grid.nodes)
        one = filtered_identity_terms(s, 0.25, grid, C, 512)
        two = filtered_identity_terms(s, 0.25, grid, C, 512, 0)
        assert two == pytest.approx(one, rel=1e-15, abs=0.0)

    def test_beta_domain_enforced(self, interval_setup):
        d, modes = interval_setup
        s = _solution(d, [1.0] + [0.0] * 7, [0.0] * 8)
        grid = TimeGrid.graded(1.0, 512, 4.0)
        with pytest.raises(ValueError):
            filtered_identity_residual(s, 1.5, grid, s.coefficients(grid.nodes), 10)

    @pytest.mark.parametrize("M", [256, 257])
    def test_refinement_residuals_from_one_table(self, interval_setup, monkeypatch, M):
        # identities and criterion 5 take both residuals at a grid's last
        # node and the boundary term there from one coefficient table; the
        # public functions form none of their own, and each value equals
        # its call on a table of its own
        from fracplate.solver import SpectralSolution

        d, modes = interval_setup
        rng = np.random.default_rng(3)
        s = _solution(d, rng.standard_normal(8) / np.arange(1, 9),
                      rng.standard_normal(8) / np.arange(1, 9))
        grid = TimeGrid.graded(1.0, M, 4.0)

        def values(table):
            return (
                filtered_identity_residual(s, 0.25, grid, table(), M),
                filtered_identity_residual(s, 0.25, grid, table(), M, M // 2),
                filtered_identity_terms(s, 0.25, grid, table(), M)["lhs_boundary"],
            )

        expected = values(lambda: s.coefficients(grid.nodes))
        tables = []
        coefficients = SpectralSolution.coefficients
        monkeypatch.setattr(
            SpectralSolution, "coefficients",
            lambda self, t: tables.append(len(t)) or coefficients(self, t),
        )
        C = s.coefficients(grid.nodes)
        assert values(lambda: C) == expected
        assert tables == [M + 1]

    @pytest.mark.parametrize("shape", [(512, 8), (513, 7), (8, 513), (513,)])
    @pytest.mark.parametrize("t_index, tau_index", [(512, None), (0, None), (9, 9)])
    @pytest.mark.parametrize("identity", ["terms", "residual"])
    def test_table_shape_refused_before_any_work(
        self, interval_setup, monkeypatch, identity, t_index, tau_index, shape
    ):
        # at t = 0, or at t = tau, the residual would return 0 without work,
        # so the shape is checked first
        from fracplate import hidden_regularity

        def no_work(*args, **kwargs):
            raise AssertionError("work before the table's shape was checked")

        for name in ("rl_integral_matrix", "_filtered_exact", "_multiplier_terms"):
            monkeypatch.setattr(hidden_regularity, name, no_work)
        d, modes = interval_setup
        s = _solution(d, [1.0] + [0.0] * 7, [0.0] * 8)
        grid = TimeGrid.graded(1.0, 512, 4.0)
        fn = {"terms": filtered_identity_terms,
              "residual": filtered_identity_residual}[identity]
        with pytest.raises(ValueError, match=r"table of shape .* need \(513, 8\)"):
            fn(s, 0.25, grid, np.zeros(shape), t_index, tau_index)


class TestFamilies:
    def test_parse(self):
        assert parse_family("single-u1") == ("single-u1", {})
        assert parse_family("decay:1.5") == ("decay", {"p": 1.5})
        assert parse_family("decay:2.0") == ("decay", {"p": 2.0})
        for bogus in ("bogus", "decay", "decay:1:2"):
            with pytest.raises(ValueError):
                parse_family(bogus)

    def test_single_sweeps(self):
        u0, u1 = family_members("single-u0", 4)
        assert len(u0) == 4
        assert u0[2].tolist() == [0.0, 0.0, 1.0, 0.0]
        assert np.all(u1[2] == 0.0)

    @pytest.mark.parametrize("spec", ["single-u0", "single-u1", "decay:1.5"])
    def test_rows_are_the_member_vectors(self, spec):
        # row m of each matrix is bit for bit member m built on its own: a
        # unit vector and zeros for the sweeps, its Philox draws for decay
        N, members = 12, 5
        ref = []
        if spec == "decay:1.5":
            decay = np.arange(1, N + 1, dtype=float) ** -1.5
            for m in range(members):
                g = _gaussian_draws(9, m, 2 * N)
                ref.append((g[:N] * decay, g[N:] * decay))
        else:
            for n in range(N):
                unit = np.zeros(N)
                unit[n] = 1.0
                ref.append((unit, np.zeros(N)) if spec == "single-u0" else (np.zeros(N), unit))
        u0, u1 = family_members(spec, N, seed=9, members=members)
        assert u0.shape == u1.shape == (len(ref), N)
        assert u0.dtype == u1.dtype == np.float64
        for a, b, (ref_a, ref_b) in zip(u0, u1, ref):
            assert a.tobytes() == ref_a.tobytes() and b.tobytes() == ref_b.tobytes()

    @pytest.mark.parametrize("members", [0, -1])
    def test_no_members_is_an_empty_matrix(self, members):
        u0, u1 = family_members("decay:1.5", 8, members=members)
        assert u0.shape == u1.shape == (0, 8)

    def test_decay_reproducible_and_nested(self):
        a = family_members("decay:1.5", 16, seed=42, members=3)
        b = family_members("decay:1.5", 16, seed=42, members=3)
        for (u0a, u1a), (u0b, u1b) in zip(zip(*a), zip(*b)):
            assert np.array_equal(u0a, u0b) and np.array_equal(u1a, u1b)
        # u0 at a smaller N is a prefix of u0 at a larger N; u1 is not,
        # because it takes the draws after the first N
        c = family_members("decay:1.5", 8, seed=42, members=3)
        for (u0c, u1c), (u0a, u1a) in zip(zip(*c), zip(*a)):
            assert np.array_equal(u0c, u0a[:8])
            assert not np.array_equal(u1c, u1a[:8])

    def test_probe_draws_at_the_largest_N(self):
        # R(16) depends on the largest N of the schedule through u1
        d = Interval(math.pi)
        r16 = [
            direct_inequality_probe(
                d, 1.5, 1.0, "decay:1.5", schedule, time_nodes=128
            )["per_N"]["16"]["R"]
            for schedule in ([16, 32], [16, 64])
        ]
        assert r16 == pytest.approx([0.34438934270703037, 0.37137662424546686], rel=1e-9)

    def test_seed_changes_stream(self):
        a = family_members("decay:1.5", 8, seed=1, members=1)[0][0]
        b = family_members("decay:1.5", 8, seed=2, members=1)[0][0]
        assert not np.array_equal(a, b)


class TestInverseNormal:
    # the clipped range of the family draws, including both clip ends, the
    # AS 241 branch points (|p - 1/2| = 0.425, r = 5) and deep tails
    _P = np.concatenate(
        [
            np.clip(
                np.random.Generator(np.random.Philox(key=[7, 0])).random(20000),
                1e-300,
                1.0 - 1e-16,
            ),
            np.geomspace(1e-300, 0.5, 4000),
            1.0 - np.geomspace(1e-16, 0.5, 4000),
            [1e-300, 0.075, 0.925, math.exp(-25.0), 0.5 + 2**-53, 1.0 - 1e-16],
        ]
    )

    def test_against_scipy(self):
        from scipy.special import ndtri

        got, ref = _ndtri(self._P), ndtri(self._P)
        assert np.all(np.abs(got - ref) <= 2e-15 * np.abs(ref))

    def test_odd_symmetry_in_the_central_region(self):
        # 1 - p is exact for p in [1/2, 1], so the pair is exactly symmetric
        p = np.linspace(0.5, 0.925, 10001)
        assert np.array_equal(_ndtri(1.0 - p), -_ndtri(p))

    def test_monotone(self):
        p = np.sort(
            np.concatenate(
                [
                    self._P,
                    np.linspace(0.07, 0.08, 20001),
                    np.linspace(0.92, 0.93, 20001),
                    math.exp(-25.0) * np.linspace(0.999, 1.001, 20001),
                ]
            )
        )
        assert np.all(np.diff(_ndtri(p)) >= 0.0)


class TestDirectInequalityProbe:
    def test_single_mode_u0_regression(self):
        # (4/pi) int_0^1 E_{3/2}(-t^{3/2})^2 dt against H^1_0 norm 1
        from fracplate.acceptance import REGRESSION_LOCKS

        d = Interval(math.pi)
        s = solve(d, 4, 1.5, [1.0, 0, 0, 0], [0.0] * 4, 1.0)
        grid = TimeGrid.graded(1.0, 512, default_grading(1.5))
        ratio = trace_energy(s, grid)
        assert ratio == pytest.approx(REGRESSION_LOCKS["u0_single_mode_ratio"], rel=1e-6)
        oracle = (4 / math.pi) * quad(
            lambda t: ml_eval(1.5, 1.0, -(t**1.5))[0] ** 2, 0, 1, limit=200
        )[0]
        assert ratio == pytest.approx(oracle, rel=1e-4)

    def test_scaling_invariance(self):
        d = Interval(math.pi)
        base = direct_inequality_probe(
            d, 1.5, 1.0, "decay:1.5", [4, 8], seed=42, members=2, time_nodes=128
        )
        # scaling all data by 7 leaves ratios unchanged: both sides quadratic;
        # realized here by the homogeneity of the ratio in the probe members
        u0, u1 = (x[0] for x in family_members("decay:1.5", 8, seed=42, members=1))
        grid = TimeGrid.graded(1.0, 128, default_grading(1.5))

        def ratio(scale):
            s = solve(d, 8, 1.5, scale * u0, scale * u1, 1.0)
            den = (
                fractional_norm(s.lambdas, s.u0, 0.25) ** 2
                + fractional_norm(s.lambdas, s.u1, -0.25) ** 2
            )
            return trace_energy(s, grid) / den

        assert ratio(1.0) == pytest.approx(ratio(7.0), rel=1e-12)
        assert all(math.isfinite(row["R"]) for row in base["per_N"].values())

    @pytest.mark.parametrize("d", [Interval(math.pi), Rectangle(math.pi, math.pi)])
    def test_equals_per_member_solutions(self, d):
        # reference: one solve, kernel tables and boundary factor per member
        # and N, on prefixes of the family drawn at the largest N; 40 takes
        # the chunks [0, 16), [16, 32) and [32, 40)
        grid = TimeGrid.graded(1.0, 128, default_grading(1.5))
        rep = direct_inequality_probe(
            d, 1.5, 1.0, "decay:1.5", [8, 16, 40], seed=42, members=3, time_nodes=128
        )
        family = family_members("decay:1.5", 40, seed=42, members=3)
        for key, row in rep["per_N"].items():
            N = int(key)
            ratios = []
            for u0, u1 in zip(*family):
                s = _solution(d, u0[:N], u1[:N])
                ratios.append(_projected_energy(s, grid) / _data_energy(s))
            assert row["R"] == max(ratios)
            assert row["argmax_member"] == int(np.argmax(ratios))

    @pytest.mark.parametrize(
        "spec", ["rectangle:pixpi", "rectangle:1.3x0.7", "rectangle:1x2.5"]
    )
    def test_ratios_agree_with_quadrature_oracle(self, spec):
        # the probe's closed-form trace energy against boundary quadrature:
        # one solve / normal_trace / trace_energy per member and N
        d = parse_domain(spec)
        grid = TimeGrid.graded(1.0, 64, default_grading(1.5))
        members = family_members("decay:1.5", 256, seed=3, members=2)
        schedule = [1, 16, 256]
        rows = trace_energy_ratios(d, 1.5, grid, *members, schedule)
        for N, row in zip(schedule, rows):
            for ratio, u0, u1 in zip(row, *members):
                s = _solution(d, u0[:N], u1[:N])
                oracle = trace_energy(s, grid) / _data_energy(s)
                assert ratio == pytest.approx(oracle, rel=1e-13)

    def test_memory_beyond_kernel_tables(self):
        # the two kernel tables are 4.2 MB at 129 x 2048; a gradient tensor
        # on the 848 boundary nodes that N = 2048 would need is 28 MB
        d = Rectangle(math.pi, math.pi)
        grid = TimeGrid.graded(1.0, 128, default_grading(1.5))
        members = family_members("decay:1.5", 2048, seed=5, members=2)
        trace_energy_ratios(d, 1.5, grid, *members, [16])  # warm kernel caches
        tables = 2 * len(grid.nodes) * 2048 * 8
        tracemalloc.start()
        try:
            trace_energy_ratios(d, 1.5, grid, *members, [1024, 2048])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= tables + 16e6

    def test_memory_of_member_tables(self):
        # the kernel boxes below the staircase are 11% of the two tables of
        # times x N_max, and the probe peaks at 0.7 tables; a member table,
        # with full kernel tables, would make four
        d = Interval(math.pi)
        grid = TimeGrid.graded(1.0, 512, default_grading(1.5))
        u0, u1 = family_members("decay:1.5", 1024, members=8)
        schedule = [256, 512, 1024]
        trace_energy_ratios(d, 1.5, grid, u0, u1, schedule)  # warm kernel caches
        table = len(grid.nodes) * 1024 * 8
        tracemalloc.start()
        try:
            trace_energy_ratios(d, 1.5, grid, u0, u1, schedule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.75 * table

    def test_zero_energy_member_is_skipped(self):
        d = Interval(math.pi)
        grid = TimeGrid.graded(1.0, 64, default_grading(1.5))
        u0, u1 = (np.vstack([np.zeros((1, 8)), live])
                  for live in family_members("decay:1.5", 8, members=1))
        rows = trace_energy_ratios(d, 1.5, grid, u0, u1, [4, 8])
        assert [r[0] for r in rows] == [-1.0, -1.0]
        assert all(r[1] > 0.0 for r in rows)

    @pytest.mark.parametrize("d", [Interval(math.pi), Rectangle(math.pi, 2.0)])
    def test_unsorted_schedule_equals_single_n_calls(self, d):
        # rows follow the schedule's own order, and each is bit-equal to a
        # call with that N alone (tables and coefficients built at N only)
        grid = TimeGrid.graded(1.0, 64, default_grading(1.5))
        u0, u1 = family_members("decay:1.5", 16, seed=7, members=3)
        schedule = [16, 8, 12]
        rows = trace_energy_ratios(d, 1.5, grid, u0, u1, schedule)
        for N, row in zip(schedule, rows):
            alone = trace_energy_ratios(d, 1.5, grid, u0[:, :N], u1[:, :N], [N])
            assert row == alone[0]

    @pytest.mark.parametrize("d", [Interval(math.pi), Rectangle(math.pi, 2.0)])
    def test_entries_between_chunk_edges_equal_single_n_calls(self, d):
        # chunk edges 16, 32, 64: 40 and 100 end between edges, 33 just past
        # one, 64 on one; each entry is bit-equal to a call with its N alone
        grid = TimeGrid.graded(1.0, 64, default_grading(1.5))
        u0, u1 = family_members("decay:1.5", 100, seed=9, members=2)
        schedule = [100, 16, 40, 64, 33]
        rows = trace_energy_ratios(d, 1.5, grid, u0, u1, schedule)
        for N, row in zip(schedule, rows):
            alone = trace_energy_ratios(d, 1.5, grid, u0[:, :N], u1[:, :N], [N])
            assert row == alone[0]

    def test_best_member_is_the_first_largest_ratio(self, monkeypatch):
        # no positive ratio gives R = 0 and member -1; a tie goes to the
        # first member
        from fracplate import hidden_regularity

        monkeypatch.setattr(
            hidden_regularity,
            "trace_energy_ratios",
            lambda *args: [[-1.0, 0.0, -1.0], [0.25, 0.5, 0.5]],
        )
        rep = direct_inequality_probe(
            Interval(math.pi), 1.5, 1.0, "decay:1.5", [4, 8], members=3
        )
        assert rep["per_N"] == {
            "4": {"R": 0.0, "argmax_member": -1},
            "8": {"R": 0.5, "argmax_member": 1},
        }

    @pytest.mark.parametrize("spec, members", [("decay:1.5", 0), ("decay:1.5", -1)])
    def test_empty_family_rejected(self, spec, members):
        with pytest.raises(ValueError, match="no members"):
            direct_inequality_probe(
                Interval(math.pi), 1.5, 1.0, spec, [4, 8], members=members
            )

    def test_growth_factor_bounded_small_schedule(self):
        d = Interval(math.pi)
        rep = direct_inequality_probe(
            d, 1.5, 1.0, "decay:1.5", [8, 16, 32], seed=42, members=4, time_nodes=256
        )
        assert rep["growth_factor_max"] <= 1.25
        assert all(math.isfinite(row["R"]) for row in rep["per_N"].values())


def _full_table_ratios(d, alpha, grid, u0, u1, schedule):
    """trace_energy_ratios from full ml_profile tables at every N and the
    dense projection of each member's coefficient table onto P."""
    t = grid.nodes
    modes = eigenmodes(d, max(schedule))
    P, w = boundary_trace_factor(modes, d)
    rows = []
    for N in schedule:
        lam = modes.lam[:N]
        Z = np.outer(-(t**alpha), lam)
        e1, e2 = ml_profile(alpha, 1.0, Z), ml_profile(alpha, 2.0, Z)
        row = []
        for a, b in zip(u0[:, :N], u1[:, :N]):
            C = e1 * a + (e2 * b) * t[:, None]
            energy = float(np.trapezoid((C @ P[:N]) ** 2 @ w, t))
            denom = fractional_norm(lam, a, 0.25) ** 2
            denom += fractional_norm(lam, b, -0.25) ** 2
            row.append(energy / denom)
        rows.append(row)
    return rows


def _counting_ml_profile(monkeypatch):
    """Route the probe's ml_profile calls through a wrapper; returns the list
    of their point counts."""
    from fracplate import hidden_regularity

    sizes = []

    def counting(alpha, beta, z):
        sizes.append(np.size(z))
        return ml_profile(alpha, beta, z)

    monkeypatch.setattr(hidden_regularity, "ml_profile", counting)
    return sizes


class TestKernelStaircase:
    # the probe evaluates ml_profile on a staircase of whole chunks and the
    # K-term far form above it

    @pytest.mark.parametrize("horizon", [0.01, 1.0, 10.0])
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9, 1.99])
    @pytest.mark.parametrize("spec", ["interval:pi", "rectangle:pixpi"])
    def test_equals_full_table_oracle(self, spec, alpha, horizon, monkeypatch):
        d = parse_domain(spec)
        grid = TimeGrid.graded(horizon, 128, default_grading(alpha))
        u0, u1 = family_members("decay:1.5", 256, seed=4, members=3)
        schedule = [16, 40, 256]
        sizes = _counting_ml_profile(monkeypatch)
        rows = trace_energy_ratios(d, alpha, grid, u0, u1, schedule)
        oracle = _full_table_ratios(d, alpha, grid, u0, u1, schedule)
        for row, ref in zip(rows, oracle):
            assert np.allclose(row, ref, rtol=1e-14, atol=0.0)
        # the far form serves the long horizon at moderate alpha
        if horizon == 10.0 and alpha <= 1.9:
            assert sizes[0] < len(grid.nodes) * 256

    def test_ml_profile_sees_only_the_staircase(self, monkeypatch):
        # one call per order, on at most 15% of the two kernel tables: a probe
        # that fell back to full tables would pass the oracle but fail here
        d = Interval(math.pi)
        grid = TimeGrid.graded(1.0, 512, default_grading(1.5))
        u0, u1 = family_members("decay:1.5", 1024, members=2)
        sizes = _counting_ml_profile(monkeypatch)
        trace_energy_ratios(d, 1.5, grid, u0, u1, [256, 512, 1024])
        assert len(sizes) == 2
        assert sum(sizes) <= 0.15 * 2 * len(grid.nodes) * 1024

    def test_memory_below_half_a_table(self):
        # at N = 8192 the boxes are 3% of the kernel tables, and no times x N
        # array is formed
        d = Interval(math.pi)
        grid = TimeGrid.graded(1.0, 512, default_grading(1.5))
        u0, u1 = family_members("decay:1.5", 8192, members=2)
        schedule = [1024, 8192]
        trace_energy_ratios(d, 1.5, grid, u0, u1, schedule)  # warm kernel caches
        table = len(grid.nodes) * 8192 * 8
        tracemalloc.start()
        try:
            trace_energy_ratios(d, 1.5, grid, u0, u1, schedule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * table

    def test_box_memory_near_order_two_is_bounded(self, monkeypatch):
        # at alpha = 1.999 the boxes are half of the kernel tables (2048
        # modes, 513 times), in chunks of up to 513 x 1024 points; beside the
        # two boxes the probe holds at most 40 bytes per point of the budget
        # (the arguments, ml_profile's output and working arrays, 5.2 MB).
        # Boxes evaluated in one piece held 6.9 MB.
        from fracplate import hidden_regularity

        d = Interval(math.pi)
        grid = TimeGrid.graded(1.0, 512, default_grading(1.999))
        u0, u1 = family_members("decay:1.5", 2048, members=2)
        sizes = _counting_ml_profile(monkeypatch)
        trace_energy_ratios(d, 1.999, grid, u0, u1, [16, 2048])
        assert max(sizes) <= hidden_regularity._BOX_POINTS
        boxes = 8 * sum(sizes)
        monkeypatch.undo()
        tracemalloc.start()
        try:
            trace_energy_ratios(d, 1.999, grid, u0, u1, [16, 2048])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert boxes >= 0.5 * 2 * len(grid.nodes) * 2048 * 8
        assert peak <= boxes + 40 * hidden_regularity._BOX_POINTS


class TestTraceInvariants:
    def test_per_mode_trace_factorization(self, interval_setup):
        # trace of a sum is the sum of per-mode traces, to round-off
        d, modes = interval_setup
        grid = TimeGrid.graded(1.0, 128, 4.0)
        u0 = np.array([0.5, -0.3, 0.2, 0.0, 0.1, 0.0, 0.0, -0.05])
        u1 = np.array([0.1, 0.0, -0.2, 0.3, 0.0, 0.0, 0.05, 0.0])
        total, _ = normal_trace(_solution(d, u0, u1), grid)
        acc = np.zeros_like(total)
        for i in range(8):
            sel0 = np.zeros(8)
            sel1 = np.zeros(8)
            sel0[i] = u0[i]
            sel1[i] = u1[i]
            acc += normal_trace(_solution(d, sel0, sel1), grid)[0]
        assert np.max(np.abs(total - acc)) < 1e-13 * max(np.max(np.abs(total)), 1.0)

    def test_probe_ratio_stable_under_time_refinement(self):
        # quadrature refinement moves the reported ratios by under 1%
        d = Interval(math.pi)
        reps = [
            direct_inequality_probe(
                d, 1.5, 1.0, "decay:1.5", [8], seed=42, members=2, time_nodes=tn
            )
            for tn in (256, 512)
        ]
        r1 = reps[0]["per_N"]["8"]["R"]
        r2 = reps[1]["per_N"]["8"]["R"]
        assert abs(r1 - r2) / r2 < 0.01


@pytest.fixture(scope="module")
def square_setup():
    d = Rectangle(math.pi, math.pi)
    return d, eigenmodes(d, 6)


class TestRectangleDomain:

    def test_trace_sign_identity_on_square(self, square_setup):
        d, modes = square_setup
        rng = np.random.default_rng(17)
        s = solve(d, 6, 1.5, rng.standard_normal(6), rng.standard_normal(6), 1.0)
        grid = TimeGrid.graded(1.0, 128, 4.0)
        tr_u, _ = normal_trace(s, grid)
        tr_d, _ = normal_trace(_lifted_laplacian(s), grid)
        scale = np.max(np.abs(tr_u))
        assert np.max(np.abs(tr_d + tr_u)) < 1e-12 * scale

    def test_single_mode_trace_energy_oracle(self, square_setup):
        # u1 = e_{11} on the pi x pi square: each edge contributes
        # (4/pi^2) * (pi/2) = 2/pi to the boundary integral of |d_nu e|^2,
        # so energy = (8/pi) int c(t)^2 dt with c = t E_{3/2,2}(-4 t^{3/2})
        d, modes = square_setup
        u1 = np.zeros(6)
        u1[0] = 1.0
        s = solve(d, 6, 1.5, np.zeros(6), u1, 1.0)
        grid = TimeGrid.graded(1.0, 2048, 4.0)
        got = trace_energy(s, grid)
        lam = modes.lam[0]
        oracle = (8.0 / math.pi) * quad(
            lambda t: (t * ml_eval(1.5, 2.0, -lam * t**1.5)[0]) ** 2,
            0.0,
            1.0,
            limit=300,
        )[0]
        assert got == pytest.approx(oracle, rel=1e-4)

    def test_filtered_identity_within_contract(self, square_setup):
        d, modes = square_setup
        rng = np.random.default_rng(23)
        s = solve(d, 6, 1.5, rng.standard_normal(6) / np.arange(1, 7), rng.standard_normal(6) / np.arange(1, 7), 1.0)
        res = []
        for M in (512, 1024):
            grid = TimeGrid.graded(1.0, M, 4.0)
            C = s.coefficients(grid.nodes)
            res.append(filtered_identity_residual(s, 0.25, grid, C, M))
        terms = filtered_identity_terms(s, 0.25, grid, C, 1024)
        assert res[1] <= 1e-3 * max(abs(terms["lhs_boundary"]), 1e-300)
        assert res[0] > res[1]

    def test_probe_on_square_is_finite(self, square_setup):
        d, _ = square_setup
        rep = direct_inequality_probe(
            d, 1.5, 1.0, "decay:1.5", [4, 8], seed=42, members=2, time_nodes=128
        )
        assert all(
            math.isfinite(row["R"]) and row["R"] > 0 for row in rep["per_N"].values()
        )
