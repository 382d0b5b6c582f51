"""Fractional integrals, Caputo pipeline, and time-Sobolev seminorms."""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracplate.fractional_calculus import (
    TimeGrid,
    caputo_derivative,
    default_grading,
    gagliardo_seminorm,
    grid_derivative,
    rl_integral,
    rl_integral_matrix,
)
from fracplate.fractional_calculus import _derivative_stencils
from fracplate import fractional_calculus


class TestTimeGrid:
    def test_graded_nodes_law(self):
        g = TimeGrid.graded(2.0, 8, 3.0)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 2.0
        assert g.nodes[4] == pytest.approx(2.0 * 0.5**3)

    def test_default_grading(self):
        assert default_grading(1.5) == 4.0
        assert default_grading(1.8) == pytest.approx(2.5)
        assert default_grading(1.2) == 4.0  # capped

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, np.array([0.1, 0.5, 1.0]))
        with pytest.raises(ValueError):
            TimeGrid(1.0, np.array([0.0, 0.5, 0.5, 1.0]))

    def test_coarsen_preserves_grading_law(self):
        # every other node of a graded grid is the graded grid of half the cells
        g = TimeGrid.graded(1.0, 16, 2.0)
        c = TimeGrid(1.0, g.nodes[::2])
        ref = TimeGrid.graded(1.0, 8, 2.0)
        assert np.allclose(c.nodes, ref.nodes, rtol=0, atol=0)


def _reference_moments(a, b, d, beta):
    """Both weights per unit width of each cell of one row, divided by
    Gamma(beta): the far-field series where the midpoint distance c = a + h
    exceeds 100 half-widths h, the closed form elsewhere."""
    w0 = 1.0 / math.gamma(beta)
    bk = [1.0]  # binom(beta - 1, k)
    for k in range(1, 8):
        bk.append(bk[-1] * (beta - k) / k)
    e = [w0 * bk[k] / (k + 1) for k in (0, 2, 4, 6)]
    o = [w0 * bk[k] / (k + 2) for k in (1, 3, 5, 7)]
    h = 0.5 * d
    c = a + h
    rho = h / c
    p = c**beta * rho
    r2 = rho * rho
    even_sum = ((e[3] * r2 + e[2]) * r2 + e[1]) * r2 + e[0]
    odd_sum = (((o[3] * r2 + o[2]) * r2 + o[1]) * r2 + o[0]) * rho
    Hd = (even_sum + odd_sum) * p
    Gd = (even_sum - odd_sum) * p
    near = c <= 100.0 * h
    with np.errstate(divide="ignore"):
        logr = np.log1p(-d[near] / b[near])
    bn, an = b[near], a[near]
    qb = -np.expm1(beta * logr) * bn**beta
    qb1 = -np.expm1((beta + 1.0) * logr) * bn ** (beta + 1.0)
    Hd[near] = w0 * (qb1 / (beta + 1.0) - an * qb / beta) / d[near]
    Gd[near] = w0 * (bn * qb / beta - qb1 / (beta + 1.0)) / d[near]
    return Hd, Gd


def _reference_tile(grid, beta, rows):
    """The (Hd, Gd) tile of ``rows``, built by a Python loop over the rows."""
    t = grid.nodes
    m = max(rows)
    Hd = np.zeros((len(rows), m))
    Gd = np.zeros((len(rows), m))
    for r, n in enumerate(rows):
        dl = t[n] - t[:n]
        dr = t[n] - t[1 : n + 1]
        dx = t[1 : n + 1] - t[:n]
        Hd[r, :n], Gd[r, :n] = _reference_moments(dr, dl, dx, beta)
    return Hd, Gd


def _reference_rows(grid, beta, rows):
    """rl_integral_matrix built by a Python loop over the requested rows."""
    W = np.zeros((len(rows), len(grid)))
    if len(rows):
        Hd, Gd = _reference_tile(grid, beta, rows)
        m = Hd.shape[1]
        W[:, :m] += Hd
        W[:, 1 : m + 1] += Gd
    return W


def _exact_rows(grid, beta, rows):
    """Weight rows from the exact moments at 60 digits (nodes and beta taken
    as the floats they are)."""
    W = np.zeros((len(rows), len(grid)))
    with mpmath.workdps(60):
        B = mpmath.mpf(beta)
        t = [mpmath.mpf(float(x)) for x in grid.nodes]
        scale = 1 / mpmath.gamma(B)
        for r, n in enumerate(rows):
            w = [mpmath.mpf(0)] * (n + 1)
            for j in range(n):
                a, b, d = t[n] - t[j + 1], t[n] - t[j], t[j + 1] - t[j]
                qb = b**B - a**B
                q1 = (b ** (B + 1) - a ** (B + 1)) / (B + 1)
                w[j] += (q1 - a * qb / B) / d
                w[j + 1] += (b * qb / B - q1) / d
            W[r, : n + 1] = [float(x * scale) for x in w]
    return W


def _oracle_grids():
    grids = {
        f"graded{gamma}-M{M}": TimeGrid.graded(1.0, M, gamma)
        for gamma in (1.0, 2.5, 4.0)
        for M in (5, 31, 33, 700, 1500)
    }
    grids["uniform-T2"] = TimeGrid.uniform(2.0, 300)
    inner = np.sort(np.random.default_rng(11).random(399))
    grids["irregular"] = TimeGrid(1.0, np.concatenate([[0.0], inner, [1.0]]))
    return grids


_ORACLE_GRIDS = _oracle_grids()


def _product(W, f):
    """W @ f, summed in extended precision where the platform has it, so
    that the reference adds little rounding of its own."""
    return (W.astype(np.longdouble) @ f.astype(np.longdouble)).astype(float)


def _test_columns(grid):
    """cos t, t^1.5 and a seeded normal draw, one column each."""
    t = grid.nodes
    normal = np.random.default_rng(5).standard_normal(len(t))
    return np.column_stack([np.cos(t), t**1.5, normal])


def _row_sets(M):
    """All rows; unsorted with duplicates, 0 and M; one row; none."""
    return [np.arange(M + 1), [M, 0, M // 2, 1, M, 0, M // 3, M - 1], [M // 2], []]


class TestRLIntegral:
    def test_constant_input(self):
        g = TimeGrid.graded(1.0, 256, 3.0)
        for beta in (0.25, 0.5, 1.0):
            out = rl_integral(g, np.ones(257), beta)
            exact = g.nodes**beta / math.gamma(beta + 1.0)
            assert np.max(np.abs(out - exact)) < 1e-13
            assert out[0] == 0.0

    def test_linear_input_euler_beta_oracle(self):
        # int_0^t (t-tau)^(beta-1) tau dtau = Beta(beta,2) t^(beta+1)
        g = TimeGrid.graded(1.0, 256, 3.0)
        for beta in (0.3, 0.75):
            out = rl_integral(g, g.nodes, beta)
            with mpmath.workdps(30):
                scale = float(mpmath.beta(beta, 2) / mpmath.gamma(beta))
            exact = scale * g.nodes ** (beta + 1.0)
            assert np.max(np.abs(out - exact)) < 1e-13

    def test_beta_one_is_running_integral(self):
        g = TimeGrid.uniform(1.0, 512)
        out = rl_integral(g, np.cos(g.nodes), 1.0)
        assert np.max(np.abs(out - np.sin(g.nodes))) < 5e-7  # O(h^2)

    def test_power_rule(self):
        g = TimeGrid.graded(1.0, 2048, 3.0)
        for g_exp in (0.0, 1.0, 2.0):
            out = rl_integral(g, g.nodes**g_exp, 0.5)
            exact = math.gamma(g_exp + 1.0) / math.gamma(g_exp + 1.5)
            assert abs(out[-1] - exact) / exact < 1e-6

    def test_linearity(self):
        g = TimeGrid.uniform(1.0, 128)
        f1 = np.sin(3 * g.nodes)
        f2 = g.nodes**2
        a, b = 2.5, -1.25
        lhs = rl_integral(g, a * f1 + b * f2, 0.4)
        rhs = a * rl_integral(g, f1, 0.4) + b * rl_integral(g, f2, 0.4)
        assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_semigroup_under_refinement(self):
        errs = []
        for M in (512, 1024, 2048):
            g = TimeGrid.graded(1.0, M, 3.0)
            f = np.cos(g.nodes)
            two = rl_integral(g, rl_integral(g, f, 0.3), 0.4)
            one = rl_integral(g, f, 0.7)
            errs.append(np.max(np.abs(two - one)))
        factors = [errs[i] / errs[i + 1] for i in range(2)]
        # observed order >= 1.5 on smooth inputs
        assert min(factors) >= 2.0 ** 1.5

    def test_vector_valued_matches_componentwise(self):
        for M in (128, 600):  # 600: more than one row block
            g = TimeGrid.uniform(1.0, M)
            vals = np.column_stack([np.cos(g.nodes), g.nodes**2])
            joint = rl_integral(g, vals, 0.5)
            split = np.column_stack(
                [rl_integral(g, vals[:, j], 0.5) for j in range(2)]
            )
            assert np.max(np.abs(joint - split)) < 1e-15

    def test_invalid_order(self):
        g = TimeGrid.uniform(1.0, 8)
        with pytest.raises(ValueError):
            rl_integral(g, g.nodes, 1.5)

    def test_many_trailing_axes_match_componentwise(self):
        g = TimeGrid.graded(1.0, 16, 2.0)
        vals = g.nodes[:, None, None] ** np.arange(3) * np.array([[1.0], [2.0]])
        out = rl_integral(g, vals, 0.5)
        assert out.shape == (17, 2, 3)
        for j in range(2):
            for k in range(3):
                ref = rl_integral(g, vals[:, j, k], 0.5)
                assert np.max(np.abs(out[:, j, k] - ref)) < 1e-15

    @pytest.mark.parametrize("M,gamma", [(64, 1.0), (600, 3.0)])
    def test_selected_rows_equal_full_matrix_rows(self, M, gamma):
        g = TimeGrid.graded(1.0, M, gamma)
        full = rl_integral_matrix(g, 0.3, np.arange(M + 1))
        rows = [M, 0, 1, M // 2, M // 2]
        assert np.array_equal(rl_integral_matrix(g, 0.3, rows), full[rows])

    def test_row_index_range_checked(self):
        g = TimeGrid.uniform(1.0, 8)
        for rows in ([-1], [9]):
            with pytest.raises(ValueError, match="row indices"):
                rl_integral_matrix(g, 0.5, rows)

    @pytest.mark.parametrize("beta", [0.05, 0.25, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("name", sorted(_ORACLE_GRIDS))
    def test_tiled_rows_bit_equal_to_row_loop(self, name, beta):
        g = _ORACLE_GRIDS[name]
        for rows in _row_sets(len(g) - 1):
            assert np.array_equal(
                rl_integral_matrix(g, beta, rows), _reference_rows(g, beta, rows)
            )

    @pytest.mark.parametrize("cells", [1, 100, 2000])
    def test_rows_independent_of_the_tile_size(self, monkeypatch, cells):
        # one row per tile, short tiles, and rows longer than a tile
        monkeypatch.setattr(fractional_calculus, "_RL_TILE_CELLS", cells)
        for name in ("graded4.0-M700", "irregular"):
            g = _ORACLE_GRIDS[name]
            for rows in _row_sets(len(g) - 1):
                assert np.array_equal(
                    rl_integral_matrix(g, 0.25, rows), _reference_rows(g, 0.25, rows)
                )

    @pytest.mark.parametrize("beta", [0.05, 0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize(
        "grid",
        [TimeGrid.graded(1.0, 1024, 4.0), TimeGrid.graded(1.0, 700, 2.5),
         _ORACLE_GRIDS["irregular"]],
        ids=["graded4-M1024", "graded2.5-M700", "irregular"],
    )
    def test_weights_match_exact_moments(self, grid, beta):
        M = len(grid) - 1
        rows = [M // 10, 2 * M // 3, M]
        exact = _exact_rows(grid, beta, rows)
        W = rl_integral_matrix(grid, beta, rows)
        live = exact != 0.0
        assert np.array_equal(W != 0.0, live)
        assert np.max(np.abs(W[live] - exact[live]) / np.abs(exact[live])) <= 5e-14

    @pytest.mark.parametrize("beta", [0.05, 0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize(
        "grid",
        [TimeGrid.graded(1.0, 1024, 4.0), TimeGrid.graded(1.0, 700, 2.5),
         _ORACLE_GRIDS["irregular"]],
        ids=["graded4-M1024", "graded2.5-M700", "irregular"],
    )
    def test_rl_integral_within_rounding_of_exact_rows(self, grid, beta):
        # the treecode's far field is exact to below one ulp, so I^beta f
        # stays within rounding of the exact weights applied to f
        M = len(grid) - 1
        rows = [M // 10, 2 * M // 3, M]
        exact = _exact_rows(grid, beta, rows)
        for f in _test_columns(grid).T:
            err = np.abs(rl_integral(grid, f, beta)[rows] - _product(exact, f))
            assert np.all(err <= 2e-15 * (np.abs(exact) @ np.abs(f)))

    @pytest.mark.parametrize("beta", [0.05, 0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("name", sorted(_ORACLE_GRIDS))
    def test_rl_integral_matches_assembled_rows(self, name, beta):
        # shallow trees (M = 5, 31, 33: one or two leaves) included
        g = _ORACLE_GRIDS[name]
        W = rl_integral_matrix(g, beta, np.arange(len(g)))
        f = _test_columns(g)
        err = np.abs(rl_integral(g, f, beta) - _product(W, f))
        assert np.all(err <= 2e-15 * (np.abs(W) @ np.abs(f)))

    def test_far_terms_meet_their_tail_bound(self):
        # the dropped tail eta^p / (1 - eta) is below 2^-53, one term fewer
        # would not be
        eta, p = fractional_calculus._ETA, fractional_calculus._TERMS
        assert eta**p / (1.0 - eta) <= 2.0**-53 < eta ** (p - 1) / (1.0 - eta)

    def test_band_cells_grow_linearly(self, monkeypatch):
        # per-cell weights only in the band next to each row: a fall-back to
        # the whole lower triangle would take about 2048 (M+1) cells
        cells = []
        kernel = fractional_calculus._moment_tile
        closed = fractional_calculus._closed_moments

        def counted_kernel(t, n, j, beta):
            Hd, Gd = kernel(t, n, j, beta)
            cells.append(Hd.size)
            return Hd, Gd

        def counted_closed(a, b, d, beta):
            cells.append(a.size)
            return closed(a, b, d, beta)

        monkeypatch.setattr(fractional_calculus, "_moment_tile", counted_kernel)
        monkeypatch.setattr(fractional_calculus, "_closed_moments", counted_closed)
        g = TimeGrid.graded(1.0, 4096, 4.0)
        rl_integral(g, np.cos(g.nodes), 0.5)
        assert 0 < sum(cells) <= 256 * len(g)

    @pytest.mark.parametrize("name", ["graded4.0-M700", "uniform-T2", "irregular"])
    def test_no_floating_point_exception_escapes(self, name):
        # tiles form throwaway values above the diagonal (divisions by zero,
        # powers of negative distances); none may reach the caller
        g = _ORACLE_GRIDS[name]
        M = len(g) - 1
        f = np.cos(g.nodes)
        calls = [
            lambda: rl_integral_matrix(g, 0.5, np.arange(M + 1)),
            lambda: rl_integral_matrix(g, 0.05, _row_sets(M)[1]),
            lambda: rl_integral(g, f, 0.5),
            lambda: rl_integral(g, f, 1.0),
        ]
        quiet = [call().tobytes() for call in calls]
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            strict = [call().tobytes() for call in calls]
        assert strict == quiet

    def test_tiles_stay_small_at_4096_cells(self):
        # no weight row is assembled; band cells and far terms go in batches
        g = TimeGrid.graded(1.0, 4096, 4.0)
        f = np.cos(g.nodes)
        tracemalloc.start()
        try:
            rl_integral(g, f, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6

    def test_memory_bounded_at_4096_cells(self):
        # a (grid, beta) no other test uses, so no earlier call can have
        # prepared anything for it
        g = TimeGrid.graded(1.0, 4096, 2.5)
        f = np.cos(g.nodes)
        tracemalloc.start()
        try:
            rl_integral(g, f, 0.45)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense (M+1)^2 matrix alone would take 134 MB
        assert peak < 32e6


class TestCaputoDerivative:
    def test_linear_function_annihilated(self):
        g = TimeGrid.graded(1.0, 512, 4.0)
        out = caputo_derivative(g, g.nodes, 1.5, 1.0)
        assert np.nanmax(np.abs(out[1:])) < 1e-9

    def test_quadratic_against_beta_integral_oracle(self):
        # dt^alpha t^2 = 2 t^(2-alpha) / Gamma(3-alpha)
        alpha = 1.5
        g = TimeGrid.graded(1.0, 1024, default_grading(alpha))
        out = caputo_derivative(g, g.nodes**2, alpha, 0.0)
        exact = 2.0 * g.nodes ** (2.0 - alpha) / math.gamma(3.0 - alpha)
        assert np.nanmax(np.abs(out[1:-1] - exact[1:-1])) < 1e-4

    @pytest.mark.parametrize("alpha", [1.5, 1.8])
    def test_fractional_relaxation(self, alpha):
        # dt^alpha E_alpha(-t^alpha) = -E_alpha(-t^alpha), measured past the
        # startup layer; error decreasing under refinement at order >= 1
        from fracplate.special_functions import ml_profile

        errs = []
        for M in (1024, 2048):
            g = TimeGrid.graded(1.0, M, default_grading(alpha))
            c = ml_profile(alpha, 1.0, -g.nodes**alpha)
            out = caputo_derivative(g, c, alpha, 0.0)
            resid = out + c
            lo = max(4, M // 32)
            errs.append(np.nanmax(np.abs(resid[lo:-1])))
        assert errs[-1] < 1e-4
        assert errs[0] / errs[-1] >= 2.0

    def test_too_few_nodes_refused(self):
        g = TimeGrid.uniform(1.0, 4)
        with pytest.raises(ValueError):
            caputo_derivative(g, g.nodes, 1.5, 1.0)

    def test_slope_per_node_refused(self):
        # f1_0 holds one slope per component of the samples, not per node
        g = TimeGrid.graded(1.0, 16, 2.0)
        with pytest.raises(ValueError, match="slopes of shape"):
            caputo_derivative(g, g.nodes, 1.5, np.arange(17.0))

    def test_block_matches_columns(self):
        alpha = 1.5
        g = TimeGrid.graded(1.0, 600, default_grading(alpha))
        vals = np.column_stack([g.nodes**2, g.nodes + np.cos(g.nodes)])
        block = caputo_derivative(g, vals, alpha, np.array([0.0, 1.0]))
        assert block.shape == (601, 2)
        for j, slope in enumerate((0.0, 1.0)):
            ref = caputo_derivative(g, vals[:, j], alpha, slope)
            assert np.isnan(block[0, j])
            np.testing.assert_allclose(block[1:, j], ref[1:], rtol=1e-9, atol=1e-12)

    def test_grid_derivative_block_bit_equal_to_columns(self):
        g = TimeGrid.graded(1.0, 600, 4.0)
        vals = np.column_stack([np.cos(g.nodes), g.nodes**1.5, np.exp(-g.nodes)])
        cols = np.column_stack([grid_derivative(g, vals[:, j]) for j in range(3)])
        assert np.array_equal(grid_derivative(g, vals), cols)

    @pytest.mark.parametrize("M", [64, 512, 4096])
    def test_stencils_bit_equal_to_per_node_fornberg(self, M):
        nodes = TimeGrid.graded(1.0, M, 3.0).nodes
        W, lo = _derivative_stencils(nodes)
        for i in range(M + 1):
            start = min(max(i - 2, 0), M + 1 - 5)
            assert lo[i] == start
            ref = _fornberg_reference(nodes[start : start + 5], nodes[i], 1)
            assert np.array_equal(W[i], ref)

    def test_grid_derivative_exact_for_quartics(self):
        g = TimeGrid.graded(1.0, 64, 2.0)
        vals = g.nodes**4 - 2 * g.nodes**2 + 3
        d = grid_derivative(g, vals)
        exact = 4 * g.nodes**3 - 4 * g.nodes
        assert np.max(np.abs(d - exact)) < 1e-10


def _fornberg_reference(x, x0, m):
    """Per-node Fornberg weights for the m-th derivative at x0 on nodes x."""
    n = len(x)
    C = np.zeros((n, m + 1))
    C[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    C[i, k] = c1 * (k * C[i - 1, k - 1] - c5 * C[i - 1, k]) / c2
                C[i, 0] = -c1 * c5 * C[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                C[j, k] = (c4 * C[j, k] - k * C[j, k - 1]) / c3
            C[j, 0] = c4 * C[j, 0] / c3
        c1 = c2
    return C[:, m]


class TestGagliardo:
    def test_constant_vanishes(self):
        g = TimeGrid.uniform(1.0, 256)
        assert gagliardo_seminorm(g, np.ones(257), 0.5) == 0.0

    def test_linear_half(self):
        # analytic double integral: seminorm^2 = 2/((2-2b)(3-2b)); b=1/2 -> 1
        g = TimeGrid.uniform(1.0, 4096)
        got = gagliardo_seminorm(g, g.nodes, 0.5)
        assert abs(got - 1.0) < 0.02

    def test_linear_beta_09(self):
        g = TimeGrid.uniform(1.0, 2048)
        got = gagliardo_seminorm(g, g.nodes, 0.9)
        exact = math.sqrt(2.0 / (0.2 * 1.2))
        # strongly singular end of the range converges slowly from below
        assert got <= exact + 1e-12
        assert got > 0.75 * exact

    def test_linear_beta_quarter(self):
        g = TimeGrid.uniform(1.0, 2048)
        got = gagliardo_seminorm(g, g.nodes, 0.25)
        exact = math.sqrt(2.0 / (1.5 * 2.5))
        assert abs(got - exact) / exact < 5e-3

    def test_convergence_order_at_least_08(self):
        exact = 1.0
        errs = []
        for M in (512, 1024, 2048):
            g = TimeGrid.uniform(1.0, M)
            errs.append(abs(gagliardo_seminorm(g, g.nodes, 0.5) - exact))
        order = math.log2(errs[0] / errs[-1]) / 2.0
        assert order >= 0.8

    def test_lower_bound_monotone_under_refinement(self):
        vals = []
        for M in (256, 512, 1024):
            g = TimeGrid.uniform(1.0, M)
            vals.append(gagliardo_seminorm(g, g.nodes, 0.5))
        assert vals[0] <= vals[1] <= vals[2] <= 1.0 + 1e-12


def _l2_time_norm(g, f):
    """Trapezoid L^2(0, T) norm of scalar samples f on the grid g."""
    return math.sqrt(float(np.trapezoid(f**2, g.nodes)))


def _hbeta_norm(g, f, beta):
    """Time-Sobolev norm: L^2 norm plus Gagliardo seminorm."""
    return _l2_time_norm(g, f) + gagliardo_seminorm(g, f, beta)


def _equivalence_ratios(beta, g, family):
    """||I^beta f||_{H^beta} / ||f||_{L^2} per member sampled on g, on g and
    on every other node of it."""
    fine, coarse = [], []
    gc = TimeGrid(g.T, g.nodes[::2])
    for f in family:
        for out, grid, v in ((fine, g, f), (coarse, gc, f[::2])):
            hb = _hbeta_norm(grid, rl_integral(grid, v, beta), beta)
            out.append(hb / _l2_time_norm(grid, v))
    return np.array(fine), np.array(coarse)


class TestHbetaNorm:
    def test_zero(self):
        g = TimeGrid.uniform(1.0, 64)
        assert _hbeta_norm(g, np.zeros(65), 0.5) == 0.0

    def test_constant_one(self):
        g = TimeGrid.uniform(1.0, 256)
        assert _hbeta_norm(g, np.ones(257), 0.5) == pytest.approx(1.0)

    def test_linear_combines_both_pieces(self):
        g = TimeGrid.uniform(1.0, 4096)
        got = _hbeta_norm(g, g.nodes, 0.5)
        assert got == pytest.approx(math.sqrt(1.0 / 3.0) + 1.0, rel=0.02)


class TestNormEquivalenceProbe:
    """The two-sided equivalence of ||I^beta f||_{H^beta} and ||f||_{L^2}:
    a min/max spread over a family that is stable under one refinement step."""

    def test_fourier_family_spread(self):
        g = TimeGrid.uniform(1.0, 1024)
        fam = [np.sin((k + 1) * math.pi * g.nodes) for k in range(8)]
        fine, coarse = _equivalence_ratios(0.25, g, fam)
        spread = fine.max() / fine.min()
        assert abs(spread - coarse.max() / coarse.min()) / spread < 0.10
        assert spread < 20.0
        # a constant member has a finite ratio
        (const,), _ = _equivalence_ratios(0.25, g, [np.ones(1025)])
        assert math.isfinite(const)

    @pytest.mark.parametrize("scale", [10.0, 0.1])
    def test_scaling_invariance(self, scale):
        g = TimeGrid.uniform(1.0, 512)
        f = np.sin(2 * math.pi * g.nodes)
        (r1,), _ = _equivalence_ratios(0.25, g, [f])
        (r2,), _ = _equivalence_ratios(0.25, g, [scale * f])
        assert r1 == pytest.approx(r2, rel=1e-12)


@given(
    beta=st.floats(min_value=0.1, max_value=1.0),
    a=st.floats(min_value=-2.0, max_value=2.0),
    b=st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=25, deadline=None)
def test_rl_linearity_property(beta, a, b):
    g = TimeGrid.uniform(1.0, 64)
    f1 = np.exp(-g.nodes)
    f2 = g.nodes**1.5
    lhs = rl_integral(g, a * f1 + b * f2, beta)
    rhs = (
        a * rl_integral(g, f1, beta)
        + b * rl_integral(g, f2, beta)
    )
    scale = max(1.0, float(np.max(np.abs(lhs))))
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


_TIME_OPS = {
    "grid_derivative": grid_derivative,
    "rl_integral": lambda g, v: rl_integral(g, v, 0.5),
    "gagliardo_seminorm": lambda g, v: gagliardo_seminorm(g, v, 0.5),
    "caputo_derivative": lambda g, v: caputo_derivative(g, v, 1.5, 0.0),
}


@pytest.mark.parametrize("op", sorted(_TIME_OPS))
def test_sample_count_must_match_the_grid(op):
    # 34 samples divide into 17 nodes, so reshaping alone would accept them
    g = TimeGrid.graded(1.0, 16, 2.0)
    for count in (len(g) - 1, 2 * len(g)):
        with pytest.raises(ValueError, match=f"{count} values for 17 nodes"):
            _TIME_OPS[op](g, np.ones(count))
    assert np.shape(_TIME_OPS[op](g, np.ones(len(g)))) in ((), (len(g),))
