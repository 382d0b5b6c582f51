"""Eigenpairs, their value and gradient matrices, and fractional power norms."""

import math

import numpy as np
import pytest

from fracplate.spectral_domain import (
    Interval,
    ModeSet,
    Rectangle,
    boundary_quadrature,
    boundary_trace_factor,
    domain_quadrature,
    eigenmodes,
    fractional_norm,
    mode_gradients,
    mode_normal_derivatives,
    mode_values,
    parse_domain,
)


class TestEigenmodes:
    def test_interval_pi(self):
        ms = eigenmodes(Interval(math.pi), 3)
        assert ms.mu.tolist() == [1.0, 4.0, 9.0]
        assert ms.lam.tolist() == [1.0, 16.0, 81.0]

    def test_square_multiplicity_kept(self):
        ms = eigenmodes(Rectangle(math.pi, math.pi), 4)
        assert ms.index.tolist() == [[1, 1], [1, 2], [2, 1], [2, 2]]
        assert np.round(ms.mu, 12).tolist() == [2.0, 5.0, 5.0, 8.0]

    def test_unit_interval_fundamental(self):
        ms = eigenmodes(Interval(1.0), 1)
        assert ms.mu[0] == pytest.approx(math.pi**2, rel=1e-15)
        assert ms.lam[0] == pytest.approx(math.pi**4, rel=1e-15)

    def test_lambda_is_exact_square(self):
        for d in (Interval(2.7), Rectangle(1.3, 0.7)):
            ms = eigenmodes(d, 20)
            assert np.array_equal(ms.lam, ms.mu * ms.mu)  # bit-exact

    def test_sorted_ascending(self):
        lams = eigenmodes(Rectangle(2.0, 1.0), 30).lam.tolist()
        assert lams == sorted(lams)

    def test_anisotropic_ordering(self):
        # long thin rectangle: many x-modes come first
        ms = eigenmodes(Rectangle(10.0, 1.0), 3)
        assert ms.index[:2].tolist() == [[1, 1], [2, 1]]


def _reference_modes(d, N):
    """Brute force: every index up to N in each axis, sorted by (lam, index)."""
    if isinstance(d, Interval):
        rows = [((n * math.pi / d.length) ** 2, (n,)) for n in range(1, N + 1)]
    else:
        rows = [
            ((j * math.pi / d.a) ** 2 + (k * math.pi / d.b) ** 2, (j, k))
            for j in range(1, N + 1)
            for k in range(1, N + 1)
        ]
    rows = sorted((mu * mu, index, mu) for mu, index in rows)[:N]
    return [r[1] for r in rows], [r[2] for r in rows], [r[0] for r in rows]


class TestEnumeration:
    @pytest.mark.parametrize(
        "d",
        [
            Interval(math.pi),
            Rectangle(math.pi, math.pi),
            Rectangle(10.0, 1.0),
            Rectangle(1.0, 10.0),
            Rectangle(1.3, 0.7),
            Rectangle(2.0, 1.0),
            Rectangle(math.pi, 2.0 * math.pi),
        ],
        ids=repr,
    )
    def test_matches_brute_force_sort(self, d):
        for N in (1, 2, 3, 4, 5, 16, 30, 64, 100, 256):
            index, mu, lam = _reference_modes(d, N)
            ms = eigenmodes(d, N)
            assert [tuple(int(i) for i in row) for row in ms.index] == index
            assert ms.mu.tolist() == mu  # bit-equal
            assert ms.lam.tolist() == lam

    def test_square_at_4096(self):
        N = 4096
        ms = eigenmodes(Rectangle(math.pi, math.pi), N)
        assert len(ms) == N
        j, k = ms.index.T
        assert np.all(j * k <= N)
        assert np.array_equal(ms.lam, ms.mu * ms.mu)
        keys = list(zip(ms.lam.tolist(), j.tolist(), k.tolist()))
        assert keys == sorted(keys)
        # mu_jk = j^2 + k^2 exactly; every lattice point below the last one is in
        top = int(ms.mu[-1])
        r = np.arange(1, math.isqrt(top) + 1)
        J, K = np.meshgrid(r, r, indexing="ij")
        below = J * J + K * K < top
        assert set(zip(J[below].tolist(), K[below].tolist())) <= set(
            zip(j.tolist(), k.tolist())
        )

    def test_slices_and_items(self):
        ms = eigenmodes(Rectangle(math.pi, math.pi), 6)
        head = ms[1:3]
        assert isinstance(head, ModeSet) and len(head) == 2
        assert head.index.tolist() == [[1, 2], [2, 1]]
        assert head.mu.tolist() == [5.0, 5.0] and head.lam.tolist() == [25.0, 25.0]
        assert head.norm_const == ms.norm_const
        assert ms[-1:].index.tolist() == [ms.index[-1].tolist()]
        with pytest.raises(TypeError):
            ms[0]  # one mode is the slice ms[i:i + 1]
        with pytest.raises(ValueError):
            ms.lam[0] = 0.0  # read-only: slices share the arrays


def _loop_values(modes, d, pts):
    """Eigenfunction values, one mode at a time from its index."""
    pts = np.asarray(pts, dtype=float).reshape(-1, d.dim)
    c = modes.norm_const
    cols = []
    for index in modes.index.tolist():
        if isinstance(d, Interval):
            w = index[0] * math.pi / d.length
            cols.append(c * np.sin(w * pts[:, 0]))
        else:
            j, k = index
            cols.append(
                c
                * np.sin(j * math.pi / d.a * pts[:, 0])
                * np.sin(k * math.pi / d.b * pts[:, 1])
            )
    return np.column_stack(cols)


def _loop_gradients(modes, d, pts):
    """Eigenfunction gradients, one mode at a time from its index."""
    pts = np.asarray(pts, dtype=float).reshape(-1, d.dim)
    c = modes.norm_const
    out = np.empty((len(pts), d.dim, len(modes)))
    for i, index in enumerate(modes.index.tolist()):
        if isinstance(d, Interval):
            w = index[0] * math.pi / d.length
            out[:, 0, i] = c * w * np.cos(w * pts[:, 0])
        else:
            wx = index[0] * math.pi / d.a
            wy = index[1] * math.pi / d.b
            x, y = pts[:, 0], pts[:, 1]
            out[:, 0, i] = c * wx * np.cos(wx * x) * np.sin(wy * y)
            out[:, 1, i] = c * wy * np.sin(wx * x) * np.cos(wy * y)
    return out


def _project(f, d, modes, order):
    """L^2 coefficients of f by Gauss-Legendre quadrature on the mode matrix."""
    pts, w = domain_quadrature(d, order)
    return mode_values(modes, d, pts).T @ (w * f(*pts.T))


class TestModeMatrices:
    @pytest.mark.parametrize(
        "d", [Interval(2.7), Rectangle(1.3, 0.7), Rectangle(math.pi, math.pi)]
    )
    def test_broadcast_matches_per_mode_loop(self, d):
        ms = eigenmodes(d, 40)
        pts, _ = domain_quadrature(d, 12)
        bpts, _, _ = boundary_quadrature(d, 12)
        for p in (pts, bpts):
            assert np.array_equal(mode_values(ms, d, p), _loop_values(ms, d, p))
            assert np.array_equal(mode_gradients(ms, d, p), _loop_gradients(ms, d, p))

    def test_points_outside_rejected(self):
        d = Rectangle(1.0, 2.0)
        ms = eigenmodes(d, 3)
        with pytest.raises(ValueError):
            mode_values(ms, d, np.array([[0.5, 2.5]]))
        with pytest.raises(ValueError):
            mode_gradients(ms, d, np.array([[-0.1, 1.0]]))

class TestEvalMode:
    def test_peak_of_fundamental(self):
        d = Interval(math.pi)
        ms = eigenmodes(d, 1)
        v = mode_values(ms, d, [math.pi / 2])[0, 0]
        g = mode_gradients(ms, d, [math.pi / 2])[0, 0, 0]
        assert v == pytest.approx(math.sqrt(2 / math.pi), rel=1e-14)
        assert g == pytest.approx(0.0, abs=1e-15)

    def test_node_of_second_mode(self):
        d = Interval(math.pi)
        v = mode_values(eigenmodes(d, 2), d, [math.pi / 2])[0, 1]
        assert v == pytest.approx(0.0, abs=1e-15)

    def test_rectangle_center_value(self):
        d = Rectangle(math.pi, math.pi)
        ms = eigenmodes(d, 1)
        v = mode_values(ms, d, [(math.pi / 2, math.pi / 2)])[0, 0]
        assert v == pytest.approx(2 / math.pi, rel=1e-14)
        assert ms.mu[0] == pytest.approx(2.0, rel=1e-14)  # lap e = -2 e

    def test_laplacian_identity_against_finite_differences(self):
        # lap e_n = -mu_n e_n: the eigenvalue the solver pairs with each column
        d = Interval(math.pi)
        ms = eigenmodes(d, 3)
        x, h = 1.234, 1e-5
        v = mode_values(ms, d, [x - h, x, x + h])[:, 2]
        fd = (v[2] - 2 * v[1] + v[0]) / h**2
        assert -ms.mu[2] * v[1] == pytest.approx(fd, rel=1e-5)

    def test_outside_domain_rejected(self):
        d = Interval(1.0)
        ms = eigenmodes(d, 1)
        with pytest.raises(ValueError):
            mode_values(ms, d, [2.0])


class TestNormalDerivative:
    def test_interval_left_endpoint(self):
        d = Interval(math.pi)
        nd = mode_normal_derivatives(eigenmodes(d, 1), d, [[0.0]], [[-1.0]])
        assert nd[0, 0] == pytest.approx(-math.sqrt(2 / math.pi), rel=1e-14)

    def test_interval_right_endpoint(self):
        d = Interval(math.pi)
        nd = mode_normal_derivatives(eigenmodes(d, 1), d, [[math.pi]], [[1.0]])
        assert nd[0, 0] == pytest.approx(-math.sqrt(2 / math.pi), rel=1e-14)

    def test_rectangle_edge(self):
        d = Rectangle(math.pi, math.pi)
        ms = eigenmodes(d, 1)
        nd = mode_normal_derivatives(ms, d, [[0.0, math.pi / 2]], [[-1.0, 0.0]])
        assert nd[0, 0] == pytest.approx(-2 / math.pi, rel=1e-14)

    def test_corner_returns_zero(self):
        # the gradient vanishes at a corner, whichever normal is taken there
        d = Rectangle(1.0, 1.0)
        ms = eigenmodes(d, 1)
        for normal in ([-1.0, 0.0], [0.0, -1.0]):
            assert mode_normal_derivatives(ms, d, [[0.0, 0.0]], [normal])[0, 0] == 0.0


class TestProjection:
    def test_orthonormality_recovery(self):
        d = Interval(math.pi)
        ms = eigenmodes(d, 5)
        c = _project(lambda x: mode_values(ms[2:3], d, x)[:, 0], d, ms, 64)
        expect = np.zeros(5)
        expect[2] = 1.0
        assert np.max(np.abs(c - expect)) < 1e-10

    def test_zero_function(self):
        d = Interval(1.0)
        ms = eigenmodes(d, 4)
        c = _project(lambda x: np.zeros_like(x), d, ms, 32)
        assert np.max(np.abs(c)) == 0.0

    def test_parabola_against_closed_form(self):
        # f(x) = x (pi - x): c_n = sqrt(2/pi) * (2/n^3) * (1 - (-1)^n)
        d = Interval(math.pi)
        ms = eigenmodes(d, 6)
        c = _project(lambda x: x * (math.pi - x), d, ms, 80)
        n = np.arange(1, 7)
        expect = math.sqrt(2 / math.pi) * (2.0 / n**3) * (1 - (-1.0) ** n)
        assert np.max(np.abs(c - expect)) < 1e-10

    def test_gram_matrix_identity_interval(self):
        d = Interval(math.pi)
        ms = eigenmodes(d, 64)
        pts, w = domain_quadrature(d, 256)
        B = mode_values(ms, d, pts)
        G = B.T @ (w[:, None] * B)
        assert np.max(np.abs(G - np.eye(64))) < 1e-9

    def test_gram_matrix_identity_rectangle(self):
        d = Rectangle(1.0, 2.0)
        ms = eigenmodes(d, 12)
        pts, w = domain_quadrature(d, 48)
        B = mode_values(ms, d, pts)
        G = B.T @ (w[:, None] * B)
        assert np.max(np.abs(G - np.eye(12))) < 1e-9


class TestFractionalNorms:
    def test_quarter_power_fundamental(self):
        d = Interval(math.pi)
        ms = eigenmodes(d, 2)
        assert fractional_norm(ms.lam[:1], [1.0], 0.25) == pytest.approx(1.0)

    def test_quarter_power_second_mode(self):
        d = Interval(math.pi)
        ms = eigenmodes(d, 2)
        assert fractional_norm(ms.lam[1:2], [1.0], 0.25) == pytest.approx(2.0)

    def test_h10_norm_equals_gradient_quadrature(self):
        # theta=1/4 realizes the gradient norm; compare against quadrature
        d = Interval(math.pi)
        ms = eigenmodes(d, 1)
        pts, w = domain_quadrature(d, 64)
        from fracplate.spectral_domain import mode_gradients

        g = mode_gradients(ms, d, pts)[:, 0, 0]
        grad_norm = math.sqrt(float(w @ g**2))
        assert fractional_norm(ms.lam, [1.0], 0.25) == pytest.approx(grad_norm, abs=1e-10)

    def test_parseval(self):
        d = Interval(math.pi)
        ms = eigenmodes(d, 8)
        rng = np.random.default_rng(3)
        c = rng.standard_normal(8)
        pts, w = domain_quadrature(d, 64)
        f = mode_values(ms, d, pts) @ c
        l2 = math.sqrt(float(w @ f**2))
        assert fractional_norm(ms.lam, c, 0.0) == pytest.approx(l2, abs=1e-9)

    def test_norm_monotonicity_in_theta(self):
        # requires all lam >= 1 (holds on Interval(pi))
        d = Interval(math.pi)
        ms = eigenmodes(d, 6)
        rng = np.random.default_rng(5)
        c = rng.standard_normal(6)
        thetas = [-0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0]
        norms = [fractional_norm(ms.lam, c, th) for th in thetas]
        assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_one_value_per_mode(self):
        lam = eigenmodes(Interval(math.pi), 3).lam
        assert fractional_norm(lam[:0], [], 0.25) == 0.0
        for values in ([1.0, 2.0], [1.0, 2.0, 3.0, 4.0]):
            with pytest.raises(ValueError, match="3 modes but"):
                fractional_norm(lam, values, 0.25)


class TestBoundaryQuadrature:
    def test_interval_counting_measure(self):
        pts, w, normals = boundary_quadrature(Interval(2.0), 4)
        assert pts.tolist() == [[0.0], [2.0]]
        assert w.tolist() == [1.0, 1.0]
        assert normals.tolist() == [[-1.0], [1.0]]

    def test_rectangle_perimeter(self):
        d = Rectangle(1.0, 2.0)
        _, w, _ = boundary_quadrature(d, 16)
        assert np.sum(w) == pytest.approx(6.0, rel=1e-13)

    def test_normal_derivative_matrix_consistency(self):
        d = Rectangle(1.0, 1.0)
        ms = eigenmodes(d, 4)
        pts, _, normals = boundary_quadrature(d, 8)
        nd = mode_normal_derivatives(ms, d, pts, normals)
        # the outward normal read off the edge each node lies on (no corners)
        x, y = pts.T
        on_x, on_y = (np.isin(c, (0.0, 1.0)) for c in (x, y))
        nu = np.column_stack([np.sign(x - 0.5) * on_x, np.sign(y - 0.5) * on_y])
        ref = np.einsum("pdm,pd->pm", _loop_gradients(ms, d, pts), nu)
        assert np.max(np.abs(nd - ref)) <= 1e-12


class TestBoundaryTraceFactor:
    @pytest.mark.parametrize(
        "spec", ["rectangle:pixpi", "rectangle:1.3x0.7", "rectangle:1x2.5"]
    )
    @pytest.mark.parametrize("N", [1, 16, 256])
    def test_rectangle_energy_equals_quadrature(self, spec, N):
        # Gauss-Legendre with 4 max(index) + 8 nodes per edge integrates the
        # squared trace of every mode pair exactly
        d = parse_domain(spec)
        ms = eigenmodes(d, N)
        P, w = boundary_trace_factor(ms, d)
        pts, bw, normals = boundary_quadrature(d, 4 * int(ms.index.max()) + 8)
        nd = mode_normal_derivatives(ms, d, pts, normals)
        c = np.random.default_rng(N).standard_normal((4, N))
        got = (c @ P) ** 2 @ w
        ref = (c @ nd.T) ** 2 @ bw
        assert np.allclose(got, ref, rtol=1e-13, atol=0.0)

    def test_rectangle_columns_per_wave_number(self):
        # one column per j on y = 0 and y = b, one per k on x = 0 and x = a
        d = parse_domain("rectangle:pixpi")
        ms = eigenmodes(d, 256)
        P, w = boundary_trace_factor(ms, d)
        n_j, n_k = (len(np.unique(col)) for col in ms.index.T)
        assert P.shape == (256, 2 * n_j + 2 * n_k) == (256, 72)
        assert np.all(np.count_nonzero(P, axis=1) == 4)
        assert np.allclose(w, 2.0 / math.pi, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("N", [1, 16, 256])
    def test_interval_equals_endpoint_normal_derivatives(self, N):
        d = parse_domain("interval:pi")
        ms = eigenmodes(d, N)
        P, w = boundary_trace_factor(ms, d)
        pts, bw, normals = boundary_quadrature(d, 1)
        assert np.array_equal(P, mode_normal_derivatives(ms, d, pts, normals).T)
        assert np.array_equal(w, bw)


class TestParseDomain:
    def test_interval_pi(self):
        d = parse_domain("interval:pi")
        assert isinstance(d, Interval) and d.length == math.pi

    def test_rectangle(self):
        d = parse_domain("rectangle:1.5x2")
        assert isinstance(d, Rectangle) and (d.a, d.b) == (1.5, 2.0)

    def test_unicode_pi_and_multiples(self):
        assert parse_domain("interval:π").length == math.pi
        assert parse_domain("interval:2pi").length == pytest.approx(2 * math.pi)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_domain("disk:1")
