"""Reciprocal Gamma and Mittag-Leffler evaluation against independent oracles."""

import hashlib
import math
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

from fracplate.special_functions import (
    gauss_legendre,
    ml_derivative_identity_residuals,
    ml_eval,
    ml_laplace_check,
    ml_profile,
    ml_series_oracle,
    reciprocal_gamma,
)

class TestGamma:
    def test_one(self):
        assert reciprocal_gamma(1.0) == 1.0

    def test_half_is_sqrt_pi(self):
        ref = 1.0 / math.sqrt(math.pi)
        assert reciprocal_gamma(0.5) == pytest.approx(ref, rel=1e-15)

    def test_against_high_precision_oracle(self):
        # product/Stirling oracle at 50-digit working precision
        with mpmath.workdps(50):
            ref = float(mpmath.rgamma(mpmath.mpf("7.3")))
        assert abs(reciprocal_gamma(7.3) - ref) / ref < 1e-15

    @pytest.mark.parametrize("x", [1e-3, 0.1, 0.5, 1.5, 10.0, 42.42, 99.9, 170.0])
    def test_relative_error_over_contract_range(self, x):
        with mpmath.workdps(40):
            ref = float(mpmath.rgamma(x))
        assert abs(reciprocal_gamma(x) - ref) / abs(ref) < 1e-15

    def test_integers_exact(self):
        assert reciprocal_gamma(3.0) == 0.5
        assert reciprocal_gamma(5.0) == 1.0 / 24.0

    def test_past_the_gamma_overflow(self):
        # Gamma(x) leaves the double range at x = 171.6244: 1/Gamma continues
        # as a subnormal number, then underflows to zero
        with mpmath.workdps(40):
            ref = float(mpmath.rgamma(171.65))
        got = reciprocal_gamma(171.65)
        assert 0.0 < ref < sys.float_info.min
        assert abs(got - ref) <= 1e-12 * ref
        assert reciprocal_gamma(171.62) == pytest.approx(
            float(mpmath.rgamma(171.62)), rel=1e-15
        )
        assert reciprocal_gamma(400.0) == 0.0

    @pytest.mark.parametrize(
        "x", [171.63, 171.65, 171.7, 172.0, 172.7, 175.0, 177.9]
    )
    def test_subnormal_band_to_one_spacing(self, x):
        # 1/Gamma(x - k) divided by its k factors: no lgamma rounding
        with mpmath.workdps(40):
            ref = float(mpmath.rgamma(x))
        assert abs(reciprocal_gamma(x) - ref) <= 5e-324

    def test_far_past_the_overflow_is_zero(self):
        assert reciprocal_gamma(1e6) == 0.0

    @pytest.mark.parametrize(
        "x", [1e-17, -1e-17, -1e-10, 0.99, 1.5, 1.999, 2.5, 2.9999999999]
    )
    def test_sinpi_relative_accuracy(self, x):
        # reduced to the nearest integer, so accurate next to every integer
        from fracplate.special_functions import _sinpi

        with mpmath.workdps(40):
            ref = float(mpmath.sinpi(x))
        assert abs(_sinpi(x) - ref) <= 2e-16 * abs(ref)

    def test_reciprocal_gamma_next_to_zero(self):
        # 1/Gamma(x) = x + euler_gamma x^2 + ...: the reflection keeps all digits
        assert reciprocal_gamma(-1e-17) == pytest.approx(-1e-17, rel=1e-15)
        assert reciprocal_gamma(1e-17) == pytest.approx(1e-17, rel=1e-15)

    def test_reciprocal_gamma_zero_at_poles(self):
        assert reciprocal_gamma(0.0) == 0.0
        assert reciprocal_gamma(-3.0) == 0.0

    def test_reciprocal_gamma_matches(self):
        for x in (0.2, 1.7, -0.5, -4.3, 25.0):
            with mpmath.workdps(40):
                ref = float(mpmath.rgamma(x))
            assert abs(reciprocal_gamma(x) - ref) <= 1e-12 * max(1.0, abs(ref))


class TestOrders:
    @pytest.mark.parametrize(
        "call",
        [
            lambda a, b: ml_eval(a, b, 0.5),
            lambda a, b: ml_series_oracle(a, b, 0.5, 10),
            lambda a, b: ml_laplace_check(a, b, 1.0, 2.0),
        ],
        ids=["ml_eval", "ml_series_oracle", "ml_laplace_check"],
    )
    def test_invalid_orders_rejected(self, call):
        with pytest.raises(ValueError, match="alpha must be positive"):
            call(0.0, 1.0)
        with pytest.raises(ValueError, match="beta must be positive"):
            call(1.5, -1.0)


def _oracle(alpha, beta, z, n=600):
    return ml_series_oracle(alpha, beta, z, n)


class TestMLEval:
    def test_value_at_zero_is_one_for_beta_one(self):
        assert ml_eval(1.5, 1.0, 0.0)[0] == pytest.approx(1.0, abs=1e-15)

    def test_exponential_case(self):
        got = ml_eval(1.0, 1.0, 1.0)[0]
        assert got == pytest.approx(math.e, abs=1e-12)

    def test_cosine_case(self):
        got = ml_eval(2.0, 1.0, -math.pi**2)[0]
        assert got == pytest.approx(-1.0, abs=1e-12)

    def test_constant_term_scaling(self):
        # E_{a,b}(0) * Gamma(b) = 1
        for alpha in (1.1, 1.5, 1.9):
            for beta in (0.5, 1.0, 2.0, 3.0):
                v = ml_eval(alpha, beta, 0.0)[0]
                assert v * math.gamma(beta) == pytest.approx(1.0, rel=1e-13)

    def test_oracle_agreement_deep_negative(self):
        # alpha=1.8, beta=2, z=-50: the oracle IS the partial Taylor sum
        ref = _oracle(1.8, 2.0, -50.0, 10_000)
        got = ml_eval(1.8, 2.0, -50.0)[0]
        assert abs(got - ref) <= max(1e-12, 1e-12 * abs(got))

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    @pytest.mark.parametrize("beta", [1.0, 2.0, 1.5])
    def test_contract_across_methods(self, alpha, beta):
        for z in (-5.0, -25.0, -40.0, -200.0, 3.0):
            got = ml_eval(alpha, beta, z)[0]
            if abs(z) <= 60.0:
                ref = _oracle(alpha, beta, z, 2000)
                assert abs(got - ref) <= max(1e-12, 1e-12 * abs(ref))

    def test_error_estimate_is_honest(self):
        for alpha, beta, z in [
            (1.5, 1.0, -30.0),
            (1.2, 2.0, -45.0),
            (1.9, 1.0, -10.0),
            (1.5, 3.0, -40.0),
            (1.1, 0.5, 5.0),
        ]:
            value, est, _ = ml_eval(alpha, beta, z)
            ref = _oracle(alpha, beta, z, 4000)
            assert abs(value - ref) <= max(est, 1e-15)

    def test_methods_are_recorded(self):
        assert ml_eval(1.5, 1.0, -1.0)[2] == "TaylorSeries"
        assert ml_eval(1.5, 1.0, -1e6)[2] == "AsymptoticExpansion"
        assert ml_eval(1.5, 1.0, -60.0)[2] == "IntegralRepresentation"

    def test_method_cross_validation_band(self):
        # asymptotic and integral representation overlap on moderate arguments
        from fracplate.special_functions import _asymptotic, _integral_rep

        z = np.array([-80.0, -64.0])
        for alpha, beta in [(1.2, 1.0), (1.35, 2.0)]:
            vi, _ = _integral_rep(alpha, beta, z)
            va, _, conv = _asymptotic(alpha, beta, z, target=1e-11)
            assert np.all(np.abs(vi - va)[conv] < 5e-11)

    def test_asymptotic_estimate_within_contract_is_returned(self):
        # the asymptotic estimate lands a hair above its 2e-13 bar here and
        # the extended-precision fallback would need far more than 320 digits
        value, _, method = ml_eval(1.0, 1.0, -18560.61)
        assert method == "AsymptoticExpansion"
        assert abs(value - math.exp(-18560.61)) <= 1e-12
        z = -1590.4143366937894
        value = ml_eval(1.0, 2.0, z)[0]
        assert abs(value - (math.exp(z) - 1.0) / z) <= 1e-12
        for beta in (0.5, 1.0, 1.5, 2.0):
            for alpha in np.linspace(1.0, 1.02, 11):
                for z in (-18560.61, z, -2512.2825234898596, -16249.790806068417):
                    value, est, _ = ml_eval(float(alpha), beta, z)
                    assert est <= max(1e-12, 1e-12 * abs(value))

    def test_monotone_bound_on_negative_axis(self):
        # |E_a(z)| <= 1 for z <= 0, a in (1,2): empirical consequence of the
        # uniform decay bound (checked, not proven)
        for alpha in (1.1, 1.5, 1.9):
            for z in -np.logspace(-3, 6, 40):
                assert abs(ml_eval(alpha, 1.0, float(z))[0]) <= 1.0 + 1e-12


class TestSeriesOracle:
    def test_single_term(self):
        assert ml_series_oracle(1.0, 1.0, 0.0, 1) == 1.0

    def test_exponential_tail_bound(self):
        got = ml_series_oracle(1.0, 1.0, 1.0, 30)
        assert abs(got - math.e) < 1e-15

    def test_cross_check_against_longer_sum(self):
        a = ml_series_oracle(1.5, 1.5, -4.0, 200)
        b = ml_series_oracle(1.5, 1.5, -4.0, 400)
        assert abs(a - b) < 1e-30  # fully converged at 200 terms already

    def test_requires_positive_terms(self):
        with pytest.raises(ValueError):
            ml_series_oracle(1.5, 1.0, 1.0, 0)

    def test_overflow_raises_range_error(self):
        with pytest.raises(OverflowError):
            ml_series_oracle(1.0, 1.0, 800.0, 4000)

    def test_positive_argument_sums_in_the_base_digits(self, monkeypatch):
        # positive terms do not cancel, so z > 0 keeps _ORACLE_DPS digits;
        # negative z raises them for the alternating cancellation
        from fracplate import special_functions as sf

        seen = []
        gammas = sf._mp_gammas
        monkeypatch.setattr(
            sf, "_mp_gammas",
            lambda a, b, dps, upto: seen.append(dps) or gammas(a, b, dps, upto),
        )
        ml_series_oracle(0.25, 1.0, 5.0, 100)
        ml_series_oracle(0.25, 1.0, -5.0, 100)
        assert seen == [sf._ORACLE_DPS, int(22 + 0.45 * 5.0**4)]


class TestProfile:
    @pytest.mark.parametrize("alpha,beta", [(1.2, 1.0), (1.5, 2.0), (1.8, 1.5)])
    def test_matches_scalar_evaluator(self, alpha, beta):
        z = -np.logspace(-6, 7, 160)
        prof = ml_profile(alpha, beta, z)
        for i in range(0, 160, 13):
            ref = ml_eval(alpha, beta, float(z[i]))[0]
            assert abs(prof[i] - ref) <= 1e-11 * max(1.0, abs(ref))

    def test_zero_argument(self):
        out = ml_profile(1.5, 2.0, np.array([0.0, -1.0]))
        assert out[0] == pytest.approx(1.0 / math.gamma(2.0), abs=1e-14)

    def test_positive_arguments_rejected(self):
        with pytest.raises(ValueError):
            ml_profile(1.5, 1.0, np.array([1.0]))

    @pytest.mark.parametrize("band", ["taylor", "chebyshev", "asymptotic"])
    def test_band_memory_is_block_sized(self, band):
        # 1M points, all in one band: beyond the 8.4 MB output, at most the
        # band's point indices (8.4 MB) and one block's working arrays
        from fracplate.special_functions import _profile_B, _profile_zf

        zf, big = _profile_zf(1.5), _profile_B(1.5)
        z = -{
            "taylor": np.linspace(0.0, zf, 1 << 20),
            "chebyshev": np.geomspace(1.01 * zf, 0.99 * big, 1 << 20),
            "asymptotic": np.geomspace(1.01 * big, 1e12, 1 << 20),
        }[band]
        tracemalloc.start()
        try:
            out = ml_profile(1.5, 1.0, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 16e6


class TestDerivativeIdentities:
    def test_degenerate_lambda_zero(self):
        res = ml_derivative_identity_residuals(1.5, 0.0, np.geomspace(0.1, 2.0, 10))
        assert all(v < 1e-9 for v in res.values())

    def test_moderate_lambda(self):
        res = ml_derivative_identity_residuals(1.5, 1.0, np.geomspace(0.1, 2.0, 15))
        assert max(res.values()) <= 1e-6

    def test_stiff_lambda(self):
        res = ml_derivative_identity_residuals(1.2, 100.0, np.geomspace(0.05, 1.0, 15))
        assert max(res.values()) <= 1e-5

    def test_rejects_grid_touching_zero(self):
        with pytest.raises(ValueError):
            ml_derivative_identity_residuals(1.5, 1.0, np.array([0.0, 0.5, 1.0]))


# every order up to 64, then a spread to 1032 (four times the largest mode
# index of a 4096-mode square, plus 8)
_GL_ORDERS = list(range(1, 65)) + list(range(65, 1032, 61)) + [1032]


class TestGaussLegendre:
    @pytest.mark.parametrize("order", _GL_ORDERS)
    def test_against_scipy(self, order):
        from scipy.special import roots_legendre

        x, w = gauss_legendre(order)
        xs, ws = roots_legendre(order)
        assert np.max(np.abs(x - xs)) <= 4.5e-16
        # scipy's own weights are off by up to 1.9e-13 near the endpoints at
        # orders 900-1000; test_weights_against_extended_precision shows
        # this rule is the accurate one there
        assert np.max(np.abs(w - ws)) <= 2.5e-13

    @pytest.mark.parametrize("order", _GL_ORDERS)
    def test_exact_through_degree_2n_minus_1(self, order):
        x, w = gauss_legendre(order)
        # int P_k = 0 for k >= 1; P_k by the three-term recurrence
        p0, p1 = np.ones_like(x), x.copy()
        worst = abs(w @ p1)
        for k in range(2, 2 * order):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            worst = max(worst, abs(w @ p1))
        assert worst <= 2e-13
        assert abs(w.sum() - 2.0) <= 2e-13

    @pytest.mark.parametrize("order", [1, 2, 7, 136, 1031])
    def test_symmetric_and_ascending(self, order):
        x, w = gauss_legendre(order)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
        if order % 2:
            assert x[order // 2] == 0.0 and math.copysign(1.0, x[order // 2]) == 1.0

    def test_weights_against_extended_precision(self):
        # 40-digit Newton on the recurrence at the outermost and central
        # nodes, where scipy's weights err most (orders 932 and 1032)
        def node_and_weight(n, guess):
            with mpmath.workdps(40):
                r = mpmath.mpf(guess)
                for _ in range(4):
                    p0, p1 = mpmath.mpf(1), r
                    for j in range(2, n + 1):
                        p0, p1 = p1, ((2 * j - 1) * r * p1 - (j - 1) * p0) / j
                    dp = n * (p0 - r * p1)
                    r, w = r - p1 * (1 - r * r) / dp, 2 * (1 - r * r) / dp**2
                return float(r), float(w)

        for n in (932, 1032):
            x, w = gauss_legendre(n)
            for i in (0, 1, n // 2):
                rx, rw = node_and_weight(n, x[i])
                assert abs(x[i] - rx) <= 1.2e-16
                assert abs(w[i] - rw) <= 1e-15

    def test_cached_arrays_are_read_only(self):
        x, w = gauss_legendre(12)
        assert gauss_legendre(12)[0] is x
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_rejects_order_below_one(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)


class TestLaplaceCheck:
    def test_classic_exponential_pair(self):
        # alpha=beta=1 reduces to the transform of exp(-t)
        assert ml_laplace_check(1.0, 1.0, 1.0, 2.0) < 1e-9

    @pytest.mark.parametrize(
        "alpha,beta,lam,z",
        [(1.5, 1.0, 1.0, 2.0), (1.5, 2.0, 4.0, 3.0), (1.2, 1.5, 0.5, 1.8)],
    )
    def test_transform_pairs(self, alpha, beta, lam, z):
        assert ml_laplace_check(alpha, beta, lam, z) <= 1e-8

    def test_validity_region_enforced(self):
        with pytest.raises(ValueError):
            ml_laplace_check(1.5, 1.0, 8.0, 1.0)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_oracle_agreement_alpha_dependent_betas(alpha):
    # beta in {1, 2, alpha, alpha-1, 3} across the oracle-convergent range
    for beta in (1.0, 2.0, alpha, alpha - 1.0, 3.0):
        for z in np.linspace(-50.0, 0.0, 9):
            got = ml_eval(alpha, beta, float(z))[0]
            ref = ml_series_oracle(alpha, beta, float(z), 500)
            assert abs(got - ref) <= 1e-10


def test_overflow_raises_evaluation_error():
    from fracplate.special_functions import MLEvaluationError

    with pytest.raises(MLEvaluationError):
        ml_eval(1.0, 1.0, 800.0)


@pytest.mark.parametrize(
    "alpha,beta,z",
    [
        (0.2, 1.0, 3.0), (0.25, 1.0, 5.0), (0.3, 1.0, 5.0), (0.3, 1.0, 7.0),
        (0.4, 1.0, 7.0), (0.4, 1.0, 10.0), (0.5, 1.0, 9.0),
        (0.25, 0.5, 5.0), (0.25, 2.0, 5.0), (0.25, 3.0, 5.0),
        (0.5, 0.5, 10.0), (0.5, 1.0, 10.0), (0.5, 2.0, 10.0), (0.5, 3.0, 10.0),
    ],
)
def test_positive_points_past_the_float_sum_meet_the_contract(alpha, beta, z):
    # finite values inside the contract box where the float Taylor sum
    # overflows z^k, or ends at 800 terms, before its terms are small
    value, _, method = ml_eval(alpha, beta, z)
    ref = ml_series_oracle(alpha, beta, z, 4000)
    assert method == "TaylorSeries"
    assert abs(value - ref) <= max(1e-12, 1e-12 * abs(ref))


@pytest.mark.parametrize(
    "alpha,beta,z", [(0.25, 1.0, 5.0), (0.3, 1.0, 7.0), (0.4, 1.0, 10.0), (0.5, 1.0, 26.0)]
)
def test_extended_taylor_estimate_bounds_the_positive_tail(alpha, beta, z):
    # past the extended sum's stop the positive terms fall slowly at small
    # alpha, so the error is their tail, several times the last term; the
    # reference is the series summed in 40 digits to a term below 1e-45 of it
    import mpmath

    value, est, method = ml_eval(alpha, beta, z)
    with mpmath.workdps(40):
        a, x = mpmath.mpf(alpha), mpmath.mpf(z)
        ref, k = mpmath.mpf(0), 0
        while True:
            term = x**k / mpmath.gamma(a * k + beta)
            ref += term
            if alpha * k > z ** (1.0 / alpha) and term < 1e-45 * ref:
                break
            k += 1
        err = float(abs(value - ref))
    assert method == "TaylorSeries"
    assert est >= err


@pytest.mark.parametrize("alpha", [0.02, 0.05])
@pytest.mark.parametrize("z", [1.0, -1.0])
def test_small_orders_at_unit_argument_meet_the_contract(alpha, z):
    # 1/Gamma(alpha k + 1) falls so slowly at alpha = 0.02 that the float
    # sum's 800 terms do not finish at |z| = 1 and the extended sum needs
    # about 1,000; the reference is the series summed in 40 digits
    import mpmath

    value, _, method = ml_eval(alpha, 1.0, z)
    with mpmath.workdps(40):
        a, x = mpmath.mpf(alpha), mpmath.mpf(z)
        ref = float(mpmath.fsum(x**k / mpmath.gamma(a * k + 1) for k in range(3000)))
    assert method == "TaylorSeries"
    assert abs(value - ref) <= max(1e-12, 1e-12 * abs(ref))


@pytest.mark.parametrize(
    "alpha,beta,z",
    [
        (0.8, 1.0, -30.0), (1.0, 1.0, -30.0), (2.0, 1.5, -50.0), (0.5, 2.0, -10.0),
        # served by the asymptotics below |z| = 25
        (0.8, 0.5, -17.92), (0.9, 3.0, -18.38), (1.01, 3.0, -25.0),
    ],
)
def test_order_domain_edges(alpha, beta, z):
    # orders at and below the solver range still meet the value contract
    got = ml_eval(alpha, beta, z)[0]
    ref = ml_series_oracle(alpha, beta, z, 4000)
    assert abs(got - ref) <= max(1e-12, 1e-12 * abs(ref))


def test_exact_exponential_at_order_one():
    got = ml_eval(1.0, 1.0, -30.0)[0]
    assert got == pytest.approx(math.exp(-30.0), rel=1e-11)


@pytest.mark.parametrize(
    "alpha,beta,z",
    [
        # shapes that once produced optimistic error estimates: slow envelope
        # decay near order 1 and a sharp near-pole quadrature ridge
        (1.0391158139381045, 1.6618541997501446, -30.64275273469237),
        (1.016788230981475, 1.9694709208578267, -29.59996230145709),
        (1.037239429308231, 3.435742089906538, -25.68431142361198),
    ],
)
def test_error_estimate_honest_near_order_one(alpha, beta, z):
    value, est, _ = ml_eval(alpha, beta, z)
    ref = ml_series_oracle(alpha, beta, z, 4000)
    assert abs(value - ref) <= max(est, 2e-15)


class TestOutOfRange:
    def test_positive_overflow_raises_before_summing(self, monkeypatch):
        from fracplate import special_functions as sf

        def forbidden(*args):
            raise AssertionError("extended-precision Taylor must not run")

        monkeypatch.setattr(sf, "_taylor_mp", forbidden)
        with pytest.raises(sf.MLEvaluationError, match="overflows double precision"):
            ml_eval(1.5, 1.0, 1e8)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_rejected(self, z):
        with pytest.raises(ValueError, match="finite"):
            ml_eval(1.5, 1.0, z)

    def test_profile_rejects_nan(self):
        with pytest.raises(ValueError):
            ml_profile(1.5, 1.0, np.array([-1.0, math.nan]))

    def test_cli_exits_nonzero_on_overflow(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fracplate.cli", "ml",
             "--alpha", "1.5", "--beta", "1", "--z=1e300"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode != 0
        assert "overflows double precision" in proc.stderr


def _kept_ml_outputs(capsys, alphas, skip=(), asymptotic=False):
    """The non-asymptotic outputs of the `ml` command over ``alphas`` x beta
    {0.5, 1, 2} x 12 z values, less the ``(alpha, z)`` pairs in ``skip``; with
    ``asymptotic`` the complement, the AsymptoticExpansion outputs."""
    from fracplate.cli import main

    kept = []
    for alpha in alphas:
        for beta in (0.5, 1, 2):
            for z in (0, 5, 10, -0.5, -5, -9, -20, -40, -60, -100, -1e3, -1e6):
                if (alpha, z) in skip:
                    continue
                assert main(["ml", "--alpha", str(alpha), "--beta", str(beta),
                             f"--z={z}"]) == 0
                out = capsys.readouterr().out
                if out.rstrip().endswith("AsymptoticExpansion") == asymptotic:
                    kept.append(out)
    return kept


def test_pinned_routes_cli_bytes(capsys):
    # every non-asymptotic route of the `ml` command, pinned by the sha256 of
    # its concatenated output (51 TaylorSeries, 34 IntegralRepresentation)
    kept = _kept_ml_outputs(capsys, (1.2, 1.5, 1.8))
    assert len(kept) == 85
    assert sum(o.rstrip().endswith("IntegralRepresentation") for o in kept) == 34
    digest = hashlib.sha256("".join(kept).encode()).hexdigest()
    assert digest == "be339bcd7ea66ef984e8838b91b5ff193cd759f52da6244326edcc050a223d72"


def test_pinned_edge_order_routes_cli_bytes(capsys):
    # the same pin at alpha 0.5, 0.9, 1 and 2: the float and extended Taylor
    # sums below order 1.02 (74 TaylorSeries, 9 IntegralRepresentation);
    # alpha 0.5 at z = 10 is left out, the contract test above covers it
    kept = _kept_ml_outputs(capsys, (0.5, 0.9, 1.0, 2.0), skip={(0.5, 10)})
    assert len(kept) == 83
    assert sum(o.rstrip().endswith("IntegralRepresentation") for o in kept) == 9
    digest = hashlib.sha256("".join(kept).encode()).hexdigest()
    assert digest == "f2c3c96804a50b44d2465bb46349cbdbda3d7d2ba22666165dad1e26c12724bb"


@pytest.mark.parametrize("alphas,skip,count,digest", [
    ((1.2, 1.5, 1.8), (), 23,
     "dc525802633823c81cd9cdf64b2d4330f2769de0d12c237a101a76648fd0ff8b"),
    ((0.5, 0.9, 1.0, 2.0), {(0.5, 10)}, 58,
     "77efc9aea19c838769dd12695bb72144895b5ce46ef56f9b4846d7264e14594c"),
])
def test_pinned_asymptotic_cli_bytes(capsys, alphas, skip, count, digest):
    # the AsymptoticExpansion outputs that the two pins above leave out, over
    # the same grids: the expansion's values, estimates and convergence
    kept = _kept_ml_outputs(capsys, alphas, skip, asymptotic=True)
    assert len(kept) == count
    assert hashlib.sha256("".join(kept).encode()).hexdigest() == digest


# every grid has points in the Taylor band and past the far-form edge X
_PROFILE_GRIDS = [
    (alpha, beta, -np.logspace(-6, 7, 160))
    for alpha, beta in [(1.2, 1.0), (1.5, 2.0), (1.8, 1.5)]
] + [(1.5, 2.0, np.array([0.0, -1.0, -1e5]))]


@pytest.mark.parametrize("alpha,beta,z", _PROFILE_GRIDS)
def test_profile_batch_independent(alpha, beta, z):
    from fracplate.special_functions import _far_form

    assert np.any(-z >= _far_form(alpha, beta)[0])
    prof = ml_profile(alpha, beta, z)
    alone = np.array([ml_profile(alpha, beta, z[i : i + 1])[0] for i in range(z.size)])
    assert np.array_equal(prof, alone)


@pytest.mark.parametrize("alpha,beta,z", _PROFILE_GRIDS)
def test_profile_agrees_with_ml_eval(alpha, beta, z):
    # the Taylor band against the exact partial sum, the asymptotic band
    # against the evaluator's own error bound
    from fracplate.special_functions import _profile_B, _profile_zf

    prof = ml_profile(alpha, beta, z)
    a = np.abs(z)
    taylor = a <= _profile_zf(alpha)
    big = a > _profile_B(alpha)
    assert taylor.any()
    for i in np.flatnonzero(taylor):
        assert abs(prof[i] - ml_series_oracle(alpha, beta, float(z[i]), 150)) <= 5e-14
    for i in np.flatnonzero(big):
        value, est, _ = ml_eval(alpha, beta, float(z[i]))
        assert abs(prof[i] - value) <= est


_TAYLOR_BAND_ALPHAS = [1.01, 1.2, 1.5, 1.8, 1.9, 1.99, 2.0]


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.25, 2.0, 2.25, None])
@pytest.mark.parametrize("alpha", _TAYLOR_BAND_ALPHAS)
def test_taylor_band_against_the_series_oracle(alpha, beta):
    # 1/Gamma(beta) + z S(z) over the whole band, its edge included, within
    # 5e-14 absolute of the exact partial sum (None: beta = alpha)
    from fracplate.special_functions import _profile_zf

    beta = alpha if beta is None else beta
    zf = _profile_zf(alpha)
    z = -np.concatenate([np.linspace(0.0, zf, 24), zf * np.geomspace(1e-6, 0.5, 6)])
    prof = ml_profile(alpha, beta, z)
    ref = np.array([ml_series_oracle(alpha, beta, float(v), 150) for v in z])
    assert np.max(np.abs(prof - ref)) <= 5e-14


@pytest.mark.parametrize("alpha,beta", [(1.5, 1.0), (1.5, 2.0), (1.01, 1.0)])
def test_taylor_band_near_zero_to_two_ulps(alpha, beta):
    # with 1/Gamma(beta) split off the fit, its error is scaled by |z|: a
    # fit of E_{alpha,beta} itself is 5-8 ulps off here
    z = -np.logspace(-10, -2, 60)
    prof = ml_profile(alpha, beta, z)
    ref = np.array([ml_series_oracle(alpha, beta, float(v), 40) for v in z])
    assert np.all(np.abs(prof - ref) <= 2.0 * np.spacing(np.abs(ref)))


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.25, 2.0, 2.25])
@pytest.mark.parametrize("alpha", _TAYLOR_BAND_ALPHAS)
def test_profile_at_zero_is_the_reciprocal_gamma(alpha, beta):
    assert ml_profile(alpha, beta, np.array([0.0]))[0] == reciprocal_gamma(beta)


def _fd5_loop(f, t, h):
    return (f(t - 2 * h) - 8 * f(t - h) + 8 * f(t + h) - f(t + 2 * h)) / (12.0 * h)


@pytest.mark.parametrize("alpha,lam", [(1.5, 1.0), (1.2, 100.0), (1.8, 10.0)])
def test_derivative_identities_match_pointwise_loop(alpha, lam):
    # the per-node ml_eval loop the array version replaced; powers of t are
    # rounded differently, so agreement is to rounding amplified by 1/h
    times = np.geomspace(0.05, 1.0, 12)

    def e(beta, t):
        return ml_eval(alpha, beta, -lam * t**alpha)[0]

    r = [0.0, 0.0, 0.0]
    for t in times:
        h = min(t / 3.0, (1.0 + lam) ** (-1.0 / alpha)) / 48.0
        d1 = _fd5_loop(lambda s: e(1.0, s), t, h)
        d2 = _fd5_loop(lambda s: s * e(2.0, s), t, h)
        d3 = _fd5_loop(lambda s: s ** (alpha - 1.0) * e(alpha, s), t, h)
        r[0] = max(r[0], abs(d1 + lam * t ** (alpha - 1.0) * e(alpha, t)))
        r[1] = max(r[1], abs(d2 - e(1.0, t)))
        r[2] = max(r[2], abs(d3 - t ** (alpha - 2.0) * e(alpha - 1.0, t)))
    res = ml_derivative_identity_residuals(alpha, lam, times)
    got = [res[k] for k in ("residual_dEa", "residual_dtEa2", "residual_dtam1Eaa")]
    assert np.allclose(got, r, rtol=0.0, atol=1e-10)


# {{{ the array branch-cut rule

_RULE_PAIRS = [
    (1.02, 1.0), (1.2, 2.0), (1.5, 1.0), (1.5, 2.0), (1.5, 1.25), (1.5, 2.25),
    (1.9, 1.0),
    (1.5, 3.0),  # beta >= 1 + alpha: lowered by alpha first
    # edge shapes: close to order 1 with beta past 1 + alpha, and order 2
    # with beta below 1
    (1.03, 2.5), (1.04, 3.43), (2.0, 0.5),
    # below alpha = 1.02, where ml_eval takes the extended Taylor sum but the
    # band cache takes the cut integral
    (1.01, 1.0), (1.01, 2.0), (1.005, 1.005), (1.0001, 1.0),
]


def _cheb_band_nodes(alpha):
    # the arguments a degree-180 band fit of `alpha` evaluates: the band
    # cache's fallback fit, and more nodes than its first fit uses
    from fracplate.special_functions import _profile_B, _profile_zf

    ya = math.log(0.97 * _profile_zf(alpha))
    yb = math.log(1.03 * _profile_B(alpha))
    n = 181
    tk = np.cos(np.pi * (np.arange(n) + 0.5) / n)
    return -np.exp(0.5 * (ya + yb) + 0.5 * (yb - ya) * tk)


@pytest.mark.parametrize("alpha,beta", _RULE_PAIRS)
def test_integral_rule_against_oracle_at_band_nodes(alpha, beta):
    from fracplate.special_functions import _integral_rep

    z = _cheb_band_nodes(alpha)
    value, est = _integral_rep(alpha, beta, z)
    for i in range(z.size):
        ref = ml_series_oracle(alpha, beta, float(z[i]), 400)
        err = abs(value[i] - ref)
        assert err <= max(1e-13, 1e-13 * abs(ref)), (z[i], value[i], ref)
        assert err <= est[i], (z[i], err, est[i])


def test_band_build_needs_no_extended_precision(monkeypatch):
    # every band node the float Taylor sum refuses goes to the array routes
    from fracplate import special_functions as sf

    def forbidden(*args):
        raise AssertionError("extended-precision Taylor must not run")

    monkeypatch.setattr(sf, "_taylor_mp", forbidden)
    monkeypatch.setattr(sf, "_CHEB_CACHE", {})
    for alpha, beta in [(1.5, 1.0), (1.5, 2.0), (1.5, 1.25), (1.5, 2.25),
                        (1.02, 1.0), (2.0, 1.5)]:
        sf._cheb_band(alpha, beta)
    assert len(sf._CHEB_CACHE) == 6


@pytest.mark.parametrize("alpha,beta", [(1.02, 1.0), (1.5, 2.25), (1.5, 3.0)])
def test_integral_rule_batch_independent(alpha, beta):
    from fracplate.special_functions import _integral_rep

    # 300 points: more than one block of rows of the quadrature matrix
    z = -np.geomspace(1.0, -_cheb_band_nodes(alpha)[0], 300)
    value, est = _integral_rep(alpha, beta, z)
    for i in range(z.size):
        v1, e1 = _integral_rep(alpha, beta, z[i : i + 1])
        assert v1[0] == value[i] and e1[0] == est[i]


def _recording_integral_value(monkeypatch):
    """Route the band build's value-only integral pass through a wrapper;
    returns the list of its ``(x, value)`` pairs."""
    from fracplate import special_functions as sf

    seen = []
    inner = sf._integral_value

    def recording(a, b, x):
        value = inner(a, b, x)
        seen.append((x.copy(), value))
        return value

    monkeypatch.setattr(sf, "_integral_value", recording)
    return seen


@pytest.mark.parametrize("alpha,beta", [(1.2, 1.0), (1.8, 2.0)])
def test_band_build_values_equal_ml_eval(alpha, beta, monkeypatch):
    # the Chebyshev build takes the value of ml_eval's integral route: every
    # value it fits or verifies equals _integral_rep's at the same argument,
    # which is ml_eval's value where ml_eval takes that route
    from fracplate import special_functions as sf

    monkeypatch.delitem(sf._CHEB_CACHE, (alpha, beta), raising=False)
    seen = _recording_integral_value(monkeypatch)
    sf._cheb_band(alpha, beta)
    monkeypatch.undo()
    assert len(seen) == 1
    x, value = seen[0]
    assert x.size == 77
    integral = 0
    for i in range(x.size):
        z = np.array([-x[i]])
        assert sf._integral_rep(alpha, beta, z)[0][0] == value[i]
        v, _, method = ml_eval(alpha, beta, z)
        if method[0] == "IntegralRepresentation":
            integral += 1
            assert v[0] == value[i]
    assert integral > 0


def test_cold_profile_calls_no_evaluator(monkeypatch):
    # building the Taylor band, the intermediate band and the far form
    # takes neither ml_eval nor the asymptotic table at ml_eval's target
    from fracplate import special_functions as sf

    def forbidden(*args):
        raise AssertionError("ml_eval must not run")

    targets = []
    inner = sf._asymptotic_table

    def recording(a, b, target):
        targets.append(target)
        return inner(a, b, target)

    for cache in ("_CHEB_CACHE", "_TAYLOR_CACHE", "_ASYMPTOTIC_CACHE", "_FAR_CACHE"):
        monkeypatch.setattr(sf, cache, {})
    monkeypatch.setattr(sf, "ml_eval", forbidden)
    monkeypatch.setattr(sf, "_asymptotic_table", recording)
    z = -np.geomspace(1e-3, 1e6, 400)
    for beta in (1.0, 2.0):
        assert np.all(np.isfinite(ml_profile(1.5, beta, z)))
    assert len(sf._CHEB_CACHE) == len(sf._TAYLOR_CACHE) == len(sf._FAR_CACHE) == 2
    assert targets and set(targets) == {0.0}


@pytest.mark.parametrize(
    "alpha,beta,extended,integral",
    [(0.5, 1.0, [10.0, 26.0, -5.0], 0), (0.9, 2.0, [26.0, -5.0], 0),
     (1.5, 1.0, [26.0], 3), (1.5, 3.0, [26.0], 3)],
)
def test_array_evaluator_batch_independent(
    alpha, beta, extended, integral, monkeypatch
):
    # one call over every route equals the one-point calls bit for bit: z = 0,
    # the float Taylor sum, the extended one (past z = 25, past the float
    # sum's reach at alpha 0.5, and the intermediate band below alpha 1.02),
    # the asymptotic expansion and the integral representation
    from fracplate import special_functions as sf

    seen = []
    inner = sf._taylor_mp

    def recording(a, b, x):
        seen.append(x)
        return inner(a, b, x)

    monkeypatch.setattr(sf, "_taylor_mp", recording)
    z = np.array([
        0.0, 0.5, 3.0, 10.0, 26.0, -0.5, -5.0, -20.0, -40.0, -60.0, -1e3, -1e8,
    ]).reshape(3, 4)
    value, est, method = ml_eval(alpha, beta, z)
    assert seen == extended
    assert value.shape == est.shape == method.shape == z.shape
    assert (method == "AsymptoticExpansion").sum() >= 2
    assert (method == "IntegralRepresentation").sum() == integral
    for i in np.ndindex(z.shape):
        assert ml_eval(alpha, beta, z[i]) == (value[i], est[i], method[i])


# }}}


# {{{ the cut Chebyshev band

_CUT_PAIRS = list(dict.fromkeys(
    [(alpha, beta)
     for alpha in (1.01, 1.02, 1.1, 1.3, 1.5, 1.7, 1.9, 1.99, 2.0)
     for beta in (1.0, 2.0, alpha, 1.25, 2.25, 3.0)]
    + [(2.0, 0.5)]
))


@pytest.mark.parametrize("alpha,beta", _CUT_PAIRS)
def test_cut_band_against_degree_180_band(alpha, beta, monkeypatch):
    # the cached band, built cold, against the uncut degree-180 interpolant
    # (numpy's chebinterpolate at the same kind of nodes) and the evaluator
    from fracplate import special_functions as sf

    monkeypatch.setattr(sf, "_CHEB_CACHE", {})
    zf, big = sf._profile_zf(alpha), sf._profile_B(alpha)
    ya, yb = math.log(0.97 * zf), math.log(1.03 * big)
    z = -np.exp(np.random.default_rng(2017).uniform(math.log(zf), math.log(big), 1000))
    got = ml_profile(alpha, beta, z)
    assert len(sf._CHEB_CACHE) == 1
    ref_coef = np.polynomial.chebyshev.chebinterpolate(
        lambda t: ml_eval(alpha, beta, -np.exp(0.5 * (ya + yb + (yb - ya) * t)))[0],
        180,
    )
    ref = np.polynomial.chebyshev.chebval(
        (2.0 * np.log(-z) - (ya + yb)) / (yb - ya), ref_coef
    )
    assert np.all(np.abs(got - ref) <= 2e-13 * np.maximum(1.0, np.abs(ref)))
    e = ml_eval(alpha, beta, z)[0]
    assert np.all(np.abs(got - e) <= np.maximum(1e-12, 1e-12 * np.abs(got)))


@pytest.mark.parametrize("beta", [1.0, 2.0, 1.5, 1.25, 2.25])
def test_band_build_is_one_call_at_65_nodes(beta, monkeypatch):
    # at the benchmark's order the first fit resolves every band: one
    # value-only pass on the 65 nodes and the 12 check points, and a series
    # cut short
    from fracplate import special_functions as sf

    monkeypatch.setattr(sf, "_CHEB_CACHE", {})
    seen = _recording_integral_value(monkeypatch)
    coef = sf._cheb_band(1.5, beta)[2]
    assert len(seen) == 1 and seen[0][0].size <= 77
    assert coef.size - 1 < 64


def test_band_falls_back_to_181_nodes(monkeypatch):
    # a first fit that is not resolved, or that fails its check points, is
    # replaced by the 181-node fit, cut and verified at the same points
    from fracplate import special_functions as sf

    sizes = []
    spoil = [True]
    inner = sf._integral_value

    def recording(a, b, x):
        value = inner(a, b, x)
        sizes.append(x.size)
        if len(sizes) == 1 and spoil[0]:
            value[-12:] += 1e-9  # the check points
        return value

    monkeypatch.setattr(sf, "_CHEB_CACHE", {})
    monkeypatch.setattr(sf, "_integral_value", recording)
    with pytest.raises(sf.MLEvaluationError, match="verification failed"):
        sf._cheb_band(1.5, 1.0)
    assert sizes == [77, 181]

    # a first fit that passes its check points but is not cut below the top
    # eighth of its coefficients does not resolve the band
    sizes.clear()
    spoil[0] = False
    monkeypatch.setattr(sf, "_cheb_cut", lambda coef: coef)
    coef = sf._cheb_band(1.5, 1.0)[2]
    assert sizes == [77, 181]
    assert coef.size == 181


def test_cut_keeps_the_shortest_head_within_the_tail_bound():
    from fracplate.special_functions import _cheb_cut

    # max|c| = 2: the dropped tail may sum to 2e-13
    coef = np.array([2.0, -0.5, 1e-3, 4e-14, -5e-14, 3e-14, 1e-16])
    assert np.array_equal(_cheb_cut(coef), coef[:3])
    # below max|c| = 1 the bound is absolute
    assert np.array_equal(_cheb_cut(np.array([0.5, 2e-13])), [0.5, 2e-13])
    # a series that is all tail keeps its constant
    assert np.array_equal(_cheb_cut(np.array([1e-15, 1e-16])), [1e-15])


def test_standard_chop_cuts_at_the_plateau():
    from fracplate.special_functions import _standard_chop

    # exact trailing zeros: the nonzero head
    coef = np.zeros(65)
    coef[:3] = [1.0, -0.5, 0.25]
    assert np.array_equal(_standard_chop(coef), coef[:3])
    # decay to a plateau of rounding noise: the cut is at its start, and
    # what it drops is noise
    noise = 1e-17 * np.random.default_rng(3).standard_normal(65)
    coef = 10.0 ** -np.arange(65.0) + noise
    head = _standard_chop(coef)
    assert 14 <= head.size <= 18 and np.max(np.abs(coef[head.size :])) <= 1e-14
    # no plateau within the coefficients, or too few of them: all are kept
    assert _standard_chop(0.9 ** np.arange(65.0)).size == 65
    assert _standard_chop(coef[:16]).size == 16


# }}}


# {{{ asymptotic expansion against the term-by-term loop

def _asymptotic_loop(alpha, beta, z, target):
    """The algebraic series one term at a time over the live points.

    Terms in log space, the envelope compared with the previous one for the
    floor and with 1e-17 (and the geometric tail with ``target / 2``) for
    convergence; returns ``(value, est, converged, terms summed)``.
    """
    from fracplate.special_functions import _residue_pair, _sinpi

    def tail(env, env_prev):
        return env * np.minimum(1.0 / (1.0 - env / env_prev), 1e3)

    x = -z
    value = np.empty_like(x)
    est = np.full_like(x, math.inf)
    converged = np.zeros(x.shape, dtype=bool)
    terms = np.full(x.shape, 199)
    idx = np.arange(x.size)
    res = _residue_pair(alpha, beta, x)
    lnx = np.log(x)
    s = np.zeros_like(x)
    env_prev = np.full_like(x, math.inf)
    max_mag = np.abs(res)
    for k in range(1, 200):
        if not idx.size:
            break
        sign = -1.0 if k % 2 else 1.0
        w = 1.0 + alpha * k - beta
        if w > 0.5:
            env = np.exp(math.lgamma(w) - k * lnx) / math.pi
            term = sign * _sinpi(beta - alpha * k) * env
        else:
            term = sign * reciprocal_gamma(beta - alpha * k) * np.exp(-k * lnx)
            env = np.abs(term)
        floor = ~(env < env_prev)
        value[idx[floor]] = res[floor] + s[floor]
        terms[idx[floor]] = k - 1
        keep = ~floor
        idx, lnx, res, s, env_prev, max_mag, env, term = (
            a[keep] for a in (idx, lnx, res, s, env_prev, max_mag, env, term)
        )
        s -= term
        np.maximum(max_mag, np.abs(term), out=max_mag)
        conv = env <= 1e-17
        if target > 0.0:
            conv |= tail(env, env_prev) < 0.5 * target
        d = idx[conv]
        v = res[conv] + s[conv]
        value[d] = v
        est[d] = 2.0 * tail(env[conv], env_prev[conv]) + 1e-15 + 2e-16 * (
            max_mag[conv] + np.abs(v)
        )
        converged[d] = True
        terms[d] = k
        keep = ~conv
        idx, lnx, res, s, env, max_mag = (
            a[keep] for a in (idx, lnx, res, s, env, max_mag)
        )
        env_prev = env
    value[idx] = res + s
    return value, est, converged, terms


@pytest.mark.parametrize("target", [0.0, 2e-13])
@pytest.mark.parametrize("alpha", [1.02, 1.2, 1.5, 1.8, 2.0])
@pytest.mark.parametrize("beta", [1.0, 2.0, 2.25, "alpha"])
def test_asymptotic_equals_term_loop(alpha, beta, target):
    from fracplate.special_functions import (
        _asymptotic,
        _asymptotic_sum,
        _asymptotic_table,
        _profile_B,
        _profile_zf,
    )

    beta = alpha if beta == "alpha" else beta
    # the ml_profile band and, below it, the rest of ml_eval's far range
    z = -np.concatenate([
        np.logspace(math.log10(_profile_B(alpha)), 12, 1500),
        np.logspace(math.log10(_profile_zf(alpha)), math.log10(_profile_B(alpha)), 300),
    ])
    value, est, conv = _asymptotic(alpha, beta, z, target)
    old_value, old_est, old_conv, old_terms = _asymptotic_loop(alpha, beta, z, target)
    tab = _asymptotic_table(alpha, beta, target)
    order = np.argsort(-z)
    terms = np.empty(z.size, dtype=np.intp)
    terms[order] = _asymptotic_sum(alpha, beta, tab, -z[order])[1]
    assert np.array_equal(conv, -z >= tab.conv_at[terms - 1])
    thresholds = np.concatenate([tab.floor_at[1:], tab.conv_at])
    near = np.min(np.abs(np.log(-z[:, None] / thresholds)), axis=1) < 1e-10
    assert np.all((terms == old_terms) | near)
    assert np.all((conv == old_conv) | near)
    same = conv == old_conv
    assert np.all(np.abs(value - old_value)[same & conv] <= old_est[same & conv])
    assert np.all(np.isinf(est[~conv]))
    # the envelope bounds every term: the estimate is never below the loop's
    assert np.all(est[same] >= old_est[same] * (1.0 - 1e-12))


def test_asymptotic_floor_point_keeps_the_sum_to_its_smallest_term():
    from fracplate.special_functions import _asymptotic

    z = -np.logspace(math.log10(4.7**1.5), math.log10(30.0**1.5), 400)
    value, est, conv = _asymptotic(1.5, 1.0, z, 2e-13)
    old_value, _, old_conv, _ = _asymptotic_loop(1.5, 1.0, z, 2e-13)
    floor = ~conv & ~old_conv
    assert floor.sum() > 100
    # a sum of O(1) terms: both roundings agree to a few units of 1e-16
    assert np.all(np.abs(value - old_value)[floor] <= 1e-14)


def _term_counts_two_thresholds(tab, x):
    """Term counts and convergence by the two-threshold rule: with
    ``i_floor = #(floor_at < x)`` and ``i_conv = #(conv_at > x)``, a point
    sums ``min(i_floor, i_conv + 1)`` terms and converged if
    ``i_conv < i_floor``."""
    i_floor = np.count_nonzero(tab.floor_at[None, :] < x[:, None], axis=1)
    i_conv = np.count_nonzero(tab.conv_at[None, :] > x[:, None], axis=1)
    return np.minimum(i_floor, i_conv + 1), i_conv < i_floor


_CORE_PAIRS = [(1.02, 1.0), (1.2, 2.0), (1.5, 1.0), (1.5, 2.25), (1.8, 1.8), (2.0, 0.5)]


@pytest.mark.parametrize("target", [0.0, 2e-13])
@pytest.mark.parametrize("alpha,beta", _CORE_PAIRS)
def test_term_count_slices_equal_two_threshold_rule(alpha, beta, target):
    # every threshold, its two float neighbours and a geometric sweep: the
    # nested slices of the sorted points sum each point's count of terms
    from fracplate.special_functions import _asymptotic_sum, _asymptotic_table

    tab = _asymptotic_table(alpha, beta, target)
    b = np.concatenate([tab.floor_at, tab.conv_at])
    b = b[np.isfinite(b) & (b > 0.0)]
    x = np.sort(np.concatenate([
        b, np.nextafter(b, 0.0), np.nextafter(b, math.inf),
        np.geomspace(1e-3, 1e15, 5000),
    ]))
    terms = _asymptotic_sum(alpha, beta, tab, x)[1]
    old_terms, old_conv = _term_counts_two_thresholds(tab, x)
    assert np.array_equal(terms, old_terms)
    assert np.array_equal(x >= tab.conv_at[terms - 1], old_conv)


@pytest.mark.parametrize("alpha,beta", _CORE_PAIRS)
def test_value_only_core_equals_the_wrapper(alpha, beta):
    # the core alone against the values of the estimating wrapper, on two
    # blocks of random points of ml_eval's far range with the floor, the
    # residue cut-off and the term-count thresholds among them; from the
    # band edge up to the far-form edge X the core is ml_profile's band
    from fracplate.special_functions import (
        _BLOCK,
        _asymptotic,
        _asymptotic_sum,
        _asymptotic_table,
        _far_form,
        _profile_B,
        _profile_zf,
    )

    tab = _asymptotic_table(alpha, beta, 0.0)
    lo_edge, edge = _profile_zf(alpha), _profile_B(alpha)
    rng = np.random.default_rng(11)
    special = np.concatenate([tab.floor_at, tab.conv_at, [tab.residue_below]])
    special = special[np.isfinite(special) & (special > lo_edge)]
    x = np.concatenate([
        special, np.nextafter(special, 0.0), np.nextafter(special, math.inf),
        np.exp(rng.uniform(math.log(lo_edge), math.log(1e13), _BLOCK + 3000)),
    ])
    x = x[x > lo_edge]
    rng.shuffle(x)
    value, est, conv = _asymptotic(alpha, beta, -x, 0.0)
    assert (~conv).sum() > 100  # points at the floor
    if math.isfinite(tab.residue_below):
        assert np.any(x < tab.residue_below) and np.any(x >= tab.residue_below)
    core = np.empty_like(x)
    for lo in range(0, x.size, _BLOCK):
        order = lo + np.argsort(x[lo : lo + _BLOCK])
        core[order] = _asymptotic_sum(alpha, beta, tab, x[order])[0]
    assert np.array_equal(core, value)
    # each block is sorted inside the kernel: other blocks, same bits
    back = _asymptotic(alpha, beta, -x[::-1], 0.0)
    for got, want in zip(back, (value, est, conv)):
        assert got.tobytes() == want[::-1].tobytes()
    band = (x > edge) & (x < _far_form(alpha, beta)[0])
    assert band.sum() > 100
    assert np.array_equal(ml_profile(alpha, beta, -x[band]), value[band])


# }}}


# {{{ far form

@pytest.mark.parametrize("beta", [1.0, 2.0])
@pytest.mark.parametrize("alpha", [1.01, 1.2, 1.5, 1.8, 1.9, 1.99, 1.999])
def test_far_form_is_the_profile_to_rounding(alpha, beta):
    # from X on the K-term algebraic series alone is the asymptotic band's
    # expansion to rounding, relative to the value: the residue pair is below
    # half an ulp of the leading term there, also where
    # c_1 = 1/Gamma(beta - alpha) is small; ml_profile sums it by Horner
    from fracplate.special_functions import (
        _asymptotic_sum,
        _asymptotic_table,
        _far_form,
        _profile_B,
    )

    X, coef = _far_form(alpha, beta)
    assert X >= 1e3 and coef.size >= 2
    rho = X ** (1.0 / alpha)
    envelope = (2.0 / alpha) * rho ** (1.0 - beta)
    envelope *= math.exp(rho * math.cos(math.pi / alpha))
    assert envelope <= 2.0**-53 * abs(coef[0]) / X
    x = np.logspace(math.log10(X), math.log10(X) + 12.0, 4000)
    y = 1.0 / x
    far = np.zeros_like(x)
    p = np.ones_like(x)
    for c in coef:
        p *= y
        far += c * p
    ref = _asymptotic_sum(alpha, beta, _asymptotic_table(alpha, beta, 0.0), x)[0]
    assert np.max(np.abs(far - ref) / np.abs(ref)) <= 4e-15
    past = x > _profile_B(alpha)
    prof = ml_profile(alpha, beta, -x[past])
    assert np.max(np.abs(prof - ref[past]) / np.abs(ref[past])) <= 4e-15


@pytest.mark.parametrize("beta", [1.0, 2.0])
def test_far_form_is_empty_at_alpha_two(beta):
    # E_{2,1}(-x) = cos(sqrt(x)) and E_{2,2}(-x) = sin(sqrt(x)) / sqrt(x) never
    # reduce to the algebraic series: no x is far
    from fracplate.special_functions import _far_form

    assert _far_form(2.0, beta)[0] == math.inf


# }}}
