r"""Gamma and two-parameter Mittag-Leffler evaluation on the real line.

The Mittag-Leffler function

.. math::

    E_{\alpha,\beta}(z) = \sum_{k=0}^\infty \frac{z^k}{\Gamma(\alpha k + \beta)}

is the time kernel of fractional relaxation; everything downstream (the
spectral solver, the boundary-trace probes) evaluates it at ``z = -lam * t**alpha``
on the negative real axis.  Three strategies cover that axis:

* a Taylor sum for small ``|z|`` (in float when alternating cancellation is
  mild, otherwise in guarded extended precision, since the sum loses roughly
  ``|z|**(1/alpha) * log10(e)`` digits);
* a branch-cut integral representation (conjugate-pole residue pair plus a
  smooth Laplace-type kernel) for the intermediate band;
* the algebraic large-argument expansion, augmented with the same residue
  pair, once its optimal-truncation floor ``exp(-|z|**(1/alpha))`` is below
  the target accuracy.

A vectorized fast path (:func:`ml_profile`) serves the solver, backed by a
per-``(alpha, beta)`` Chebyshev cache of the intermediate band built from the
scalar evaluator and verified against it at construction time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import mpmath
import numpy as np
from numpy.polynomial import chebyshev
from scipy.integrate import IntegrationWarning, quad

from .report import VerificationReport

__all__ = [
    "MLParams",
    "MLMethod",
    "MLEvaluation",
    "MLEvaluationError",
    "MLDecayBound",
    "gamma_fn",
    "reciprocal_gamma",
    "ml_eval",
    "ml_profile",
    "ml_series_oracle",
    "ml_derivative_identity_residuals",
    "ml_laplace_check",
    "ml_decay_bound_estimate",
    "max_beta",
]


# {{{ gamma

# Lanczos coefficients for g = 607/128, n = 15 (Godfrey's set); relative
# error below 2e-15 on the positive axis in double precision.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def _sinpi(x: float) -> float:
    """sin(pi*x) with argument reduction (exact zeros at integers)."""
    n = math.floor(x)
    r = x - n
    if r == 0.0:
        return 0.0
    s = math.sin(math.pi * r)
    return -s if n % 2 else s


def _lanczos_positive(x: float) -> float:
    # requires x >= 0.5
    xm = x - 1.0
    acc = _LANCZOS_C[0]
    for i in range(1, 15):
        acc += _LANCZOS_C[i] / (xm + i)
    t = xm + _LANCZOS_G + 0.5
    # split the power so that Gamma(170) stays below the overflow threshold
    u = t ** (0.5 * xm + 0.25) * math.exp(-0.5 * t)
    return math.sqrt(2.0 * math.pi) * u * u * acc


def gamma_fn(x: float) -> float:
    """Euler Gamma via Lanczos rational approximation, reflection for x < 1/2.

    Raises ValueError at the poles (0, -1, -2, ...) and OverflowError past
    the double-precision range (x > 171.62).
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise ValueError(f"gamma pole at non-positive integer x={x}")
    if x >= 0.5:
        if x > 171.7:
            raise OverflowError(f"gamma({x}) overflows double precision")
        return _lanczos_positive(x)
    s = _sinpi(x)
    return math.pi / (s * _lanczos_positive(1.0 - x))


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x); exact zero at the poles, safe for very negative x."""
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    if x >= 0.5:
        if x > 171.7:
            # underflows to zero well before lgamma loses meaning
            lg = math.lgamma(x)
            return math.exp(-lg) if lg < 745.0 else 0.0
        return 1.0 / _lanczos_positive(x)
    # reflection: 1/Gamma(x) = sin(pi x) * Gamma(1-x) / pi
    s = _sinpi(x)
    lg = math.lgamma(1.0 - x)
    if lg > 700.0:
        return s * math.exp(lg - math.log(math.pi)) if lg < 705.0 else math.copysign(
            math.inf, s
        )
    return s * math.exp(lg) / math.pi


# }}}


# {{{ types

class MLMethod(Enum):
    """Evaluation route actually taken by :func:`ml_eval`."""

    TAYLOR_SERIES = "TaylorSeries"
    ASYMPTOTIC_EXPANSION = "AsymptoticExpansion"
    INTEGRAL_REPRESENTATION = "IntegralRepresentation"


@dataclass(frozen=True)
class MLParams:
    """Order pair (alpha, beta) of the two-parameter Mittag-Leffler function."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive: {self.alpha}")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive: {self.beta}")


@dataclass(frozen=True)
class MLEvaluation:
    value: float
    est_abs_error: float
    method: MLMethod


class MLEvaluationError(ValueError):
    """No strategy met the accuracy target; carries the best partial result."""

    def __init__(self, message: str, partial: MLEvaluation | None = None):
        super().__init__(message)
        self.partial = partial


# }}}


# {{{ Taylor paths

# float-path reciprocal gammas 1/Gamma(alpha k + beta), grown on demand
_RGAMMA_SERIES_CACHE: dict[tuple[float, float], list[float]] = {}
# extended-precision Gamma(alpha k + beta) per working precision
_MP_GAMMA_CACHE: dict[tuple[float, float, int], list] = {}

# alternating-sum amplification allowed on the float path: exp(rho) <= 1e2
_FLOAT_RHO_MAX = math.log(100.0)
_TAYLOR_ZMAX = 25.0


def _rgamma_series(alpha: float, beta: float, upto: int) -> list[float]:
    cache = _RGAMMA_SERIES_CACHE.setdefault((alpha, beta), [])
    while len(cache) <= upto:
        k = len(cache)
        cache.append(reciprocal_gamma(alpha * k + beta))
    return cache


def _mp_gammas(alpha: float, beta: float, dps: int, upto: int) -> list:
    key = (alpha, beta, dps)
    cache = _MP_GAMMA_CACHE.setdefault(key, [])
    if len(cache) <= upto:
        with mpmath.workdps(dps):
            a = mpmath.mpf(alpha)
            b = mpmath.mpf(beta)
            for k in range(len(cache), upto + 1):
                cache.append(mpmath.gamma(a * k + b))
    return cache


def _taylor_float(alpha: float, beta: float, z: float) -> tuple[float, float]:
    cache = _rgamma_series(alpha, beta, 8)
    s = 0.0
    zk = 1.0
    max_mag = 0.0
    rho = abs(z) ** (1.0 / alpha) if z != 0.0 else 0.0
    k = 0
    t = 0.0
    while k < 800:
        if k >= len(cache):
            _rgamma_series(alpha, beta, k + 16)
        t = zk * cache[k]
        s += t
        mag = abs(t)
        if mag > max_mag:
            max_mag = mag
        if alpha * k > rho and mag <= 1e-17 * (1.0 + abs(s)):
            break
        zk *= z
        k += 1
    else:
        raise MLEvaluationError(
            f"Taylor series did not converge for alpha={alpha}, beta={beta}, z={z}",
            MLEvaluation(s, math.inf, MLMethod.TAYLOR_SERIES),
        )
    if math.isinf(s):
        raise MLEvaluationError(
            f"E_{{{alpha},{beta}}}({z}) overflows double precision",
            MLEvaluation(s, math.inf, MLMethod.TAYLOR_SERIES),
        )
    est = 4.0 * abs(t) + 1.5e-16 * (k + 3) * (max_mag + abs(s))
    return s, est


def _taylor_mp(alpha: float, beta: float, z: float) -> tuple[float, float]:
    rho = abs(z) ** (1.0 / alpha) if z != 0.0 else 0.0
    lost = 0.45 * rho if z < 0.0 else 0.0
    dps = 22 + int(lost)
    if dps > 320:
        raise MLEvaluationError(
            f"extended-precision Taylor would need {dps} digits "
            f"(alpha={alpha}, beta={beta}, z={z})"
        )
    kmax = int(40 + 4.0 * (rho / alpha + dps))
    _mp_gammas(alpha, beta, dps, min(kmax, 128))
    gammas = _MP_GAMMA_CACHE[(alpha, beta, dps)]
    with mpmath.workdps(dps):
        zz = mpmath.mpf(z)
        s = mpmath.mpf(0)
        zk = mpmath.mpf(1)
        tol = mpmath.mpf(10) ** (-(dps - 6))
        max_mag = mpmath.mpf(0)
        k = 0
        while k <= kmax:
            if k >= len(gammas):
                _mp_gammas(alpha, beta, dps, k + 32)
            t = zk / gammas[k]
            s += t
            mag = abs(t)
            if mag > max_mag:
                max_mag = mag
            if alpha * k > rho and mag < tol * (1 + abs(s)):
                break
            zk *= zz
            k += 1
        else:
            raise MLEvaluationError(
                f"extended Taylor did not converge (alpha={alpha}, beta={beta}, z={z})",
                MLEvaluation(float(s), math.inf, MLMethod.TAYLOR_SERIES),
            )
        value = float(s)
        if math.isinf(value):
            raise MLEvaluationError(
                f"E_{{{alpha},{beta}}}({z}) overflows double precision"
            )
        est = float(mag) + float(max_mag) * 10.0 ** (-(dps - 2)) + 2e-16 * abs(value)
    return value, est


# }}}


# {{{ asymptotic expansion (z -> -inf)

def _residue_pair(alpha: float, beta: float, x: float) -> float:
    """Contribution of the conjugate pole pair of the Laplace inversion.

    For alpha in (1, 2] the poles at ``x**(1/alpha) * exp(+-i pi/alpha)`` are
    crossed when the Bromwich contour collapses onto the branch cut; at
    alpha = 1 they sit on the cut and contribute half weight; for alpha < 1
    they are off the principal sheet.
    """
    if alpha < 1.0:
        return 0.0
    factor = (1.0 if alpha == 1.0 else 2.0) / alpha
    rho = x ** (1.0 / alpha)
    phi = math.pi / alpha
    arg = rho * math.cos(phi)
    if arg < -745.0:
        return 0.0
    return (
        factor
        * rho ** (1.0 - beta)
        * math.exp(arg)
        * math.cos(rho * math.sin(phi) + (1.0 - beta) * phi)
    )


def _asymptotic(
    alpha: float, beta: float, z: float, target: float
) -> tuple[float, float] | None:
    """Residue pair plus the algebraic series -sum z^-k / Gamma(beta - alpha k).

    Terms are formed in log space (no Gamma overflow); stopping uses the
    sign-free envelope Gamma(1 + alpha k - beta) / (pi |z|^k), which bounds
    each term and detects the optimal-truncation floor.  Returns None when
    the floor exceeds ``target``.
    """
    x = -z
    res = _residue_pair(alpha, beta, x)
    lnx = math.log(x)
    s = 0.0
    env_prev = math.inf
    max_mag = abs(res)
    for k in range(1, 200):
        sign = -1.0 if k % 2 else 1.0
        w = 1.0 + alpha * k - beta
        if w > 0.5:
            env = math.exp(math.lgamma(w) - k * lnx) / math.pi
            term = sign * _sinpi(beta - alpha * k) * env
        else:
            # early terms with beta > 1 + alpha k: reflection would need the
            # sign of Gamma(w) and degenerates at integer beta - alpha k, so
            # form the reciprocal gamma directly (its argument is moderate)
            term = sign * reciprocal_gamma(beta - alpha * k) * math.exp(-k * lnx)
            env = abs(term)
        if env >= env_prev:
            return None
        s -= term
        if abs(term) > max_mag:
            max_mag = abs(term)
        ratio = env / env_prev
        env_prev = env
        # near alpha = 1 the envelope decays slowly and the remainder is a
        # sum of comparable terms; bound the tail geometrically
        tail = env * min(1.0 / (1.0 - ratio), 1e3)
        if tail < 0.5 * target:
            value = res + s
            est = 2.0 * tail + 1e-15 + 2e-16 * (max_mag + abs(value))
            return value, est
    return None


# }}}


# {{{ branch-cut integral representation

def _beta_reduce(alpha: float, beta: float, z: float, inner) -> tuple[float, float]:
    """Lower beta by alpha via E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a)) / z.

    Only used for |z| >= 1 where the division is contractive.
    """
    value, est = inner(alpha, beta - alpha, z)
    rg = reciprocal_gamma(beta - alpha)
    out = (value - rg) / z
    return out, (est + 2e-16 * abs(rg)) / abs(z) + 1e-16 * abs(out)


def _integral_rep(alpha: float, beta: float, z: float) -> tuple[float, float]:
    """Residue pair plus branch-cut integral; alpha in (1, 2], z < 0.

    After the substitution s = r**(1/alpha) the cut integral reads

        (1/pi) * int_0^inf exp(-s) s^(alpha-beta)
                 * (s^alpha sin(pi beta) - x sin(pi (alpha-beta)))
                 / (s^(2 alpha) + 2 x s^alpha cos(pi alpha) + x^2) ds

    with x = -z.  The s^(alpha-beta) endpoint factor is handled by a
    weighted (QAWS) rule on [0, 1]; the possible near-pole ridge at
    s = (x |cos(pi alpha)|)^(1/alpha) is passed to the adaptive rule as a
    breakpoint.
    """
    if beta >= 1.0 + alpha - 1e-9:
        return _beta_reduce(alpha, beta, z, _integral_rep)
    x = -z
    rho = x ** (1.0 / alpha)
    sb = _sinpi(beta)
    sab = _sinpi(alpha - beta)
    ca = math.cos(math.pi * alpha)

    def smooth(s: float) -> float:
        sa = s**alpha
        return (
            math.exp(-s) * (sa * sb - x * sab) / (sa * sa + 2.0 * x * sa * ca + x * x)
        )

    def full(s: float) -> float:
        return s ** (alpha - beta) * smooth(s)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        i1, e1 = quad(
            smooth,
            0.0,
            1.0,
            weight="alg",
            wvar=(alpha - beta, 0.0),
            epsabs=1e-15,
            epsrel=1e-13,
            limit=200,
        )
        peak = (x * abs(ca)) ** (1.0 / alpha) if ca < 0.0 else None
        upper = 40.0 + 3.0 * rho
        pts = [peak] if peak is not None and 1.0 < peak < upper else None
        i2, e2 = quad(
            full,
            1.0,
            upper,
            points=pts,
            epsabs=1e-15,
            epsrel=1e-13,
            limit=200,
        )
    res = _residue_pair(alpha, beta, x)
    value = res + (i1 + i2) / math.pi
    # the adaptive estimate can be optimistic when the near-pole ridge gets
    # sharp (alpha close to 1); pad it accordingly
    est = 3.0 * (e1 + e2) / math.pi + 2e-14 + 2e-16 * (abs(res) + abs(value))
    return value, est


# }}}


# {{{ scalar evaluation

def _eval_scalar(alpha: float, beta: float, z: float) -> MLEvaluation:
    if z == 0.0:
        v = reciprocal_gamma(beta)
        return MLEvaluation(v, 4e-16 * abs(v), MLMethod.TAYLOR_SERIES)

    if z > 0.0:
        if z <= _TAYLOR_ZMAX:
            v, e = _taylor_float(alpha, beta, z)
        else:
            v, e = _taylor_mp(alpha, beta, z)
        return MLEvaluation(v, e, MLMethod.TAYLOR_SERIES)

    x = -z
    rho = x ** (1.0 / alpha)
    if x <= _TAYLOR_ZMAX:
        if rho <= _FLOAT_RHO_MAX:
            v, e = _taylor_float(alpha, beta, z)
        else:
            v, e = _taylor_mp(alpha, beta, z)
        return MLEvaluation(v, e, MLMethod.TAYLOR_SERIES)

    out = _asymptotic(alpha, beta, z, target=2e-13)
    if out is not None:
        v, e = out
        if e <= max(2e-13, 1e-13 * abs(v)):
            return MLEvaluation(v, e, MLMethod.ASYMPTOTIC_EXPANSION)

    if 1.02 <= alpha <= 2.0:
        v, e = _integral_rep(alpha, beta, z)
        return MLEvaluation(v, e, MLMethod.INTEGRAL_REPRESENTATION)

    # alpha near or below 1 in the intermediate band: guarded Taylor is
    # affordable there because rho stays modest
    try:
        v, e = _taylor_mp(alpha, beta, z)
    except MLEvaluationError as exc:
        # the asymptotic estimate can miss the tighter bar above by its own
        # 1e-15 floor; it is still returned when it meets the contract
        if out is not None and out[1] <= max(1e-12, 1e-12 * abs(out[0])):
            return MLEvaluation(out[0], out[1], MLMethod.ASYMPTOTIC_EXPANSION)
        partial = None
        if out is not None:
            partial = MLEvaluation(out[0], out[1], MLMethod.ASYMPTOTIC_EXPANSION)
        raise MLEvaluationError(
            f"no strategy converged for alpha={alpha}, beta={beta}, z={z}",
            partial or exc.partial,
        ) from exc
    return MLEvaluation(v, e, MLMethod.TAYLOR_SERIES)


def ml_eval(p: MLParams, z: float) -> MLEvaluation:
    """Evaluate E_{alpha,beta}(z) with an a-posteriori absolute error bound.

    Accuracy contract: ``|value - E| <= max(1e-12, 1e-12 |value|)`` for
    real ``z`` in ``[-1e8, 10]`` (alpha in (0, 2]); the recorded
    ``est_abs_error`` is an upper bound for the truncation error of the
    method actually used.
    """
    return _eval_scalar(p.alpha, p.beta, float(z))


# }}}


# {{{ vectorized profile with Chebyshev band cache

# band edges: float Taylor below _profile_zf, asymptotic above _profile_B
def _profile_zf(alpha: float) -> float:
    return min(_TAYLOR_ZMAX, _FLOAT_RHO_MAX**alpha)


def _profile_B(alpha: float) -> float:
    return 33.0**alpha


_CHEB_CACHE: dict[tuple[float, float], tuple[float, float, np.ndarray]] = {}
_CHEB_DEGREE = 180


def _cheb_band(alpha: float, beta: float) -> tuple[float, float, np.ndarray]:
    key = (alpha, beta)
    hit = _CHEB_CACHE.get(key)
    if hit is not None:
        return hit
    ya = math.log(0.97 * _profile_zf(alpha))
    yb = math.log(1.03 * _profile_B(alpha))
    n = _CHEB_DEGREE + 1
    tk = np.cos(np.pi * (np.arange(n) + 0.5) / n)
    ys = 0.5 * (ya + yb) + 0.5 * (yb - ya) * tk
    vals = np.array([_eval_scalar(alpha, beta, -math.exp(y)).value for y in ys])
    coef = chebyshev.chebfit(tk, vals, _CHEB_DEGREE)
    # verify the cache against the scalar evaluator before trusting it
    rng = np.random.default_rng(12345)
    for y in rng.uniform(ya, yb, 12):
        ref = _eval_scalar(alpha, beta, -math.exp(y)).value
        got = chebyshev.chebval((2.0 * y - (ya + yb)) / (yb - ya), coef)
        if abs(got - ref) > 1e-11 * max(1.0, abs(ref)):
            raise MLEvaluationError(
                f"band cache verification failed for alpha={alpha}, beta={beta}"
            )
    _CHEB_CACHE[key] = (ya, yb, coef)
    return _CHEB_CACHE[key]


def _profile_taylor(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z)
    s = np.zeros_like(z)
    zk = np.ones_like(z)
    cache = _rgamma_series(alpha, beta, 8)
    rho_max = float(np.max(np.abs(z))) ** (1.0 / alpha) if z.size else 0.0
    k = 0
    while True:
        if k >= len(cache):
            _rgamma_series(alpha, beta, k + 16)
        t = zk * cache[k]
        s += t
        if alpha * k > rho_max and np.all(np.abs(t) <= 1e-17 * (1.0 + np.abs(s))):
            break
        zk *= z
        k += 1
        if k > 900:  # pragma: no cover - guarded by band thresholds
            raise MLEvaluationError("vector Taylor did not converge")
    out[:] = s
    return out


def _profile_asymptotic(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    x = -z
    rho = x ** (1.0 / alpha)
    phi = math.pi / alpha
    factor = (1.0 if alpha == 1.0 else 2.0) / alpha if alpha >= 1.0 else 0.0
    res = np.zeros_like(x)
    if factor:
        damp = rho * math.cos(phi)
        mask = damp > -745.0
        res[mask] = (
            factor
            * rho[mask] ** (1.0 - beta)
            * np.exp(damp[mask])
            * np.cos(rho[mask] * math.sin(phi) + (1.0 - beta) * phi)
        )
    lnx = np.log(x)
    s = np.zeros_like(x)
    env_prev = np.full_like(x, np.inf)
    active = np.ones(x.shape, dtype=bool)
    for k in range(1, 200):
        if not active.any():
            break
        sign = -1.0 if k % 2 else 1.0
        w = 1.0 + alpha * k - beta
        if w > 0.5:
            env = np.exp(math.lgamma(w) - k * lnx) / math.pi
            term = sign * _sinpi(beta - alpha * k) * env
        else:
            term = sign * reciprocal_gamma(beta - alpha * k) * np.exp(-k * lnx)
            env = np.abs(term)
        active &= env < env_prev
        s[active] -= term[active]
        env_prev = env
        active &= env > 1e-17
    return res + s


def ml_profile(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """Vectorized E_{alpha,beta} on the closed negative axis (z <= 0).

    Fast path for the spectral solver: float Taylor for small ``|z|``, a
    verified Chebyshev interpolant of the branch-cut representation in the
    intermediate band, and the residue-corrected algebraic expansion beyond.
    Requires alpha in (1, 2]; absolute accuracy ~1e-12.
    """
    if not 1.0 < alpha <= 2.0:
        raise ValueError(f"ml_profile requires alpha in (1, 2]: {alpha}")
    z = np.asarray(z, dtype=float)
    if z.size and np.max(z) > 0.0:
        raise ValueError("ml_profile is defined for z <= 0 only")
    flat = z.ravel()
    out = np.empty_like(flat)
    a = np.abs(flat)
    zf = _profile_zf(alpha)
    B = _profile_B(alpha)

    small = a <= zf
    big = a > B
    mid = ~small & ~big
    if small.any():
        out[small] = _profile_taylor(alpha, beta, flat[small])
    if mid.any():
        ya, yb, coef = _cheb_band(alpha, beta)
        t = (2.0 * np.log(a[mid]) - (ya + yb)) / (yb - ya)
        out[mid] = chebyshev.chebval(t, coef)
    if big.any():
        out[big] = _profile_asymptotic(alpha, beta, flat[big])
    return out.reshape(z.shape)


# }}}


# {{{ brute-force series oracle

def ml_series_oracle(p: MLParams, z: float, n_terms: int, dps: int = 50) -> float:
    """Exact partial sum of the defining series in ``dps``-digit arithmetic.

    The Gamma argument ``alpha*k + beta`` is formed in extended precision as
    well: rounding it in double would inject O(max_term * 1e-16) noise, which
    the alternating cancellation cannot remove.  Serves as the independent
    brute-force oracle for :func:`ml_eval` on moderate ``|z|``.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1: {n_terms}")
    if z != 0.0:
        # account for cancellation so that the requested dps is effective
        dps = max(dps, int(22 + 0.45 * abs(z) ** (1.0 / p.alpha)))
    gammas = _mp_gammas(p.alpha, p.beta, dps, n_terms - 1)
    with mpmath.workdps(dps):
        zz = mpmath.mpf(z)
        total = mpmath.mpf(0)
        zk = mpmath.mpf(1)
        for k in range(n_terms):
            total += zk / gammas[k]
            zk *= zz
            if mpmath.isinf(zk):
                raise OverflowError(f"z^k overflowed at k={k + 1} for z={z}")
        out = float(total)
    if math.isinf(out):
        raise OverflowError(f"partial sum exceeds double range for z={z}")
    return out


# }}}


# {{{ derivative identities (fourth-order FD cross-check)

def _fd5(f, t: float, h: float) -> float:
    """Fourth-order centered first derivative."""
    return (f(t - 2 * h) - 8 * f(t - h) + 8 * f(t + h) - f(t + 2 * h)) / (12.0 * h)


def ml_derivative_identity_residuals(
    alpha: float, lam: float, times: np.ndarray
) -> VerificationReport:
    """Check the closed-form time derivatives of the relaxation kernels.

    On each sample point the left side is differentiated with a fourth-order
    centered stencil and compared against the closed form:

    * d/dt E_a(-lam t^a)             = -lam t^(a-1) E_{a,a}(-lam t^a)
    * d/dt (t E_{a,2}(-lam t^a))     = E_a(-lam t^a)
    * d/dt (t^(a-1) E_{a,a}(-lam t^a)) = t^(a-2) E_{a,a-1}(-lam t^a)

    ``times`` must be strictly positive: the third left side has a singular
    derivative at t = 0.
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (1, 2): {alpha}")
    if lam < 0.0:
        raise ValueError(f"lam must be non-negative: {lam}")
    times = np.asarray(times, dtype=float)
    if times.size == 0 or np.min(times) <= 0.0:
        raise ValueError("sample times must be strictly positive")

    e1 = MLParams(alpha, 1.0)
    ea = MLParams(alpha, alpha)
    e2 = MLParams(alpha, 2.0)
    eam1 = MLParams(alpha, alpha - 1.0)

    def f_e1(t: float) -> float:
        return ml_eval(e1, -lam * t**alpha).value

    def f_te2(t: float) -> float:
        return t * ml_eval(e2, -lam * t**alpha).value

    def f_taea(t: float) -> float:
        return t ** (alpha - 1.0) * ml_eval(ea, -lam * t**alpha).value

    char = (1.0 + lam) ** (-1.0 / alpha)
    r1 = r2 = r3 = 0.0
    for t in times:
        h = min(t / 3.0, char) / 48.0
        z = -lam * t**alpha
        d1 = _fd5(f_e1, t, h)
        rhs1 = -lam * t ** (alpha - 1.0) * ml_eval(ea, z).value
        r1 = max(r1, abs(d1 - rhs1))
        d2 = _fd5(f_te2, t, h)
        rhs2 = ml_eval(e1, z).value
        r2 = max(r2, abs(d2 - rhs2))
        d3 = _fd5(f_taea, t, h)
        rhs3 = t ** (alpha - 2.0) * ml_eval(eam1, z).value
        r3 = max(r3, abs(d3 - rhs3))

    report = VerificationReport(
        name="ml_derivative_identities",
        inputs={
            "alpha": alpha,
            "lam": lam,
            "t_min": float(times.min()),
            "t_max": float(times.max()),
            "n_times": int(times.size),
        },
        metrics={
            "residual_dEa": r1,
            "residual_dtEa2": r2,
            "residual_dtam1Eaa": r3,
        },
        tolerances={
            "residual_dEa": 1e-5,
            "residual_dtEa2": 1e-5,
            "residual_dtam1Eaa": 1e-5,
        },
    )
    report.evaluate()
    return report


# }}}


# {{{ Laplace-transform cross-check

def ml_laplace_check(p: MLParams, lam: float, z: float) -> float:
    """Residual of the Laplace pair for the relaxation kernel.

    Compares adaptive quadrature of ``int_0^inf exp(-z t) t^(beta-1)
    E_{alpha,beta}(-lam t^alpha) dt`` (tail truncated where the exponential
    weight is below 1e-14) against ``z^(alpha-beta) / (z^alpha + lam)``.
    Requires z > lam**(1/alpha).
    """
    alpha, beta = p.alpha, p.beta
    if lam <= 0.0:
        raise ValueError(f"lam must be positive: {lam}")
    if not z > lam ** (1.0 / alpha):
        raise ValueError(
            f"z={z} violates the transform's validity region z > lam^(1/alpha)"
        )

    # cutoff: exp(-z t) t^(beta-1) below 1e-14 relative
    t_cut = 34.0 / z
    for _ in range(3):
        t_cut = (34.0 + max(beta - 1.0, 0.0) * math.log(max(t_cut, 1.0))) / z

    def integrand(t: float) -> float:
        return math.exp(-z * t) * t ** (beta - 1.0) * ml_eval(p, -lam * t**alpha).value

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        if beta < 1.0:
            # u = t^beta removes the endpoint singularity
            def sub(u: float) -> float:
                t = u ** (1.0 / beta)
                return math.exp(-z * t) * ml_eval(p, -lam * t**alpha).value / beta

            val, _ = quad(sub, 0.0, t_cut**beta, epsabs=1e-12, epsrel=1e-12, limit=300)
        else:
            val, _ = quad(
                integrand,
                0.0,
                t_cut,
                points=[min(1.0 / z, t_cut * 0.5)],
                epsabs=1e-12,
                epsrel=1e-12,
                limit=300,
            )
    exact = z ** (alpha - beta) / (z**alpha + lam)
    return abs(val - exact)


# }}}


# {{{ uniform decay bound estimate

@dataclass(frozen=True)
class MLDecayBound:
    """Empirical constant for |E_{alpha,beta}(z)| <= C / (1 + |z|) on z <= 0."""

    c_hat: float
    argmax_abs_z: float
    saturated: bool
    sample_count: int


def ml_decay_bound_estimate(p: MLParams, sample_count: int) -> MLDecayBound:
    """Estimate sup |E(z)|(1+|z|) over a log-uniform grid |z| in [1e-8, 1e8].

    The bound is a property of alpha < 2 only; for alpha = 2 the product
    grows with the sample range, which the ``saturated`` flag reports by
    comparing against the same estimate capped at |z| <= 1e4.
    """
    if sample_count < 2:
        raise ValueError("sample_count must be at least 2")
    exps = np.linspace(-8.0, 8.0, sample_count)
    c_hat = 0.0
    c_capped = 0.0
    argmax = 0.0
    for e in exps:
        x = 10.0**e
        val = abs(_eval_scalar(p.alpha, p.beta, -x).value) * (1.0 + x)
        if val > c_hat:
            c_hat = val
            argmax = x
        if e <= 4.0 and val > c_capped:
            c_capped = val
    saturated = c_hat <= 1.25 * c_capped
    return MLDecayBound(c_hat, argmax, saturated, sample_count)


# }}}


# {{{ elementary maximum of x^beta / (1 + x)

def max_beta(beta: float) -> tuple[float, float]:
    """Arg-max and maximum of x^beta / (1+x) on [0, inf) for beta in (0,1).

    The maximum sits at beta/(1-beta) and equals beta^beta (1-beta)^(1-beta);
    evaluated through exp/log for stability near the endpoints.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1): {beta}")
    argmax = beta / (1.0 - beta)
    maxval = math.exp(beta * math.log(beta) + (1.0 - beta) * math.log1p(-beta))
    return argmax, maxval


# }}}
