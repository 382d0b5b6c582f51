r"""Reciprocal Gamma and two-parameter Mittag-Leffler evaluation on the real line.

The Mittag-Leffler function

.. math::

    E_{\alpha,\beta}(z) = \sum_{k=0}^\infty \frac{z^k}{\Gamma(\alpha k + \beta)}

is the time kernel of fractional relaxation; everything downstream (the
spectral solver, the boundary-trace probes) evaluates it at ``z = -lam * t**alpha``
on the negative real axis.  One rule routes each point there, for every
alpha (``rho = |z|**(1/alpha)``):

* the float Taylor sum while its alternating cancellation is mild
  (``rho <= ln 100``), over a ``live`` mask of the points still summing;
* else the algebraic large-argument expansion plus the conjugate-pole
  residue pair, where its optimal-truncation floor ``exp(-rho)`` is below
  the target accuracy, each term summed on one slice of a sorted block;
* else, for ``1.02 <= alpha <= 2``, a branch-cut integral representation
  (the residue pair plus a smooth Laplace-type kernel): one fixed composite
  Gauss rule, graded toward 0 and the near-pole ridge, for all such points
  at once; for other orders the Taylor sum in guarded extended precision
  (it loses about ``rho * log10(e)`` digits), one point at a time, as for
  positive ``z`` past 25 and any ``z`` past the float sum's reach.  Every
  route gives a per-point error estimate.

:func:`ml_eval` is that rule on an array of any shape, with plain orders
``(alpha, beta)``.  :func:`ml_profile` (the solver's path, alpha in
(1, 2]) is value-only, with four ranges of ``x = -z`` and no error
estimate:

* the Taylor band ``x <= ln(100)^alpha``: ``1/Gamma(beta) + z S(z)``,
  ``S`` one verified Chebyshev series in z of ``E_{alpha,alpha+beta}``
  fitted to one float Taylor pass of that order and cut at its
  coefficient plateau (``standardChop``, Aurentz and Trefethen, ACM TOMS
  43(4), 2017);
* the intermediate band up to ``33^alpha``: a verified Chebyshev series in
  ``ln x`` fitted to one value-only pass of the branch-cut integral (the
  values of :func:`ml_eval`'s integral route, without its estimate) and
  cut at its coefficient plateau by the same ``standardChop``; one
  routine, :func:`_chebfit`, fits, cuts and checks both bands;
* up to the far-form edge ``X`` (1e3 at alpha = 1.5): the asymptotic
  expansion with no accuracy target;
* past ``X``: the expansion's K-term algebraic series alone (Gorenflo,
  Loutchko and Luchko, FCAA 5, 2002), which is the expansion to rounding
  there.

Every per-order object is local to one call or in an ``lru_cache`` of
``_PAIR_CACHE_SIZE`` entries whose arrays are read-only: memory stays
bounded however many orders a process meets.  Non-finite or overflowing
arguments raise at once.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

__all__ = [
    "MLEvaluationError",
    "reciprocal_gamma",
    "gauss_legendre",
    "ml_eval",
    "ml_profile",
    "ml_series_oracle",
    "ml_derivative_identity_residuals",
    "ml_laplace_check",
]


# {{{ reciprocal gamma

def _sinpi(x: float) -> float:
    """sin(pi*x) reduced to the nearest integer: exact zeros at integers and
    full relative accuracy next to them."""
    n = round(x)
    r = x - n
    if r == 0.0:
        return 0.0
    s = math.sin(math.pi * r)
    return -s if n % 2 else s


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x) from :func:`math.gamma`; exact zero at the poles.

    Where Gamma(x) overflows, the subnormal values divide 1/Gamma(x - k) by
    its k factors and are 0.0 past x = 178.5; for very negative x the value
    leaves the double range (a signed infinity) except next to the poles.
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    if x >= 0.5:
        try:
            return 1.0 / math.gamma(x)
        except OverflowError:
            if x > 178.5:  # below half the smallest subnormal
                return math.exp(-math.lgamma(x))
            # Gamma(x - k) is finite (below 171.6244), the factors x - j are
            # exact, so the result is within one subnormal spacing
            k = math.ceil(x - 171.62)
            return 1.0 / math.gamma(x - k) / math.prod(x - j for j in range(1, k + 1))
    # reflection: 1/Gamma(x) = sin(pi x) * Gamma(1-x) / pi
    s = _sinpi(x)
    try:
        return s * math.gamma(1.0 - x) / math.pi
    except OverflowError:
        lg = math.lgamma(1.0 - x) + math.log(abs(s) / math.pi)
        return math.copysign(math.exp(lg) if lg < 709.78 else math.inf, s)


# }}}


# {{{ orders and errors

def _check_orders(alpha: float, beta: float) -> None:
    """Refuse an order pair (alpha, beta) that is not positive."""
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive: {alpha}")
    if not beta > 0.0:
        raise ValueError(f"beta must be positive: {beta}")


class MLEvaluationError(ValueError):
    """No strategy met the accuracy target."""


# }}}


# {{{ Taylor paths

# entries kept by each per-pair cache below (least recently used evicted);
# an entry is a pure function of its key, so a rebuilt one is bit-identical
_PAIR_CACHE_SIZE = 64

# alternating-sum amplification allowed on the float path: exp(rho) <= 1e2
_FLOAT_RHO_MAX = math.log(100.0)
_TAYLOR_ZMAX = 25.0


def _shared(a: np.ndarray) -> np.ndarray:
    """``a`` made read-only, as every array a per-pair cache returns is:
    each caller gets the same array."""
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=_PAIR_CACHE_SIZE)
def _mp_gammas(alpha: float, beta: float, dps: int, count: int) -> tuple:
    """``Gamma(alpha k + beta)`` for ``k < count`` in ``dps``-digit
    arithmetic, the argument formed in that precision too; cached."""
    import mpmath

    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        b = mpmath.mpf(beta)
        return tuple(mpmath.gamma(a * k + b) for k in range(count))


# points per pass of the array kernels: a block's working arrays stay small
# (cache-resident, bounded memory) while per-call overhead stays negligible
_BLOCK = 1 << 14


@np.errstate(over="ignore", invalid="ignore")
def _taylor(alpha: float, beta: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float Taylor sum of ``E_{alpha,beta}`` with a per-point stop; returns
    ``(value, est)``.

    The reciprocal gammas ``1/Gamma(alpha k + beta)`` grow in a list local
    to the call, one per term the sum reaches.  A point stops at the first
    term past ``k = rho / alpha`` that is below 1e-17 of the running sum; a
    ``live`` mask over the block marks the points still summing, and the
    stopped ones keep being summed unread until the last stops.  Where
    ``z^k`` overflows, or 800 terms end before the terms are small, the
    point gets a non-finite value (and estimate) for the caller to route
    elsewhere.  ``est`` bounds the last term and the rounding of the sum
    from the largest term.
    """
    value = np.empty_like(z)
    est = np.empty_like(z)
    rg: list[float] = []
    for lo in range(0, z.size, _BLOCK):
        za = z[lo : lo + _BLOCK]
        v, e = value[lo : lo + _BLOCK], est[lo : lo + _BLOCK]
        live = np.ones(za.size, dtype=bool)
        rho = np.abs(za) ** (1.0 / alpha)
        s = np.zeros_like(za)
        zk = np.ones_like(za)
        max_mag = np.zeros_like(za)
        for k in range(800):
            if k == len(rg):
                rg.append(reciprocal_gamma(alpha * k + beta))
            t = zk * rg[k]
            s += t
            mag = np.abs(t)
            np.maximum(max_mag, mag, out=max_mag)
            done = live & (alpha * k > rho) & (mag <= 1e-17 * (1.0 + np.abs(s)))
            d = np.flatnonzero(done)
            if d.size:
                v[d] = s[d]
                e[d] = 4.0 * mag[d] + 1.5e-16 * (k + 3) * (max_mag[d] + np.abs(s[d]))
                live[d] = False
                if not live.any():
                    break
            zk *= za
        v[live] = np.nan
        e[live] = np.nan
    return value, est


def _taylor_mp(alpha: float, beta: float, z: float) -> tuple[float, float]:
    import mpmath

    rho = abs(z) ** (1.0 / alpha) if z != 0.0 else 0.0
    lost = 0.45 * rho if z < 0.0 else 0.0
    dps = 22 + int(lost)
    if dps > 320:
        raise MLEvaluationError(
            f"extended-precision Taylor would need {dps} digits "
            f"(alpha={alpha}, beta={beta}, z={z})"
        )
    # past k = rho / alpha the terms |z|^k / Gamma(alpha k + beta) fall; the
    # sum stops by the first k where lgamma's growth takes them below the
    # tolerance (about 1,000 terms at alpha = 0.02, |z| = 1), plus a margin
    log_tol = -(dps - 6) * math.log(10.0)
    log_z = math.log(abs(z)) if z != 0.0 else -math.inf
    kmax = int(rho / alpha) + 1
    while kmax * log_z - math.lgamma(alpha * kmax + beta) > log_tol:
        kmax += 1
    kmax += 40
    # a power of two from kmax + 1 on: nearby points share one cache entry
    gammas = _mp_gammas(alpha, beta, dps, 1 << kmax.bit_length())
    with mpmath.workdps(dps):
        zz = mpmath.mpf(z)
        s = mpmath.mpf(0)
        zk = mpmath.mpf(1)
        tol = mpmath.mpf(10) ** (-(dps - 6))
        max_mag = mpmath.mpf(0)
        k = 0
        while k <= kmax:
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
                f"extended Taylor did not converge (alpha={alpha}, beta={beta}, z={z})"
            )
        value = float(s)
        if math.isinf(value):
            raise MLEvaluationError(
                f"E_{{{alpha},{beta}}}({z}) overflows double precision"
            )
        est = float(mag) + float(max_mag) * 10.0 ** (-(dps - 2)) + 2e-16 * abs(value)
    if z > 0.0:
        # the positive terms past the stop fall by at least the ratio at the
        # stop, |z| Gamma(x) / Gamma(x + alpha) (it falls in k): a geometric tail
        x = alpha * k + beta
        r = z * math.exp(math.lgamma(x) - math.lgamma(x + alpha))
        est += float(mag) * r / (1.0 - r)
    return value, est


# }}}


# {{{ asymptotic expansion (z -> -inf)

def _residue_pair(alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """Contribution of the conjugate pole pair of the Laplace inversion.

    For alpha in (1, 2] the poles at ``x**(1/alpha) * exp(+-i pi/alpha)`` are
    crossed when the Bromwich contour collapses onto the branch cut; at
    alpha = 1 they sit on the cut and contribute half weight; for alpha < 1
    they are off the principal sheet.
    """
    out = np.zeros_like(x)
    if alpha < 1.0:
        return out
    factor = (1.0 if alpha == 1.0 else 2.0) / alpha
    rho = x ** (1.0 / alpha)
    phi = math.pi / alpha
    # cos(pi / 2) rounds to 6.1e-17: at alpha = 2 the poles are undamped,
    # and exp(rho * 6.1e-17) would grow without bound
    damp = rho * (0.0 if alpha == 2.0 else math.cos(phi))
    live = damp > -745.0
    rho = rho[live]
    out[live] = (
        factor
        * rho ** (1.0 - beta)
        * np.exp(damp[live])
        * np.cos(rho * math.sin(phi) + (1.0 - beta) * phi)
    )
    return out


def _tail(env: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    # near alpha = 1 the envelope decays slowly and the remainder is a sum of
    # comparable terms; bound the tail geometrically (ratio: env / env_prev)
    return env * np.minimum(1.0 / (1.0 - ratio), 1e3)


@dataclass(frozen=True)
class _AsymptoticTable:
    """What the algebraic series needs of one ``(alpha, beta, target)``.

    Term k (``k = 1..K``, entry ``k - 1``) is ``coef * x^-k`` with the
    sign-free envelope ``env * x^-k`` (``ratio = env_k / env_(k-1)``, 0 at
    k = 1).  The stopping rule of :func:`_asymptotic` sums term k at the x
    above ``floor_at[k-1]`` and below ``conv_at[k-2]``: the floor thresholds
    rise with k and the convergence thresholds fall, so these ranges are
    nested, each inside the last.  A point that stops after n terms
    converged if ``x >= conv_at[n-1]``.  The residue pair is nonzero only
    below ``residue_below``.
    """

    coef: np.ndarray
    env: np.ndarray
    ratio: np.ndarray
    floor_at: np.ndarray  # nondecreasing in k
    conv_at: np.ndarray  # nonincreasing in k
    residue_below: float


@functools.lru_cache(maxsize=_PAIR_CACHE_SIZE)
def _asymptotic_table(alpha: float, beta: float, target: float) -> _AsymptoticTable:
    """Coefficients and per-term stopping thresholds in x, cached.

    At fixed k the envelope ``env_k x^-k``, the envelope ratio
    ``ratio_k / x`` and the geometric tail bound all decrease in x, so
    "the envelope stops decreasing at term k" (the floor) is ``x <= ratio_k``
    and "term k converges" (envelope at most 1e-17, or tail bound below
    ``target / 2``) is x at or above a threshold; the tail threshold is found
    by bisection in ln x.  A point stops at the first k where either holds,
    the floor first, so the running max of the floor thresholds and the
    running min of the convergence thresholds give its term count.  The
    table ends where ``Gamma(1 + alpha k - beta)`` overflows, or where every
    x has stopped.
    """
    coef, env = [], []
    for k in range(1, 200):
        sign = 1.0 if k % 2 else -1.0
        w = 1.0 + alpha * k - beta
        if w > 0.5:
            try:
                c = math.gamma(w) / math.pi
            except OverflowError:
                break
            coef.append(sign * _sinpi(beta - alpha * k) * c)
        else:
            # early terms with beta > 1 + alpha k: reflection would need the
            # sign of Gamma(w) and degenerates at integer beta - alpha k, so
            # form the reciprocal gamma directly (its argument is moderate)
            c = reciprocal_gamma(beta - alpha * k)
            coef.append(sign * c)
            c = abs(c)
        env.append(c)
    env_a = np.array(env)
    ks = np.arange(1, env_a.size + 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ln_env = np.log(env_a)
        ln_ratio = np.concatenate([[-math.inf], np.diff(ln_env)])
        # 0 / 0 envelopes (both underflowed) never decrease: a floor
        ln_ratio[np.isnan(ln_ratio)] = math.inf
        conv_u = (ln_env - math.log(1e-17)) / ks
        if target > 0.0:
            conv_u = np.minimum(conv_u, _tail_threshold(ln_env, ln_ratio, ks, target))
        floor_at = np.maximum.accumulate(np.exp(ln_ratio))
        conv_at = np.minimum.accumulate(np.exp(conv_u))
    # past the first k with conv_at <= floor_at every x has stopped
    stop = np.flatnonzero(conv_at <= floor_at)
    K = stop[0] + 1 if stop.size else env_a.size
    # _residue_pair is exactly 0 where rho cos(pi/alpha) <= -745; the margin
    # covers the rounding of x**(1/alpha)
    cos_phi = math.cos(math.pi / alpha)
    residue_below = math.inf
    if cos_phi < 0.0:
        residue_below = (745.0 / -cos_phi) ** alpha * (1.0 + 1e-9)
    return _AsymptoticTable(
        coef=_shared(np.array(coef[:K])),
        env=_shared(env_a[:K]),
        ratio=_shared(np.exp(ln_ratio[:K])),
        floor_at=_shared(floor_at[:K]),
        conv_at=_shared(conv_at[:K]),
        residue_below=residue_below,
    )


def _tail_threshold(
    ln_env: np.ndarray, ln_ratio: np.ndarray, ks: np.ndarray, target: float
) -> np.ndarray:
    """Per term k, the ln x above which the tail bound is below ``target / 2``.

    Above the floor (``ln x > ln_ratio``) the bound decreases in x; it lies
    between the envelope and 1e3 times it, which brackets the bisection.
    """
    half = math.log(0.5 * target)
    lo = np.maximum((ln_env - half) / ks, ln_ratio)
    hi = np.maximum(lo, (ln_env - half + math.log(1e3)) / ks)
    live = np.isfinite(lo) & np.isfinite(hi)
    lo, hi = np.where(live, lo, 0.0), np.where(live, hi, 0.0)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        ok = _tail(np.exp(ln_env - ks * mid), np.exp(ln_ratio - mid)) < 0.5 * target
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    return np.where(live, hi, math.inf)


def _asymptotic_sum(
    alpha: float, beta: float, tab: _AsymptoticTable, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The expansion's values at ascending ``x = -z``.

    Term k is summed at the x above ``tab.floor_at[k-1]`` and, from k = 2
    on, below ``tab.conv_at[k-2]``; these ranges are nested, so on sorted x
    each term is added to one slice inside the last, with the powers of
    ``y = 1/x`` by repeated multiplication, and the residue pair is formed
    only on the prefix where it is not below the double range.  Returns
    ``(value, n, p, res)`` per point: ``res + sum``, the term count, ``y^n``
    and the residue pair.
    """
    y = 1.0 / x
    s = np.zeros_like(x)
    p = np.ones_like(x)
    n = np.zeros(x.shape, dtype=np.intp)
    lo = np.searchsorted(x, tab.floor_at, side="right")
    hi = np.searchsorted(x, np.append(math.inf, tab.conv_at[:-1]))
    for k, (c, a, b) in enumerate(zip(tab.coef, lo, hi), 1):
        if a >= b:
            break
        p[a:b] *= y[a:b]
        s[a:b] += p[a:b] * c
        n[a:b] = k
    res = np.zeros_like(x)
    near = np.searchsorted(x, tab.residue_below)
    if near:
        res[:near] = _residue_pair(alpha, beta, x[:near])
    return res + s, n, p, res


def _asymptotic(
    alpha: float, beta: float, z: np.ndarray, target: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residue pair plus the algebraic series -sum z^-k / Gamma(beta - alpha k).

    The expansion is ``res + sum_k coef_k y^k`` with ``y = 1/|z|``; stopping
    uses the sign-free envelope Gamma(1 + alpha k - beta) / (pi |z|^k),
    which bounds each term and detects the optimal-truncation floor.  A
    point converges at the first term whose geometric tail bound is below
    ``target / 2`` or whose envelope is at most 1e-17; it hits the floor when
    the envelope stops decreasing, or after 199 terms.  Both conditions are
    monotone in |z| at fixed k, so the points that sum each term are a
    range of |z| (see :func:`_asymptotic_table`).  Each block of at most
    ``_BLOCK`` points is sorted and summed by :func:`_asymptotic_sum`; this
    wrapper adds the estimate.  Returns ``(value, est, converged)``: ``est``
    bounds term magnitudes by the envelope; a point at the floor keeps the
    sum up to its smallest term and an infinite estimate.
    """
    tab = _asymptotic_table(alpha, beta, target)
    value = np.empty_like(z)
    est = np.empty_like(z)
    converged = np.empty(z.shape, dtype=bool)
    for lo in range(0, z.size, _BLOCK):
        order = lo + np.argsort(-z[lo : lo + _BLOCK])
        x = -z[order]
        v, n, p, res = _asymptotic_sum(alpha, beta, tab, x)
        y = 1.0 / x
        # p is y^n: the envelope and ratio of each point's last term; at the
        # floor (ratio up to 1) the tail bound is discarded
        with np.errstate(divide="ignore"):
            tail = _tail(tab.env[n - 1] * p, tab.ratio[n - 1] * y)
        e = 2.0 * tail + 1e-15 + 2e-16 * (
            np.maximum(np.abs(res), tab.env[0] * y) + np.abs(v)
        )
        conv = x >= tab.conv_at[n - 1]
        value[order] = v
        est[order] = np.where(conv, e, math.inf)
        converged[order] = conv
    return value, est, converged


# the far form starts at x = 1e3 at the earliest
_FAR_MIN = 1e3


@functools.lru_cache(maxsize=_PAIR_CACHE_SIZE)
def _far_form(alpha: float, beta: float) -> tuple[float, np.ndarray]:
    """``(X, coef)``: for every ``x >= X``, ``E_{alpha,beta}(-x)`` is the
    algebraic series ``sum_k coef[k-1] x^-k`` alone, to rounding; cached.

    ``X`` is the least x from 1e3 on past which the residue-pair envelope
    ``(2/alpha) rho^(1-beta) exp(rho cos(pi/alpha))``, ``rho = x^(1/alpha)``,
    is at most ``2^-53 |c_1| / x``: rounding relative to the series' leading
    term, not to 1, for ``c_1 = 1/Gamma(beta - alpha)`` vanishes as alpha
    goes to 2 at beta = 1.  The log of that ratio is
    ``(1 + alpha - beta) ln rho + rho cos(pi/alpha)`` plus a constant, which
    rises up to one peak in rho and falls past it, so ``X`` is either 1e3 or
    the crossing past the peak, found by bisection.  ``coef`` holds the
    ``K`` coefficients of :func:`_asymptotic_table` at target 0 that
    :func:`ml_profile` sums at ``X``.  ``X`` is infinite where no x
    qualifies: ``cos(pi/alpha) >= 0`` (alpha = 2) or ``c_1 = 0``.
    """
    tab = _asymptotic_table(alpha, beta, 0.0)
    c1 = abs(float(tab.coef[0]))
    cos_phi = math.cos(math.pi / alpha)
    X = math.inf
    if c1 > 0.0 and cos_phi < 0.0:
        power = 1.0 + alpha - beta
        bound = -53.0 * math.log(2.0) - math.log(2.0 / (alpha * c1))

        def excess(rho: float) -> float:
            return power * math.log(rho) + rho * cos_phi - bound

        lo = max(_FAR_MIN ** (1.0 / alpha), power / -cos_phi)
        if excess(lo) <= 0.0:
            X = _FAR_MIN
        else:
            hi = 2.0 * lo
            while excess(hi) > 0.0:
                lo, hi = hi, 2.0 * hi
            for _ in range(64):
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if excess(mid) <= 0.0 else (mid, hi)
            # a margin over the rounding of X**(1/alpha)
            X = (hi * (1.0 + 1e-12)) ** alpha
    K = min(np.count_nonzero(tab.floor_at < X), np.count_nonzero(tab.conv_at > X) + 1)
    return X, tab.coef[:K]


def _far_sum(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum_k coef[k-1] x^-k`` by Horner in ``y = 1/x``."""
    y = 1.0 / x
    s = np.full_like(y, coef[-1])
    for c in coef[-2::-1]:
        s *= y
        s += c
    return s * y


# }}}


# {{{ Gauss-Legendre rule

def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(P_n(x), P_{n-1}(x))`` by the three-term recurrence, for n >= 1."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, p0


@functools.lru_cache(maxsize=_PAIR_CACHE_SIZE)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the ``order``-point rule on [-1, 1].

    Newton on the three-term recurrence, for the nonnegative half of the
    nodes at once, from Tricomi's asymptotic guesses; the weights are
    ``2 / ((1 - x^2) P_n'(x)^2)`` with ``(1 - x^2) P_n' = n (P_{n-1} - x P_n)``,
    which keeps the ``x P_n`` term that corrects for the rounded node, and
    both halves are mirrored, so the rule is exactly symmetric.  O(order^2)
    work; cached by order, and the arrays are read-only because every
    caller shares them.
    """
    if order < 1:
        raise ValueError(f"Gauss-Legendre order must be >= 1: {order}")
    n = order
    m = (n + 1) // 2
    theta = np.pi * (4.0 * np.arange(1, m + 1) - 1.0) / (4.0 * n + 2.0)
    x = np.cos(theta) * (
        1.0
        - (n - 1.0) / (8.0 * n**3)
        - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)
    )
    # quadratic convergence: a step below 1e-12 leaves an error far below
    # rounding (at most about n^2 * 1e-24)
    for _ in range(32):
        pn, pm = _legendre_pair(n, x)
        dx = pn * (1.0 - x) * (1.0 + x) / (n * (pm - x * pn))
        x = x - dx
        if np.max(np.abs(dx)) <= 1e-12:
            break
    if n % 2:
        x[-1] = 0.0
    pn, pm = _legendre_pair(n, x)
    w = 2.0 * (1.0 - x) * (1.0 + x) / (n * (pm - x * pn)) ** 2
    nodes, weights = np.empty(n), np.empty(n)
    nodes[:m], weights[:m] = -x, w
    # for odd n the middle entry is written twice, the second time as +0.0
    nodes[n - m:], weights[n - m:] = x[::-1], w[::-1]
    return _shared(nodes), _shared(weights)


# }}}


# {{{ branch-cut integral representation

# Gauss-Legendre rule on each panel of the cut integral
_GL_NODES, _GL_WEIGHTS = gauss_legendre(16)
# rows of the (points, nodes) quadrature matrix formed at once
_CUT_ROWS = 256


def _cut_breaks(alpha: float) -> np.ndarray:
    """Panel breakpoints of the scaled cut integral on [0, 64].

    The rational factor has its poles at ``exp(+-i pi (alpha-1)/alpha)``; for
    alpha < 1.5 they approach the real axis at the ridge
    ``c = |cos(pi alpha)|^(1/alpha)`` (``c`` is kept at least
    ``0.125^(1/alpha)``, an anchor of the right scale where there is no
    ridge).  Panels halve toward 0 down to about 1e-13 and toward ``c`` until
    they are narrower than the poles' distance to the axis, then grow by
    1.25 up to 64, past which ``exp(-rho s)`` is below 1e-27 for rho >= 1.
    """
    c = max(-math.cos(math.pi * alpha), 0.125) ** (1.0 / alpha)
    depth = math.ceil(math.log2(c / math.sin(math.pi * (alpha - 1.0) / alpha))) + 3
    d = c * 0.5 ** np.arange(depth + 1)
    near0 = 0.25 * c * 0.5 ** np.arange(42)
    tail = 2.0 * c * 1.25 ** np.arange(1, math.ceil(math.log(32.0 / c, 1.25)) + 1)
    return np.concatenate([[0.0], near0[::-1], c - d[1:], [c], (c + d)[::-1], tail])


def _cut_rule(
    alpha: float, beta: float, breaks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes ``s`` and weights ``w`` of the scaled cut integral.

    ``sum(w * f(s))`` approximates ``int_0^inf s^(alpha-beta) K(s) f(s) ds``
    with the rational factor ``K(s) = (s^alpha sin(pi beta) -
    sin(pi (alpha-beta))) / |s^alpha + exp(i pi alpha)|^2``:
    Gauss-Legendre on every panel, except that on the first panel
    ``[0, b]`` the substitution ``s = b v^(1/(alpha-beta+1))`` absorbs the
    endpoint factor exactly.
    """
    gamma = alpha - beta
    a, b = breaks[:-1, None], breaks[1:, None]
    h = 0.5 * (b - a)
    s = a + h * (1.0 + _GL_NODES)
    w = h * _GL_WEIGHTS * s**gamma
    s[0] = b[0] * (0.5 * (1.0 + _GL_NODES)) ** (1.0 / (gamma + 1.0))
    w[0] = 0.5 * _GL_WEIGHTS * b[0] ** (gamma + 1.0) / (gamma + 1.0)
    s = s.ravel()
    u = s**alpha
    num = u * _sinpi(beta) - _sinpi(gamma)
    # the denominator as a sum of squares: no cancellation at the ridge
    den = (u + math.cos(math.pi * alpha)) ** 2 + _sinpi(alpha) ** 2
    return s, w.ravel() * num / den


def _cut_sums(
    rho: np.ndarray, s: np.ndarray, *weights: np.ndarray
) -> list[np.ndarray]:
    """``sum_j w_j exp(-rho s_j)`` per point for each weight vector ``w``,
    with the exponentials of a block of ``_CUT_ROWS`` points formed once."""
    sums = [np.empty_like(rho) for _ in weights]
    for lo in range(0, rho.size, _CUT_ROWS):
        rows = slice(lo, lo + _CUT_ROWS)
        e = np.exp(-rho[rows, None] * s)
        for out, w in zip(sums, weights):
            out[rows] = (w * e).sum(axis=1)
    return sums


def _fine_pass(
    alpha: float, beta: float, x: np.ndarray, mag: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """One pass of the fine rule at ``x = -z >= 1``, beta < 1 + alpha.

    Returns ``(value, rho, scale, sums)`` with ``value = res + scale *
    sums[0]``: ``sums[0]`` is the rule's sum and, with ``mag``, ``sums[1]``
    the sum of ``|terms|`` from the same exponentials.
    """
    s, w = _cut_rule(alpha, beta, _cut_breaks(alpha))
    rho = x ** (1.0 / alpha)
    sums = _cut_sums(rho, s, w, np.abs(w)) if mag else _cut_sums(rho, s, w)
    scale = rho ** (alpha - beta + 1.0) / (math.pi * x)
    return _residue_pair(alpha, beta, x) + scale * sums[0], rho, scale, sums


def _integral_value(alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """Residue pair plus branch-cut integral at ``x = -z >= 1``, value-only.

    With s = r**(1/alpha) the cut integral reads

        (1/pi) * int_0^inf exp(-s) s^(alpha-beta)
                 * (s^alpha sin(pi beta) - x sin(pi (alpha-beta)))
                 / (s^(2 alpha) + 2 x s^alpha cos(pi alpha) + x^2) ds;

    scaling s by rho = x**(1/alpha) leaves ``x`` only in ``exp(-rho s)``,
    so one fixed composite rule (:func:`_cut_breaks`, :func:`_cut_rule`)
    serves every point, in one pass of exponentials (:func:`_fine_pass`).
    beta >= 1 + alpha is first lowered by alpha, via ``E_{a,b}(z) =
    (E_{a,b-a}(z) - 1/Gamma(b-a)) / z`` (contractive for |z| >= 1).
    :func:`_integral_rep` puts the error estimate on top of these values.

    Range: 1 < alpha <= 2 and x >= 1.  At the 181 first-kind nodes of the
    intermediate band of each tested order (alpha from 1.0001 to 2) the
    value is within ``max(1e-13, 1e-13 |E|)`` of :func:`ml_series_oracle`.
    """
    if beta >= 1.0 + alpha - 1e-9:
        rg = reciprocal_gamma(beta - alpha)
        return (_integral_value(alpha, beta - alpha, x) - rg) / -x
    return _fine_pass(alpha, beta, x, mag=False)[0]


def _integral_rep(
    alpha: float, beta: float, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_integral_value` on an array of z <= -1, with an error estimate.

    The value is the fine pass's, bit for bit; ``est`` adds the gap to the
    rule on every other breakpoint (the nested coarse level) and the
    rounding of the sum and of the residue phase.  For beta >= 1 + alpha
    the value and estimate at beta - alpha are lowered.  At the 181 band
    nodes per tested order of :func:`_integral_value` ``est`` bounds the
    error.
    """
    if beta >= 1.0 + alpha - 1e-9:
        value, est = _integral_rep(alpha, beta - alpha, z)
        rg = reciprocal_gamma(beta - alpha)
        out = (value - rg) / z
        return out, (est + 2e-15 * abs(rg)) / np.abs(z) + 2e-16 * np.abs(out)
    value, rho, scale, (total, mag) = _fine_pass(alpha, beta, -z, mag=True)
    fine = _cut_breaks(alpha)
    s_c, w_c = _cut_rule(alpha, beta, np.append(fine[:-1:2], fine[-1]))
    (coarse,) = _cut_sums(rho, s_c, w_c)
    amp = (2.0 / alpha) * rho ** (1.0 - beta) * np.exp(rho * math.cos(math.pi / alpha))
    est = scale * (np.abs(total - coarse) + 2e-15 * mag) + 1e-15 * (1.0 + rho) * amp
    return value, est + 2e-16 * np.abs(value)


# }}}


# {{{ evaluation

# route names, indexed by the per-point route codes
_METHODS = np.array(["TaylorSeries", "AsymptoticExpansion", "IntegralRepresentation"])
_TAYLOR, _ASYMPTOTIC, _INTEGRAL = range(3)

# ln E_{a,b}(z) ~ z^(1/a) + ((1-b)/a) ln z - ln a for large z > 0, up to O(1/z)
# for alpha < 4; a margin of e^2 past DBL_MAX leaves every finite value alone
_LOG_OVERFLOW = math.log(sys.float_info.max) + 2.0


def ml_eval(
    alpha: float, beta: float, z: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E_{alpha,beta}(z) with an a-posteriori absolute error bound per point.

    ``z`` may have any shape, and ``(value, est, method)`` come back in that
    shape: ``est`` bounds the truncation error of the route taken, and
    ``method`` names it (``"TaylorSeries"``, ``"AsymptoticExpansion"`` or
    ``"IntegralRepresentation"``).  The routes are those of the module
    docstring, with the asymptotic expansion accepted where it meets 2e-13;
    a point's result does not depend on the other points of the call.

    Accuracy contract: ``|value - E| <= max(1e-12, 1e-12 |value|)`` for
    real ``z`` in ``[-1e8, 10]`` (alpha in (0, 2]).  Raises ValueError for
    an order that is not positive or a non-finite ``z``, and
    :class:`MLEvaluationError` when a value overflows double precision.
    """
    _check_orders(alpha, beta)
    shape = np.shape(z)
    z = np.asarray(z, dtype=float).ravel()
    if not np.all(np.isfinite(z)):
        raise ValueError("Mittag-Leffler argument must be finite")
    value = np.empty_like(z)
    est = np.empty_like(z)
    method = np.full(z.shape, _TAYLOR, dtype=np.int8)
    x = np.abs(z)
    with np.errstate(over="ignore"):
        rho = x ** (1.0 / alpha)

    pos = z > 0.0
    if pos.any():
        growth = rho[pos] + (1.0 - beta) / alpha * np.log(z[pos]) - math.log(alpha)
        if np.max(growth) > _LOG_OVERFLOW:
            raise MLEvaluationError(
                f"E_{{{alpha},{beta}}}({z[pos][np.argmax(growth)]}) "
                "overflows double precision"
            )

    zero = z == 0.0
    v0 = reciprocal_gamma(beta)
    value[zero] = v0
    est[zero] = 4e-16 * abs(v0)

    band = ~zero & np.where(pos, x <= _TAYLOR_ZMAX, rho <= _FLOAT_RHO_MAX)
    flt = band.copy()
    if flt.any():
        value[flt], est[flt] = _taylor(alpha, beta, z[flt])
        # where z^k overflows or 800 terms are too few (small alpha) the
        # float sum is non-finite and the point takes the extended sum, as
        # positive points past the band do
        flt[flt] = np.isfinite(value[flt])
    for i in np.flatnonzero((pos | band) & ~flt):
        value[i], est[i] = _taylor_mp(alpha, beta, float(z[i]))

    far = np.flatnonzero(~pos & ~zero & ~band)
    if far.size:
        va, ea, conv = _asymptotic(alpha, beta, z[far], target=2e-13)
        ok = conv & (ea <= np.maximum(2e-13, 1e-13 * np.abs(va)))
        value[far[ok]], est[far[ok]], method[far[ok]] = va[ok], ea[ok], _ASYMPTOTIC
        if 1.02 <= alpha <= 2.0:
            rest = far[~ok]
            value[rest], est[rest] = _integral_rep(alpha, beta, z[rest])
            method[rest] = _INTEGRAL
        else:
            for j in np.flatnonzero(~ok):
                i = far[j]
                # alpha near or below 1 in the intermediate band: guarded
                # Taylor is affordable there because rho stays modest
                try:
                    value[i], est[i] = _taylor_mp(alpha, beta, float(z[i]))
                except MLEvaluationError as exc:
                    # the asymptotic estimate can miss the tighter bar above
                    # by its own 1e-15 floor; it is still returned when it
                    # meets the contract
                    if conv[j] and ea[j] <= max(1e-12, 1e-12 * abs(va[j])):
                        value[i], est[i], method[i] = va[j], ea[j], _ASYMPTOTIC
                        continue
                    raise MLEvaluationError(
                        f"no strategy converged for alpha={alpha}, beta={beta}, "
                        f"z={z[i]}"
                    ) from exc
    return value.reshape(shape), est.reshape(shape), _METHODS[method].reshape(shape)


# }}}


# {{{ vectorized profile with Chebyshev band caches

# band edges: the Taylor band up to _profile_zf, asymptotic above _profile_B
def _profile_zf(alpha: float) -> float:
    return _FLOAT_RHO_MAX**alpha


def _profile_B(alpha: float) -> float:
    return 33.0**alpha


# Chebyshev nodes of the band fits: the Taylor band's, and the intermediate
# band's, where standardChop finds a coefficient plateau for every tested order
_TAYLOR_NODES = 65
_CHEB_NODES = 97


def _cheb_coefficients(vals: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolant at the first-kind nodes.

    In closed form, ``c_k = (2/n) sum_j f_j cos(k pi (j + 1/2) / n)`` with
    ``c_0`` halved; the angle index ``k (2j + 1)`` is reduced mod 4n in
    integers, so every cosine is taken of an exact multiple of ``pi / 2n``
    in ``[0, 2 pi)``.
    """
    n = vals.size
    k = np.arange(n)
    cos_kj = np.cos(np.pi / (2 * n) * (np.outer(k, 2 * k + 1) % (4 * n)))
    coef = (2.0 / n) * (cos_kj @ vals)
    coef[0] *= 0.5
    return coef


def _standard_chop(coef: np.ndarray) -> np.ndarray:
    """The head of ``coef`` that ends where its coefficients reach a plateau
    of relative noise ``tol`` (double precision's epsilon): ``standardChop``
    of Aurentz and Trefethen, ACM TOMS 43(4) (2017), in 0-based indices.

    The normalized envelope ``env[j] = max_{k >= j} |c_k| / max |c|``
    reaches a plateau at the first j whose envelope is zero or falls by
    less than the factor ``r = 3 (1 - ln env[j] / ln tol)`` up to
    ``j2 = round(1.25 j + 5)`` (1-based); the cut is then where
    ``log10 env`` plus a line rising by ``-log10(tol) / 3`` over the
    plateau's reach is least.  With fewer than 17 coefficients, or no
    plateau, all are kept.
    """
    tol = 2.0**-52
    n = coef.size
    if n < 17:
        return coef
    env = np.maximum.accumulate(np.abs(coef)[::-1])[::-1]
    if env[0] == 0.0:
        return coef[:1]
    env = env / env[0]
    for j in range(1, n):
        # 1-based j + 1 and round-half-up of 1.25 (j + 1) + 5, made 0-based
        j2 = int(1.25 * (j + 1) + 5.5) - 1
        if j2 >= n:
            return coef
        e1, e2 = env[j], env[j2]
        if e1 == 0.0 or e2 / e1 > 3.0 * (1.0 - math.log(e1) / math.log(tol)):
            plateau = j - 1
            break
    if env[plateau] == 0.0:
        return coef[: plateau + 1]
    floor = tol ** (7.0 / 6.0)
    j3 = int(np.count_nonzero(env >= floor))
    if j3 <= j2:
        j2 = j3
        env[j2] = floor
    cc = np.log10(env[: j2 + 1]) + np.linspace(0.0, -math.log10(tol) / 3.0, j2 + 1)
    return coef[: max(int(np.argmin(cc)), 1)]


def _chebfit(
    f: Callable[[np.ndarray], np.ndarray], n: int, tol: float, what: str
) -> np.ndarray:
    """Verified Chebyshev coefficients of ``f`` on [-1, 1], cut at their
    coefficient plateau.

    One call of ``f`` evaluates the ``n`` first-kind nodes (descending) and
    12 seeded random check points.  The series interpolates the nodes
    (:func:`_cheb_coefficients`) and is cut by :func:`_standard_chop`; it
    must then meet ``f`` at the check points to ``tol``, relative above 1
    and absolute below, or :class:`MLEvaluationError` is raised.
    """
    nodes = np.cos(np.pi * (np.arange(n) + 0.5) / n)
    checks = np.random.default_rng(12345).uniform(-1.0, 1.0, 12)
    vals = f(np.concatenate([nodes, checks]))
    coef = _standard_chop(_cheb_coefficients(vals[:n]))
    ref = vals[n:]
    miss = np.abs(chebyshev.chebval(checks, coef) - ref)
    if np.any(miss > tol * np.maximum(1.0, np.abs(ref))):
        raise MLEvaluationError(f"{what} verification failed")
    return _shared(coef)


@functools.lru_cache(maxsize=_PAIR_CACHE_SIZE)
def _taylor_band(alpha: float, beta: float) -> np.ndarray:
    """Verified Chebyshev coefficients of ``S = E_{alpha,alpha+beta}`` on the
    Taylor band ``z in [-zf, 0]`` in ``t = 1 + 2 z / zf``, cached per order
    pair: :func:`ml_profile` forms ``E_{alpha,beta}(z) = 1/Gamma(beta) +
    z S(z)`` from them, so ``z = 0`` gives ``1/Gamma(beta)`` exactly and,
    near 0, the fit's error is scaled down by ``|z|``.

    :func:`_chebfit` of one :func:`_taylor` pass of ``S`` at 65 first-kind
    nodes and 12 check points, cut at its coefficient plateau (11 to 18
    coefficients for alpha in [1.01, 2]) and checked to ``1e-11 / zf``, so
    that ``|z|`` times the check's miss is at most 1e-11 on the band.
    """
    zf = _profile_zf(alpha)
    return _chebfit(
        lambda t: _taylor(alpha, alpha + beta, 0.5 * zf * (t - 1.0))[0],
        _TAYLOR_NODES, 1e-11 / zf,
        f"Taylor band (alpha={alpha}, beta={beta})",
    )


@functools.lru_cache(maxsize=_PAIR_CACHE_SIZE)
def _cheb_band(alpha: float, beta: float) -> tuple[float, float, np.ndarray]:
    """Verified Chebyshev series of ``E_{alpha,beta}(-exp(y))`` on the
    intermediate band ``[ya, yb]`` in ``y = ln |z|``, cached per order pair.

    :func:`_chebfit` of one value-only pass of the branch-cut integral
    (:func:`_integral_value`) at 97 first-kind nodes and 12 check points,
    cut at its coefficient plateau (at most 60 coefficients on the tested
    orders, alpha from 1.0001 to 2) and checked to 1e-11.  No
    :func:`ml_eval` call, estimate or asymptotic table is made.  Returns
    ``(ya, yb, coefficients)``.
    """
    ya = math.log(0.97 * _profile_zf(alpha))
    yb = math.log(1.03 * _profile_B(alpha))
    coef = _chebfit(
        lambda t: _integral_value(
            alpha, beta, np.exp(0.5 * (ya + yb) + 0.5 * (yb - ya) * t)
        ),
        _CHEB_NODES, 1e-11,
        f"intermediate band (alpha={alpha}, beta={beta})",
    )
    return ya, yb, coef


def ml_profile(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """Vectorized E_{alpha,beta} on the closed negative axis (z <= 0).

    Four ranges of ``x = -z``, value-only:

    * the Taylor band ``x <= ln(100)^alpha``: ``1/Gamma(beta) + z S(z)``,
      ``S`` a verified Chebyshev series in z of ``E_{alpha,alpha+beta}``
      fitted to one Taylor pass of that order (:func:`_taylor_band`), from
      ``E_{a,b}(z) = 1/Gamma(b) + z E_{a,a+b}(z)``.  ``z = 0`` gives
      ``1/Gamma(beta)`` exactly; on the tested orders the band is within
      5e-14 absolute of :func:`ml_series_oracle`, and within 2 ulps of it
      for ``|z| <= 1e-2``;
    * the intermediate band up to ``33^alpha``: a verified Chebyshev series
      in ``ln x`` of the branch-cut integral's value-only pass
      (:func:`_integral_value`), cut at its coefficient plateau
      (:func:`_cheb_band`, by the same :func:`_chebfit`); on the tested
      orders it is within 2.5e-14 of :func:`ml_series_oracle`, and within
      1e-15 at alpha = 1.5;
    * from ``33^alpha`` below the far-form edge ``X``: the asymptotic
      expansion of :func:`ml_eval` with no accuracy target, so that its
      optimal-truncation floor is accepted, summed by
      :func:`_asymptotic_sum` on the sorted block (each term added to one
      slice, nested inside the last term's, no error estimate, the residue
      pair only where it is not below the double range);
    * past both ``33^alpha`` and ``X``: the K-term algebraic series of
      :func:`_far_form` by Horner in ``1/x`` (:func:`_far_sum`), which is
      the expansion there to rounding.

    A point's value does not depend on the other points of the call.  Each
    band is evaluated a block at a time, so beyond the output and the
    indices of the Taylor and Chebyshev points the working memory stays
    block-sized.  Requires alpha in (1, 2]; absolute accuracy ~1e-12.
    Raises ValueError for a non-finite or positive ``z``, as :func:`ml_eval`
    does for a non-finite one.
    """
    if not 1.0 < alpha <= 2.0:
        raise ValueError(f"ml_profile requires alpha in (1, 2]: {alpha}")
    z = np.asarray(z, dtype=float)
    if z.size:
        lo, hi = np.min(z), np.max(z)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("Mittag-Leffler argument must be finite")
        if hi > 0.0:
            raise ValueError("ml_profile is defined for z <= 0 only")
    flat = z.ravel()
    out = np.empty_like(flat)
    taylor_edge, asymptotic_edge = _profile_zf(alpha), _profile_B(alpha)
    # the Taylor and Chebyshev bands are gathered by index and evaluated a
    # block of band points at a time: in probe tables they are a few points
    # of every row, so a call per block of the table would cost more than
    # the sums
    small = np.flatnonzero(flat >= -taylor_edge)
    if small.size:
        coef, rg = _taylor_band(alpha, beta), reciprocal_gamma(beta)
        for lo in range(0, small.size, _BLOCK):
            i = small[lo : lo + _BLOCK]
            zi = flat[i]
            out[i] = rg + zi * chebyshev.chebval(1.0 + (2.0 / taylor_edge) * zi, coef)
    mid = np.flatnonzero((flat < -taylor_edge) & (flat >= -asymptotic_edge))
    if mid.size:
        ya, yb, coef = _cheb_band(alpha, beta)
        for lo in range(0, mid.size, _BLOCK):
            i = mid[lo : lo + _BLOCK]
            t = (2.0 * np.log(-flat[i]) - (ya + yb)) / (yb - ya)
            out[i] = chebyshev.chebval(t, coef)
    for lo in range(0, flat.size, _BLOCK):
        blk = flat[lo : lo + _BLOCK]
        big = blk < -asymptotic_edge
        if not big.any():
            continue
        X, far_coef = _far_form(alpha, beta)
        past = blk <= -X
        near = np.flatnonzero(big & ~past)
        if near.size:
            tab = _asymptotic_table(alpha, beta, 0.0)
            x = -blk[near]
            order = np.argsort(x)
            out[lo + near[order]] = _asymptotic_sum(alpha, beta, tab, x[order])[0]
        far = np.flatnonzero(big & past)
        if far.size:
            out[lo + far] = _far_sum(far_coef, -blk[far])
    return out.reshape(z.shape)


# }}}


# {{{ brute-force series oracle

_ORACLE_DPS = 50  # working digits of ml_series_oracle, raised for cancellation


def ml_series_oracle(alpha: float, beta: float, z: float, n_terms: int) -> float:
    """Exact partial sum of the defining series in ``_ORACLE_DPS``-digit arithmetic.

    The Gamma argument ``alpha*k + beta`` is formed in extended precision as
    well: rounding it in double would inject O(max_term * 1e-16) noise, which
    the alternating cancellation cannot remove.  Serves as the independent
    brute-force oracle for :func:`ml_eval` on moderate ``|z|``.
    """
    _check_orders(alpha, beta)
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1: {n_terms}")
    # account for the alternating cancellation of z < 0 so that _ORACLE_DPS
    # digits are effective; positive terms do not cancel
    dps = _ORACLE_DPS
    if z < 0.0:
        dps = max(dps, int(22 + 0.45 * abs(z) ** (1.0 / alpha)))
    import mpmath

    gammas = _mp_gammas(alpha, beta, dps, n_terms)
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

def _fd5(f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Fourth-order centered first derivative from the rows at t-2h, t-h,
    t+h, t+2h."""
    return (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12.0 * h)


def ml_derivative_identity_residuals(
    alpha: float, lam: float, times: np.ndarray
) -> dict[str, float]:
    """Residuals of the closed-form time derivatives of the relaxation kernels.

    On each sample point the left side is differentiated with a fourth-order
    centered stencil and compared against the closed form; the result maps
    ``residual_dEa``, ``residual_dtEa2`` and ``residual_dtam1Eaa`` to the
    largest deviation of each over the sample points:

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
    t = np.asarray(times, dtype=float)
    if t.size == 0 or np.min(t) <= 0.0:
        raise ValueError("sample times must be strictly positive")

    h = np.minimum(t / 3.0, (1.0 + lam) ** (-1.0 / alpha)) / 48.0
    # stencil rows, then the sample times themselves as the last row
    ts = np.stack([t - 2 * h, t - h, t + h, t + 2 * h, t])
    z = -lam * ts**alpha

    e1 = ml_eval(alpha, 1.0, z)[0]
    ea = ml_eval(alpha, alpha, z)[0]
    e2 = ml_eval(alpha, 2.0, z[:4])[0]
    eam1 = ml_eval(alpha, alpha - 1.0, z[4])[0]
    d1 = _fd5(e1, h)
    rhs1 = -lam * t ** (alpha - 1.0) * ea[4]
    d2 = _fd5(ts[:4] * e2, h)
    d3 = _fd5(ts[:4] ** (alpha - 1.0) * ea[:4], h)
    rhs3 = t ** (alpha - 2.0) * eam1
    return {
        "residual_dEa": float(np.max(np.abs(d1 - rhs1))),
        "residual_dtEa2": float(np.max(np.abs(d2 - e1[4]))),
        "residual_dtam1Eaa": float(np.max(np.abs(d3 - rhs3))),
    }


# }}}


# {{{ Laplace-transform cross-check

# Gauss-Legendre points per panel and panel halvings toward t = 0
_LAPLACE_ORDER = 20
_LAPLACE_HALVINGS = 60


def ml_laplace_check(alpha: float, beta: float, lam: float, z: float) -> float:
    """Residual of the Laplace pair for the relaxation kernel.

    Compares ``int_0^inf exp(-z t) t^(beta-1) E_{alpha,beta}(-lam t^alpha) dt``
    (tail truncated where the exponential weight is below 1e-14) against
    ``z^(alpha-beta) / (z^alpha + lam)``.  The quadrature is a fixed
    composite Gauss-Legendre rule on panels that halve from the cutoff toward
    0, in the variable ``u = t^beta`` when beta < 1 (which removes the
    endpoint singularity), and the kernel is evaluated at all of its nodes
    with one array call.  Requires z > lam**(1/alpha).
    """
    _check_orders(alpha, beta)
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

    # geometric grading resolves the t^(beta-1) and t^alpha endpoint
    # behaviour; the innermost panel has width end * 2^-60 ~ 1e-18 end
    end = t_cut**beta if beta < 1.0 else t_cut
    breaks = np.append(0.0, end * 0.5 ** np.arange(_LAPLACE_HALVINGS, -1, -1))
    x, w = gauss_legendre(_LAPLACE_ORDER)
    h = 0.5 * np.diff(breaks)[:, None]
    s = (breaks[:-1, None] + h * (1.0 + x)).ravel()
    ws = (h * w).ravel()
    if beta < 1.0:
        t = s ** (1.0 / beta)
        weight = np.exp(-z * t) / beta
    else:
        t = s
        weight = np.exp(-z * t) * t ** (beta - 1.0)
    val = float(np.sum(ws * weight * ml_eval(alpha, beta, -lam * t**alpha)[0]))
    exact = z ** (alpha - beta) / (z**alpha + lam)
    return abs(val - exact)


# }}}
