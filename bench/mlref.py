r"""Reference Mittag-Leffler evaluator for the benchmark's output checks.

Independent of ``fracplate``: it shares no code with the package and uses a
different split of the real line.

* For ``|z|^(1/alpha) < RHO_SWITCH`` it sums the defining series
  ``sum_k z^k / Gamma(alpha k + beta)`` in extended precision.  The
  alternating sum loses about ``0.45 |z|^(1/alpha)`` decimal digits to
  cancellation, so the working precision is that much over a 20-digit base
  (taken at the switch, so one precision serves the whole range).  mpmath
  forms ``1/Gamma(alpha k + beta)`` with the Gamma argument in that precision;
  the partial sums run in ``decimal`` at the same precision, which is several
  times faster than mpmath's pure-Python arithmetic.
* Beyond, on the negative axis, it uses the textbook algebraic expansion
  ``-sum_k z^(-k) / Gamma(beta - alpha k)`` truncated at its smallest term
  (floor about ``exp(-|z|^(1/alpha))``), plus the conjugate-pole residue pair
  ``(2/alpha) rho^(1-beta) exp(rho cos(pi/alpha)) cos(rho sin(pi/alpha) +
  (1-beta) pi/alpha)`` with ``rho = |z|^(1/alpha)``, present for
  alpha in [1, 2] (one pole of weight 1 at alpha = 1).
"""

from __future__ import annotations

import math
from decimal import Context, Decimal

import mpmath
import numpy as np

RHO_SWITCH = 50.0
_BASE_DPS = 20
_K_ASYM = 80  # algebraic terms considered; beyond RHO_SWITCH far fewer are used
_K_SERIES = 5000
_SERIES_TOL = Decimal("1e-22")


class MittagLeffler:
    """E_{alpha,beta} on the real line, alpha in (0, 2]."""

    def __init__(self, alpha: float, beta: float) -> None:
        if not 0.0 < alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2]: {alpha}")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.dps = _BASE_DPS + math.ceil(0.45 * RHO_SWITCH) + 5
        self._ctx = Context(prec=self.dps)
        self._rgamma: list[Decimal] = []  # 1/Gamma(alpha k + beta)
        with mpmath.workdps(30):
            a, b = mpmath.mpf(self.alpha), mpmath.mpf(self.beta)
            rg = [float(mpmath.rgamma(b - a * k)) for k in range(1, _K_ASYM + 1)]
        self._asym_coef = np.array(rg)
        k = np.arange(1, _K_ASYM + 1, dtype=float)
        arg = self.alpha * k - self.beta + 1.0
        # sign-free envelope of the k-th term, by reflection
        # |1/Gamma(beta - alpha k)| <= Gamma(1 + alpha k - beta) / pi
        with np.errstate(divide="ignore"):
            log_abs = np.log(np.abs(self._asym_coef))
        self._log_env = np.where(
            arg > 0.5,
            np.array([math.lgamma(v) if v > 0.5 else 0.0 for v in arg]) - math.log(math.pi),
            log_abs,
        )

    # {{{ defining series in extended precision

    def _rgamma_upto(self, n: int) -> list[Decimal]:
        if len(self._rgamma) < n:
            with mpmath.workdps(self.dps + 5):
                a, b = mpmath.mpf(self.alpha), mpmath.mpf(self.beta)
                for k in range(len(self._rgamma), n + 32):
                    rg = mpmath.rgamma(a * k + b)
                    self._rgamma.append(Decimal(mpmath.nstr(rg, self.dps + 5, min_fixed=1, max_fixed=0)))
        return self._rgamma

    def series(self, z: float) -> float:
        """Partial sums in ``self.dps`` decimal digits; float result."""
        rho = abs(z) ** (1.0 / self.alpha)
        if rho >= RHO_SWITCH and z < 0.0:
            raise ValueError(f"z={z} is beyond the series range")
        ctx = self._ctx
        zd = Decimal(z)  # exact: every float is a finite decimal
        s = Decimal(0)
        zk = Decimal(1)
        for k in range(_K_SERIES):
            term = ctx.multiply(zk, self._rgamma_upto(k + 1)[k])
            s = ctx.add(s, term)
            # past the largest term, stop once the rest is below 1e-22 |s|
            if self.alpha * k + self.beta > rho + 2.0 and abs(term) <= _SERIES_TOL * abs(s):
                return float(s)
            zk = ctx.multiply(zk, zd)
        raise RuntimeError(f"series did not converge at z={z}")

    # }}}

    # {{{ algebraic expansion plus residue pair, vectorized

    def _residue(self, x: np.ndarray) -> np.ndarray:
        a = self.alpha
        if a < 1.0:
            return np.zeros_like(x)
        factor = 1.0 if a == 1.0 else 2.0 / a
        rho = x ** (1.0 / a)
        # cos and sin of pi/alpha through cospi/sinpi, so alpha = 1 and 2 give
        # exact 0 and +-1 (a rounded pi/2 would leak a growing factor)
        with mpmath.workdps(30):
            inv = mpmath.mpf(1) / mpmath.mpf(a)
            cos_phi = float(mpmath.cospi(inv))
            sin_phi = float(mpmath.sinpi(inv))
            shift = float((1 - mpmath.mpf(self.beta)) * mpmath.pi * inv)
        damp = rho * cos_phi
        with np.errstate(under="ignore"):
            return (
                factor
                * rho ** (1.0 - self.beta)
                * np.exp(np.maximum(damp, -745.0))
                * np.cos(rho * sin_phi + shift)
            ) * (damp > -745.0)

    def asymptotic(self, z: np.ndarray) -> np.ndarray:
        x = -np.asarray(z, dtype=float)
        if np.any(x ** (1.0 / self.alpha) < RHO_SWITCH):
            raise ValueError("the algebraic expansion needs |z|^(1/alpha) >= RHO_SWITCH")
        k = np.arange(1, _K_ASYM + 1, dtype=float)
        lnx = np.log(x)[:, None]
        log_env = self._log_env[None, :] - k[None, :] * lnx
        # optimal truncation: keep the terms before the smallest envelope
        keep = k[None, :] <= np.argmin(log_env, axis=1)[:, None] + 1
        with np.errstate(under="ignore"):
            terms = self._asym_coef[None, :] * np.exp(-k[None, :] * lnx)
        signs = np.where(k % 2 == 1, -1.0, 1.0)  # z^(-k) = (-1)^k x^(-k)
        algebraic = -np.sum(np.where(keep, signs[None, :] * terms, 0.0), axis=1)
        return algebraic + self._residue(x)

    # }}}

    def __call__(self, z: float) -> float:
        return float(self.table(np.array([z]))[0])

    def table(self, z: np.ndarray) -> np.ndarray:
        """Elementwise E_{alpha,beta}(z) for an array of real z."""
        z = np.asarray(z, dtype=float)
        flat = z.ravel()
        out = np.empty_like(flat)
        far = (flat < 0.0) & (np.abs(flat) ** (1.0 / self.alpha) >= RHO_SWITCH)
        if far.any():
            out[far] = self.asymptotic(flat[far])
        for i in np.flatnonzero(~far):
            out[i] = self.series(float(flat[i]))
        return out.reshape(z.shape)
