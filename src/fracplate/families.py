"""Deterministic data families for the boundary-trace probes.

Random families use a counter-based generator so any implementation can
reproduce the streams: member ``m`` of a family seeded with ``s`` draws from
``numpy`` Philox4x64-10 keyed with ``[s, m]``, takes ``2 N`` uniform doubles
(:meth:`numpy.random.Generator.random`), clips them to
``[1e-300, 1 - 1e-16]`` and maps them through the inverse standard-normal
CDF, evaluated by Wichura's algorithm AS 241 (PPND16, Appl. Statist. 37(3),
1988; relative error about 1e-16).  The first ``N`` become multipliers for
row ``m`` of the ``u0`` matrix, the rest for row ``m`` of ``u1``;
coefficient ``n`` is then ``multiplier * n**(-p)``.

Only ``u0`` is nested across ``N``: requesting the family at a smaller ``N``
yields a prefix of the same ``u0``, but ``u1`` takes draws ``[N, 2N)`` and so
changes with ``N``.  A caller comparing several ``N`` draws once at the
largest and keeps the first ``N`` columns of both matrices, as the
direct-inequality probe does, so growth factors across an N-schedule compare
like with like.
"""

from __future__ import annotations

import numpy as np

# numpy loads numpy.random lazily on first use: importing it here keeps that
# cost (about 15 ms) at start-up instead of inside the first draw
from numpy.random import Generator, Philox

__all__ = ["family_members", "parse_family"]


def parse_family(spec: str) -> tuple[str, dict[str, float]]:
    """Parse a family spec string.

    Recognized forms: ``single-u0`` and ``single-u1`` (one member per mode,
    so N members at N modes) and ``decay:p`` (``members`` random members with
    coefficients decaying like ``n**(-p)``).
    """
    parts = spec.split(":")
    kind = parts[0].strip().lower()
    if kind in ("single-u0", "single-u1"):
        return kind, {}
    if kind == "decay":
        if len(parts) != 2:
            raise ValueError(f"decay family needs an exponent: {spec!r}")
        if not np.isfinite(p := float(parts[1])):
            raise ValueError(f"decay exponent must be finite: {spec!r}")
        return kind, {"p": p}
    raise ValueError(f"unknown family spec {spec!r}")


# AS 241 (PPND16) rational approximations, coefficients in ascending order:
# the central region |p - 1/2| <= 0.425 in r = 0.180625 - (p - 1/2)^2, the
# tails in r = sqrt(-log(min(p, 1 - p))) - 1.6 (r <= 5) or - 5 beyond
_AS241_CENTRAL = (
    (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
     1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
     3.3430575583588128105e4, 2.5090809287301226727e3),
    (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
     5.3941960214247511077e3, 2.1213794301586595867e4, 3.9307895800092710610e4,
     2.8729085735721942674e4, 5.2264952788528545610e3),
)
_AS241_NEAR = (
    (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
     3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
     2.27238449892691845833e-2, 7.74545014278341407640e-4),
    (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
     6.89767334985100004550e-1, 1.48103976427480074590e-1,
     1.51986665636164571966e-2, 5.47593808499534494600e-4,
     1.05075007164441684324e-9),
)
_AS241_FAR = (
    (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
     2.96560571828504891230e-1, 2.65321895265761230930e-2,
     1.24266094738807843860e-3, 2.71155556874348757815e-5,
     2.01033439929228813265e-7),
    (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
     1.48753612908506148525e-2, 7.86869131145613259100e-4,
     1.84631831751005468180e-5, 1.42151175831644588870e-7,
     2.04426310338993978564e-15),
)


def _ratio(
    coef: tuple[tuple[float, ...], tuple[float, ...]], r: np.ndarray
) -> np.ndarray:
    num, den = (np.polynomial.polynomial.polyval(r, c) for c in coef)
    return num / den


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Inverse standard-normal CDF on (0, 1) by Wichura's AS 241 (PPND16)."""
    q = p - 0.5
    out = np.empty_like(q)
    central = np.abs(q) <= 0.425
    qc = q[central]
    out[central] = qc * _ratio(_AS241_CENTRAL, 0.180625 - qc * qc)
    tail = ~central
    r = np.sqrt(-np.log(np.minimum(p[tail], 1.0 - p[tail])))
    x = np.where(
        r <= 5.0, _ratio(_AS241_NEAR, r - 1.6), _ratio(_AS241_FAR, r - 5.0)
    )
    out[tail] = np.where(q[tail] < 0.0, -x, x)
    return out


def _gaussian_draws(seed: int, member: int, count: int) -> np.ndarray:
    gen = Generator(Philox(key=[seed, member]))
    u = gen.random(count)
    return _ndtri(np.clip(u, 1e-300, 1.0 - 1e-16))


def family_members(
    spec: str, N: int, seed: int = 42, members: int = 8
) -> tuple[np.ndarray, np.ndarray]:
    """(u0, u1) coefficient matrices on the first N modes, one row per member."""
    kind, params = parse_family(spec)
    if kind == "single-u0":
        return np.eye(N), np.zeros((N, N))
    if kind == "single-u1":
        return np.zeros((N, N)), np.eye(N)
    decay = np.arange(1, N + 1, dtype=float) ** (-params["p"])
    g = np.array([_gaussian_draws(seed, m, 2 * N) for m in range(members)])
    g = g.reshape(len(g), 2 * N)  # (0, 2N) when there are no members
    return g[:, :N] * decay, g[:, N:] * decay
