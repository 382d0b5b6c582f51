"""Deterministic data families for the boundary-trace probes.

Random families use a counter-based generator so any implementation can
reproduce the streams: member ``m`` of a family seeded with ``s`` draws from
``numpy`` Philox4x64-10 keyed with ``[s, m]``, takes ``2 N`` uniform doubles
(:meth:`numpy.random.Generator.random`), and maps them through the inverse
standard-normal CDF.  The first ``N`` become multipliers for ``u0``, the
rest for ``u1``; coefficient ``n`` is then ``multiplier * n**(-p)``.

Only ``u0`` is nested across ``N``: requesting the family at a smaller ``N``
yields a prefix of the same ``u0``, but ``u1`` takes draws ``[N, 2N)`` and so
changes with ``N``.  A caller comparing several ``N`` draws once at the
largest and truncates both vectors, as the direct-inequality probe does, so
growth factors across an N-schedule compare like with like.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

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
        return kind, {"p": float(parts[1])}
    raise ValueError(f"unknown family spec {spec!r}")


def _gaussian_draws(seed: int, member: int, count: int) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=[seed, member]))
    u = gen.random(count)
    return ndtri(np.clip(u, 1e-300, 1.0 - 1e-16))


def family_members(
    spec: str, N: int, seed: int = 42, members: int = 8
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Materialize (u0, u1) coefficient pairs on the first N modes."""
    kind, params = parse_family(spec)
    if kind == "single-u0":
        out = []
        for n in range(N):
            u0 = np.zeros(N)
            u0[n] = 1.0
            out.append((u0, np.zeros(N)))
        return out
    if kind == "single-u1":
        out = []
        for n in range(N):
            u1 = np.zeros(N)
            u1[n] = 1.0
            out.append((np.zeros(N), u1))
        return out
    p = params["p"]
    decay = np.arange(1, N + 1, dtype=float) ** (-p)
    out = []
    for m in range(members):
        g = _gaussian_draws(seed, m, 2 * N)
        out.append((g[:N] * decay, g[N:] * decay))
    return out
