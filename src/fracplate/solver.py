r"""Truncated Mittag-Leffler series solutions of the fractional plate system.

For ``dt^alpha u + lap^2 u = 0`` with hinged boundary conditions and data
``u(0) = u0``, ``u_t(0) = u1``, the solution separates over the shared
eigenbasis with per-mode time factor

.. math::

    c_n(t) = u0_n E_\alpha(-\lambda_n t^\alpha)
           + u1_n\, t\, E_{\alpha,2}(-\lambda_n t^\alpha).

There is no time stepping anywhere: the series is evaluated exactly through
the Mittag-Leffler kernels, and time grids exist only to measure residuals
and norms.  The residual probes push sampled coefficients through the
discrete Caputo pipeline and compare against ``-lambda_n c_n``, which is the
numerical meaning of "solves the equation".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .fractional_calculus import TimeGrid, caputo_derivative
from .spectral_domain import Domain, ModeSet, eigenmodes, fractional_norm
from .special_functions import ml_profile

__all__ = [
    "SpectralSolution",
    "solve",
    "lift",
    "mode_ode_residual",
    "weak_form_residual",
    "classify",
    "apriori_estimate_check",
]


@dataclass(frozen=True)
class SpectralSolution:
    """Everything needed to evaluate the series solution lazily."""

    domain: Domain
    modes: ModeSet
    alpha: float
    u0: np.ndarray
    u1: np.ndarray
    T: float
    tail_u0: float = 0.0
    tail_u1: float = 0.0

    @property
    def lambdas(self) -> np.ndarray:
        return self.modes.lam

    def coefficients(self, times: np.ndarray) -> np.ndarray:
        """Per-mode time factors c_n(t); shape (n_times, n_modes)."""
        t = np.asarray(times, dtype=float).reshape(-1)
        lam = self.lambdas
        Z = -np.outer(t**self.alpha, lam)
        e1 = ml_profile(self.alpha, 1.0, Z)
        e2 = ml_profile(self.alpha, 2.0, Z)
        return self.u0[None, :] * e1 + (t[:, None] * e2) * self.u1[None, :]

    def coefficient_derivatives(self, times: np.ndarray) -> np.ndarray:
        """Exact c_n'(t); t = 0 rows use the continuous limit u1_n."""
        t = np.asarray(times, dtype=float).reshape(-1)
        lam = self.lambdas
        Z = -np.outer(t**self.alpha, lam)
        ea = ml_profile(self.alpha, self.alpha, Z)
        e1 = ml_profile(self.alpha, 1.0, Z)
        tpow = np.where(t > 0.0, t, 1.0) ** (self.alpha - 1.0)
        tpow = np.where(t > 0.0, tpow, 0.0)
        return (-lam[None, :] * self.u0[None, :]) * tpow[:, None] * ea + self.u1[
            None, :
        ] * e1


def solve(
    d: Domain, N: int, alpha: float, u0: np.ndarray, u1: np.ndarray, T: float
) -> SpectralSolution:
    """Assemble the truncated series solution; no discretization happens here.

    ``u0`` and ``u1`` are coefficient arrays in ``eigenmodes(d, .)`` order
    that cover at least the first N modes.  Further coefficients are dropped
    and their mass in H^2 x L^2, ``sum lam_n u0_n^2`` and ``sum u1_n^2`` over
    n > N, is recorded as the truncation tail.
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (1, 2): {alpha}")
    if T <= 0.0:
        raise ValueError(f"horizon must be positive: {T}")
    u0, u1 = (np.asarray(u, dtype=float).reshape(-1) for u in (u0, u1))
    if not 1 <= N <= min(len(u0), len(u1)):
        raise ValueError(f"data covers {len(u0)}/{len(u1)} modes; N={N} requested")
    modes = eigenmodes(d, max(len(u0), len(u1)))
    tail0 = float(np.sum(modes.lam[N : len(u0)] * u0[N:] ** 2))
    tail1 = float(np.sum(u1[N:] ** 2))
    return SpectralSolution(
        d, modes[:N], alpha, u0[:N].copy(), u1[:N].copy(), T, tail0, tail1
    )


def lift(s: SpectralSolution, power: float) -> SpectralSolution:
    """The solution viewed through the operator power: data scaled by lam^power."""
    scale = np.exp(power * np.log(s.lambdas))
    return replace(s, u0=s.u0 * scale, u1=s.u1 * scale)


# {{{ residual probes

def _interior_window(grid: TimeGrid) -> slice:
    """Nodes measured by residual probes: the startup layer is excluded.

    The first few graded cells represent the kernel's ``t^(alpha-1)``
    behavior with O(1) relative error no matter how fine the grid is (the
    layer is self-similar under refinement), so residuals are measured from
    cell M/32 on, where the estimate both converges and is meaningful.  The
    initial-condition checks cover the excluded layer separately.
    """
    M = len(grid) - 1
    return slice(max(4, M // 32), M)


def _caputo_defects(
    s: SpectralSolution, positions: np.ndarray, grid: TimeGrid, C: np.ndarray
) -> np.ndarray:
    """dt^alpha c_n + lam_n c_n on the grid for 0-based mode positions; (M+1, k).

    ``C`` is the coefficient table ``s.coefficients(grid.nodes)``, which
    callers that also need it for other purposes form once.  One discrete
    Caputo pipeline over the whole block, with the exact initial slopes
    c_n'(0) = u1_n supplied; row 0 is NaN.
    """
    C = C[:, positions]
    dC = caputo_derivative(grid, C, s.alpha, s.u1[positions])
    return dC + s.lambdas[positions] * C


def _mode_residuals(
    s: SpectralSolution, positions: np.ndarray, grid: TimeGrid, C: np.ndarray
) -> np.ndarray:
    """``mode_ode_residual`` for 0-based positions, one per position, from
    the coefficient table ``C`` of ``_caputo_defects``."""
    resid = _caputo_defects(s, positions, grid, C)[_interior_window(grid)]
    return np.nanmax(np.abs(resid), axis=0)


def mode_ode_residual(
    s: SpectralSolution, n: int | Sequence[int], grid: TimeGrid
) -> float | list[float]:
    """max over interior nodes of |dt^alpha c_n + lam_n c_n|.

    ``n`` is the 1-based position in the solution's mode order, or a
    sequence of positions: then one residual per position is returned, all
    from one Caputo pipeline over the (M+1, len(n)) block of coefficients.
    The Caputo derivative is the full discrete pipeline (fourth-order
    differentiation, fractional integral with exact moments, differentiation
    again) with the exact initial slope c_n'(0) = u1_n supplied.
    """
    if len(grid) < 513:
        raise ValueError("mode residuals need a graded grid with >= 512 cells")
    positions = np.atleast_1d(np.asarray(n, dtype=int))
    bad = (positions < 1) | (positions > len(s.modes))
    if np.any(bad):
        raise ValueError(f"mode {positions[bad][0]} is not part of the solution")
    worst = _mode_residuals(s, positions - 1, grid, s.coefficients(grid.nodes))
    return float(worst[0]) if np.ndim(n) == 0 else [float(r) for r in worst]


def weak_form_residual(s: SpectralSolution, v: np.ndarray, grid: TimeGrid) -> float:
    """max over interior nodes of the weak-form defect against test function v.

    ``v`` holds the test function's coefficients in the solution's mode
    order, one per mode.  Per nonzero ``v_n`` the first term is
    d/dt I^(2-alpha)(c_n' - c_n'(0)) formed on the grid; the bilinear term
    contracts spectrally to ``sum_n lam_n c_n(t) v_n`` by orthonormality.
    """
    if len(grid) < 9:
        raise ValueError("grid too coarse for the differentiation stencils")
    v = np.asarray(v, dtype=float).reshape(-1)
    if len(v) != len(s.modes):
        raise ValueError(f"{len(v)} test coefficients for {len(s.modes)} modes")
    positions = np.flatnonzero(v)
    if not positions.size:
        return 0.0
    C = s.coefficients(grid.nodes)
    resid = _caputo_defects(s, positions, grid, C) @ v[positions]
    return float(np.nanmax(np.abs(resid[_interior_window(grid)])))


# }}}


# {{{ classification and a-priori estimates

def classify(s: SpectralSolution) -> dict[str, dict[str, float]]:
    """Norm table of the solution's data across the fractional power scale.

    u0 is measured at theta in {1/4, 1/2, 3/4, 1} and u1 at
    {-1/4, 0, 1/4, 1/2}; for finite truncations every norm is finite, so the
    table is the informative output (it normalizes the estimate ratios).
    """
    lam = s.lambdas
    return {
        "u0": {f"theta={th}": fractional_norm(lam, s.u0, th)
               for th in (0.25, 0.5, 0.75, 1.0)},
        "u1": {f"theta={th}": fractional_norm(lam, s.u1, th)
               for th in (-0.25, 0.0, 0.25, 0.5)},
    }


def apriori_estimate_check(s: SpectralSolution, grid: TimeGrid) -> dict[str, float]:
    """Empirical ratios for the strong-data a-priori estimates.

    LHS norms are spectral sums with trapezoid time quadrature:

    * ``ratio_dtalpha_l2``: ``||dt^alpha u||_{L^2(0,T;L^2)}``
    * ``ratio_gradlap_dtheta``: ``||grad lap u||_{L^2(0,T;D(A^theta))}``
      with theta = 1/(4 alpha) (midpoint of the admissible range)

    each against ``||grad lap u0|| + ||grad u1||``.  Zero data is flagged
    ``{"vacuous": 1.0}`` rather than reported as 0/0.  ``solve`` prints
    this dict as its ``apriori``.
    """
    lam = s.lambdas
    rhs = fractional_norm(lam, s.u0, 0.75) + fractional_norm(lam, s.u1, 0.25)
    if rhs == 0.0:
        return {"vacuous": 1.0}
    C = s.coefficients(grid.nodes)
    t = grid.nodes
    theta = 1.0 / (4.0 * s.alpha)
    sq1 = np.sum((lam[None, :] ** 2) * C**2, axis=1)
    lhs1 = math.sqrt(float(np.trapezoid(sq1, t)))
    sq2 = np.sum((lam[None, :] ** (1.5 + 2 * theta)) * C**2, axis=1)
    lhs2 = math.sqrt(float(np.trapezoid(sq2, t)))
    return {"ratio_dtalpha_l2": lhs1 / rhs, "ratio_gradlap_dtheta": lhs2 / rhs}


# }}}
