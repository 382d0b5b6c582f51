r"""Discrete fractional-in-time operators on (possibly graded) grids.

The Riemann-Liouville integral

.. math::

    I^\beta f(t) = \frac{1}{\Gamma(\beta)} \int_0^t (t-\tau)^{\beta-1}
                   f(\tau)\, d\tau

is discretized by the product-trapezoidal rule: on each cell ``f`` is
replaced by its linear interpolant and the weakly singular moments are
integrated exactly.  Naive sampling of the kernel near ``tau = t`` would
destroy the rule's second-order accuracy, so never do that.  One tile kernel
gives the two moments per unit width of every cell of a run of rows, at most
``_RL_TILE_CELLS`` cells a tile.  Cells far from the evaluation time take
the midpoint expansion of the kernel, one power per cell; the few next to
the diagonal take the closed forms.  ``rl_integral`` contracts each tile as
it is formed and ``rl_integral_matrix`` assembles rows from the same tiles.
Every cell's arithmetic, and its order, is that of its row alone, so the
weights do not depend on the tiling.

The Caputo derivative of order ``alpha`` in (1, 2) is realized through
``d/dt I^(2-alpha)(f' - f'(0))``: differentiate the samples (fourth order,
Fornberg weights on the actual grid), subtract the caller-supplied exact
initial slope, apply the fractional integral, differentiate once more.

Graded grids ``t_i = T (i/M)^gamma`` with ``gamma ~ 2/(alpha-1)`` (capped at
4) resolve the ``t^(alpha-1)``, ``t^(alpha-2)`` endpoint behavior of
fractional relaxation profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


__all__ = [
    "TimeGrid",
    "default_grading",
    "rl_integral",
    "rl_integral_matrix",
    "caputo_derivative",
    "grid_derivative",
    "gagliardo_seminorm",
]


# {{{ grids

@dataclass(frozen=True)
class TimeGrid:
    """Ordered sample times on [0, T] with power-law grading toward 0."""

    T: float
    nodes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        n = self.nodes
        if n.ndim != 1 or n.size < 2:
            raise ValueError("a time grid needs at least two nodes")
        if n[0] != 0.0 or abs(n[-1] - self.T) > 1e-12 * max(1.0, self.T):
            raise ValueError("nodes must start at 0 and end at T")
        if np.any(np.diff(n) <= 0.0):
            raise ValueError("nodes must be strictly increasing")

    @classmethod
    def graded(cls, T: float, M: int, gamma: float = 1.0) -> "TimeGrid":
        if M < 1:
            raise ValueError(f"M must be >= 1: {M}")
        if gamma < 1.0:
            raise ValueError(f"grading must be >= 1: {gamma}")
        i = np.arange(M + 1, dtype=float)
        nodes = T * (i / M) ** gamma
        nodes[-1] = T
        return cls(T, nodes)

    @classmethod
    def uniform(cls, T: float, M: int) -> "TimeGrid":
        return cls.graded(T, M, 1.0)

    def __len__(self) -> int:
        return len(self.nodes)


def default_grading(alpha: float) -> float:
    """Grading exponent 2/(alpha-1), capped at 4."""
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (1, 2): {alpha}")
    return min(4.0, 2.0 / (alpha - 1.0))


def _samples(grid: TimeGrid, values: np.ndarray) -> np.ndarray:
    """``values`` as floats, refused unless the first axis has one entry per node."""
    v = np.asarray(values, dtype=float)
    count = v.shape[0] if v.ndim else 1
    if count != len(grid):
        raise ValueError(f"{count} values for {len(grid)} nodes")
    return v


def _slopes(samples: np.ndarray, f1_0: float | np.ndarray) -> np.ndarray:
    """``f1_0`` as floats, refused unless a scalar or one slope per component
    of ``samples`` (their shape past the node axis)."""
    s = np.asarray(f1_0, dtype=float)
    if s.ndim and s.shape != samples.shape[1:]:
        raise ValueError(f"slopes of shape {s.shape} for samples {samples.shape}")
    return s


# }}}


# {{{ Riemann-Liouville integral (product trapezoidal, exact moments)

_RL_TILE_CELLS = 1 << 16  # cells (rows x cells) per weight tile: 512 KB a buffer
_FAR = 100.0  # a cell is far once its distance exceeds this many half-widths
_FAR_TERMS = 8  # terms of the far-field series: truncation below (1/_FAR)^8


def _closed_moments(
    a: np.ndarray, b: np.ndarray, d: np.ndarray, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exact moments H = int_a^b u^(beta-1)(u-a) du, G = int u^(beta-1)(b-u) du.

    The closed forms difference two nearly equal powers, Q_p = b^p - a^p,
    which is evaluated as -b^p * expm1(p * log(a/b)); exact at a = 0.
    """
    logr = np.log1p(-d / b)
    qb = -np.expm1(beta * logr) * b**beta
    qb1 = -np.expm1((beta + 1.0) * logr) * b ** (beta + 1.0)
    q1 = qb1 / (beta + 1.0)
    return q1 - a * qb / beta, b * qb / beta - q1


def _far_coefficients(beta: float) -> tuple[list[float], list[float]]:
    """Coefficients in rho^2 of the far-field sums E and O / rho, both
    divided by Gamma(beta): b_k / (k + 1) for even k and b_k / (k + 2) for
    odd k, with b_k = binom(beta - 1, k)."""
    w0 = 1.0 / math.gamma(beta)
    b = [1.0]
    for k in range(1, _FAR_TERMS):
        b.append(b[-1] * (beta - k) / k)
    even = [w0 * b[k] / (k + 1) for k in range(0, _FAR_TERMS, 2)]
    odd = [w0 * b[k] / (k + 2) for k in range(1, _FAR_TERMS, 2)]
    return even, odd


def _horner(coef: list[float], x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sum_i coef[i] x^i into ``out``."""
    np.multiply(coef[-1], x, out=out)
    for ci in coef[-2:0:-1]:
        out += ci
        out *= x
    out += coef[0]
    return out


_TILE_BUFFERS = 6  # float buffers a tile works in, each one tile large


def _moment_tile(
    t: np.ndarray, n: np.ndarray, beta: float, work: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The weights per unit width of every cell of the rows ``n``.

    Returns ``(Hd, Gd)`` of shape (len(n), max(n)): the moments H/d and G/d
    of ``_closed_moments`` divided by Gamma(beta), so that row n of the
    weight matrix is Hd on nodes 0..n-1 plus Gd on nodes 1..n.  Cells j >= n
    lie above the diagonal and are zero.  Both are views into ``work``, a
    (_TILE_BUFFERS, >= len(n) max(n)) array that the next tile reuses.

    Cell j of row n spans u = t_n - tau in [a, b] = [t_n - t_(j+1), t_n - t_j]
    with half-width h = d/2 and midpoint distance c = a + h.  A far cell
    (c > _FAR h) expands u^(beta-1) about c, which needs one power per cell:
    H/d and G/d are c^(beta-1) h (E + O) and c^(beta-1) h (E - O), with
    E = sum_(k even) b_k rho^k/(k+1), O = sum_(k odd) b_k rho^k/(k+2),
    b_k = binom(beta-1, k), rho = h/c, and _FAR_TERMS terms.  The near
    cells, a few next to the diagonal of each row, take the closed forms.
    Every cell's arithmetic is that of its row alone, so the weights do not
    depend on which rows share a tile.
    """
    m = int(n.max())
    c, rho, p, Hd, Gd, odd_sum = (w[: len(n) * m].reshape(len(n), m) for w in work)
    d = t[1 : m + 1] - t[:m]
    h = 0.5 * d
    np.subtract(t[n, None], t[1 : m + 1], out=c)
    c += h
    even, odd = _far_coefficients(beta)
    # cells above the diagonal (c < 0) go NaN here and are zeroed below
    with np.errstate(all="ignore"):
        np.divide(h, c, out=rho)
        np.power(c, beta, out=p)  # the one power: h c^(beta-1) = rho c^beta
        p *= rho
        r2 = np.multiply(rho, rho, out=Hd)
        even_sum = _horner(even, r2, Gd)
        _horner(odd, r2, odd_sum)
        odd_sum *= rho
    np.add(even_sum, odd_sum, out=Hd)
    Hd *= p
    even_sum -= odd_sum  # Gd, in place
    even_sum *= p
    # c grows with n, so a column that is far in the smallest row is far in
    # every row; the columns from that row on hold every cell above the
    # diagonal
    h_far = _FAR * h
    cols = np.flatnonzero(c[np.argmin(n)] <= h_far)
    if cols.size:
        live = cols < n[:, None]
        near = live & (c[:, cols] <= h_far[cols])
        Hs = np.where(live, Hd[:, cols], 0.0)
        Gs = np.where(live, Gd[:, cols], 0.0)
        r, k = np.nonzero(near)
        j = cols[k]
        tn = t[n[r]]
        with np.errstate(divide="ignore"):  # the cell at a = 0 takes log(0)
            H, G = _closed_moments(tn - t[j + 1], tn - t[j], d[j], beta)
        w0 = 1.0 / math.gamma(beta)
        Hs[r, k] = w0 * H / d[j]
        Gs[r, k] = w0 * G / d[j]
        Hd[:, cols] = Hs
        Gd[:, cols] = Gs
    return Hd, Gd


def _row_tiles(grid: TimeGrid, beta: float, rows: np.ndarray):
    """``(tile, Hd, Gd)`` of ``_moment_tile`` for runs of consecutive
    entries of ``rows``, ``tile`` the slice of ``rows`` a run covers, each
    at most ``_RL_TILE_CELLS`` cells (one row when a row alone is longer).
    ``Hd`` and ``Gd`` are overwritten by the next tile."""
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1]: {beta}")
    M = len(grid) - 1
    step = max(1, _RL_TILE_CELLS // (M + 1))
    work = np.empty((_TILE_BUFFERS, min(step, len(rows)) * M))
    for lo in range(0, len(rows), step):
        tile = slice(lo, min(lo + step, len(rows)))
        yield (tile, *_moment_tile(grid.nodes, rows[tile], beta, work))


def rl_integral_matrix(
    grid: TimeGrid, beta: float, rows: Sequence[int] | np.ndarray
) -> np.ndarray:
    """Rows of the lower-triangular W with (W @ f)(t_n) = I^beta f(t_n).

    Row n carries the moments of the kernel against the piecewise linear
    interpolant on cells 0..n-1, so it costs O(n).  ``rows`` selects node
    indices (``np.arange(len(grid))`` for the full (M+1)^2 matrix); the
    result has one row per index, assembled from the tiles that
    ``rl_integral`` contracts.  Each cell's arithmetic is that of its row
    alone, so the weights are the same bits for any tiling and any row
    selection.
    """
    M = len(grid) - 1
    rows = np.asarray(rows, dtype=int).ravel()
    if np.any(rows < 0) or np.any(rows > M):
        raise ValueError(f"row indices must lie in [0, {M}]")
    W = np.zeros((len(rows), M + 1))
    for tile, Hd, Gd in _row_tiles(grid, beta, rows):
        m = Hd.shape[1]
        W[tile, :m] = Hd
        W[tile, 1 : m + 1] += Gd
    return W


def rl_integral(grid: TimeGrid, values: np.ndarray, beta: float) -> np.ndarray:
    """Riemann-Liouville integral of order beta in (0, 1] on the same grid.

    ``values`` holds one sample per node and may carry any trailing shape;
    each component is integrated.  The weights are never assembled: each
    tile of rows is contracted as it is formed.
    """
    v = _samples(grid, values)
    n = len(grid)
    flat = v.reshape(n, -1)
    out = np.empty_like(flat)
    for tile, Hd, Gd in _row_tiles(grid, beta, np.arange(n)):
        m = Hd.shape[1]
        out[tile] = Hd @ flat[:m] + Gd @ flat[1 : m + 1]
    return out.reshape(v.shape)


# }}}


# {{{ grid differentiation (Fornberg weights)

def _fornberg(x: np.ndarray, x0: np.ndarray, m: int) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at x0 on nodes x.

    Vectorized over stencils: ``x`` has shape (k, n) and ``x0`` shape (k,);
    row i of the result holds the n weights of stencil i.
    """
    stencils, n = x.shape
    C = np.zeros((stencils, n, m + 1))
    C[:, 0, 0] = 1.0
    c1 = np.ones(stencils)
    c4 = x[:, 0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = np.ones(stencils)
        c5 = c4
        c4 = x[:, i] - x0
        for j in range(i):
            c3 = x[:, i] - x[:, j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    C[:, i, k] = c1 * (k * C[:, i - 1, k - 1] - c5 * C[:, i - 1, k]) / c2
                C[:, i, 0] = -c1 * c5 * C[:, i - 1, 0] / c2
            for k in range(mn, 0, -1):
                C[:, j, k] = (c4 * C[:, j, k] - k * C[:, j, k - 1]) / c3
            C[:, j, 0] = c4 * C[:, j, 0] / c3
        c1 = c2
    return C[:, :, m]


_STENCIL_WIDTH = 5  # nodes per derivative stencil: fourth order


def _derivative_stencils(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-node 5-point Fornberg weights and stencil start offsets."""
    n, width = len(nodes), _STENCIL_WIDTH
    if n < width:
        raise ValueError(f"need at least {width} nodes for the stencil")
    lo = np.clip(np.arange(n) - width // 2, 0, n - width)
    W = _fornberg(nodes[lo[:, None] + np.arange(width)], nodes, 1)
    return W, lo


def grid_derivative(grid: TimeGrid, values: np.ndarray) -> np.ndarray:
    """Fourth-order first derivative of sampled values on the grid nodes.

    The stencil is applied to center-subtracted values: derivative weights
    annihilate constants, and subtracting the node value first keeps the
    rounding error proportional to the local variation instead of
    ``eps * max|w| * |f|``, which would drown the tiny graded cells near 0.
    Values may carry any trailing shape; each component is differentiated.
    """
    v = _samples(grid, values)
    W, lo = _derivative_stencils(grid.nodes)
    n, width = W.shape
    cols = v.reshape(n, -1).T
    gathered = cols[:, lo[:, None] + np.arange(width)] - cols[:, :, None]
    # one 5-term row per (component, node): with extra axes einsum sums in
    # another order, and components would not be bit-equal to 1-D inputs
    d = np.einsum("iw,iw->i", np.tile(W, (len(cols), 1)), gathered.reshape(-1, width))
    return d.reshape(len(cols), n).T.reshape(v.shape)


def caputo_derivative(
    grid: TimeGrid, values: np.ndarray, alpha: float, f1_0: float | np.ndarray
) -> np.ndarray:
    """Caputo derivative of order alpha in (1, 2) via d/dt I^(2-alpha)(f'-f'(0)).

    ``f1_0`` is the caller-supplied exact initial slope: estimating it from
    the samples would dominate the error budget; for values of shape
    (M+1, k) it is one slope per column (or one for all), and any other
    shape is refused.  The first node of the output is NaN (the derivative
    there is not formed); remaining nodes carry the full stencil accuracy.
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (1, 2): {alpha}")
    if len(grid) < 7:
        raise ValueError("need at least 7 nodes for a stable second difference")
    v = _samples(grid, values)
    fp = grid_derivative(grid, v) - _slopes(v, f1_0)
    out = grid_derivative(grid, rl_integral(grid, fp, 2.0 - alpha))
    out[0] = np.nan
    return out


# }}}


# {{{ Gagliardo seminorm in time

def _pair_weights(t: np.ndarray, i: int, beta: float) -> np.ndarray:
    """Exact integral of |t-tau|^(-1-2 beta) over cell i against cells < i-1."""
    a, b = t[i], t[i + 1]
    c = t[: i - 1]
    d = t[1:i]
    if beta == 0.5:
        return np.log((b - d) * (a - c) / ((b - c) * (a - d)))
    p = 1.0 - 2.0 * beta
    num = (b - d) ** p - (b - c) ** p - (a - d) ** p + (a - c) ** p
    return num / (2.0 * beta * p)


def gagliardo_seminorm(grid: TimeGrid, values: np.ndarray, beta: float) -> float:
    """Gagliardo seminorm over [0,T]^2 minus the nearest-neighbor band.

    Piecewise-constant cell values (endpoint averages) against exactly
    integrated kernel moments; the excluded band makes the estimator a lower
    bound that converges from below under refinement for Hoelder-continuous
    inputs.  Value differences are measured in the Euclidean norm on
    whatever shape the values carry.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1): {beta}")
    t = grid.nodes
    vals = _samples(grid, values)
    cells = 0.5 * (vals[1:] + vals[:-1])  # one value per cell
    M = cells.shape[0]
    total = 0.0
    flat = cells.reshape(M, -1)
    for i in range(2, M):
        w = _pair_weights(t, i, beta)
        diff = flat[i] - flat[: i - 1]
        total += float(w @ np.sum(diff * diff, axis=1))
    return math.sqrt(2.0 * total)


# }}}
