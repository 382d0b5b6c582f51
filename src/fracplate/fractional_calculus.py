r"""Discrete fractional-in-time operators on (possibly graded) grids.

The Riemann-Liouville integral

.. math::

    I^\beta f(t) = \frac{1}{\Gamma(\beta)} \int_0^t (t-\tau)^{\beta-1}
                   f(\tau)\, d\tau

is discretized by the product-trapezoidal rule: on each cell ``f`` is
replaced by its linear interpolant and the weakly singular moments are
integrated exactly.  Naive sampling of the kernel near ``tau = t`` would
destroy the rule's second-order accuracy, so never do that.

One cell kernel, ``_moment_tile``, gives the two moments per unit width of
any set of (row, cell) pairs.  Cells far from the row take the midpoint
expansion of the kernel, one power per cell; the few next to the diagonal
take the closed forms.  Each cell's arithmetic is that of its own pair, so
``rl_integral_matrix`` assembles the same bits for any row selection, at
O(n) per row n.

``rl_integral`` applies the whole lower triangle as a treecode in
O(M log M) and assembles no row.  Cells form dyadic clusters over leaves of
``_BLOCK`` cells, each holding the moments ``mu_q`` of the interpolant
about its centre ``s0`` (half-width ``r``), exact per cell and shifted to
the parents binomially.  Rows go in target blocks of ``_BLOCK``.  A cluster
wholly left of a block's first node ``t_n0`` with ``r <= _ETA (t_n0 - s0)``
reaches every row of the block through the expansion of
``(t_n - s)^(beta-1)`` about ``s0``; its ``_TERMS`` terms leave a tail
below ``_ETA^_TERMS / (1 - _ETA) <= 2^-53`` times the cluster's
``(t_n - s0)^(beta-1) int |L|``, ``L`` the interpolant.  The cells that no
such cluster covers, about three leaves next to each row, take the
kernel's per-cell weights.  Against the 60-digit exact weights applied to
``f`` the result is within 1.4e-15 of ``|W| @ |f|`` on graded and irregular
grids.

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

_RL_TILE_CELLS = 1 << 16  # cells (rows x cells) per tile of assembled rows
_FAR = 100.0  # a cell is far once its distance exceeds this many half-widths
_FAR_TERMS = 8  # terms of the far-field series: truncation below (1/_FAR)^8

_BLOCK = 32  # cells per leaf cluster and rows per target block
_ETA = 0.2  # a cluster is admissible for a block once r <= _ETA (t_n0 - s0)
_TERMS = 23  # moments per cluster: the tail _ETA^p / (1 - _ETA) is below 2^-53
_BATCH = 1 << 14  # floats per array in one batch of band cells or far terms


def _check_order(beta: float) -> None:
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1]: {beta}")


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


def _moment_tile(
    t: np.ndarray, n: np.ndarray, j: np.ndarray, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """The weights per unit width of cells ``j`` in rows ``n``.

    ``n`` and ``j`` are integer arrays that broadcast to the tile's shape.
    Returns ``(Hd, Gd)`` of that shape: the moments H/d and G/d of
    ``_closed_moments`` divided by Gamma(beta), so that a row's weight on
    node j is Hd of cell j plus Gd of cell j - 1.  Cells j >= n lie above
    the diagonal and are zero.

    Cell j of row n spans u = t_n - tau in [a, b] = [t_n - t_(j+1), t_n - t_j]
    with half-width h = d/2 and midpoint distance c = a + h.  A far cell
    (c > _FAR h) expands u^(beta-1) about c, which needs one power per cell:
    H/d and G/d are c^(beta-1) h (E + O) and c^(beta-1) h (E - O), with
    E = sum_(k even) b_k rho^k/(k+1), O = sum_(k odd) b_k rho^k/(k+2),
    b_k = binom(beta-1, k), rho = h/c, and _FAR_TERMS terms.  The near
    cells, a few next to the diagonal of each row, take the closed forms.
    Every cell's arithmetic is that of its own (row, cell) pair, so the
    weights do not depend on the tile's shape.
    """
    tr = t[j + 1]
    d = tr - t[j]
    h = 0.5 * d
    c = t[n] - tr
    c += h
    even, odd = _far_coefficients(beta)
    # cells above the diagonal (c <= 0) go NaN here and are zeroed below
    with np.errstate(all="ignore"):
        rho = h / c
        p = np.power(c, beta)  # the one power: h c^(beta-1) = rho c^beta
        p *= rho
        r2 = rho * rho
        even_sum = _horner(even, r2, np.empty_like(r2))
        odd_sum = _horner(odd, r2, np.empty_like(r2))
        odd_sum *= rho
        Hd = np.add(even_sum, odd_sum, out=r2)
        Hd *= p
        Gd = np.subtract(even_sum, odd_sum, out=even_sum)
        Gd *= p
    dead = j >= n
    np.copyto(Hd, 0.0, where=dead)
    np.copyto(Gd, 0.0, where=dead)
    near = ~dead & (c <= _FAR * h)
    if near.any():
        nn = np.broadcast_to(n, near.shape)[near]
        jj = np.broadcast_to(j, near.shape)[near]
        tn = t[nn]
        dj = t[jj + 1] - t[jj]
        with np.errstate(divide="ignore"):  # the cell at a = 0 takes log(0)
            H, G = _closed_moments(tn - t[jj + 1], tn - t[jj], dj, beta)
        w0 = 1.0 / math.gamma(beta)
        Hd[near] = w0 * H / dj
        Gd[near] = w0 * G / dj
    return Hd, Gd


def rl_integral_matrix(
    grid: TimeGrid, beta: float, rows: Sequence[int] | np.ndarray
) -> np.ndarray:
    """Rows of the lower-triangular W with (W @ f)(t_n) = I^beta f(t_n).

    Row n carries the moments of the kernel against the piecewise linear
    interpolant on cells 0..n-1, so it costs O(n).  ``rows`` selects node
    indices (``np.arange(len(grid))`` for the full (M+1)^2 matrix); the
    result has one row per index, assembled from tiles of at most
    ``_RL_TILE_CELLS`` cells of ``_moment_tile``.  Each cell's arithmetic is
    that of its row alone, so the weights are the same bits for any tiling
    and any row selection.
    """
    _check_order(beta)
    M = len(grid) - 1
    rows = np.asarray(rows, dtype=int).ravel()
    if np.any(rows < 0) or np.any(rows > M):
        raise ValueError(f"row indices must lie in [0, {M}]")
    W = np.zeros((len(rows), M + 1))
    step = max(1, _RL_TILE_CELLS // (M + 1))
    for lo in range(0, len(rows), step):
        n = rows[lo : lo + step]
        m = int(n.max())
        Hd, Gd = _moment_tile(grid.nodes, n[:, None], np.arange(m), beta)
        W[lo : lo + step, :m] = Hd
        W[lo : lo + step, 1 : m + 1] += Gd
    return W


def _powers(x: np.ndarray, p: int) -> np.ndarray:
    """x^0, ..., x^(p-1) along a new last axis, by repeated products."""
    out = np.empty((*x.shape, p))
    out[..., 0] = 1.0
    out[..., 1:] = x[..., None]
    return np.cumprod(out, axis=-1, out=out)


def _clusters(M: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Dyadic clusters of the M cells over leaves of ``_BLOCK`` cells.

    Returns the first and one-past-last cell ``(lo, hi)`` of every cluster,
    leaves first, and ``starts``: the clusters of level l are entries
    ``starts[l]:starts[l + 1]``, the last level holds the root alone, and the
    children of entry i of level l are entries 2i and 2i + 1 of level l - 1
    (the second only where it exists).
    """
    lo, starts = [], [0]
    count, size = -(-M // _BLOCK), _BLOCK
    while True:
        lo.append(np.arange(count) * size)
        starts.append(starts[-1] + count)
        if count == 1:
            break
        count, size = -(-count // 2), 2 * size
    lo = np.concatenate(lo)
    sizes = np.repeat(_BLOCK << np.arange(len(starts) - 1), np.diff(starts))
    return lo, np.minimum(lo + sizes, M), starts


def _cluster_moments(
    t: np.ndarray, f: np.ndarray, lo: np.ndarray, s0: np.ndarray, r: np.ndarray,
    starts: list[int],
) -> np.ndarray:
    """mu_q = int_S ((s - s0)/r)^q L(s) ds for q < _TERMS and every cluster
    S, with L the linear interpolant of ``f`` on the nodes ``t`` (both
    padded with zero-width cells to whole leaves); (clusters, _TERMS, k).

    A leaf sums its cells exactly.  On a cell [x0, x1] (x = (s - s0)/r, of
    width w = d/r) the hat functions of the right and left node give
    int x^q phi = w R_q / ((q+1)(q+2)), with R_q = sum_i (i+1) x1^i x0^(q-i)
    and the same with x0 and x1 swapped: the recurrence
    R_q = x0 R_(q-1) + (q+1) x1^q adds no cancellation, as |x0|, |x1| <= 1.
    A parent takes its children's moments by the binomial shift
    sum_i C(q, i) a^i b^(q-i) mu_i, a = r_c/r_p, b = (s0_c - s0_p)/r_p;
    |a| + |b| <= 1, so no term is amplified.
    """
    p = _TERMS
    leaves = starts[1]
    nodes = lo[:leaves, None] + np.arange(_BLOCK + 1)
    tl, fl = t[nodes], f[nodes]
    x = (tl - s0[:leaves, None]) / r[:leaves, None]
    x0, x1 = x[:, :-1], x[:, 1:]
    d = tl[:, 1:] - tl[:, :-1]
    left, right = np.zeros_like(d), np.zeros_like(d)  # d R_q of each node
    pow0, pow1 = d.copy(), d.copy()  # d x0^q, d x1^q
    weights = np.zeros((leaves, p, _BLOCK + 1))
    for q in range(p):
        if q:
            pow0 *= x0
            pow1 *= x1
        left *= x1
        left += (q + 1) * pow0
        right *= x0
        right += (q + 1) * pow1
        weights[:, q, :-1] = left
        weights[:, q, 1:] += right
    q = np.arange(p)
    weights /= ((q + 1) * (q + 2))[:, None]
    mu = np.empty((len(lo), p, f.shape[1]))
    mu[:leaves] = weights @ fl
    binom = np.array([[math.comb(q, i) for i in range(p)] for q in range(p)])
    gap = np.maximum(np.subtract.outer(np.arange(p), np.arange(p)), 0)
    step = 2 * max(1, _BATCH // (2 * p * p))  # whole sibling pairs
    for level in range(1, len(starts) - 1):
        for i in range(starts[level - 1], starts[level], step):
            child = np.arange(i, min(i + step, starts[level]))
            parent = starts[level] + (child - starts[level - 1]) // 2
            a = r[child] / r[parent]
            b = (s0[child] - s0[parent]) / r[parent]
            shift = _powers(b, p)[:, gap]
            shift *= _powers(a, p)[:, None, :]
            shift *= binom
            mu[parent[::2]] = np.add.reduceat(
                shift @ mu[child], np.arange(0, len(child), 2), axis=0
            )
    return mu


def _interactions(
    t: np.ndarray, lo: np.ndarray, hi: np.ndarray, s0: np.ndarray,
    r: np.ndarray, starts: list[int],
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """``(far, near)``: (target block, cluster) pairs, each as two arrays.

    Target block b holds rows b _BLOCK .. b _BLOCK + _BLOCK - 1 (up to M).
    A frontier of pairs descends from the root.  A cluster with no cell
    left of the block's last row is dropped.  One that lies wholly left of
    the block's first node t_n0 with r <= _ETA (t_n0 - s0) is far: every
    row of the block expands the kernel about s0.  Any other splits into its
    children, and a leaf that cannot split is near.  Admissibility is
    tested on the nodes themselves, so any strictly increasing grid works.
    """
    M = len(t) - 1
    far_b, far_c = [], []
    b = np.arange(M // _BLOCK + 1)
    c = np.full(len(b), starts[-2])
    for level in range(len(starts) - 2, -1, -1):
        first = b * _BLOCK
        keep = lo[c] < np.minimum(first + _BLOCK - 1, M)
        far = keep & (hi[c] <= first) & (r[c] <= _ETA * (t[first] - s0[c]))
        far_b.append(b[far])
        far_c.append(c[far])
        b, c = b[keep & ~far], c[keep & ~far]
        if level == 0:
            break
        left = starts[level - 1] + 2 * (c - starts[level])
        both = left + 1 < starts[level]
        b = np.concatenate([b, b[both]])
        c = np.concatenate([left, left[both] + 1])
    return (np.concatenate(far_b), np.concatenate(far_c)), (b, c)


def _near_field(
    t: np.ndarray, f: np.ndarray, M: int, beta: float, b: np.ndarray,
    lo: np.ndarray, out: np.ndarray,
) -> None:
    """Adds each near (block, leaf) pair's cells, weighted by ``_moment_tile``,
    to the block's rows in ``out`` (blocks, _BLOCK, k); ``t`` and ``f`` are
    padded past node M, and rows past M repeat row M."""
    span = np.arange(_BLOCK)
    step = max(1, _BATCH // _BLOCK**2)
    for i in range(0, len(b), step):
        bi, li = b[i : i + step], lo[i : i + step]
        n = np.minimum(bi[:, None, None] * _BLOCK + span[:, None], M)
        Hd, Gd = _moment_tile(t, n, li[:, None, None] + span, beta)
        fi = f[li[:, None] + np.arange(_BLOCK + 1)]
        np.add.at(out, bi, Hd @ fi[:, :-1] + Gd @ fi[:, 1:])


def _far_field(
    t: np.ndarray, beta: float, s0: np.ndarray, r: np.ndarray, mu: np.ndarray,
    b: np.ndarray, c: np.ndarray, out: np.ndarray,
) -> None:
    """Adds each far (block, cluster) pair's expansion to the block's rows.

    Row n takes D^(beta-1)/Gamma(beta) sum_q c_q (r/D)^q mu_q, D = t_n - s0,
    c_q = binom(beta-1, q) (-1)^q in [0, 1]: (1 - rho x)^(beta-1) expanded
    in x = (s - s0)/r, rho = r/D <= _ETA, so the dropped tail is below
    _ETA^p/(1 - _ETA) <= 2^-53 times D^(beta-1)/Gamma(beta) int |L| over
    the cluster.  Batches of pairs are (rows x p) @ (p x k) products.
    """
    M = len(t) - 1
    p = _TERMS
    coef = np.ones(p)
    for q in range(1, p):
        coef[q] = coef[q - 1] * (q - beta) / q
    scaled = mu * (coef / math.gamma(beta))[:, None]
    span = np.arange(_BLOCK)
    step = max(1, _BATCH // (_BLOCK * p))
    for i in range(0, len(b), step):
        bi, ci = b[i : i + step], c[i : i + step]
        D = t[np.minimum(bi[:, None] * _BLOCK + span, M)] - s0[ci, None]
        terms = np.empty((*D.shape, p))
        terms[..., 0] = D ** (beta - 1.0)
        terms[..., 1:] = (r[ci, None] / D)[..., None]
        np.cumprod(terms, axis=-1, out=terms)
        np.add.at(out, bi, terms @ scaled[ci])


def rl_integral(grid: TimeGrid, values: np.ndarray, beta: float) -> np.ndarray:
    """Riemann-Liouville integral of order beta in (0, 1] on the same grid.

    ``values`` holds one sample per node and may carry any trailing shape;
    each component is integrated.  The product-trapezoid sum is formed as a
    treecode in O(M log M): cells next to a row take ``_moment_tile``'s
    weights, and dyadic clusters of cells far from it one moment expansion
    each, to below one ulp.  No weight row is assembled.
    """
    _check_order(beta)
    v = _samples(grid, values)
    t = grid.nodes
    M = len(t) - 1
    flat = v.reshape(M + 1, -1)
    lo, hi, starts = _clusters(M)
    # pad the cells to whole leaves with zero-width cells at T
    size = starts[1] * _BLOCK + 1
    tp = np.full(size, t[-1])
    tp[: M + 1] = t
    fp = np.zeros((size, flat.shape[1]))
    fp[: M + 1] = flat
    s0 = 0.5 * (t[lo] + t[hi])
    r = 0.5 * (t[hi] - t[lo])
    out = np.zeros((M // _BLOCK + 1, _BLOCK, flat.shape[1]))
    (far_b, far_c), (near_b, near_c) = _interactions(t, lo, hi, s0, r, starts)
    _near_field(tp, fp, M, beta, near_b, lo[near_c], out)
    with np.errstate(under="ignore"):  # terms below 2^-1022 are dropped
        mu = _cluster_moments(tp, fp, lo, s0, r, starts)
        _far_field(t, beta, s0, r, mu, far_b, far_c, out)
    return out.reshape(-1, flat.shape[1])[: M + 1].reshape(v.shape)


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
