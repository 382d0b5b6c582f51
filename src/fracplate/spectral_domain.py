r"""Explicit eigenpairs of the hinged biharmonic operator and power norms.

With hinged (Navier) conditions ``u = lap u = 0`` on the boundary, the
biharmonic operator shares eigenfunctions with the Dirichlet Laplacian, so on
an interval or a rectangle everything is sines:

* interval (0, L):   ``e_n(x) = sqrt(2/L) sin(n pi x / L)``,
  ``mu_n = (n pi / L)^2``, ``lam_n = mu_n^2``;
* rectangle (0,a)x(0,b): products of sines with
  ``mu_jk = (j pi / a)^2 + (k pi / b)^2``.

Fractional power norms are the ``lam_n^theta``-weighted coefficient sums;
negative ``theta`` gives the dual norms.  ``theta = 1/4`` is the H^1_0 norm,
``1/2`` the norm of the Laplacian, ``3/4`` the norm of grad(lap u), ``-1/4``
the H^{-1} norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .special_functions import gauss_legendre

__all__ = [
    "Interval",
    "Rectangle",
    "Domain",
    "ModeSet",
    "eigenmodes",
    "fractional_norm",
    "domain_quadrature",
    "boundary_quadrature",
    "mode_values",
    "mode_gradients",
    "mode_normal_derivatives",
    "boundary_trace_factor",
    "parse_domain",
]


# {{{ domains

@dataclass(frozen=True)
class Interval:
    length: float

    def __post_init__(self) -> None:
        if not 0.0 < self.length < math.inf:
            raise ValueError(f"interval length must be finite, > 0: {self.length}")

    @property
    def dim(self) -> int:
        return 1

    @property
    def sides(self) -> tuple[float, ...]:
        return (self.length,)


@dataclass(frozen=True)
class Rectangle:
    a: float
    b: float

    def __post_init__(self) -> None:
        if not (0.0 < self.a < math.inf and 0.0 < self.b < math.inf):
            raise ValueError(f"rectangle sides must be finite, > 0: {self.a}, {self.b}")

    @property
    def dim(self) -> int:
        return 2

    @property
    def sides(self) -> tuple[float, ...]:
        return (self.a, self.b)


Domain = Interval | Rectangle


def parse_domain(spec: str) -> Domain:
    """Parse ``interval:L`` or ``rectangle:AxB`` (lengths accept ``pi``)."""

    def _num(tok: str) -> float:
        tok = tok.strip().lower()
        if tok in ("pi", "π"):
            return math.pi
        if tok.endswith("pi"):
            return float(tok[:-2]) * math.pi
        return float(tok)

    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "interval":
        return Interval(_num(rest))
    if kind == "rectangle":
        parts = rest.replace(",", "x").split("x")
        if len(parts) != 2:
            raise ValueError(f"rectangle spec needs two sides: {spec!r}")
        return Rectangle(_num(parts[0]), _num(parts[1]))
    raise ValueError(f"unknown domain spec {spec!r}")


# }}}


# {{{ eigenmodes

@dataclass(frozen=True, eq=False)
class ModeSet:
    """Consecutive eigenpairs of one domain, stored as arrays.

    ``index`` has shape (N, dim); ``mu`` and ``lam = mu * mu`` have shape
    (N,); ``norm_const`` is shared by every mode of the domain.  Only slices
    index it, giving again a ModeSet; :func:`eigenmodes` makes the arrays
    read-only, since slices share them.
    """

    index: np.ndarray
    mu: np.ndarray
    lam: np.ndarray
    norm_const: float

    def __len__(self) -> int:
        return len(self.mu)

    def __getitem__(self, key: slice) -> "ModeSet":
        if not isinstance(key, slice):
            raise TypeError(f"ModeSet indices must be slices: {type(key).__name__}")
        return ModeSet(self.index[key], self.mu[key], self.lam[key], self.norm_const)


def eigenmodes(d: Domain, N: int) -> ModeSet:
    """First N modes, sorted by ascending eigenvalue, ties lexicographic.

    The square rectangle carries genuine multiplicities (mu_{jk} = mu_{kj});
    they are kept, with the deterministic index order breaking ties.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1: {N}")
    if isinstance(d, Interval):
        index = np.arange(1, N + 1)[:, None]
        mu = (index[:, 0] * math.pi / d.length) ** 2
        norm_const = math.sqrt(2.0 / d.length)
    else:
        # Every (j', k') <= (j, k) componentwise precedes (j, k) in the
        # (lam, index) order, so (j, k) has rank at least j*k and the first
        # N modes all satisfy j*k <= N.  Block j holds k = 1 .. N // j.
        per_j = N // np.arange(1, N + 1)
        j = np.repeat(np.arange(1, N + 1), per_j)
        k = np.arange(len(j)) - np.repeat(np.cumsum(per_j) - per_j, per_j) + 1
        mu = (j * math.pi / d.a) ** 2 + (k * math.pi / d.b) ** 2
        order = np.lexsort((k, j, mu * mu))[:N]
        index, mu = np.column_stack([j, k])[order], mu[order]
        norm_const = 2.0 / math.sqrt(d.a * d.b)
    arrays = (index, mu, mu * mu)
    for arr in arrays:
        arr.flags.writeable = False
    return ModeSet(*arrays, norm_const)


# }}}


# {{{ quadrature

def _gauss_on(a: float, b: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = gauss_legendre(order)
    return 0.5 * (b - a) * (x + 1.0) + a, 0.5 * (b - a) * w


def domain_quadrature(d: Domain, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre points and weights; tensor product on the rectangle.

    Returns points with shape (n, dim) and weights with shape (n,).
    """
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1: {order}")
    xs, ws = zip(*(_gauss_on(0.0, side, order) for side in d.sides))
    pts = np.column_stack([x.ravel() for x in np.meshgrid(*xs, indexing="ij")])
    return pts, np.prod(np.meshgrid(*ws, indexing="ij"), axis=0).ravel()


def boundary_quadrature(
    d: Domain, order: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boundary nodes, weights and outward normals.

    For the interval the boundary is the two endpoints with counting measure;
    for the rectangle, Gauss-Legendre nodes per edge with arclength weights.
    Returns (points (n, dim), weights (n,), normals (n, dim)).
    """
    if isinstance(d, Interval):
        pts = np.array([[0.0], [d.length]])
        w = np.array([1.0, 1.0])
        normals = np.array([[-1.0], [1.0]])
        return pts, w, normals
    xs, wx = _gauss_on(0.0, d.a, order)
    ys, wy = _gauss_on(0.0, d.b, order)
    pts = []
    wts = []
    nrm = []
    # bottom y=0, top y=b, left x=0, right x=a (fixed deterministic order)
    pts.append(np.column_stack([xs, np.zeros_like(xs)]))
    wts.append(wx)
    nrm.append(np.tile([0.0, -1.0], (order, 1)))
    pts.append(np.column_stack([xs, np.full_like(xs, d.b)]))
    wts.append(wx)
    nrm.append(np.tile([0.0, 1.0], (order, 1)))
    pts.append(np.column_stack([np.zeros_like(ys), ys]))
    wts.append(wy)
    nrm.append(np.tile([-1.0, 0.0], (order, 1)))
    pts.append(np.column_stack([np.full_like(ys, d.a), ys]))
    wts.append(wy)
    nrm.append(np.tile([1.0, 0.0], (order, 1)))
    return np.vstack(pts), np.concatenate(wts), np.vstack(nrm)


def _coordinates(d: Domain, pts) -> list[np.ndarray]:
    """Coordinate columns of points in the closed domain; raises outside it."""
    pts = np.asarray(pts, dtype=float).reshape(-1, d.dim)
    for axis, side in zip(pts.T, d.sides):
        if np.any(axis < -1e-12) or np.any(axis > side + 1e-12):
            raise ValueError(f"points outside {d}")
    return list(pts.T)


def _frequencies(modes: ModeSet, d: Domain) -> list[np.ndarray]:
    """Per-axis wave numbers ``index * pi / side`` of every mode."""
    return [modes.index[:, i] * math.pi / side for i, side in enumerate(d.sides)]


def mode_values(modes: ModeSet, d: Domain, pts: np.ndarray) -> np.ndarray:
    """Matrix of eigenfunction values, shape (n_points, n_modes)."""
    out = modes.norm_const
    for x, w in zip(_coordinates(d, pts), _frequencies(modes, d)):
        out = out * np.sin(np.outer(x, w))
    return out


def mode_gradients(modes: ModeSet, d: Domain, pts: np.ndarray) -> np.ndarray:
    """Gradients of the eigenfunctions, shape (n_points, dim, n_modes)."""
    waves = _frequencies(modes, d)
    phases = [np.outer(x, w) for x, w in zip(_coordinates(d, pts), waves)]
    grads = []
    for i, w in enumerate(waves):
        g = modes.norm_const * w
        for k, p in enumerate(phases):
            g = g * (np.cos(p) if k == i else np.sin(p))
        grads.append(g)
    return np.stack(grads, axis=1)


def mode_normal_derivatives(
    modes: ModeSet, d: Domain, pts: np.ndarray, normals: np.ndarray
) -> np.ndarray:
    """Normal derivatives at boundary nodes, shape (n_points, n_modes)."""
    grads = mode_gradients(modes, d, pts)
    return np.einsum("pdm,pd->pm", grads, np.asarray(normals, dtype=float))


def boundary_trace_factor(modes: ModeSet, d: Domain) -> tuple[np.ndarray, np.ndarray]:
    r"""Closed-form factor ``(P, w)`` of the boundary energy of an eigen-sum.

    For coefficients ``c``, ``int_bnd (d_nu sum_m c_m e_m)^2 = sum_g w_g
    (c @ P)_g^2``; ``P`` has shape (n_modes, n_columns).  On the interval the
    two columns are the endpoint normal derivatives (counting measure).  On
    the rectangle sine orthogonality on each edge leaves one column per wave
    number along the edge: on y = 0 and y = b one per ``j``, holding
    ``k pi / b`` and ``(-1)^k k pi / b``, weight ``(a/2) c^2``; on x = 0 and
    x = a one per ``k``, holding ``j pi / a`` and ``(-1)^j j pi / a``, weight
    ``(b/2) c^2``, with ``c`` the shared normalization.
    """
    waves = _frequencies(modes, d)
    if isinstance(d, Interval):
        # the operations of mode_normal_derivatives at the two endpoints
        (wave,) = waves
        g = modes.norm_const * wave * np.cos(np.outer([0.0, d.length], wave))
        return (g * np.array([[-1.0], [1.0]])).T, np.array([1.0, 1.0])
    wj, wk = waves
    j, k = modes.index.T
    rows = np.arange(len(modes))
    cols, blocks = [], []
    for group, wave, sign, side in ((j, wk, k, d.a), (k, wj, j, d.b)):
        values, col = np.unique(group, return_inverse=True)
        per_edge = np.zeros((len(modes), 2, len(values)))
        per_edge[rows, 0, col] = wave
        per_edge[rows, 1, col] = np.where(sign % 2 == 1, -wave, wave)
        cols.append(per_edge.reshape(len(modes), -1))
        blocks.append(np.full(2 * len(values), 0.5 * side * modes.norm_const**2))
    return np.hstack(cols), np.concatenate(blocks)


# }}}


# {{{ norms

def fractional_norm(lam: np.ndarray, c: np.ndarray, theta: float) -> float:
    """Norm of the fractional power space of exponent ``theta``.

    ``(sum lam_n^(2 theta) |c_n|^2)^(1/2)`` for coefficients ``c`` against
    modes of eigenvalues ``lam`` (for a functional, its duality brackets);
    powers are formed as ``exp(theta * log(lam))`` so dual norms do not drift.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    if len(lam) != len(c):
        raise ValueError(f"{len(lam)} modes but {len(c)} values")
    if len(lam) == 0:
        return 0.0
    weights = np.exp(2.0 * theta * np.log(lam)) if theta != 0.0 else 1.0
    return float(np.sqrt(np.sum(weights * c**2)))


# }}}
