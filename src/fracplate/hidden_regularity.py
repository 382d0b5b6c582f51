r"""Boundary traces, multiplier identities, and the direct-inequality probe.

The multiplier method pairs the equation with ``h . grad(lap w)`` for a
vector field ``h`` whose normal component is 1 on the boundary.  On an
interval or a rectangle with side lengths ``s`` the field is affine per
axis, ``h_i = (2 x_i - s_i) / s_i``, so its Jacobian ``diag(2 / s)``, its
divergence ``sum(2 / s)`` and ``h . nu = 1`` are closed forms of the side
lengths.  For ``w`` with ``w = lap w = 0`` on the boundary,

    2 int lap^2 w (h . grad lap w)
        = int_bnd (h . nu) |d_nu lap w|^2
        - 2 sum_ij int (d_i h_j)(d_i lap w)(d_j lap w)
        + int (div h) |grad lap w|^2.

Applying the fractional integral ``I^beta`` to the equation first (it does
not commute with the Caputo derivative, so the identity must be derived on
the filtered solution directly) yields the same algebra with every field
replaced by its per-mode ``I^beta`` filtering, at a single time or for a
difference of two times.

Boundary integrals of the probe and the identities use the closed-form
factor of :func:`boundary_trace_factor` (no boundary nodes).
:func:`normal_trace` returns the samples of ``d_nu u`` at boundary Gauss
nodes and their weights, and :func:`trace_energy` integrates their square
over the boundary and the time grid: the quadrature oracle of that factor.

The direct-inequality probe measures trace energy against the data energy
``||u0||_{H^1_0}^2 + ||u1||_{H^-1}^2`` across mode schedules and data
families.  It forms no member tables and no full kernel table: the kernels
``E_{alpha,beta}(-t^alpha lam_n)`` go through ``ml_profile`` only on a
staircase of whole chunks of modes, the rows where ``t^alpha lam_lo`` is
below the far-form edge ``X(alpha)`` (1e3 up to alpha = 1.5, 7e9 at
1.999).  Above it they are the ``K``-term algebraic series
``sum_k c_k x^-k`` (K = 9 down to 2), within 3.2e-15 of ``ml_profile``,
whose terms are a function of ``t`` times one of ``lam``.  Each member is
projected onto the live columns of the boundary factor a chunk at a time:
a product with the chunk's box and a rank-``K`` product above it
(:func:`trace_energy_ratios`).  It returns the plain document
``probe`` prints: ratios and their growth, never a claimed constant, for
bounded ratios are the numerical signature of hidden regularity, not a proof.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from .families import family_members
from .fractional_calculus import TimeGrid, default_grading, rl_integral_matrix
from .solver import SpectralSolution
from .special_functions import _far_form, ml_profile
from .spectral_domain import (
    Domain,
    ModeSet,
    boundary_quadrature,
    boundary_trace_factor,
    domain_quadrature,
    eigenmodes,
    fractional_norm,
    mode_gradients,
    mode_normal_derivatives,
    mode_values,
)

__all__ = [
    "normal_trace",
    "trace_energy",
    "static_multiplier_identity_terms",
    "static_multiplier_identity_residual",
    "filtered_identity_terms",
    "filtered_identity_residual",
    "trace_energy_ratios",
    "direct_inequality_probe",
]


# {{{ traces

def _boundary_order(modes: ModeSet) -> int:
    return 4 * int(modes.index.max()) + 8


def normal_trace(s: SpectralSolution, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Samples of ``d_nu u``, (n_times, n_boundary_nodes), and the boundary
    quadrature weights; assembled per mode."""
    order = _boundary_order(s.modes)
    pts, w, normals = boundary_quadrature(s.domain, order)
    nd = mode_normal_derivatives(s.modes, s.domain, pts, normals)
    return s.coefficients(grid.nodes) @ nd.T, w


def trace_energy(s: SpectralSolution, grid: TimeGrid) -> float:
    """Boundary quadrature then time trapezoid of the squared normal trace."""
    samples, w = normal_trace(s, grid)
    return float(np.trapezoid(samples**2 @ w, grid.nodes))


# }}}


# {{{ static multiplier identity

def _multiplier_terms(
    modes: ModeSet,
    d: Domain,
    order: int,
    interior: np.ndarray,
    boundary: np.ndarray,
) -> tuple[float, float, float, float]:
    """(lhs, boundary, jacobian, divergence) of the multiplier identity.

    The multiplier is affine per axis, ``h = (2 x - s) / s`` for side
    lengths ``s``: its Jacobian is ``diag(2 / s)``, its divergence
    ``sum(2 / s)`` and ``h . nu = 1`` on every edge.  The three interior
    integrals are assembled from the eigen-sum with coefficients
    ``interior`` by domain quadrature, the boundary integral from
    ``boundary`` by the closed-form :func:`boundary_trace_factor`.
    """
    s = np.array(d.sides)
    pts, qw = domain_quadrature(d, order)
    basis = mode_values(modes, d, pts)
    grads = mode_gradients(modes, d, pts)
    bilap = basis @ (modes.lam * interior)
    grad_lap = -np.einsum("pdm,m->pd", grads, modes.mu * interior)
    h = (2.0 * pts - s) / s

    lhs = 2.0 * float(qw @ (bilap * np.sum(h * grad_lap, axis=1)))
    jac_term = -2.0 * float(qw @ np.sum((2.0 / s) * grad_lap * grad_lap, axis=1))
    div_term = float(qw @ (np.sum(2.0 / s) * np.sum(grad_lap**2, axis=1)))

    P, bw = boundary_trace_factor(modes, d)
    dnu_lap = P.T @ (-(modes.mu * boundary))
    bnd_term = float(bw @ dnu_lap**2)
    return lhs, bnd_term, jac_term, div_term


def static_multiplier_identity_terms(
    modes: ModeSet, w: np.ndarray, d: Domain
) -> dict[str, float]:
    """The four integrals of the multiplier identity for w = sum_n w_n e_n.

    ``w`` holds one coefficient per mode of ``modes``.  Returns
    lhs = 2 int lap^2 w (h . grad lap w), the boundary term, the Jacobian
    contraction (with its -2 sign), and the divergence term.  Supplying w as
    an eigen-sum guarantees the boundary conditions exactly.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    if len(w) != len(modes):
        raise ValueError(f"{len(modes)} modes but {len(w)} values")
    lhs, bnd, jac, div = _multiplier_terms(modes, d, _boundary_order(modes), w, w)
    return {"lhs": lhs, "boundary": bnd, "jacobian": jac, "divergence": div}


def static_multiplier_identity_residual(
    modes: ModeSet, w: np.ndarray, d: Domain
) -> float:
    """|lhs - rhs| of the static multiplier identity."""
    t = static_multiplier_identity_terms(modes, w, d)
    return abs(t["lhs"] - (t["boundary"] + t["jacobian"] + t["divergence"]))


# }}}


# {{{ filtered identities

def _filtered_exact(s: SpectralSolution, beta: float, t: float) -> np.ndarray:
    """Exact I^beta of the mode coefficients at one time.

    The fractional integral maps the relaxation kernels within the family:

        I^beta(E_a(-lam tau^a))(t)        = t^beta     E_{a,1+beta}(-lam t^a)
        I^beta(tau E_{a,2}(-lam tau^a))(t) = t^(1+beta) E_{a,2+beta}(-lam t^a)

    which provides the filtering route independent of the quadrature rule.
    """
    if t == 0.0:
        return np.zeros(len(s.modes))
    z = -(t**s.alpha) * s.lambdas
    e1b = ml_profile(s.alpha, 1.0 + beta, z)
    e2b = ml_profile(s.alpha, 2.0 + beta, z)
    return s.u0 * t**beta * e1b + s.u1 * t ** (1.0 + beta) * e2b


def filtered_identity_terms(
    s: SpectralSolution,
    beta: float,
    grid: TimeGrid,
    C: np.ndarray,
    t_index: int,
    tau_index: int | None = None,
) -> dict[str, float]:
    """Terms of the fractional-filtered multiplier identity.

    The boundary side is assembled from the exactly filtered coefficients
    (closed-form kernels), the interior side from the product-trapezoidal
    filtering ``b_n = I^beta(c_n)`` of ``C = s.coefficients(grid.nodes)``
    at the one or two nodes used (exact weight rows, O(M) each), with the
    filtered Caputo term evaluated through the equation as ``-lam_n b_n``
    (exact for the series solution).  The identity holds exactly for any
    coefficient vector, so the mismatch isolates the time-discretization
    error of the quadrature route and must vanish under grid refinement.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1): {beta}")
    s.check_table(grid, C)
    rows = [t_index] if tau_index is None else [t_index, tau_index]
    B = rl_integral_matrix(grid, beta, rows) @ C
    b = B[0]
    b_exact = _filtered_exact(s, beta, float(grid.nodes[t_index]))
    if tau_index is not None:
        b = b - B[1]
        b_exact = b_exact - _filtered_exact(s, beta, float(grid.nodes[tau_index]))
    # the filtered Caputo term is -lam b, so the equation term is the static
    # lhs of b; the Jacobian and divergence terms change sign
    lhs, bnd, jac, div = _multiplier_terms(
        s.modes, s.domain, _boundary_order(s.modes), b, b_exact
    )
    return {"lhs_boundary": bnd, "equation": lhs, "jacobian": -jac, "divergence": -div}


def filtered_identity_residual(
    s: SpectralSolution,
    beta: float,
    grid: TimeGrid,
    C: np.ndarray,
    t_index: int,
    tau_index: int | None = None,
) -> float:
    """|lhs - rhs| of the filtered identity at ``t_index``, or of its
    difference between ``t_index`` and ``tau_index``, on the table ``C``.

    0 exactly at t = 0 for one time and at t = tau for two times, where every
    filtered term vanishes.
    """
    s.check_table(grid, C)
    if t_index == (0 if tau_index is None else tau_index):
        return 0.0
    t = filtered_identity_terms(s, beta, grid, C, t_index, tau_index)
    return abs(t["lhs_boundary"] - (t["equation"] + t["jacobian"] + t["divergence"]))


# }}}


# {{{ direct-inequality probe

# The first column chunk of the probe contraction; every later chunk is as
# wide as all the modes before it, so the edges are 16, 32, 64, ... whatever
# the schedule, and a schedule of powers of two from 16 reads each R(N) at an
# edge.  A chunk is also the step of the kernel staircase: its rows where
# t^alpha lam_lo is below the far-form edge X come from ml_profile, the rest
# from the far form.  Wide chunks keep the products few and large; on a
# rectangle, chunks of a fixed 128 modes reach almost every column of P
# anyway, and the partial chunks below 128 would repeat work.
_FIRST_CHUNK = 16
# Kernel arguments per ml_profile call of the probe's boxes: the boxes at
# 513 times x 1024 modes (56k points per order at alpha = 1.5, 90k on a
# 256-mode rectangle) take one call, while near alpha = 2, where the boxes
# are the whole table, the arguments and ml_profile's working arrays stay
# below a fixed size beside the two kernel tables.
_BOX_POINTS = 1 << 17


def trace_energy_ratios(
    d: Domain,
    alpha: float,
    grid: TimeGrid,
    u0: np.ndarray,
    u1: np.ndarray,
    N_schedule: Sequence[int],
) -> list[list[float]]:
    """Trace energy over data energy for every member at every N.

    Member ``m`` is row ``m`` of the coefficient matrices ``u0`` and ``u1``.
    Entry ``[i][m]`` is ``trace_energy / (||u0||_{H^1_0}^2 + ||u1||_{H^-1}^2)``
    on the first ``N_schedule[i]`` modes with member ``m``'s data cut to that
    prefix, or -1 for zero data energy.  Modes and the closed-form boundary
    factor ``(P, w)`` of :func:`boundary_trace_factor` are built once at the
    largest N.  The coefficient table ``C = e1 a + t e2 b`` of a member
    ``(a, b)``, with the kernel tables ``e1 = E_{alpha,1}(-t^alpha lam)`` and
    ``e2 = E_{alpha,2}(-t^alpha lam)``, has trace energy
    ``trapezoid((C @ P)^2 @ w, t)`` with no boundary nodes;
    :func:`trace_energy` of the member's ``solve``d solution is its
    quadrature oracle.  No member table and no full kernel table is formed.

    The modes fall in chunks ``c = [lo, hi)`` with edges 16, 32, 64, ....
    A chunk's box is its rows below ``r_c``, the first row with
    ``t^alpha >= X / lam_lo``; :func:`ml_profile` evaluates the boxes in
    runs of consecutive chunks of at most ``_BOX_POINTS`` points, one call
    per order and run, and a larger box alone, in pieces of whole rows of at
    most that size.  Past ``r_c`` every mode of the chunk has
    ``x = t^alpha lam_n >= X`` (the modes are sorted by ``lam``), where
    ``E_{alpha,beta}(-x)`` is the ``K``-term series ``sum_k c_k x^-k`` to
    rounding (:func:`_far_form`; ``X`` is the larger edge of the two
    orders).  With ``x^-k = (t^alpha lam_lo)^-k (lam_lo / lam_n)^k`` each
    term is a factor of ``lam`` times one of ``t``, so the far rows of a
    member's projection are ``(Q a_c) @ L @ G1 + (Q b_c) @ L @ G2``, with
    ``L[n, k] = (lam_lo / lam_n)^k`` and ``G`` the ``c_k (t^alpha
    lam_lo)^-k`` of each order (times ``t`` for ``e2``).  ``Q`` is the block
    of ``P`` at the columns the chunk reaches, transposed; the box rows are
    ``(Q a_c) @ e1_box^T + t ((Q b_c) @ e2_box^T)``.  Both go into ``S``
    (stored transposed, one row per column of ``P``).  ``S`` at N sums the
    chunks below N, plus the chunk up to N where N is no chunk edge.  The
    chunk edges and ``r_c`` do not depend on the schedule, so each entry is
    computed by the same operations as a call with that N alone.  Near
    alpha = 2 ``X`` is past every ``t^alpha lam`` and the boxes are the
    whole table.  The data energy is :func:`fractional_norm` on the first N
    eigenvalues ``modes.lam[:N]``.
    """
    n_max = max(N_schedule)
    modes = eigenmodes(d, n_max)
    lam = modes.lam
    t = grid.nodes
    ta = t**alpha
    (X1, c1), (X2, c2) = _far_form(alpha, 1.0), _far_form(alpha, 2.0)
    X = max(X1, X2)
    K1, K2 = len(c1), len(c2)
    ks = np.arange(1, max(K1, K2) + 1)
    P, w = boundary_trace_factor(modes, d)

    # the staircase: chunk [lo, hi) and its first far row
    spans = []
    lo = 0
    while lo < n_max:
        hi = min(max(_FIRST_CHUNK, 2 * lo), n_max)
        spans.append((lo, hi, int(np.searchsorted(ta, X / lam[lo]))))
        lo = hi
    # the boxes: a run of whole chunks of at most _BOX_POINTS points takes
    # one ml_profile call per order, and a larger chunk is evaluated alone,
    # a piece of at most _BOX_POINTS points (one row at least) at a time
    boxes = {}

    def evaluate(run: list[tuple[int, int, int]]) -> None:
        z = np.concatenate([np.outer(-ta[:r], lam[lo:hi]).ravel() for lo, hi, r in run])
        e1, e2 = ml_profile(alpha, 1.0, z), ml_profile(alpha, 2.0, z)
        at = 0
        for lo, hi, r in run:
            box = slice(at, at + r * (hi - lo))
            at = box.stop
            boxes[lo] = (e1[box].reshape(r, hi - lo), e2[box].reshape(r, hi - lo))

    run, size = [], 0
    for lo, hi, r in spans:
        if size + r * (hi - lo) > _BOX_POINTS and run:
            evaluate(run)
            run, size = [], 0
        if r * (hi - lo) <= _BOX_POINTS:
            run.append((lo, hi, r))
            size += r * (hi - lo)
            continue
        box1, box2 = np.empty((r, hi - lo)), np.empty((r, hi - lo))
        # rows shared evenly by the fewest pieces within the budget, so no
        # piece is a remnant of a row or two
        step = max(1, _BOX_POINTS // (hi - lo))
        step = -(-r // -(-r // step))
        for r0 in range(0, r, step):
            rows = slice(r0, min(r0 + step, r))
            z = np.outer(-ta[rows], lam[lo:hi])
            box1[rows] = ml_profile(alpha, 1.0, z)
            box2[rows] = ml_profile(alpha, 2.0, z)
        boxes[lo] = (box1, box2)
    if run:
        evaluate(run)
    # per chunk start: r_c, the two boxes, and the far factors L and G
    kernel = {}
    for lo, hi, r in spans:
        L = (lam[lo] / lam[lo:hi, None]) ** ks
        U = (1.0 / (ta[r:] * lam[lo])) ** ks[:, None]
        G = np.vstack([c1[:, None] * U[:K1], c2[:, None] * U[:K2] * t[r:]])
        kernel[lo] = (r, *boxes.pop(lo), L, G)

    def chunk(lo: int, hi: int) -> tuple[int, int, np.ndarray, np.ndarray]:
        """Modes [lo, hi), the columns of P they reach, and P's block there
        transposed."""
        live = np.flatnonzero(P[lo:hi].any(axis=0))
        return lo, hi, live, P[lo:hi, live].T

    # per schedule entry in ascending N: the chunks that end by N, the chunk
    # up to N if N is no chunk edge, and the columns of P live at N
    steps = []
    lo = 0
    for i in np.argsort(N_schedule, kind="stable"):
        N = int(N_schedule[i])
        whole = []
        while (hi := max(_FIRST_CHUNK, 2 * lo)) <= N:
            whole.append(chunk(lo, hi))
            lo = hi
        part = chunk(lo, N) if lo < N else None
        steps.append((i, N, whole, part, np.flatnonzero(P[:N].any(axis=0))))
    rows: list[list[float]] = [[] for _ in N_schedule]
    for a, b in zip(u0, u1):

        def project(
            S: np.ndarray, lo: int, hi: int, live: np.ndarray, Q: np.ndarray
        ) -> None:
            # S is stored transposed, one row per column of P, so the live
            # columns are gathered and scattered as contiguous rows
            r, box1, box2, L, G = kernel[lo]
            n = hi - lo
            Qa, Qb = Q * a[lo:hi], Q * b[lo:hi]
            S[live, :r] += Qa @ box1[:, :n].T + (Qb @ box2[:, :n].T) * t[:r]
            if r < len(t):
                S[live, r:] += np.hstack([Qa @ L[:n, :K1], Qb @ L[:n, :K2]]) @ G

        S = np.zeros((P.shape[1], len(t)))
        for i, N, whole, part, cols in steps:
            for c in whole:
                project(S, *c)
            lam_N = lam[:N]
            denom = fractional_norm(lam_N, a[:N], 0.25) ** 2
            denom += fractional_norm(lam_N, b[:N], -0.25) ** 2
            if denom == 0.0:
                rows[i].append(-1.0)  # zero-energy member: skipped
                continue
            S_N = S
            if part is not None:
                S_N = S.copy()
                project(S_N, *part)
            energy = float(np.trapezoid(w[cols] @ S_N[cols] ** 2, t))
            rows[i].append(energy / denom)
    return rows


def direct_inequality_probe(
    d: Domain,
    alpha: float,
    T: float,
    family_spec: str,
    N_schedule: Sequence[int],
    seed: int = 42,
    members: int = 8,
    time_nodes: int = 512,
) -> dict[str, Any]:
    """Trace energy against data energy across a mode schedule: the
    document ``probe`` prints.

    ``per_N[str(N)]`` holds ``R``, the first largest over the family of
    ``trace_energy / (||u0||_{H^1_0}^2 + ||u1||_{H^-1}^2)`` on the first N
    modes, and its member ``argmax_member`` (``R = 0`` and -1 if no member
    has trace energy).  ``growth_factors["N->2N"]`` is R(2N)/R(N) for every
    N whose 2N is also scheduled, ``growth_factor_max`` their max (1.0 if
    none); ``inputs`` and ``notes`` complete it.  Bounded R is evidence for
    the hidden-regularity inequality; the constant itself is never claimed.
    The family is drawn once at the largest N, so every N sees prefixes of
    the same data; ``inputs["members"]`` records how many members were probed.
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (1, 2): {alpha}")
    if T <= 0.0:
        raise ValueError(f"horizon must be positive: {T}")
    schedule = sorted(int(n) for n in N_schedule)
    grid = TimeGrid.graded(T, time_nodes, default_grading(alpha))
    u0, u1 = family_members(family_spec, schedule[-1], seed=seed, members=members)
    if not len(u0):
        raise ValueError(f"family {family_spec!r} has no members (members={members})")
    per_N = {}
    rows = trace_energy_ratios(d, alpha, grid, u0, u1, schedule)
    for N, ratios in zip(schedule, rows):
        m = int(np.argmax(ratios))  # the first largest ratio; -1: no trace energy
        best, m = (ratios[m], m) if ratios[m] > 0.0 else (0.0, -1)
        per_N[N] = {"R": best, "argmax_member": m}
    growth = {f"{N}->{2 * N}": per_N[2 * N]["R"] / row["R"]
              for N, row in per_N.items() if 2 * N in per_N and row["R"] > 0.0}
    return {
        "per_N": {str(N): row for N, row in per_N.items()},
        "growth_factors": growth,
        "growth_factor_max": max(growth.values()) if growth else 1.0,
        "inputs": {
            "domain": repr(d),
            "alpha": alpha,
            "T": T,
            "family": family_spec,
            "seed": seed,
            "members": len(u0),
            "time_nodes": time_nodes,
            "schedule": list(schedule),
        },
        "notes": [
            "bounded ratios are numerical evidence only; the constant in the "
            "trace inequality is qualitative and is not reproduced"
        ],
    }


# }}}
