"""The library's acceptance suite: every release gate as a runnable probe.

Each criterion function returns a :class:`VerificationReport` whose
tolerances are pinned here, once, and nowhere else.  The pytest acceptance
module and the CLI ``report`` subcommand both run these; the ``quick``
profile shrinks grids and schedules for smoke/determinism runs while keeping
every code path alive.

Regression locks are pipeline values frozen at pinned grids (and
cross-checked against independent quadrature oracles in the test suite);
they pin the probes against silent drift, with loose-enough tolerances to
survive platform-level floating-point differences.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .fractional_calculus import (
    TimeGrid,
    default_grading,
    gagliardo_seminorm,
    rl_integral,
    rl_integral_matrix,
)
from .hidden_regularity import (
    direct_inequality_probe,
    filtered_identity_residual,
    filtered_identity_terms,
    static_multiplier_identity_residual,
    static_multiplier_identity_terms,
    trace_energy_ratios,
)
from .report import VerificationReport
from .solver import (
    lift,
    mode_ode_residual,
    mode_residual_scale,
    solve,
    weak_form_residual,
)
from .spectral_domain import Interval, Rectangle, eigenmodes
from .special_functions import (
    ml_derivative_identity_residuals,
    ml_eval,
    ml_laplace_check,
    ml_series_oracle,
)

__all__ = ["run_all", "CRITERIA"]


# regression locks: single-mode trace-energy ratios on Interval(pi),
# alpha = 3/2, T = 1, 512-cell graded grid (oracle-cross-checked in tests)
REGRESSION_LOCKS = {
    "u1_sweep_ratio_n1": 0.2861482367385951,
    "u1_sweep_ratio_n8": 0.0008984107427832942,
    "u1_sweep_ratio_n64": 3.5340206000814383e-07,
    "u0_single_mode_ratio": 0.735948079553149,
}


def _gate_runtime(rep: VerificationReport, budget_s: float) -> None:
    # only the overrun is recorded, so a run within budget writes 0 and the
    # canonical bytes do not depend on the clock
    rep.metrics["runtime_over_budget_s"] = max(0.0, rep.runtime_s - budget_s)
    rep.tolerances["runtime_over_budget_s"] = 0.0


def criterion_1_mittag_leffler(quick: bool = False) -> VerificationReport:
    """Evaluator agrees with the series oracle; classical special cases."""
    t0 = time.perf_counter()
    alphas = [1.3, 1.5, 1.7] if quick else [1.1, 1.3, 1.5, 1.7, 1.9]
    betas = [1.0, 1.5, 2.0] if quick else [0.5, 1.0, 1.5, 2.0, 3.0]
    zs = np.linspace(-50.0, 0.0, 12 if quick else 40)
    worst = 0.0
    for a in alphas:
        for b in betas:
            got = ml_eval(a, b, zs)[0]
            ref = [ml_series_oracle(a, b, float(z), 400) for z in zs]
            worst = max(worst, float(np.max(np.abs(got - ref))))
    xs = np.linspace(0.0, 8.0, 9 if quick else 25)
    cos = [math.cos(x) for x in xs]
    worst_cos = float(np.max(np.abs(ml_eval(2.0, 1.0, -(xs**2))[0] - cos)))
    ys = np.linspace(-20.0, 10.0, 11 if quick else 25)
    exp = np.array([math.exp(y) for y in ys])
    worst_exp = float(
        np.max(np.abs(ml_eval(1.0, 1.0, ys)[0] - exp) / np.maximum(1.0, exp))
    )
    rep = VerificationReport(
        name="criterion_1_mittag_leffler",
        inputs={"alphas": alphas, "betas": betas, "n_z": len(zs), "quick": quick},
        metrics={
            "oracle_agreement": worst,
            "cos_special_case": worst_cos,
            "exp_special_case": worst_exp,
        },
        tolerances={
            "oracle_agreement": 1e-10,
            "cos_special_case": 1e-12,
            "exp_special_case": 1e-12,
        },
        runtime_s=time.perf_counter() - t0,
    )
    if not quick:
        _gate_runtime(rep, 10.0)
    rep.evaluate()
    return rep


def criterion_2_kernel_identities(quick: bool = False) -> VerificationReport:
    """Derivative identities of the relaxation kernels and the Laplace pair."""
    t0 = time.perf_counter()
    alphas = [1.5] if quick else [1.2, 1.5, 1.8]
    lams = [1.0] if quick else [1.0, 10.0, 100.0]
    times = np.geomspace(0.05, 1.0, 8 if quick else 25)
    worst = 0.0
    for a in alphas:
        for lam in lams:
            sub = ml_derivative_identity_residuals(a, lam, times)
            worst = max(worst, max(sub.values()))
    worst_lt = 0.0
    lt_alphas = [1.5] if quick else [1.2, 1.5, 1.8]
    lt_betas = [1.0] if quick else [1.0, 1.5, 2.0]
    lt_lams = [1.0] if quick else [0.5, 1.0, 4.0]
    for a in lt_alphas:
        for b in lt_betas:
            for lam in lt_lams:
                z = 2.0 * lam ** (1.0 / a) + 1.0
                worst_lt = max(worst_lt, ml_laplace_check(a, b, lam, z))
    rep = VerificationReport(
        name="criterion_2_kernel_identities",
        inputs={"alphas": alphas, "lams": lams, "quick": quick},
        metrics={
            "derivative_identity_residual": worst,
            "laplace_pair_residual": worst_lt,
        },
        tolerances={
            "derivative_identity_residual": 1e-5,
            "laplace_pair_residual": 1e-8,
        },
        runtime_s=time.perf_counter() - t0,
    )
    if not quick:
        _gate_runtime(rep, 60.0)
    rep.evaluate()
    return rep


def criterion_3_fractional_operators(quick: bool = False) -> VerificationReport:
    """Power rule, semigroup refinement factor, Gagliardo seminorm value."""
    t0 = time.perf_counter()
    M = 512 if quick else 2048
    # the power-rule tolerance is pinned at 2048 cells; keep that grid in
    # both profiles (it is cheap), shrink only the refinement study
    grid = TimeGrid.graded(1.0, 2048, 3.0)
    beta = 0.5
    worst_power = 0.0
    at_T = rl_integral_matrix(grid, beta, [len(grid) - 1])[0]
    for g_exp in (0.0, 1.0, 2.0):
        got = float(at_T @ grid.nodes**g_exp)
        exact = (
            math.gamma(g_exp + 1.0)
            / math.gamma(g_exp + 1.0 + beta)
            * grid.T ** (g_exp + beta)
        )
        worst_power = max(worst_power, abs(got - exact) / abs(exact))
    errs = []
    for m in (M // 4, M // 2, M):
        g = TimeGrid.graded(1.0, m, 3.0)
        f = np.cos(g.nodes)
        two = rl_integral(g, rl_integral(g, f, 0.3), 0.4)
        one = rl_integral(g, f, 0.7)
        errs.append(float(np.max(np.abs(two - one))))
    factors = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    gag_nodes = 1024 if quick else 4096
    gg = TimeGrid.uniform(1.0, gag_nodes)
    gag = gagliardo_seminorm(gg, gg.nodes, 0.5)
    rep = VerificationReport(
        name="criterion_3_fractional_operators",
        inputs={
            "power_rule_nodes": 2048,
            "semigroup_nodes": M,
            "gagliardo_nodes": gag_nodes,
            "quick": quick,
        },
        metrics={
            "power_rule_rel_error": worst_power,
            "semigroup_min_refinement_factor": min(factors),
            "gagliardo_linear_rel_error": abs(gag - 1.0),
        },
        tolerances={
            "power_rule_rel_error": 1e-6,
            "gagliardo_linear_rel_error": 0.02,
        },
        runtime_s=time.perf_counter() - t0,
    )
    # refinement factor is a lower-bounded metric: store its shortfall
    rep.metrics["semigroup_factor_shortfall"] = max(0.0, 1.8 - min(factors))
    rep.tolerances["semigroup_factor_shortfall"] = 0.0
    rep.evaluate()
    return rep


def _interval_solution(alpha: float, u0, u1):
    return solve(Interval(math.pi), len(u0), alpha, u0, u1, 1.0)


def criterion_4_solver_residuals(quick: bool = False) -> VerificationReport:
    """Per-mode and weak-form residuals, initial conditions, lifting."""
    t0 = time.perf_counter()
    alpha = 1.5
    gamma = default_grading(alpha)
    n_active = 2 if quick else 5  # lam = n^4 <= 1e3 on Interval(pi)
    Ms = (512, 1024) if quick else (512, 1024, 2048)
    worst_scaled = 0.0
    worst_order = math.inf

    # mode n's residual depends only on (u0_n, u1_n, lam_n): one solution
    # carries every tested mode, one Caputo block per grid
    active = [1.0] * n_active + [0.0] * (8 - n_active)
    s = _interval_solution(alpha, active, [0.5 * a for a in active])
    grids = [TimeGrid.graded(1.0, M, gamma) for M in Ms]
    tested = range(1, n_active + 1)
    res = []
    for grid in grids:
        C = s.coefficients(grid.nodes)
        scale = mode_residual_scale(s, tested, C)
        res.append(mode_ode_residual(s, tested, grid, C) / scale)
    for coarse, fine in zip(res[-2], res[-1]):
        order = math.log2(coarse / fine) if fine > 0 else 2.0
        worst_scaled = max(worst_scaled, float(fine))
        worst_order = min(worst_order, order)

    u0 = [1.0, -0.5, 0.25, 0.0, 0.0, 0.0, 0.0, 0.0]
    u1 = [0.0, 0.3, -0.2, 0.1, 0.0, 0.0, 0.0, 0.0]
    s = _interval_solution(alpha, u0, u1)
    v = [1.0, -0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    weak = [weak_form_residual(s, v, g, s.coefficients(g.nodes)) for g in grids]
    weak_order = math.log2(weak[-2] / weak[-1]) if weak[-1] > 0 else 2.0

    c0 = s.coefficients(np.array([0.0]))[0]
    init_u0 = float(np.max(np.abs(c0 - np.array(u0))))
    s_vel = _interval_solution(alpha, [0.0] * 8, u1)
    cvel = s_vel.coefficient_derivatives(np.array([0.0]))[0]
    init_u1 = float(np.max(np.abs(cvel - np.array(u1))))

    lam = s.lambdas
    s_lifted_data = _interval_solution(
        alpha, np.array(u0) * lam**-0.5, np.array(u1) * lam**-0.5
    )
    ts = np.linspace(0.0, 1.0, 9)
    ca = lift(s, -0.5).coefficients(ts)
    cb = s_lifted_data.coefficients(ts)
    denom = np.maximum(np.abs(cb), 1e-300)
    lift_rel = float(np.max(np.abs(ca - cb) / denom))

    rep = VerificationReport(
        name="criterion_4_solver_residuals",
        inputs={"alpha": alpha, "grids": list(Ms), "modes_tested": n_active},
        metrics={
            "mode_residual_scaled": worst_scaled,
            "mode_residual_order_shortfall": max(0.0, 1.0 - worst_order),
            "weak_residual": weak[-1],
            "weak_residual_order_shortfall": max(0.0, 1.0 - weak_order),
            "initial_condition_u0": init_u0,
            "initial_condition_u1": init_u1,
            "lifting_identity_rel": lift_rel,
        },
        tolerances={
            "mode_residual_scaled": 5e-3,
            "mode_residual_order_shortfall": 0.0,
            "weak_residual": 5e-3,
            "weak_residual_order_shortfall": 0.0,
            "initial_condition_u0": 1e-12,
            "initial_condition_u1": 1e-12,
            "lifting_identity_rel": 1e-14,
        },
        runtime_s=time.perf_counter() - t0,
    )
    rep.evaluate()
    return rep


def criterion_5_multiplier_identities(quick: bool = False) -> VerificationReport:
    """Static identity on interval and square; filtered identities decay."""
    t0 = time.perf_counter()
    n_modes = 6 if quick else 16
    d1 = Interval(math.pi)
    m1 = eigenmodes(d1, n_modes)
    rng = np.random.default_rng(7)
    w1 = rng.standard_normal(n_modes) / np.arange(1, n_modes + 1)
    t1 = static_multiplier_identity_terms(m1, w1, d1)
    scale1 = max(abs(t1["lhs"]), abs(t1["boundary"]), 1.0)
    res1 = static_multiplier_identity_residual(m1, w1, d1) / scale1
    d2 = Rectangle(math.pi, math.pi)
    m2 = eigenmodes(d2, n_modes)
    w2 = rng.standard_normal(n_modes) / np.arange(1, n_modes + 1)
    t2 = static_multiplier_identity_terms(m2, w2, d2)
    scale2 = max(abs(t2["lhs"]), abs(t2["boundary"]), 1.0)
    res2 = static_multiplier_identity_residual(m2, w2, d2) / scale2

    alpha, beta = 1.5, 0.25
    u0 = np.array([0.9, -0.5, 0.3, -0.2, 0.15, -0.1, 0.08, -0.05])
    u1 = np.array([0.2, 0.1, -0.3, 0.2, -0.1, 0.05, -0.04, 0.03])
    s = _interval_solution(alpha, u0, u1)
    Ms = (512, 1024) if quick else (512, 1024, 2048)
    f1 = []
    f2 = []
    for M in Ms:
        grid = TimeGrid.graded(1.0, M, default_grading(alpha))
        C = s.coefficients(grid.nodes)
        f1.append(filtered_identity_residual(s, beta, grid, C, M))
        f2.append(filtered_identity_residual(s, beta, grid, C, M, M // 2))
    boundary = filtered_identity_terms(s, beta, grid, C, M)["lhs_boundary"]
    fscale = max(abs(boundary), 1e-300)
    order1 = math.log2(f1[-2] / f1[-1]) if f1[-1] > 0 else 2.0
    order2 = math.log2(f2[-2] / f2[-1]) if f2[-1] > 0 else 2.0

    rep = VerificationReport(
        name="criterion_5_multiplier_identities",
        inputs={"modes": n_modes, "beta": beta, "grids": list(Ms)},
        metrics={
            "static_interval_rel": res1,
            "static_square_rel": res2,
            "filtered_identity_rel": f1[-1] / fscale,
            "filtered_identity2_rel": f2[-1] / fscale,
            "filtered_order_shortfall": max(0.0, 1.0 - min(order1, order2)),
        },
        tolerances={
            "static_interval_rel": 1e-8,
            "static_square_rel": 1e-8,
            "filtered_identity_rel": 1e-3,
            "filtered_identity2_rel": 1e-3,
            "filtered_order_shortfall": 0.0,
        },
        runtime_s=time.perf_counter() - t0,
    )
    if not quick:
        _gate_runtime(rep, 300.0)
    rep.evaluate()
    return rep


def criterion_6_hidden_regularity(
    quick: bool = False, seed: int = 42
) -> VerificationReport:
    """Single-mode sweep table plus bounded growth for the random family.

    The trace inequality's constant is never stated numerically by the
    theory, so it is NOT reproduced here; bounded ratio growth across the
    mode schedule is the substitute evidence, and the sweep values are
    regression locks against the independent quadrature oracle.  ``seed``
    draws the random family.
    """
    t0 = time.perf_counter()
    alpha, T = 1.5, 1.0
    d = Interval(math.pi)
    n_sweep = 16 if quick else 64
    grid = TimeGrid.graded(T, 256 if quick else 512, default_grading(alpha))
    # member n: u0 = 0, u1 = the n-th unit vector
    sweep = (np.zeros((n_sweep, n_sweep)), np.eye(n_sweep))
    (ratios,) = trace_energy_ratios(d, alpha, grid, *sweep, [n_sweep])
    sweep_finite = all(math.isfinite(r) for r in ratios)

    schedule = [8, 16] if quick else [16, 32, 64, 128, 256]
    probe = direct_inequality_probe(
        d,
        alpha,
        T,
        "decay:1.5",
        schedule,
        seed=seed,
        members=3 if quick else 8,
        time_nodes=256 if quick else 512,
    )
    growth = probe["growth_factor_max"]

    metrics = {
        "sweep_not_finite": 0.0 if sweep_finite else 1.0,
        "growth_factor_max": growth,
        "u1_sweep_ratio_n1": ratios[0],
    }
    tolerances = {"sweep_not_finite": 0.0, "growth_factor_max": 1.25}
    if not quick:
        for key, n in (
            ("u1_sweep_ratio_n1", 1),
            ("u1_sweep_ratio_n8", 8),
            ("u1_sweep_ratio_n64", 64),
        ):
            metrics[f"lock_dev_{key}"] = abs(
                ratios[n - 1] - REGRESSION_LOCKS[key]
            ) / abs(REGRESSION_LOCKS[key])
            tolerances[f"lock_dev_{key}"] = 1e-6
    rep = VerificationReport(
        name="criterion_6_hidden_regularity",
        inputs={
            "alpha": alpha,
            "T": T,
            "sweep_modes": n_sweep,
            "schedule": schedule,
            "seed": seed,
        },
        metrics=metrics,
        tolerances=tolerances,
        table=[{"n": i + 1, "ratio": r} for i, r in enumerate(ratios)],
        notes=[
            "the trace inequality's constant is qualitative and is not "
            "reproduced; bounded ratios substitute for it by design"
        ],
        runtime_s=time.perf_counter() - t0,
    )
    rep.evaluate()
    return rep


CRITERIA = [
    criterion_1_mittag_leffler,
    criterion_2_kernel_identities,
    criterion_3_fractional_operators,
    criterion_4_solver_residuals,
    criterion_5_multiplier_identities,
    criterion_6_hidden_regularity,
]


def run_all(quick: bool = False, seed: int = 42) -> list[VerificationReport]:
    """Run every criterion; ``seed`` draws criterion 6's random family."""
    return [
        fn(quick, seed) if fn is criterion_6_hidden_regularity else fn(quick)
        for fn in CRITERIA
    ]
