"""Command-line front end: every probe as a subcommand with lockable output.

Output contracts: JSON documents go through the canonical encoder (sorted
keys, 17-significant-digit floats), CSV floats use the same formatting, and
no timing information enters the artifacts, so a rerun with the same flags
and seed is byte-identical.  Exit code 0 means every declared tolerance
passed; any failure (or usage error) is nonzero.

A JSON config file may supply any subset of a subcommand's options;
explicitly passed flags win, unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .acceptance import run_all
from .families import parse_family
from .fractional_calculus import TimeGrid, default_grading, rl_integral_matrix
from .hidden_regularity import direct_inequality_probe, filtered_identity_residual
from .report import canonical_json, fmt17
from .solver import apriori_estimate_check, classify, mode_ode_residual, solve
from .spectral_domain import eigenmodes, parse_domain
from .special_functions import MLParams, ml_eval

__all__ = ["main", "parse_config", "RunConfig"]


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved invocation: subcommand plus its option map."""

    subcommand: str
    options: dict[str, Any]

    def to_canonical_json(self) -> str:
        return canonical_json({"subcommand": self.subcommand, "options": self.options})


# per-subcommand option names and defaults (None = required)
_DEFAULTS: dict[str, dict[str, Any]] = {
    "ml": {"alpha": None, "beta": None, "z": None},
    "modes": {"domain": "interval:pi", "count": 8, "out": ""},
    "fracops": {"beta": 0.5, "gamma": 1.0, "nodes": "512,1024,2048",
                "grading": 3.0, "out": ""},
    "solve": {"domain": "interval:pi", "alpha": 1.5, "modes": 8, "data": "",
              "horizon": 1.0, "nodes": 512, "out": "", "csv_out": ""},
    "identities": {"domain": "interval:pi", "alpha": 1.5, "beta": 0.25,
                   "modes": 8, "horizon": 1.0, "nodes": "512,1024,2048",
                   "out": ""},
    "probe": {"domain": "interval:pi", "alpha": 1.5, "horizon": 1.0,
              "family": "decay:1.5", "modes": "16,32,64", "seed": 42,
              "members": 8, "time_nodes": 512, "out": ""},
    "report": {"profile": "full", "seed": 42, "out": ""},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracplate",
        description="Mittag-Leffler series solutions of the time-fractional "
        "hinged-plate system and their verification probes.",
    )
    parser.add_argument("--config", default=None, help="JSON file with options")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_ml = sub.add_parser("ml", help="evaluate the Mittag-Leffler function")
    p_ml.add_argument("action", nargs="?", default="eval", choices=["eval"])
    p_ml.add_argument("--alpha", type=float)
    p_ml.add_argument("--beta", type=float)
    p_ml.add_argument("--z", type=float)

    p_modes = sub.add_parser("modes", help="list eigenpairs of a domain")
    p_modes.add_argument("--domain")
    p_modes.add_argument("--count", type=int)
    p_modes.add_argument("--out")

    p_frac = sub.add_parser("fracops", help="fractional-integral refinement study")
    p_frac.add_argument("action", nargs="?", default="power-rule",
                        choices=["power-rule"])
    p_frac.add_argument("--beta", type=float)
    p_frac.add_argument("--gamma", type=float, help="monomial exponent of the input")
    p_frac.add_argument("--nodes", help="comma-separated cell counts")
    p_frac.add_argument("--grading", type=float)
    p_frac.add_argument("--out")

    p_solve = sub.add_parser("solve", help="build a series solution and report")
    p_solve.add_argument("--domain")
    p_solve.add_argument("--alpha", type=float)
    p_solve.add_argument("--modes", type=int)
    p_solve.add_argument("--data", help="JSON file with u0/u1 coefficient arrays")
    p_solve.add_argument("--horizon", type=float)
    p_solve.add_argument("--nodes", type=int, help="time cells for residual checks")
    p_solve.add_argument("--out")
    p_solve.add_argument("--csv-out", dest="csv_out")

    p_id = sub.add_parser("identities", help="multiplier-identity refinement study")
    p_id.add_argument("--domain")
    p_id.add_argument("--alpha", type=float)
    p_id.add_argument("--beta", type=float)
    p_id.add_argument("--modes", type=int)
    p_id.add_argument("--horizon", type=float)
    p_id.add_argument("--nodes", help="comma-separated cell counts")
    p_id.add_argument("--out")

    p_probe = sub.add_parser("probe", help="hidden-regularity trace-energy probe")
    p_probe.add_argument("--domain")
    p_probe.add_argument("--alpha", type=float)
    p_probe.add_argument("--horizon", type=float)
    p_probe.add_argument("--family")
    p_probe.add_argument("--modes", help="comma-separated mode schedule")
    p_probe.add_argument("--seed", type=int)
    p_probe.add_argument("--members", type=int)
    p_probe.add_argument("--time-nodes", dest="time_nodes", type=int)
    p_probe.add_argument("--out")

    p_rep = sub.add_parser("report", help="run the acceptance suites")
    p_rep.add_argument("--profile", choices=["quick", "full"])
    p_rep.add_argument("--seed", type=int)
    p_rep.add_argument("--out")
    return parser


def parse_config(argv: Sequence[str]) -> RunConfig:
    """Parse flags plus optional config file into a resolved RunConfig.

    Precedence: explicit flags > config-file values > built-in defaults.
    Unknown config keys are rejected; missing required options raise.
    """
    parser = _build_parser()
    ns = parser.parse_args(list(argv))
    sub = ns.subcommand
    defaults = dict(_DEFAULTS[sub])
    options: dict[str, Any] = dict(defaults)
    if ns.config:
        with open(ns.config) as fh:
            file_opts = json.load(fh)
        if not isinstance(file_opts, dict):
            raise SystemExit("config file must hold a JSON object")
        unknown = sorted(set(file_opts) - set(defaults))
        if unknown:
            raise SystemExit(f"unknown config keys for {sub!r}: {', '.join(unknown)}")
        options.update(file_opts)
    for key in defaults:
        flag_val = getattr(ns, key, None)
        if flag_val is not None:
            options[key] = flag_val
    missing = sorted(k for k, v in options.items() if v is None)
    if missing:
        raise SystemExit(f"missing required options for {sub!r}: {', '.join(missing)}")
    if "alpha" in options and sub in ("solve", "identities", "probe"):
        if not 1.0 < float(options["alpha"]) < 2.0:
            raise SystemExit(f"alpha must lie in (1, 2): {options['alpha']}")
    if sub == "probe" and int(options["members"]) < 1:
        raise SystemExit(f"probe needs --members >= 1: {options['members']}")
    return RunConfig(sub, options)


def _emit(text: str, out_path: str) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _int_list(spec: str | Sequence[int]) -> list[int]:
    if isinstance(spec, str):
        return [int(tok) for tok in spec.split(",") if tok.strip()]
    return [int(x) for x in spec]


def _refines(values: Sequence[float]) -> bool:
    """No refinement step grows a value, unless the value is at round-off."""
    return not any(b > a and b > 1e-13 for a, b in zip(values, values[1:]))


def _run_ml(opt: dict[str, Any]) -> int:
    res = ml_eval(MLParams(float(opt["alpha"]), float(opt["beta"])), float(opt["z"]))
    sys.stdout.write(
        f"{fmt17(res.value)},{fmt17(res.est_abs_error)},{res.method.value}\n"
    )
    return 0


def _run_modes(opt: dict[str, Any]) -> int:
    d = parse_domain(opt["domain"])
    lines = ["index,mu,lambda"]
    modes = eigenmodes(d, int(opt["count"]))
    for index, mu, lam in zip(modes.index, modes.mu, modes.lam):
        idx = "-".join(str(i) for i in index)
        lines.append(f"{idx},{fmt17(mu)},{fmt17(lam)}")
    _emit("\n".join(lines) + "\n", opt["out"])
    return 0


def _run_fracops(opt: dict[str, Any]) -> int:
    beta = float(opt["beta"])
    g_exp = float(opt["gamma"])
    grading = float(opt["grading"])
    lines = ["nodes,rel_error_at_T"]
    errors = []
    for M in _int_list(opt["nodes"]):
        grid = TimeGrid.graded(1.0, M, grading)
        at_T = float(rl_integral_matrix(grid, beta, [M])[0] @ grid.nodes**g_exp)
        exact = math.gamma(g_exp + 1.0) / math.gamma(g_exp + 1.0 + beta)
        errors.append(abs(at_T - exact) / abs(exact))
        lines.append(f"{M},{fmt17(errors[-1])}")
    _emit("\n".join(lines) + "\n", opt["out"])
    return 0 if _refines(errors) else 1


def _load_data(path: str, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The data file's u0 and u1, every coefficient kept; else u0_n = n^-2, u1 = 0."""
    if path:
        try:
            with open(path) as fh:
                raw = json.load(fh)
            if not isinstance(raw, dict):
                raise ValueError("not a JSON object")
            u0, u1 = (np.asarray(raw.get(k, []), dtype=float) for k in ("u0", "u1"))
            if u0.ndim != 1 or u1.ndim != 1:
                raise ValueError("u0 and u1 must be flat lists")
            if not (np.isfinite(u0).all() and np.isfinite(u1).all()):
                raise ValueError("coefficients must be finite")
        except (TypeError, ValueError) as exc:
            raise SystemExit(f"data file {path}: {exc}")
        if len(u0) < N or len(u1) < N:
            raise SystemExit(
                f"data file {path} supplies {len(u0)}/{len(u1)} coefficients, need {N}"
            )
    else:
        n = np.arange(1, N + 1, dtype=float)
        u0 = n**-2.0
        u1 = np.zeros(N)
    return u0, u1


def _run_solve(opt: dict[str, Any]) -> int:
    d = parse_domain(opt["domain"])
    alpha = float(opt["alpha"])
    N = int(opt["modes"])
    T = float(opt["horizon"])
    u0, u1 = _load_data(opt["data"], N)
    s = solve(d, N, alpha, u0, u1, T)
    M = int(opt["nodes"])
    if M < 512:
        raise SystemExit(f"solve needs --nodes >= 512 for its mode residuals: {M}")
    grid = TimeGrid.graded(T, M, default_grading(alpha))
    # one Caputo block on the first k modes; their coefficient columns equal
    # the full solution's, and against e_1 the weak-form defect is mode 1's
    k = min(N, 3)
    head = solve(d, k, alpha, u0, u1, T)
    C = head.coefficients(grid.nodes)
    raw = mode_ode_residual(head, range(1, k + 1), grid)
    residuals = {}
    for n, r in enumerate(raw, 1):
        scale = max(1.0, head.lambdas[n - 1] * float(np.max(np.abs(C[:, n - 1]))))
        residuals[f"mode_{n}_scaled"] = r / scale
    residuals["weak_form_e1"] = raw[0]
    apriori = apriori_estimate_check(s, grid)
    doc = {
        "norm_tables": classify(s),
        "truncation_tail": {"u0": s.tail_u0, "u1": s.tail_u1},
        "residuals": residuals,
        "apriori": apriori.metrics,
        "inputs": {"alpha": alpha, "modes": N, "horizon": T,
                   "time_cells": M, "domain": opt["domain"]},
    }
    _emit(canonical_json(doc) + "\n", opt["out"])
    if opt["csv_out"]:
        ts = np.linspace(0.0, T, 65)
        C = s.coefficients(ts)
        lam = s.lambdas
        rows = ["t,norm_l2,norm_h10,norm_lap,norm_gradlap"]
        for i, t in enumerate(ts):
            c = C[i]
            vals = [
                math.sqrt(float(np.sum(lam ** (2 * th) * c**2)))
                for th in (0.0, 0.25, 0.5, 0.75)
            ]
            rows.append(",".join([fmt17(t)] + [fmt17(x) for x in vals]))
        _emit("\n".join(rows) + "\n", opt["csv_out"])
    return 0


def _run_identities(opt: dict[str, Any]) -> int:
    d = parse_domain(opt["domain"])
    alpha = float(opt["alpha"])
    beta = float(opt["beta"])
    N = int(opt["modes"])
    T = float(opt["horizon"])
    n = np.arange(1, N + 1, dtype=float)
    s = solve(d, N, alpha, n**-2.0, 0.5 * n**-2.0, T)
    lines = ["nodes,filtered_identity,filtered_identity2"]
    cols = ([], [])
    for M in _int_list(opt["nodes"]):
        grid = TimeGrid.graded(T, M, default_grading(alpha))
        r1 = filtered_identity_residual(s, beta, grid, M)
        r2 = filtered_identity_residual(s, beta, grid, M, M // 2)
        cols[0].append(r1)
        cols[1].append(r2)
        lines.append(f"{M},{fmt17(r1)},{fmt17(r2)}")
    _emit("\n".join(lines) + "\n", opt["out"])
    return 0 if all(_refines(col) for col in cols) else 1


def _run_probe(opt: dict[str, Any]) -> int:
    d = parse_domain(opt["domain"])
    parse_family(opt["family"])  # validate early
    rep = direct_inequality_probe(
        d,
        float(opt["alpha"]),
        float(opt["horizon"]),
        opt["family"],
        _int_list(opt["modes"]),
        seed=int(opt["seed"]),
        members=int(opt["members"]),
        time_nodes=int(opt["time_nodes"]),
    )
    growth = {
        f"{row['N']}->{2 * row['N']}": row["growth"]
        for row in rep.table
        if "growth" in row
    }
    doc = {
        "per_N": {
            str(row["N"]): {"R": row["R"], "argmax_member": row["argmax_member"]}
            for row in rep.table
        },
        "growth_factors": growth,
        "growth_factor_max": rep.metrics["growth_factor_max"],
        "inputs": rep.inputs,
        "notes": rep.notes,
    }
    _emit(canonical_json(doc) + "\n", opt["out"])
    return 0


def _run_report(opt: dict[str, Any]) -> int:
    quick = opt["profile"] == "quick"
    reports = run_all(quick=quick, seed=int(opt["seed"]))
    ok = all(r.all_passed for r in reports)
    doc = {
        "profile": opt["profile"],
        "seed": int(opt["seed"]),
        "all_passed": ok,
        "criteria": [r.to_dict() for r in reports],
    }
    _emit(canonical_json(doc) + "\n", opt["out"])
    for r in reports:
        status = "PASS" if r.all_passed else "FAIL"
        print(f"[{status}] {r.name}", file=sys.stderr)
    return 0 if ok else 1


_RUNNERS = {
    "ml": _run_ml,
    "modes": _run_modes,
    "fracops": _run_fracops,
    "solve": _run_solve,
    "identities": _run_identities,
    "probe": _run_probe,
    "report": _run_report,
}


def run(config: RunConfig) -> int:
    return _RUNNERS[config.subcommand](config.options)


def main(argv: Sequence[str] | None = None) -> int:
    config = parse_config(sys.argv[1:] if argv is None else argv)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
