"""Command-line front end: every probe as a subcommand with lockable output.

Output contracts: JSON documents go through the canonical encoder (sorted
keys, 17-significant-digit floats), CSV floats use the same formatting, and
no timing information enters the artifacts, so a rerun with the same flags
and seed is byte-identical.  Exit code 0 means every declared tolerance
passed; any failure (or usage error) is nonzero.

Each option is declared once in ``_OPTIONS`` with its converter and default
(``--help`` shows it).  A JSON config file may supply any subset of a
subcommand's options, typed like flags (``512,1024`` options also take a
JSON list); explicit flags win and unknown keys are rejected.  A refused
value, an unreadable file or an out-of-range option is a usage error,
raised before any work.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .acceptance import run_all
from .families import parse_family
from .fractional_calculus import TimeGrid, default_grading, rl_integral_matrix
from .hidden_regularity import direct_inequality_probe, filtered_identity_residual
from .report import canonical_json, fmt17
from .solver import (
    apriori_estimate_check,
    classify,
    mode_ode_residual,
    mode_residual_scale,
    solve,
)
from .spectral_domain import eigenmodes, parse_domain
from .special_functions import ml_eval

__all__ = ["main", "parse_config", "RunConfig"]


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved invocation: subcommand plus its option map."""

    subcommand: str
    options: dict[str, Any]

    def to_canonical_json(self) -> str:
        return canonical_json({"subcommand": self.subcommand, "options": self.options})


def _int(value: int | str) -> int:
    """An int, or its decimal string; ``2.7`` and ``true`` are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _int_list(value: str | list[int]) -> list[int]:
    """Comma-separated integers, or a JSON list of them."""
    items = value.split(",") if isinstance(value, str) else value
    ints = [_int(x) for x in items if not isinstance(x, str) or x.strip()]
    if not ints:
        raise ValueError(f"no integers in {value!r}")
    return ints


def _profile(value: str) -> str:
    if value not in ("quick", "full"):
        raise ValueError(f"profile is quick or full, not {value!r}")
    return value


def _spec(parse: Callable[[str], Any]) -> Callable[[str], str]:
    """A converter that keeps a spec string once ``parse`` accepts it."""
    def convert(value: str) -> str:
        parse(str(value))
        return str(value)
    return convert


_DOMAIN = (_spec(parse_domain), "interval:pi")
_NODES = (_int_list, "512,1024,2048")
_PATH = (str, "")
# per-subcommand options: name -> (converter, default); None = required
_OPTIONS: dict[str, dict[str, tuple[Callable[[Any], Any], Any]]] = {
    "ml": {"alpha": (float, None), "beta": (float, None), "z": (float, None)},
    "modes": {"domain": _DOMAIN, "count": (_int, 8), "out": _PATH},
    "fracops": {"beta": (float, 0.5), "gamma": (float, 1.0), "nodes": _NODES,
                "grading": (float, 3.0), "out": _PATH},
    "solve": {"domain": _DOMAIN, "alpha": (float, 1.5), "modes": (_int, 8),
              "data": _PATH, "horizon": (float, 1.0), "nodes": (_int, 512),
              "out": _PATH, "csv_out": _PATH},
    "identities": {"domain": _DOMAIN, "alpha": (float, 1.5), "beta": (float, 0.25),
                   "modes": (_int, 8), "horizon": (float, 1.0), "nodes": _NODES,
                   "out": _PATH},
    "probe": {"domain": _DOMAIN, "alpha": (float, 1.5), "horizon": (float, 1.0),
              "family": (_spec(parse_family), "decay:1.5"),
              "modes": (_int_list, "16,32,64"), "seed": (_int, 42),
              "members": (_int, 8), "time_nodes": (_int, 512), "out": _PATH},
    "report": {"profile": (_profile, "full"), "seed": (_int, 42), "out": _PATH},
}


# (subcommands, real option, accepts, the range a refusal names); a NaN or
# infinite real option is refused before these
_RANGES = [
    (("solve", "identities", "probe"), "alpha", lambda x: 1.0 < x < 2.0, "in (1, 2)"),
    (("solve", "identities", "probe"), "horizon", lambda x: x > 0.0, "> 0"),
    (("ml",), "alpha", lambda x: 0.0 < x <= 2.0, "in (0, 2]"),
    (("ml",), "beta", lambda x: x > 0.0, "> 0"),
    (("identities",), "beta", lambda x: 0.0 < x < 1.0, "in (0, 1)"),
    (("fracops",), "beta", lambda x: 0.0 < x <= 1.0, "in (0, 1]"),
    (("fracops",), "grading", lambda x: x >= 1.0, ">= 1"),
    (("fracops",), "gamma", lambda x: x >= 0.0, ">= 0"),
    # the exact value Gamma(gamma + 1) / Gamma(gamma + 1 + beta) stays finite
    (("fracops",), "gamma", lambda x: x <= 169.0, "<= 169"),
]


def _argparse_type(convert: Callable[[Any], Any]) -> Callable[[str], Any]:
    """``convert`` with a refused value's own message as the usage error."""
    def checked(value: str) -> Any:
        try:
            return convert(value)
        except (TypeError, ValueError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return checked


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracplate",
        description="Mittag-Leffler series solutions of the time-fractional "
        "hinged-plate system and their verification probes.",
    )
    parser.add_argument("--config", help="JSON file with options")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for sub, table in _OPTIONS.items():
        p = subparsers.add_parser(sub, help=_COMMANDS[sub][1])
        for name, (convert, default) in table.items():
            p.add_argument(
                "--" + name.replace("_", "-"), dest=name, type=_argparse_type(convert),
                help="required" if default is None else f"default: {default!r}",
            )
    return parser


def parse_config(argv: Sequence[str]) -> RunConfig:
    """Parse flags plus optional config file into a resolved RunConfig.

    Precedence: explicit flags > config-file values > built-in defaults.
    Config values and defaults pass the flag's converter once.  An unreadable
    config file, unknown keys, a value its converter refuses, a missing
    required option and an out-of-range value all raise SystemExit.
    """
    ns = _build_parser().parse_args(list(argv))
    sub = ns.subcommand
    table = _OPTIONS[sub]
    file_opts: dict[str, Any] = {}
    if ns.config:
        try:
            with open(ns.config) as fh:
                file_opts = json.load(fh)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"config file {ns.config}: {exc}")
        if not isinstance(file_opts, dict):
            raise SystemExit("config file must hold a JSON object")
        unknown = sorted(set(file_opts) - set(table))
        if unknown:
            raise SystemExit(f"unknown config keys for {sub!r}: {', '.join(unknown)}")
    options: dict[str, Any] = {}
    for name, (convert, default) in table.items():
        value = getattr(ns, name)
        if value is None and file_opts.get(name, default) is not None:
            try:
                value = convert(file_opts.get(name, default))
            except (TypeError, ValueError) as exc:
                raise SystemExit(f"{sub} option {name!r}: {exc}")
        options[name] = value
    missing = [name for name, value in options.items() if value is None]
    if missing:
        raise SystemExit(f"missing required options for {sub!r}: {', '.join(missing)}")
    for name, value in options.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise SystemExit(f"{sub} needs a finite --{name}: {value}")
    for subs, name, accepts, needs in _RANGES:
        if sub in subs and not accepts(options[name]):
            raise SystemExit(f"{sub} needs --{name} {needs}: {options[name]}")
    for name in ("count", "modes", "nodes", "time_nodes", "members"):
        value = options.get(name)
        if value is not None and min(value if isinstance(value, list) else [value]) < 1:
            raise SystemExit(f"{sub} needs --{name.replace('_', '-')} >= 1: {value}")
    if sub == "solve" and options["nodes"] < 512:
        raise SystemExit(f"solve needs --nodes >= 512: {options['nodes']}")
    if "domain" in options:
        _check_spectrum(sub, options)
    return RunConfig(sub, options)


def _check_spectrum(sub: str, options: dict[str, Any]) -> None:
    """Refuse a domain whose requested eigenvalues are not finite and
    positive: side lengths so extreme that lam = mu^2 overflows or
    underflows."""
    count = options["count"] if sub == "modes" else options["modes"]
    N = max(count) if isinstance(count, list) else count
    with np.errstate(over="ignore"):
        lam = eigenmodes(parse_domain(options["domain"]), N).lam
    if not np.all(np.isfinite(lam) & (lam > 0.0)):
        raise SystemExit(
            f"{sub} needs a --domain whose first {N} eigenvalues are finite "
            f"and positive: {options['domain']}"
        )


def _emit(text: str, out_path: str) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _refines(values: Sequence[float]) -> bool:
    """Every value is finite and no refinement step grows one above round-off."""
    return all(map(math.isfinite, values)) and not any(
        b > a and b > 1e-13 for a, b in zip(values, values[1:])
    )


def _run_ml(opt: dict[str, Any]) -> int:
    value, est, method = ml_eval(opt["alpha"], opt["beta"], opt["z"])
    print(f"{fmt17(value)},{fmt17(est)},{method}")
    return 0


def _run_modes(opt: dict[str, Any]) -> int:
    lines = ["index,mu,lambda"]
    modes = eigenmodes(parse_domain(opt["domain"]), opt["count"])
    for index, mu, lam in zip(modes.index, modes.mu, modes.lam):
        lines.append(f"{'-'.join(map(str, index))},{fmt17(mu)},{fmt17(lam)}")
    _emit("\n".join(lines) + "\n", opt["out"])
    return 0


def _run_fracops(opt: dict[str, Any]) -> int:
    beta, g_exp = opt["beta"], opt["gamma"]
    lines = ["nodes,rel_error_at_T"]
    errors = []
    for M in opt["nodes"]:
        grid = TimeGrid.graded(1.0, M, opt["grading"])
        at_T = float(rl_integral_matrix(grid, beta, [M])[0] @ grid.nodes**g_exp)
        exact = math.gamma(g_exp + 1.0) / math.gamma(g_exp + 1.0 + beta)
        errors.append(abs(at_T - exact) / abs(exact))
        lines.append(f"{M},{fmt17(errors[-1])}")
    _emit("\n".join(lines) + "\n", opt["out"])
    return 0 if _refines(errors) else 1


def _load_data(path: str, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The data file's u0 and u1, every coefficient kept; else u0_n = n^-2, u1 = 0."""
    if not path:
        return np.arange(1, N + 1, dtype=float) ** -2.0, np.zeros(N)
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
    except (OSError, TypeError, ValueError) as exc:
        raise SystemExit(f"data file {path}: {exc}")
    if len(u0) < N or len(u1) < N:
        raise SystemExit(
            f"data file {path} supplies {len(u0)}/{len(u1)} coefficients, need {N}"
        )
    return u0, u1


def _run_solve(opt: dict[str, Any]) -> int:
    d = parse_domain(opt["domain"])
    alpha, N, T, M = opt["alpha"], opt["modes"], opt["horizon"], opt["nodes"]
    u0, u1 = _load_data(opt["data"], N)
    s = solve(d, N, alpha, u0, u1, T)
    grid = TimeGrid.graded(T, M, default_grading(alpha))
    # one table serves every check; against e_1 the weak-form defect is mode 1's
    C = s.coefficients(grid.nodes)
    heads = range(1, min(N, 3) + 1)
    raw = mode_ode_residual(s, heads, grid, C)
    scales = mode_residual_scale(s, heads, C)
    residuals = {f"mode_{n}_scaled": r / scale
                 for n, r, scale in zip(heads, raw, scales)}
    residuals["weak_form_e1"] = raw[0]
    doc = {
        "norm_tables": classify(s),
        "truncation_tail": {"u0": s.tail_u0, "u1": s.tail_u1},
        "residuals": residuals,
        "apriori": apriori_estimate_check(s, grid, C),
        "inputs": {"alpha": alpha, "modes": N, "horizon": T,
                   "time_cells": M, "domain": opt["domain"]},
    }
    _emit(canonical_json(doc) + "\n", opt["out"])
    if opt["csv_out"]:
        ts = np.linspace(0.0, T, 65)
        C = s.coefficients(ts)
        lam = s.lambdas
        rows = ["t,norm_l2,norm_h10,norm_lap,norm_gradlap"]
        for t, c in zip(ts, C):
            vals = [math.sqrt(float(np.sum(lam ** (2 * th) * c**2)))
                    for th in (0.0, 0.25, 0.5, 0.75)]
            rows.append(",".join([fmt17(t)] + [fmt17(x) for x in vals]))
        _emit("\n".join(rows) + "\n", opt["csv_out"])
    return 0 if all(map(math.isfinite, residuals.values())) else 1


def _run_identities(opt: dict[str, Any]) -> int:
    d = parse_domain(opt["domain"])
    alpha, beta, N, T = opt["alpha"], opt["beta"], opt["modes"], opt["horizon"]
    n = np.arange(1, N + 1, dtype=float)
    s = solve(d, N, alpha, n**-2.0, 0.5 * n**-2.0, T)
    lines = ["nodes,filtered_identity,filtered_identity2"]
    rows = []
    for M in opt["nodes"]:
        grid = TimeGrid.graded(T, M, default_grading(alpha))
        C = s.coefficients(grid.nodes)
        rows.append([filtered_identity_residual(s, beta, grid, C, M, tau)
                     for tau in (None, M // 2)])
        lines.append(f"{M},{fmt17(rows[-1][0])},{fmt17(rows[-1][1])}")
    _emit("\n".join(lines) + "\n", opt["out"])
    return 0 if all(_refines(col) for col in zip(*rows)) else 1


def _run_probe(opt: dict[str, Any]) -> int:
    probe = direct_inequality_probe(
        parse_domain(opt["domain"]), opt["alpha"], opt["horizon"], opt["family"],
        opt["modes"], seed=opt["seed"], members=opt["members"],
        time_nodes=opt["time_nodes"],
    )
    _emit(canonical_json(probe) + "\n", opt["out"])
    return 0


def _run_report(opt: dict[str, Any]) -> int:
    reports = run_all(quick=opt["profile"] == "quick", seed=opt["seed"])
    ok = all(r.all_passed for r in reports)
    doc = {"profile": opt["profile"], "seed": opt["seed"], "all_passed": ok,
           "criteria": [r.to_dict() for r in reports]}
    _emit(canonical_json(doc) + "\n", opt["out"])
    for r in reports:
        print(f"[{'PASS' if r.all_passed else 'FAIL'}] {r.name}", file=sys.stderr)
    return 0 if ok else 1


_COMMANDS = {  # subcommand -> (runner, help line)
    "ml": (_run_ml, "evaluate the Mittag-Leffler function"),
    "modes": (_run_modes, "list eigenpairs of a domain"),
    "fracops": (_run_fracops, "fractional-integral refinement study"),
    "solve": (_run_solve, "build a series solution and report"),
    "identities": (_run_identities, "multiplier-identity refinement study"),
    "probe": (_run_probe, "hidden-regularity trace-energy probe"),
    "report": (_run_report, "run the acceptance suites"),
}


def run(config: RunConfig) -> int:
    return _COMMANDS[config.subcommand][0](config.options)


def main(argv: Sequence[str] | None = None) -> int:
    return run(parse_config(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())
