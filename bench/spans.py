"""Span recording around fracplate's public functions, from outside the package.

The traced benchmark run wraps each layer's public functions in every
``fracplate`` module namespace that holds them (``solver`` and
``hidden_regularity`` import names directly, so patching only the defining
module would miss their calls).  Each call becomes a span with a parent, and
a few layers also feed counters measured at the same boundary.  Nothing here
reaches inside ``src/``: spans start and end at the call boundary.

A span's self time is its duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

# layer label -> functions wrapped under it, as (module, attribute); a
# "Class.method" attribute wraps the method on the class
LAYERS: dict[str, list[tuple[str, str]]] = {
    "special_functions.ml_profile": [("special_functions", "ml_profile")],
    "spectral_domain.eigenmodes": [("spectral_domain", "eigenmodes")],
    "spectral_domain.mode_values": [("spectral_domain", "mode_values")],
    "spectral_domain.mode_gradients": [("spectral_domain", "mode_gradients")],
    "spectral_domain.quadrature": [
        ("spectral_domain", "domain_quadrature"),
        ("spectral_domain", "boundary_quadrature"),
    ],
    "spectral_domain.fractional_norm": [("spectral_domain", "fractional_norm")],
    "fractional_calculus.rl_integral_matrix": [
        ("fractional_calculus", "rl_integral_matrix")
    ],
    "fractional_calculus.rl_integral": [("fractional_calculus", "rl_integral")],
    "fractional_calculus.grid_derivative": [("fractional_calculus", "grid_derivative")],
    "fractional_calculus.caputo_derivative": [
        ("fractional_calculus", "caputo_derivative")
    ],
    "solver.solve": [("solver", "solve")],
    "solver.coefficients": [
        ("solver", "SpectralSolution.coefficients"),
        ("solver", "SpectralSolution.coefficient_derivatives"),
    ],
    "solver.residuals": [
        ("solver", "mode_ode_residual"),
        ("solver", "weak_form_residual"),
    ],
    "hidden_regularity.direct_inequality_probe": [
        ("hidden_regularity", "direct_inequality_probe")
    ],
    "hidden_regularity.normal_trace": [("hidden_regularity", "normal_trace")],
    "hidden_regularity.trace_energy": [("hidden_regularity", "trace_energy")],
    "hidden_regularity.filtered_identity_terms": [
        ("hidden_regularity", "filtered_identity_terms")
    ],
    "families.family_members": [("families", "family_members")],
    "cli.main": [("cli", "main")],
}

# labels that also report their call count
CALL_COUNTED = (
    "special_functions.ml_profile",
    "spectral_domain.eigenmodes",
    "spectral_domain.fractional_norm",
    "fractional_calculus.rl_integral_matrix",
    "solver.solve",
    "solver.coefficients",
    "hidden_regularity.normal_trace",
    "hidden_regularity.filtered_identity_terms",
)

# counters fed by the hooks below, beyond self time and calls
EXTRA_COUNTERS = (
    ("special_functions.ml_profile.points", "count"),
    ("special_functions.ml_profile.points_mid", "count"),
    ("special_functions.ml_profile.points_big", "count"),
    ("special_functions.ml_profile.pairs", "count"),
    ("special_functions.ml_profile.first_call_s", "s"),
    ("spectral_domain.eigenmodes.modes", "count"),
    ("fractional_calculus.rl_integral_matrix.distinct", "count"),
    ("solver.coefficients.entries", "count"),
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric of one traced operation, as (name, unit)."""
    out = [(f"{label}.self_s", "s") for label in LAYERS]
    out += [(f"{label}.calls", "count") for label in CALL_COUNTED]
    out += list(EXTRA_COUNTERS)
    return out


def self_times(spans: list[tuple[int | None, float, float]]) -> list[float]:
    """Self time of each span given as (parent index, start, end).

    The covered part is the union of the children's intervals clipped to the
    parent's, so overlapping children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for parent, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo = max(c_start, reach)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, min(c_end, end))
        out.append((end - start) - covered)
    return out


class Recorder:
    """In-memory spans and counters of one process; written out at the end."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.spans: list[list] = []  # [parent index, start, end]
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._pairs: set[tuple[float, float]] = set()
        self._rl_keys: set[tuple[bytes, float]] = set()

    def wrap(self, label: str, fn):
        hook = _HOOKS.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.labels.append(label)
            span = [parent, time.perf_counter(), math.nan]
            self.spans.append(span)
            self.stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
                self.counters[f"{label}.calls"] += 1
                if hook is not None:
                    hook(self, span[2] - span[1], args, kwargs)

        return traced

    def install(self) -> None:
        """Wrap every layer function in each fracplate module that holds it."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "fracplate" or name.startswith("fracplate."))
        ]
        for label, targets in LAYERS.items():
            for mod_name, attr in targets:
                owner = sys.modules[f"fracplate.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, meth, self.wrap(label, getattr(cls, meth)))
                    continue
                original = getattr(owner, attr)
                wrapped = self.wrap(label, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)

    def metrics(self) -> dict[str, float]:
        """Per-layer totals for everything recorded so far."""
        if any(math.isnan(s[2]) for s in self.spans):
            raise RuntimeError("metrics requested while a span is still open")
        out = {name: 0.0 for name, _ in metric_names()}
        selfs = self_times([tuple(s) for s in self.spans])
        for label, value in zip(self.labels, selfs):
            out[f"{label}.self_s"] += value
        for name in out:
            if name in self.counters:
                out[name] = float(self.counters[name])
        return out


# {{{ counter hooks: (recorder, duration, args, kwargs)

def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _ml_profile_hook(rec: Recorder, duration: float, args, kwargs) -> None:
    import numpy as np

    alpha = float(_arg(args, kwargs, 0, "alpha"))
    beta = float(_arg(args, kwargs, 1, "beta"))
    a = np.abs(np.asarray(_arg(args, kwargs, 2, "z"), dtype=float))
    # the band edges documented in special_functions: float Taylor up to
    # min(25, ln(100)^alpha), the Chebyshev band up to 33^alpha
    zf = min(25.0, math.log(100.0) ** alpha)
    big_edge = 33.0**alpha
    big = int(np.count_nonzero(a > big_edge))
    name = "special_functions.ml_profile"
    rec.counters[f"{name}.points"] += a.size
    rec.counters[f"{name}.points_big"] += big
    rec.counters[f"{name}.points_mid"] += int(np.count_nonzero(a > zf)) - big
    if (alpha, beta) not in rec._pairs:
        rec._pairs.add((alpha, beta))
        rec.counters[f"{name}.pairs"] += 1
        rec.counters[f"{name}.first_call_s"] += duration


def _eigenmodes_hook(rec: Recorder, duration: float, args, kwargs) -> None:
    rec.counters["spectral_domain.eigenmodes.modes"] += int(_arg(args, kwargs, 1, "N"))


def _rl_matrix_hook(rec: Recorder, duration: float, args, kwargs) -> None:
    grid = _arg(args, kwargs, 0, "grid")
    key = (grid.nodes.tobytes(), float(_arg(args, kwargs, 1, "beta")))
    if key not in rec._rl_keys:
        rec._rl_keys.add(key)
        rec.counters["fractional_calculus.rl_integral_matrix.distinct"] += 1


def _coefficients_hook(rec: Recorder, duration: float, args, kwargs) -> None:
    import numpy as np

    solution = args[0]
    times = np.asarray(_arg(args, kwargs, 1, "times")).reshape(-1)
    rec.counters["solver.coefficients.entries"] += times.size * len(solution.modes)


_HOOKS = {
    "special_functions.ml_profile": _ml_profile_hook,
    "spectral_domain.eigenmodes": _eigenmodes_hook,
    "fractional_calculus.rl_integral_matrix": _rl_matrix_hook,
    "solver.coefficients": _coefficients_hook,
}

# }}}
