"""Spectral Mittag-Leffler machinery for time-fractional hinged-plate systems.

Module map:

* :mod:`fracplate.special_functions` -- reciprocal Gamma, Gauss-Legendre
  rules and one array evaluator of E_{alpha,beta} at plain orders, with a
  per-point error estimate and route name.
* :mod:`fracplate.spectral_domain` -- explicit hinged-biharmonic eigenpairs
  on intervals and rectangles, their value and gradient matrices at
  quadrature nodes, the closed-form boundary trace factor, fractional
  power norms.
* :mod:`fracplate.fractional_calculus` -- Riemann-Liouville integrals, the
  Caputo pipeline, Gagliardo seminorms on (graded) time grids.
* :mod:`fracplate.solver` -- truncated Mittag-Leffler series solutions and
  their residual/estimate probes.
* :mod:`fracplate.hidden_regularity` -- boundary traces, multiplier
  identities, and the direct-inequality probe.
* :mod:`fracplate.acceptance` -- the release gate, also reachable through
  the ``fracplate report`` CLI.
"""

from .fractional_calculus import (
    TimeGrid,
    caputo_derivative,
    default_grading,
    gagliardo_seminorm,
    rl_integral,
)
from .hidden_regularity import (
    direct_inequality_probe,
    filtered_identity_residual,
    normal_trace,
    static_multiplier_identity_residual,
    trace_energy,
)
from .report import VerificationReport, canonical_json
from .solver import (
    SpectralSolution,
    apriori_estimate_check,
    classify,
    lift,
    mode_ode_residual,
    solve,
    weak_form_residual,
)
from .special_functions import (
    MLEvaluationError,
    ml_derivative_identity_residuals,
    ml_eval,
    ml_laplace_check,
    ml_profile,
    ml_series_oracle,
    reciprocal_gamma,
)
from .spectral_domain import (
    Domain,
    Interval,
    ModeSet,
    Rectangle,
    boundary_trace_factor,
    eigenmodes,
    fractional_norm,
    parse_domain,
)

__version__ = "0.1.0"

__all__ = [
    "Domain",
    "Interval",
    "MLEvaluationError",
    "ModeSet",
    "Rectangle",
    "SpectralSolution",
    "TimeGrid",
    "VerificationReport",
    "apriori_estimate_check",
    "boundary_trace_factor",
    "canonical_json",
    "caputo_derivative",
    "classify",
    "default_grading",
    "direct_inequality_probe",
    "eigenmodes",
    "filtered_identity_residual",
    "fractional_norm",
    "gagliardo_seminorm",
    "lift",
    "ml_derivative_identity_residuals",
    "ml_eval",
    "ml_laplace_check",
    "ml_profile",
    "ml_series_oracle",
    "mode_ode_residual",
    "normal_trace",
    "parse_domain",
    "reciprocal_gamma",
    "rl_integral",
    "solve",
    "static_multiplier_identity_residual",
    "trace_energy",
    "weak_form_residual",
    "__version__",
]
