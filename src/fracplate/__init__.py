"""Spectral Mittag-Leffler machinery for time-fractional hinged-plate systems.

Module map:

* :mod:`fracplate.special_functions` -- Gamma and E_{alpha,beta} evaluation
  with method-tagged error estimates.
* :mod:`fracplate.spectral_domain` -- explicit hinged-biharmonic eigenpairs
  on intervals and rectangles, projections, fractional power norms.
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
    TimeSeries,
    caputo_derivative,
    default_grading,
    gagliardo_seminorm,
    hbeta_norm,
    norm_equivalence_probe,
    rl_integral,
)
from .hidden_regularity import (
    TraceSeries,
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
    eval_caputo,
    eval_grad_laplacian,
    eval_u,
    eval_ut,
    lift,
    mode_ode_residual,
    solve,
    weak_form_residual,
)
from .special_functions import (
    MLDecayBound,
    MLEvaluation,
    MLEvaluationError,
    MLMethod,
    MLParams,
    gamma_fn,
    max_beta,
    ml_decay_bound_estimate,
    ml_derivative_identity_residuals,
    ml_eval,
    ml_laplace_check,
    ml_profile,
    ml_series_oracle,
    reciprocal_gamma,
)
from .spectral_domain import (
    Domain,
    EigenMode,
    Interval,
    ModeSet,
    Rectangle,
    SpectralCoefficients,
    apply_power,
    eigenmodes,
    eval_mode,
    fractional_norm,
    normal_derivative_on_boundary,
    parse_domain,
    project,
)

__version__ = "0.1.0"

__all__ = [
    "Domain",
    "EigenMode",
    "Interval",
    "MLDecayBound",
    "MLEvaluation",
    "MLEvaluationError",
    "MLMethod",
    "MLParams",
    "ModeSet",
    "Rectangle",
    "SpectralCoefficients",
    "SpectralSolution",
    "TimeGrid",
    "TimeSeries",
    "TraceSeries",
    "VerificationReport",
    "apply_power",
    "apriori_estimate_check",
    "canonical_json",
    "caputo_derivative",
    "classify",
    "default_grading",
    "direct_inequality_probe",
    "eigenmodes",
    "eval_caputo",
    "eval_grad_laplacian",
    "eval_mode",
    "eval_u",
    "eval_ut",
    "filtered_identity_residual",
    "fractional_norm",
    "gagliardo_seminorm",
    "gamma_fn",
    "hbeta_norm",
    "lift",
    "max_beta",
    "ml_decay_bound_estimate",
    "ml_derivative_identity_residuals",
    "ml_eval",
    "ml_laplace_check",
    "ml_profile",
    "ml_series_oracle",
    "mode_ode_residual",
    "norm_equivalence_probe",
    "normal_derivative_on_boundary",
    "normal_trace",
    "parse_domain",
    "project",
    "reciprocal_gamma",
    "rl_integral",
    "solve",
    "static_multiplier_identity_residual",
    "trace_energy",
    "weak_form_residual",
    "__version__",
]
