"""genbal: calibration weights for generalizing treatment effects.

Estimates a target population's average treatment effect from
individual-level source data plus summary-level target covariate
moments. Weights are exponential tilts solved through an unconstrained
convex dual; comparator estimators, a population-level variance oracle,
and a Monte Carlo harness round out the package.
"""

from importlib import import_module as _import_module

from .basis import (
    BasisSpec,
    BasisTerm,
    DesignMatrices,
    RankReport,
    SourceSample,
    TargetSummary,
    align_target_summary,
    check_design_rank,
    evaluate_basis,
    parse_term,
)
from .errors import (
    GenbalError,
    HypothesisViolationError,
    NonConvergenceError,
    RankDeficiencyError,
    SeparationError,
    ValidationError,
    WeightUnderflowError,
)
from .estimators import (
    ESTIMATOR_NAMES,
    EstimateReport,
    LogisticModel,
    estimate_ebal,
    estimate_extended,
    estimate_ipw,
    estimate_ipw_et,
    estimate_weighted_ate,
    fit_logistic_irls,
)
from .solver import (
    BalanceReport,
    CalibrationSolution,
    DualSolution,
    Method,
    SolverOptions,
    WeightSet,
    balance_residuals,
    dual_objective,
    solve_att,
    solve_ebal,
    solve_et_calibration,
    solve_extended,
    solve_two_step,
)

__version__ = "0.1.0"

# The Monte Carlo and oracle modules load on first use (PEP 562), so a
# process that only estimates or writes weights never imports them. A lazy
# name is looked up in its module at every access and never cached here.
_LAZY = {
    "models": ("BASELINE_MODELS", "CATE_MODELS", "PARTICIPATION_LOGIT", "PROPENSITY_MODELS",
               "CovariateFunction", "FunctionTerm"),
    "oracle": ("AsymptoticReport", "TruthFunctions", "asymptotic_variance",
               "condition_b_participation", "project_g_perp", "project_h",
               "solve_limiting_dual", "tilde_r"),
    "quadrature": ("QuadratureGrid", "gauss_legendre_box"),
    "simulation": ("GridResult", "ScenarioConfig", "draw_replicate", "builtin_grid",
                   "builtin_scenario", "run_grid", "true_target_ate"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in (module, *names)}


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{_HOME[name]}")
    return module if name in _LAZY else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_HOME})
