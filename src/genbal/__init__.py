"""genbal: calibration weights for generalizing treatment effects.

Estimates a target population's average treatment effect from
individual-level source data plus summary-level target covariate
moments. Weights are exponential tilts solved through an unconstrained
convex dual; comparator estimators, a population-level variance oracle,
and a Monte Carlo harness round out the package.
"""

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
    EstimateReport,
    LogisticModel,
    estimate_ebal,
    estimate_extended,
    estimate_ipw,
    estimate_ipw_et,
    estimate_weighted_ate,
    fit_logistic_irls,
)
from .models import (
    BASELINE_MODELS,
    CATE_MODELS,
    PARTICIPATION_LOGIT,
    PROPENSITY_MODELS,
    CovariateFunction,
    FunctionTerm,
)
from .oracle import (
    AsymptoticReport,
    TruthFunctions,
    asymptotic_variance,
    condition_b_participation,
    project_g_perp,
    project_h,
    solve_limiting_dual,
    tilde_r,
)
from .quadrature import QuadratureGrid, gauss_legendre_box
from .simulation import (
    ESTIMATOR_NAMES,
    GridResult,
    ScenarioConfig,
    draw_replicate,
    builtin_grid,
    builtin_scenario,
    run_grid,
    true_target_ate,
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
