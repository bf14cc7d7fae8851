"""Monte Carlo harness: scenario configs, replicate generation, grid runner.

Each replicate draws n covariate vectors, splits them into source and
target by the participation probability, assigns treatment within the
source by the propensity, and generates outcomes as baseline plus a
centered treatment contrast plus Gaussian noise. The target rows are
collapsed to their H-term means and discarded, so estimators only ever
see the source sample and the summary vector.

Replicate seeds derive from (scenario seed, scenario name, replicate
index), so results are bit-identical under any parallelism degree.
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .basis import BasisSpec, SourceSample
from .errors import NonConvergenceError, RankDeficiencyError, SeparationError, ValidationError
from .estimators import ESTIMATOR_NAMES, ESTIMATORS, _SharedWork, check_methods
from .mathutil import sigmoid
from .models import (
    BASELINE_MODELS,
    CATE_MODELS,
    PARTICIPATION_LOGIT,
    PROPENSITY_MODELS,
    CovariateFunction,
)
from .quadrature import gauss_legendre_box
from .solver import SolverOptions

__all__ = [
    "ScenarioConfig",
    "ReplicateDraw",
    "MethodAggregate",
    "ScenarioResult",
    "GridResult",
    "ESTIMATOR_NAMES",
    "builtin_scenario",
    "builtin_grid",
    "true_target_ate",
    "draw_replicate",
    "run_grid",
]

_MAX_REDRAWS = 100


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    """One simulation cell: DGP models plus draw sizes and seed."""

    name: str
    propensity_logit: CovariateFunction
    cate: CovariateFunction
    baseline: CovariateFunction
    participation_logit: CovariateFunction = PARTICIPATION_LOGIT
    n: int = 800
    replicates: int = 400
    noise_sd: float = 1.0
    p: int = 5
    low: float = -2.0
    high: float = 2.0
    h_names: tuple[str, ...] = ("const", "x1", "x2", "x3")
    g_names: tuple[str, ...] = ("x4", "x5")
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "h_names", tuple(self.h_names))
        object.__setattr__(self, "g_names", tuple(self.g_names))
        problems = []
        if self.p < 1:
            problems.append(f"p={self.p} must be >= 1")
        if not self.low < self.high:
            problems.append(f"low={self.low} must be below high={self.high}")
        if self.n < 2:
            problems.append(f"n={self.n} must be >= 2")
        if self.replicates < 1:
            problems.append(f"replicates={self.replicates} must be >= 1")
        if not self.noise_sd >= 0:
            problems.append(f"noise_sd={self.noise_sd} must be >= 0")
        if problems:
            raise ValidationError(f"scenario {self.name!r}: " + "; ".join(problems))
        models = (self.propensity_logit, self.cate, self.baseline, self.participation_logit)
        used = frozenset().union(*(m.indices() for m in models))
        max_idx = max(max(used, default=-1), self.basis().max_index())
        if max_idx >= self.p:
            raise ValidationError(
                f"scenario {self.name!r} references covariate x{max_idx + 1} but p={self.p}"
            )

    def basis(self) -> BasisSpec:
        return BasisSpec.from_names(self.h_names, self.g_names)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "propensity": self.propensity_logit.to_dict(),
            "cate": self.cate.to_dict(),
            "baseline": self.baseline.to_dict(),
            "participation": self.participation_logit.to_dict(),
            "n": self.n,
            "replicates": self.replicates,
            "noise_sd": self.noise_sd,
            "p": self.p,
            "low": self.low,
            "high": self.high,
            "h": list(self.h_names),
            "g": list(self.g_names),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        def model(value, registry, what):
            if isinstance(value, str):
                if value not in registry:
                    raise ValidationError(
                        f"unknown {what} tag {value!r}; known: {sorted(registry)}"
                    )
                return registry[value]
            if isinstance(value, dict):
                return CovariateFunction.from_dict(value)
            raise ValidationError(f"{what} must be a tag or a model object")

        if "name" not in d:
            raise ValidationError("scenario needs a name")
        participation = d.get("participation")
        return cls(
            name=str(d["name"]),
            propensity_logit=model(d["propensity"], PROPENSITY_MODELS, "propensity"),
            cate=model(d["cate"], CATE_MODELS, "cate"),
            baseline=model(d["baseline"], BASELINE_MODELS, "baseline"),
            participation_logit=(
                PARTICIPATION_LOGIT
                if participation is None
                else model(participation, {}, "participation")
            ),
            n=int(d.get("n", 800)),
            replicates=int(d.get("replicates", 400)),
            noise_sd=float(d.get("noise_sd", 1.0)),
            p=int(d.get("p", 5)),
            low=float(d.get("low", -2.0)),
            high=float(d.get("high", 2.0)),
            h_names=tuple(d.get("h", ("const", "x1", "x2", "x3"))),
            g_names=tuple(d.get("g", ("x4", "x5"))),
            seed=int(d.get("seed", 0)),
        )


def builtin_scenario(p_tag: str, t_tag: str, m_tag: str, **overrides) -> ScenarioConfig:
    """Built-in cell from the (P, T, M) scenario families."""
    return ScenarioConfig(
        name=f"{p_tag}-{t_tag}-{m_tag}",
        propensity_logit=PROPENSITY_MODELS[p_tag],
        cate=CATE_MODELS[t_tag],
        baseline=BASELINE_MODELS[m_tag],
        **overrides,
    )


def builtin_grid(**overrides) -> tuple[ScenarioConfig, ...]:
    """All 12 built-in cells, P-major then T then M."""
    cells = []
    for p_tag in ("P1", "P2", "P3"):
        for t_tag in ("T1", "T2"):
            for m_tag in ("M1", "M2"):
                cells.append(builtin_scenario(p_tag, t_tag, m_tag, **overrides))
    return tuple(cells)


def true_target_ate(config: ScenarioConfig, nodes: int = 16) -> float:
    """Target-population mean treatment contrast E[(1-rho) tau] / E[1-rho].

    Integrates by tensor Gauss-Legendre quadrature over only the
    covariates the participation and CATE models read: summing out any
    other axis multiplies numerator and denominator alike by that axis's
    weight total, which is 1. Columns of unread covariates stay zero.
    """
    used = sorted(config.participation_logit.indices() | config.cate.indices())
    grid = gauss_legendre_box(len(used), config.low, config.high, nodes)
    points = np.zeros((grid.size, config.p))
    points[:, used] = grid.points
    rho = sigmoid(config.participation_logit(points))
    tau = config.cate(points)
    wt = grid.weights * (1.0 - rho)
    return float(wt @ tau / wt.sum())


@dataclasses.dataclass(frozen=True)
class ReplicateDraw:
    """One simulated data set, with the target reduced to its summary."""

    sample: SourceSample
    target_means: np.ndarray
    n_t: int
    target_rows: np.ndarray
    redraws: int


def _replicate_rng(config: ScenarioConfig, rep_index: int, retry: int) -> np.random.Generator:
    key = zlib.crc32(config.name.encode("utf-8"))
    seq = np.random.SeedSequence((config.seed, key, rep_index, retry))
    return np.random.default_rng(seq)


def draw_replicate(config: ScenarioConfig, rep_index: int) -> ReplicateDraw:
    """Draw one replicate; degenerate draws (an empty arm, an empty
    sample on either side) are redrawn with an incremented sub-seed."""
    spec = config.basis()
    for retry in range(_MAX_REDRAWS):
        rng = _replicate_rng(config, rep_index, retry)
        X = rng.uniform(config.low, config.high, size=(config.n, config.p))
        rho = sigmoid(config.participation_logit(X))
        in_source = rng.random(config.n) < rho
        Xs = X[in_source]
        Xt = X[~in_source]
        if Xs.shape[0] < 2 or Xt.shape[0] < 1:
            continue
        pi = sigmoid(config.propensity_logit(Xs))
        A = (rng.random(Xs.shape[0]) < pi).astype(int)
        if A.sum() == 0 or A.sum() == Xs.shape[0]:
            continue
        eps = config.noise_sd * rng.standard_normal(Xs.shape[0])
        Y = config.baseline(Xs) + (A - 0.5) * config.cate(Xs) + eps
        target_means = spec.evaluate_h(Xt).mean(axis=0)
        return ReplicateDraw(
            sample=SourceSample(Xs, A, Y),
            target_means=target_means,
            n_t=Xt.shape[0],
            target_rows=Xt,
            redraws=retry,
        )
    raise ValidationError(
        f"could not draw a non-degenerate replicate after {_MAX_REDRAWS} tries"
    )


def _one_replicate(config: ScenarioConfig, rep_index: int, methods, options):
    draw = draw_replicate(config, rep_index)
    shared = _SharedWork(draw.sample, config.basis(), draw.target_means, draw.n_t)
    estimates = {}
    failures = {}
    for method in methods:
        try:
            report = ESTIMATORS[method](shared, options)
            estimates[method] = report.tau_hat
        except (NonConvergenceError, RankDeficiencyError, SeparationError) as exc:
            failures[method] = type(exc).__name__
    return {
        "n_s": draw.sample.n_s,
        "redraws": draw.redraws,
        "estimates": estimates,
        "failures": failures,
    }


def _worker(payload):
    config = ScenarioConfig.from_dict(payload["config"])
    options = SolverOptions(**payload["options"]) if payload["options"] else None
    return [
        _one_replicate(config, rep, payload["methods"], options)
        for rep in payload["reps"]
    ]


@dataclasses.dataclass(frozen=True)
class MethodAggregate:
    """Error aggregates of one estimator in one scenario."""

    method: str
    errors: tuple[float, ...]
    failures: int
    bias: float
    sd: float
    rmse: float
    median: float
    q1: float
    q3: float
    boxplot: dict

    def to_dict(self, include_errors=True) -> dict:
        d = {
            "method": self.method,
            "failures": self.failures,
            "bias": self.bias,
            "sd": self.sd,
            "rmse": self.rmse,
            "median": self.median,
            "q1": self.q1,
            "q3": self.q3,
            "boxplot": dict(self.boxplot),
        }
        if include_errors:
            d["errors"] = list(self.errors)
        return d


def _boxplot_record(errors: np.ndarray) -> dict:
    q1, med, q3 = (float(v) for v in np.quantile(errors, (0.25, 0.5, 0.75)))
    iqr = q3 - q1
    lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = errors[(errors >= lo) & (errors <= hi)]
    outliers = errors[(errors < lo) | (errors > hi)]
    return {
        "min": float(errors.min()),
        "q1": q1,
        "median": med,
        "q3": q3,
        "max": float(errors.max()),
        "whisker_low": float(inside.min()),
        "whisker_high": float(inside.max()),
        "outliers": [float(v) for v in np.sort(outliers)],
    }


def _aggregate(method: str, errors: list, failures: int) -> MethodAggregate:
    e = np.asarray(errors, dtype=float)
    if e.size == 0:
        nan = float("nan")
        return MethodAggregate(method, (), failures, nan, nan, nan, nan, nan, nan, {})
    bias = float(e.mean())
    sd = float(np.sqrt(np.mean((e - bias) ** 2)))
    rmse = float(np.sqrt(np.mean(e ** 2)))
    q1, med, q3 = (float(v) for v in np.quantile(e, (0.25, 0.5, 0.75)))
    return MethodAggregate(
        method=method,
        errors=tuple(float(v) for v in e),
        failures=failures,
        bias=bias,
        sd=sd,
        rmse=rmse,
        median=med,
        q1=q1,
        q3=q3,
        boxplot=_boxplot_record(e),
    )


@dataclasses.dataclass(frozen=True)
class ScenarioResult:
    """Per-scenario aggregates across replicates."""

    name: str
    tau_star: float
    n: int
    replicates: int
    n_s_min: int
    n_s_max: int
    n_s_mean: float
    redraws: int
    methods: dict

    def to_dict(self, include_errors=True) -> dict:
        return {
            "name": self.name,
            "tau_star": self.tau_star,
            "n": self.n,
            "replicates": self.replicates,
            "n_s_min": self.n_s_min,
            "n_s_max": self.n_s_max,
            "n_s_mean": self.n_s_mean,
            "redraws": self.redraws,
            "methods": {
                m: agg.to_dict(include_errors) for m, agg in self.methods.items()
            },
        }


@dataclasses.dataclass(frozen=True)
class GridResult:
    scenarios: tuple[ScenarioResult, ...]

    def to_dict(self, include_errors=True) -> dict:
        return {
            "schema": "genbal/simulation/1",
            "scenarios": [s.to_dict(include_errors) for s in self.scenarios],
        }

    def to_json(self, include_errors=True) -> str:
        return json.dumps(self.to_dict(include_errors), sort_keys=True, indent=2)

    def cell(self, scenario: str, method: str) -> MethodAggregate:
        for s in self.scenarios:
            if s.name == scenario:
                return s.methods[method]
        raise KeyError(scenario)


def run_grid(configs, methods=ESTIMATOR_NAMES, jobs: int = 1, nodes: int = 16,
             options: SolverOptions | None = None) -> GridResult:
    """Run every scenario x method cell and aggregate estimation errors.

    Failed solves (non-convergence, a rank-deficient design, separated
    treatment) are excluded from the aggregates and counted. The true
    target ATE is computed once per distinct (participation, CATE, p,
    low, high) among the configs. Results are deterministic for a given
    list of configs, independent of ``jobs``.
    """
    methods = check_methods(methods)
    scenario_results = []
    tau_stars = {}
    for config in configs:
        key = (config.participation_logit, config.cate, config.p, config.low, config.high)
        if key not in tau_stars:
            tau_stars[key] = true_target_ate(config, nodes)
        tau_star = tau_stars[key]
        rows = _run_scenario(config, methods, jobs, options)
        per_method = {}
        for method in methods:
            errors = [
                row["estimates"][method] - tau_star
                for row in rows
                if method in row["estimates"]
            ]
            failures = sum(1 for row in rows if method in row["failures"])
            per_method[method] = _aggregate(method, errors, failures)
        n_s = np.array([row["n_s"] for row in rows])
        scenario_results.append(
            ScenarioResult(
                name=config.name,
                tau_star=tau_star,
                n=config.n,
                replicates=config.replicates,
                n_s_min=int(n_s.min()),
                n_s_max=int(n_s.max()),
                n_s_mean=float(n_s.mean()),
                redraws=int(sum(row["redraws"] for row in rows)),
                methods=per_method,
            )
        )
    return GridResult(tuple(scenario_results))


def _run_scenario(config, methods, jobs, options):
    reps = list(range(config.replicates))
    if jobs <= 1:
        return [_one_replicate(config, rep, methods, options) for rep in reps]
    opts_dict = dataclasses.asdict(options) if options is not None else None
    chunks = [c for c in np.array_split(reps, jobs * 4) if len(c)]
    payloads = [
        {
            "config": config.to_dict(),
            "methods": list(methods),
            "reps": [int(r) for r in chunk],
            "options": opts_dict,
        }
        for chunk in chunks
    ]
    rows = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for part in pool.map(_worker, payloads):
            rows.extend(part)
    return rows
