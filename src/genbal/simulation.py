"""Monte Carlo harness: scenario configs, replicate generation, grid runner.

Each replicate draws n covariate vectors, splits them into source and
target by the participation probability, assigns treatment within the
source by the propensity, and generates outcomes as baseline plus a
centered treatment contrast plus Gaussian noise. The target rows are
collapsed to their H-term means and discarded, so estimators only ever
see the source sample and the summary vector.

Replicate seeds derive from (scenario seed, scenario name, replicate
index). Each config's replicates are drawn and estimated in fixed batches
of ``max(1, _BATCH_ROWS // n)`` consecutive replicates: each model runs
once over a batch's stacked rows, and every estimator once over the
batch, building its designs, solving its members and taking their reports
as batch arrays.
The batches depend on the config alone, never on ``jobs``, so results
are bit-identical under any parallelism degree. With ``jobs > 1``,
:func:`run_grid` maps every batch and every true target ATE through one
process pool of min(jobs, batches) workers and regroups the rows per
config in replicate order.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import numbers
import zlib
from itertools import compress, repeat

import numpy as np

from .basis import BasisSpec, SourceSample, _source_samples
from .errors import GenbalError, ValidationError
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
    "MAX_DRAW_CELLS",
    "MAX_REPLICATES",
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
# Largest n * p of one cell: a draw holds n rows of p covariates, so the
# budget bounds every array a replicate allocates; 2**24 cells take 128 MB.
MAX_DRAW_CELLS = 2 ** 24
# Most replicates of one cell: a grid run keeps a few KB per replicate
# (batch ranges, result rows), so 2**16 replicates stay near 175 MB.
MAX_REPLICATES = 2 ** 16
# source-sample rows (config.n times replicates) solved together in one batch
_BATCH_ROWS = 16_000


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
    # parsed from h_names/g_names once, here, and shared by every replicate
    _basis: BasisSpec = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "h_names", tuple(self.h_names))
        object.__setattr__(self, "g_names", tuple(self.g_names))
        problems = [] if isinstance(self.name, str) else [f"name={self.name!r} must be a string"]
        if self.seed < 0:
            problems.append(f"seed={self.seed} must be >= 0")
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
        problems += [f"{k}={v} must be finite" for k, v in (("low", self.low), ("high", self.high),
                     ("noise_sd", self.noise_sd), ("high - low", self.high - self.low)) if math.isinf(v)]
        if problems:
            raise ValidationError(f"scenario {self.name!r}: " + "; ".join(problems))
        if self.n * self.p > MAX_DRAW_CELLS:
            raise ValidationError(
                f"scenario {self.name!r}: n={self.n} rows of p={self.p} covariates are "
                f"{self.n * self.p} cells, over the budget of {MAX_DRAW_CELLS}",
                code="DRAW_BUDGET",
            )
        if self.replicates > MAX_REPLICATES:
            raise ValidationError(
                f"scenario {self.name!r}: replicates={self.replicates} is over the budget of {MAX_REPLICATES}",
                code="REPLICATE_BUDGET",
            )
        object.__setattr__(self, "_basis", BasisSpec.from_names(self.h_names, self.g_names))
        models = (self.propensity_logit, self.cate, self.baseline, self.participation_logit)
        used = frozenset().union(*(m.indices() for m in models))
        max_idx = max(max(used, default=-1), self._basis.max_index())
        if max_idx >= self.p:
            raise ValidationError(
                f"scenario {self.name!r} references covariate x{max_idx + 1} but p={self.p}"
            )

    def basis(self) -> BasisSpec:
        return self._basis

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
        """A cell from its JSON object; a bad key is a ValidationError naming the scenario and the key."""
        if not isinstance(d, dict) or "name" not in d:
            raise ValidationError(f"a scenario must be a JSON object with a 'name', got {d!r}")
        name, participation = d["name"], d.get("participation")

        def model(key, registry):
            value = d.get(key)
            if isinstance(value, str) and value not in registry:
                raise ValidationError(f"scenario {name!r}: unknown {key} tag {value!r}; known: {sorted(registry)}")
            try:
                return registry[value] if isinstance(value, str) else CovariateFunction.from_dict(value)
            except ValidationError as exc:
                raise ValidationError(f"scenario {name!r}: {key}: {exc}") from None

        for key in ("h", "g"):
            if key in d and not (isinstance(d[key], list) and all(isinstance(t, str) for t in d[key])):
                raise ValidationError(
                    f"scenario {name!r}: {key} must be a list of term names, got {d[key]!r}",
                    code="UNKNOWN_TERM",
                )
        return cls(
            name=name,
            propensity_logit=model("propensity", PROPENSITY_MODELS),
            cate=model("cate", CATE_MODELS),
            baseline=model("baseline", BASELINE_MODELS),
            participation_logit=PARTICIPATION_LOGIT if participation is None else model("participation", {}),
            h_names=tuple(d.get("h", ("const", "x1", "x2", "x3"))),
            g_names=tuple(d.get("g", ("x4", "x5"))),
            **_numeric_fields(d, f"scenario {name!r}"),
        )


def _numeric_fields(d: dict, where: str) -> dict:
    """The numeric ScenarioConfig fields set in ``d``, each a JSON number (no
    bool) cast to its default's type, an int field taking a whole number
    only; any other value is a ValidationError naming ``where`` and the key."""
    fields = {}
    for f in dataclasses.fields(ScenarioConfig):
        cast = type(f.default)
        try:
            if f.name in d and cast in (int, float):
                if type(d[f.name]) not in (int, float) or (cast is int and d[f.name] % 1 != 0):  # bool is neither
                    raise TypeError
                fields[f.name] = cast(d[f.name])
        except (TypeError, ValueError, OverflowError):
            kind = "an integer" if cast is int else "a number"
            raise ValidationError(f"{where}: {f.name} must be {kind}, got {d[f.name]!r}") from None
    return fields


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
    weight total, which is 1. Rows are read in blocks, with zero columns
    for unread covariates; only rho, tau and the weights are kept whole.
    """
    used = sorted(config.participation_logit.indices() | config.cate.indices())
    grid = gauss_legendre_box(len(used), config.low, config.high, nodes)
    w, rho, tau = np.empty(grid.size), np.empty(grid.size), np.empty(grid.size)
    for start, stop, X, w_block in grid.blocks():
        points = np.zeros((len(X), config.p))
        points[:, used] = X
        w[start:stop], rho[start:stop] = w_block, sigmoid(_model(config, "participation", points))
        tau[start:stop] = _model(config, "cate", points)
    wt = w * (1.0 - rho)
    return float(wt @ tau / wt.sum())


@dataclasses.dataclass(frozen=True)
class ReplicateDraw:
    """One simulated data set, with the target reduced to its summary."""

    sample: SourceSample
    target_means: np.ndarray
    n_t: int
    target_rows: np.ndarray
    redraws: int


def _model(config: ScenarioConfig, key: str, X) -> np.ndarray:
    """The ``key`` model over rows X, overflow silenced (sigmoid saturates exactly); a NaN
    logit, or a non-finite baseline or CATE value, is a ValidationError naming the model."""
    logit = key in ("participation", "propensity")
    with np.errstate(over="ignore", invalid="ignore"):
        values = getattr(config, f"{key}_logit" if logit else key)(X)
    if np.isnan(values).any() if logit else not np.isfinite(values).all():
        raise ValidationError(f"scenario {config.name!r}: the {key} model gives a "
                              + ("NaN logit" if logit else "non-finite value"), code="NON_FINITE_CELL")
    return values


def draw_replicate(config: ScenarioConfig, rep_index: int) -> ReplicateDraw:
    """Draw one replicate; degenerate draws (an empty arm, an empty
    sample on either side) are redrawn with an incremented sub-seed."""
    return _draw_batch(config, [rep_index])[0]


def _draw_batch(config: ScenarioConfig, reps) -> list:
    """The ReplicateDraws of ``reps``, each as drawn alone, from its own generator in the
    same order, while each model, and H, runs once over the stacked rows of the members
    still drawing; only a degenerate member redraws, with its next sub-seed. Raises for
    the first member still degenerate after _MAX_REDRAWS tries, naming what it lacked."""
    key, n, draws, pending = zlib.crc32(config.name.encode("utf-8")), config.n, {}, list(reps)
    for retry in range(_MAX_REDRAWS):
        rngs = [np.random.default_rng(np.random.SeedSequence((config.seed, key, rep, retry))) for rep in pending]
        drawn = [(rng.uniform(config.low, config.high, size=(n, config.p)), rng.random(n)) for rng in rngs]
        X, u = (v[0] if len(v) == 1 else np.concatenate(v) for v in zip(*drawn))  # one member is not copied
        inside = (u < sigmoid(_model(config, "participation", X))).reshape(-1, n)
        n_s = np.count_nonzero(inside, axis=1)
        alive = (n_s >= 2) & (n_s < n)
        done = alive.copy()
        if alive.any():
            k = n_s[alive]
            Xs = np.take(X, np.flatnonzero(inside & alive[:, None]), axis=0)
            drawn = [(rng.random(m), rng.standard_normal(m)) for rng, m in zip(compress(rngs, alive), k.tolist())]
            ua, z = (v[0] if len(v) == 1 else np.concatenate(v) for v in zip(*drawn))
            A = (ua < sigmoid(_model(config, "propensity", Xs))).astype(int)
            with np.errstate(over="ignore", invalid="ignore"):  # checked on the kept members below
                Y = _model(config, "baseline", Xs) + (A - 0.5) * _model(config, "cate", Xs) + config.noise_sd * z
            ones = np.add.reduceat(A, np.cumsum(k) - k)
            done[alive] = (ones > 0) & (ones < k)
        out = [None if ok else "fewer than 2 source rows" if m < 2 else "no target rows" if m == n
               else "an empty arm" for ok, m in zip(done.tolist(), n_s.tolist())]
        if done.any():
            if not done[alive].all():
                Xs, A, Y = (np.take(v, np.flatnonzero(np.repeat(done[alive], k)), axis=0) for v in (Xs, A, Y))
            if not np.isfinite(Y).all():  # each model is finite, so their sum or the noise overflowed
                with np.errstate(over="ignore"):
                    mu = _model(config, "baseline", Xs) + (A - 0.5) * _model(config, "cate", Xs)
                cause = f"with noise_sd={config.noise_sd:g}" if np.isfinite(mu).all() else "in baseline + (A-0.5)*cate"
                raise ValidationError(f"scenario {config.name!r}: the outcomes overflow {cause}",
                                      code="NON_FINITE_CELL")
            Xt, n_t = np.take(X, np.flatnonzero(~inside & done[:, None]), axis=0), n - n_s[done]
            H = config.basis().evaluate_h(Xt)
            samples = _source_samples(Xs, A, Y, n_s[done])
            for r, sample, a, m in zip(np.flatnonzero(done).tolist(), samples, (np.cumsum(n_t) - n_t).tolist(),
                                       n_t.tolist()):
                out[r] = ReplicateDraw(sample, H[a:a + m].mean(axis=0), m, Xt[a:a + m], retry)
        draws.update(zip(pending, out))
        pending = [rep for rep in pending if isinstance(draws[rep], str)]
        if not pending:
            return [draws[rep] for rep in reps]
    raise ValidationError(f"scenario {config.name!r}: could not draw a non-degenerate replicate {pending[0]} "
                          f"after {_MAX_REDRAWS} tries; the last had {draws[pending[0]]}")


def _batches(config: ScenarioConfig) -> list[range]:
    """Consecutive runs of ``max(1, _BATCH_ROWS // n)`` replicate indices
    that cover ``range(config.replicates)`` once, in order."""
    size = max(1, _BATCH_ROWS // config.n)
    return [range(start, min(start + size, config.replicates))
            for start in range(0, config.replicates, size)]


def _replicates(config, methods, options, reps):
    """Rows of the replicates in ``reps``, drawn and estimated as one batch:
    each method runs once over all of them."""
    draws = _draw_batch(config, reps)
    shared = _SharedWork([d.sample for d in draws], config.basis(),
                         [d.target_means for d in draws], [d.n_t for d in draws])
    rows = [{"n_s": d.sample.n_s, "redraws": d.redraws, "estimates": {}, "failures": {}}
            for d in draws]
    for method in methods:
        for row, outcome in zip(rows, ESTIMATORS[method](shared, options)):
            if isinstance(outcome, GenbalError):
                row["failures"][method] = type(outcome).__name__
            else:
                row["estimates"][method] = outcome.tau_hat
    return rows


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
    box = _boxplot_record(e)
    return MethodAggregate(
        method=method,
        errors=tuple(float(v) for v in e),
        failures=failures,
        bias=bias,
        sd=sd,
        rmse=rmse,
        median=box["median"],
        q1=box["q1"],
        q3=box["q3"],
        boxplot=box,
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


_GRID_LAYOUT = (("scenario", "s"), ("method", "s"), ("bias", ".4f"), ("sd", ".4f"),
                ("rmse", ".4f"), ("failures", "d"))


@dataclasses.dataclass(frozen=True)
class GridResult:
    scenarios: tuple[ScenarioResult, ...]

    def to_dict(self) -> dict:
        return {
            "schema": "genbal/simulation/1",
            "scenarios": [dataclasses.asdict(s) for s in self.scenarios],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def table(self, scale: float = 1.0):
        """(column, human format) pairs and one raw row per scenario x
        method, with bias, sd and rmse multiplied by ``scale``."""
        rows = [(s.name, m, a.bias * scale, a.sd * scale, a.rmse * scale, a.failures)
                for s in self.scenarios for m, a in s.methods.items()]
        return _GRID_LAYOUT, rows

    def cell(self, scenario: str, method: str) -> MethodAggregate:
        for s in self.scenarios:
            if s.name == scenario:
                return s.methods[method]
        raise KeyError(scenario)


def run_grid(configs, methods=ESTIMATOR_NAMES, jobs: int = 1,
             options: SolverOptions | None = None) -> GridResult:
    """Run every scenario x method cell and aggregate estimation errors.

    A method that raises a GenbalError on a replicate (non-convergence, a
    rank-deficient design, separated treatment, rejected weights) fails
    on that replicate only: it is excluded from the aggregates and
    counted. A config that cannot be drawn still fails the grid. The true
    target ATE is computed once per distinct (participation, CATE, p,
    low, high) among the configs.

    Each config's replicates are estimated in fixed batches of
    ``max(1, 16000 // n)`` consecutive replicates. ``jobs`` must be an int
    >= 1. With ``jobs > 1`` one process pool serves the whole call: every
    batch of every config and every true target ATE is one task, and the
    pool starts min(jobs, batches) workers. The batches do not depend on
    ``jobs``, so results are deterministic for a given list of configs,
    independent of ``jobs``.
    """
    methods = check_methods(methods)
    if not (isinstance(jobs, numbers.Integral) and not isinstance(jobs, bool) and jobs >= 1):
        raise ValidationError(f"run_grid jobs must be an int >= 1, got {jobs!r}")
    configs = tuple(configs)
    scenario_results = []
    for config, rows, tau_star in zip(configs, *_grid_rows(configs, methods, jobs, options)):
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


def _grid_rows(configs, methods, jobs, options):
    """Replicate rows and true target ATE of each config. Every batch of
    every config and the ATE of every distinct (participation, CATE, p, low,
    high) is one task, mapped in process when ``jobs == 1`` and otherwise
    through one pool."""
    tasks = [(i, reps) for i, config in enumerate(configs) for reps in _batches(config)]
    key = lambda c: (c.participation_logit, c.cate, c.p, c.low, c.high)  # noqa: E731
    keyed = {}
    for config in configs:
        keyed.setdefault(key(config), config)
    with contextlib.ExitStack() as stack:
        run = map
        if jobs > 1 and configs:
            # imported here so that importing genbal does not load multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            run = stack.enter_context(ProcessPoolExecutor(max_workers=min(jobs, len(tasks)))).map
        # the ATE tasks go in first, so no worker idles while they run last
        taus = run(true_target_ate, keyed.values())
        parts = run(_replicates, [configs[i] for i, _ in tasks], repeat(methods),
                    repeat(options), [reps for _, reps in tasks])
        parts, taus = list(parts), dict(zip(keyed, taus))
    rows = [[] for _ in configs]
    for (i, _), part in zip(tasks, parts):
        rows[i].extend(part)
    return rows, [taus[key(config)] for config in configs]
