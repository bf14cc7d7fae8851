"""The benchmark's workloads: input generation, one timed step, checks.

A workload object is built inside the timed set-up (its constructor
imports genbal and generates the inputs from the seed), then ``warm_up``
runs one replicate. ``step(i, out, tracer)`` runs one unit of the timed
loop and returns the wall time of the part a traced replay repeats;
``check(out)`` verifies the outputs; ``end_to_end(out)`` turns the
samples into the declared metrics.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
METHODS = ("ipw", "ipw_et", "ebal", "extended")
REFERENCE = HERE / "reference.json"
CHILD_TIMEOUT_S = 120


class Outcome:
    """Samples, operation counts and check results of one run."""

    def __init__(self):
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self.failures = {}
        self.checks = {}

    def add(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def fail(self, reason, count=1):
        self.failed += count
        self.failures[reason] = self.failures.get(reason, 0) + count

    def check(self, name, ok, detail=""):
        """AND a check's result into the run; keep the first failure's detail."""
        was_ok, first_detail = self.checks.get(name, (True, ""))
        self.checks[name] = (was_ok and bool(ok), first_detail or ("" if ok else detail))


def estimate_all(gb, sample, spec, target_raw, n_t):
    """All four estimators on one data set, through the public functions."""
    return [
        gb.estimate_ipw(sample),
        gb.estimate_ipw_et(sample, spec, target_raw, n_t=n_t),
        gb.estimate_ebal(sample, spec, target_raw, n_t=n_t),
        gb.estimate_extended(sample, spec, target_raw, n_t=n_t),
    ]


def check_extended_resolve(gb, configs, seed, out, per_config=1):
    """Re-solve sampled replicates with ``solve_extended(normalize=False)``;
    weights must be positive and balance to the solver tolerance."""
    tol = gb.SolverOptions().tol
    rng = random.Random(seed)
    worst = 0.0
    ok = True
    for config in configs:
        for rep in rng.sample(range(config.replicates), per_config):
            draw = gb.draw_replicate(config, rep)
            spec = config.basis()
            design = gb.evaluate_basis(spec, draw.sample)
            target = gb.align_target_summary(spec, draw.target_means, design, n_t=draw.n_t)
            treated = draw.sample.treated
            _, ws = gb.solve_extended(design, target, treated, normalize=False)
            resid = gb.balance_residuals(design, target, treated, ws.w).sup_norm
            worst = max(worst, resid)
            ok = ok and bool((ws.w > 0).all()) and resid <= tol
    out.check("extended_resolve_balances", ok, f"worst residual {worst:.3g} > tol {tol:g}")


def check_reference(workload, result, out):
    """Per-cell bias, sd and rmse of the default-seed grid against the
    values stored with the benchmark."""
    ref = json.loads(REFERENCE.read_text())[workload]
    bad = []
    for scen in result.scenarios:
        for method, agg in scen.methods.items():
            for stat, want in zip(("bias", "sd", "rmse"), ref[scen.name][method]):
                got = getattr(agg, stat)
                if not abs(got - want) <= 1e-9 * max(1.0, abs(want)):
                    bad.append(f"{scen.name}/{method}/{stat}: {got!r} != {want!r}")
    out.check("reference_stats_match", not bad, "; ".join(bad[:3]))


def grid_stats(result):
    return {
        scen.name: {m: [a.bias, a.sd, a.rmse] for m, a in scen.methods.items()}
        for scen in result.scenarios
    }


class _GridBase:
    """Shared set-up, pass and checks of the two simulation workloads."""

    min_steps = 1

    def __init__(self, configs):
        self.configs = configs
        self.first_json = None
        self.first_result = None

    def warm_up(self):
        import genbal as gb

        config = self.configs[0]
        draw = gb.draw_replicate(config, 0)
        estimate_all(gb, draw.sample, config.basis(), draw.target_means, draw.n_t)

    def _pass(self, configs, jobs, out):
        import genbal as gb

        n_ops = sum(c.replicates for c in configs) * len(METHODS)
        out.attempted += n_ops
        start = time.perf_counter()
        try:
            result = gb.run_grid(configs, METHODS, jobs=jobs)
        except Exception as exc:  # a run that aborts counts all its operations as failed
            elapsed = time.perf_counter() - start
            out.fail(f"run_grid:{type(exc).__name__}", n_ops)
            return elapsed
        elapsed = time.perf_counter() - start
        for scen in result.scenarios:
            for agg in scen.methods.values():
                if agg.failures:
                    out.fail(f"{scen.name}/{agg.method}", agg.failures)
        text = result.to_json()
        if self.first_json is None:
            self.first_json = text
            self.first_result = result
        else:
            out.check(
                "grid_json_identical_across_passes_and_jobs",
                text == self.first_json,
                f"jobs={jobs} pass differs from the first jobs=1 pass",
            )
        return elapsed

    def check(self, out):
        import genbal as gb

        out.check("grid_completed", self.first_result is not None, "no pass completed")
        if self.first_result is None:
            return
        check_extended_resolve(gb, self.configs, self.seed, out, self.resolve_per_config)
        if self.seed == DEFAULT_SEED:
            check_reference(self.name, self.first_result, out)


class GridN800(_GridBase):
    """All 12 built-in cells at n=800, jobs=1 then jobs=2 on the same seed."""

    name = "grid_n800"
    n = 800
    reps = 20
    resolve_per_config = 1
    trace_steps = 2

    def __init__(self, seed, workdir):
        import genbal as gb

        self.seed = seed
        super().__init__(gb.builtin_grid(n=self.n, replicates=self.reps, seed=seed))

    def step(self, i, out, tracer=None):
        elapsed = self._pass(self.configs, 1, out)
        if tracer is None:
            out.add("jobs1_pass_s", elapsed)
            out.add("jobs2_pass_s", self._pass(self.configs, 2, out))
        return elapsed

    def end_to_end(self, out):
        reps = len(self.configs) * self.reps
        j1 = statistics.median(out.samples["jobs1_pass_s"])
        j2 = statistics.median(out.samples["jobs2_pass_s"])
        named = {
            "reps_per_s": (reps / j1, "1/s", len(out.samples["jobs1_pass_s"])),
            "reps_per_s_jobs2": (reps / j2, "1/s", len(out.samples["jobs2_pass_s"])),
        }
        return {"main_op_ms": 1000.0 * j1 / reps, "side_op_ms": 1000.0 * j2 / reps}, named

    def layer_extras(self, out):
        j1 = statistics.median(out.samples["jobs1_pass_s"])
        j2 = statistics.median(out.samples["jobs2_pass_s"])
        return {"simulation.parallel_efficiency": j1 / (2.0 * j2)}


class CellN20k(_GridBase):
    """Criterion-7a cell P2-T1-M1 at n=20,000 plus its oracle at 12 nodes."""

    name = "cell_n20k"
    n = 20000
    reps = 20
    nodes = 12
    resolve_per_config = 3
    trace_steps = 6

    def __init__(self, seed, workdir):
        import genbal as gb

        self.seed = seed
        config = gb.builtin_scenario("P2", "T1", "M1", n=self.n, replicates=self.reps, seed=seed)
        super().__init__((config,))
        self.truth = gb.TruthFunctions.from_scenario(config)
        self.first_oracle = None

    def _oracle(self, out):
        import genbal as gb

        config = self.configs[0]
        out.attempted += 1
        start = time.perf_counter()
        try:
            grid = gb.gauss_legendre_box(config.p, config.low, config.high, self.nodes)
            report = gb.asymptotic_variance(self.truth, config.basis(), grid)
        except Exception as exc:
            out.fail(f"oracle:{type(exc).__name__}")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        d = report.to_dict()
        if self.first_oracle is None:
            self.first_oracle = d
        else:
            out.check("oracle_report_repeats", d == self.first_oracle, "oracle report changed")
        total = report.v1 + report.v2 + report.v3
        out.check(
            "oracle_total_is_sum",
            abs(report.total - total) <= 1e-12 * max(1.0, abs(total)),
            f"total {report.total!r} != v1+v2+v3 {total!r}",
        )
        out.check("oracle_v3_nonnegative", report.v3 >= -1e-12, f"v3 = {report.v3!r}")
        return elapsed

    def step(self, i, out, tracer=None):
        pass_s = self._pass(self.configs, 1, out)
        oracle_s = self._oracle(out)
        if tracer is None:
            out.add("pass_s", pass_s)
            out.add("oracle_s", oracle_s)
        return pass_s + oracle_s

    def check(self, out):
        super().check(out)
        out.check("oracle_completed", self.first_oracle is not None, "no oracle call completed")

    def end_to_end(self, out):
        per_rep = statistics.median(out.samples["pass_s"]) / self.reps
        oracle_s = statistics.median(out.samples["oracle_s"])
        named = {
            "reps_per_s": (1.0 / per_rep, "1/s", len(out.samples["pass_s"])),
            "oracle_s": (oracle_s, "s", len(out.samples["oracle_s"])),
        }
        return {"main_op_ms": 1000.0 * per_rep, "side_op_ms": 1000.0 * oracle_s}, named

    def layer_extras(self, out):
        return {"simulation.parallel_efficiency": None}


class CliCsv10k:
    """Fresh ``python -m genbal.cli`` processes on a generated ~10k-row CSV,
    alternating ``estimate`` and ``weights``; one client, closed loop."""

    name = "cli_csv10k"
    n = 20000
    min_steps = 2  # one of each command
    trace_steps = 4
    kinds = ("estimate", "weights")

    def __init__(self, seed, workdir):
        import genbal as gb
        from genbal import fileio

        self.seed = seed
        self.workdir = Path(workdir)
        config = gb.builtin_scenario("P2", "T1", "M1", n=self.n, replicates=1, seed=seed)
        draw = gb.draw_replicate(config, 0)
        spec = config.basis()
        self.n_s = draw.sample.n_s
        self.source = self.workdir / "source.csv"
        self.basis = self.workdir / "basis.json"
        self.target = self.workdir / "target.json"
        self.estimates = self.workdir / "estimates.json"
        self.weights = self.workdir / "weights.csv"
        self.schema = fileio.ColumnSchema("a", "y", tuple(f"x{j + 1}" for j in range(config.p)))
        fileio.write_source_csv(self.source, draw.sample, self.schema)
        self.basis.write_text(json.dumps({"h": list(spec.h_names), "g": list(spec.g_names)}))
        summary = dict(zip(spec.h_names, (float(v) for v in draw.target_means)))
        summary["n_t"] = draw.n_t
        self.target.write_text(json.dumps(summary))
        common = ["--source", str(self.source), "--basis", str(self.basis),
                  "--target-summary", str(self.target)]
        self.args = {
            "estimate": ["estimate", *common, "--methods", ",".join(METHODS),
                         "--format", "json", "--out", str(self.estimates)],
            "weights": ["weights", *common, "--method", "extended", "--out", str(self.weights)],
        }
        self.digests = {}

    def _in_process_estimates(self):
        """The estimates the CLI should print, from the same files."""
        import genbal as gb
        from genbal import fileio

        sample, _ = fileio.load_source_csv(self.source, self.schema)
        spec = fileio.load_basis_json(self.basis)
        raw, n_t = fileio.load_target_summary(self.target, spec)
        return estimate_all(gb, sample, spec, raw, n_t)

    def warm_up(self):
        import genbal.cli  # noqa: F401  compiles every module the child processes import

        self._in_process_estimates()

    def step(self, i, out, tracer=None):
        kind = self.kinds[i % 2]
        if tracer is None:
            argv = [sys.executable, "-m", "genbal.cli", *self.args[kind]]
        else:
            spans_path = self.workdir / f"child-spans-{i}.json"
            argv = [sys.executable, str(HERE / "cli_child.py"), str(spans_path), *self.args[kind]]
        out.attempted += 1
        traced = tracer.span("harness.cli_invocation") if tracer else contextlib.nullcontext()
        with traced as span:
            start = time.perf_counter()
            try:
                proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
                code, stderr = proc.returncode, proc.stderr
            except subprocess.TimeoutExpired:
                code, stderr = "timeout", ""
            elapsed = time.perf_counter() - start
        if tracer is not None and code == 0:
            tracer.adopt(json.loads(spans_path.read_text()), span)
            spans_path.unlink()
        out.check("cli_exit_codes_zero", code == 0, f"{kind} exited {code}: {stderr[-300:]}")
        if code != 0:
            out.fail(f"{kind}:exit={code}")
        else:
            path = self.estimates if kind == "estimate" else self.weights
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            first = self.digests.setdefault(kind, digest)
            out.check("cli_outputs_repeat", digest == first, f"{kind} output changed between calls")
        if tracer is None:
            out.add(f"{kind}_s", elapsed)
        return elapsed

    def check(self, out):
        done = set(self.digests)
        out.check("cli_both_commands_completed", done == set(self.kinds), f"completed: {sorted(done)}")
        if "estimate" in done:
            self._check_estimates(out)
        if "weights" in done:
            self._check_weights(out)

    def _check_estimates(self, out):
        import dataclasses

        cli = json.loads(self.estimates.read_text())["estimates"]
        local = [dataclasses.asdict(r) for r in self._in_process_estimates()]
        bad = []
        for got, want in zip(cli, local):
            got = dict(_flatten(got))
            for key, value in _flatten(want):
                other = got.get(key)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    if other is None or not abs(other - value) <= 1e-12 * max(1.0, abs(value)):
                        bad.append(f"{want['method']}.{key}: {other!r} != {value!r}")
                elif other != value:
                    bad.append(f"{want['method']}.{key}: {other!r} != {value!r}")
        out.check(
            "cli_estimates_match_in_process",
            len(cli) == len(local) and not bad,
            "; ".join(bad[:3]) or f"{len(cli)} estimates, expected {len(local)}",
        )

    def _check_weights(self, out):
        with open(self.weights, newline="") as fh:
            rows = list(csv.DictReader(fh))
        w = [float(r["weight"]) for r in rows]
        arms = {0: 0.0, 1: 0.0}
        for r, wi in zip(rows, w):
            arms[int(r["treatment"])] += wi
        ok = (
            len(rows) == self.n_s
            and all(wi > 0 and math.isfinite(wi) for wi in w)
            and all(abs(s - self.n_s) <= 1e-9 * self.n_s for s in arms.values())
        )
        out.check(
            "cli_weights_csv_valid",
            ok,
            f"{len(rows)} rows (n_s {self.n_s}), min weight {min(w, default=0)!r}, arm sums {arms}",
        )

    def end_to_end(self, out):
        est = statistics.median(out.samples["estimate_s"])
        wts = statistics.median(out.samples["weights_s"])
        named = {
            "estimate_s": (est, "s", len(out.samples["estimate_s"])),
            "weights_s": (wts, "s", len(out.samples["weights_s"])),
        }
        return {"main_op_ms": 1000.0 * est, "side_op_ms": 1000.0 * wts}, named

    def layer_extras(self, out):
        return {"simulation.parallel_efficiency": None}


def _flatten(d, prefix=""):
    for key, value in d.items():
        if isinstance(value, dict):
            yield from _flatten(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


WORKLOADS = {w.name: w for w in (GridN800, CellN20k, CliCsv10k)}


def fresh_process_s(code, repeats):
    """Median wall time of ``python -c code`` in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return statistics.median(times)
