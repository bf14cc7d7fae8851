"""genbal benchmark: one workload per call, metrics as the last stdout line.

    python3 perfbench/run.py --workload grid_n800 --seed 0 --seconds 32 --trace 0

``--trace 0`` times the workload with tracing off and reports every
end-to-end metric declared in BENCHMARK.json; ``--trace 1`` adds a traced
replay of the first steps and reports every per-layer metric. Either way
the outputs are checked and the process exits 1 if a check fails. The
last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the full record (provenance, samples, checks, named metrics) goes to
``perfbench/results/``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Pinned before NumPy is imported, here and in every child process: the
# default two-thread OpenBLAS is slower and noisier at n=20k on two cores.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 4
FRESH_PROCESS_REPEATS = 3


def _git_sha():
    """Commit of the checkout, read from .git without running git (the
    benchmark may run in an exported tree that has no .git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"library": path, "threads": fn()}
    return {"library": None, "threads": None}


def provenance(args):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            **_blas_threads(),
            "env": {v: os.environ.get(v) for v in BLAS_ENV},
        },
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def since_process_start():
    """Seconds since this process was created (interpreter start-up
    included), from /proc; falls back to the first line of this file."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22: starttime
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - T0


def peak_rss_mb():
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def setup_probes(args):
    """Set-up time of fresh processes doing exactly this run's set-up."""
    values = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, check=True, timeout=120,
        )
        values.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return values


def layer_metrics(agg, extras, names, traced):
    """Every per-layer metric in ``names``, plus those not applicable on
    this workload (their layer was not called, or the workload gives the
    extra as None); those read 0."""
    empty = {"calls": 0, "self_s": 0.0, "counters": {}, "errors": {}}

    def a(name):
        return agg.get(name, empty)

    def counter(name, key):
        return a(name)["counters"].get(key, 0)

    reps = a("simulation.draw_replicate")["calls"]
    solvers = [f"solver.{f}" for f in ("solve_extended", "solve_ebal", "solve_et_calibration")]
    solver_iters = sum(counter(s, "iters") for s in solvers)
    load = "fileio.load_source_csv"
    # name -> (span whose absence makes the metric not applicable, value)
    special = {
        "simulation.draw_replicate.accept_ratio": (
            "simulation.draw_replicate",
            reps / (reps + counter("simulation.draw_replicate", "redraws")) if reps else 0.0,
        ),
        "basis.evaluate_basis.per_rep": (
            "simulation.draw_replicate",
            a("basis.evaluate_basis")["calls"] / reps if reps else 0.0,
        ),
        "estimators.fit_logistic_irls.per_rep": (
            "simulation.draw_replicate",
            a("estimators.fit_logistic_irls")["calls"] / reps if reps else 0.0,
        ),
        "solver.s_per_iter": (
            "solver.solve_extended",
            sum(a(s)["self_s"] for s in solvers) / solver_iters if solver_iters else 0.0,
        ),
        "solver.failures": (None, sum(sum(a(s)["errors"].values()) for s in solvers)),
        "fileio.load_source_csv.rows_per_s": (
            load, counter(load, "rows") / a(load)["self_s"] if a(load)["calls"] else 0.0,
        ),
    }
    values, not_applicable = {}, []
    for name in names:
        if name in extras:
            values[name] = extras[name] if extras[name] is not None else 0.0
            if extras[name] is None:
                not_applicable.append(name)
            continue
        if name in special:
            source, value = special[name]
        else:
            source, stat = name.rsplit(".", 1)
            if source not in traced:
                raise LookupError(f"per-layer metric {name} names no traced function")
            value = a(source)[stat] if stat in ("calls", "self_s") else counter(source, stat)
        if source is not None and a(source)["calls"] == 0:
            not_applicable.append(name)
        values[name] = value
    return values, not_applicable


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="length of the timed loop (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, then print the set-up time (used by the benchmark itself)")
    return p.parse_args()


def main():
    args = parse_args()
    if not (SRC / "genbal" / "__init__.py").is_file():
        print(f"perfbench: no genbal sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    import workloads
    import tracing

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        return run(args, spec, workloads, tracing, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, spec, workloads, tracing, workdir):
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    wl.warm_up()
    setup_s = since_process_start()
    import genbal

    if not Path(genbal.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported genbal from {genbal.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out = workloads.Outcome()
    step_s = []
    deadline = time.perf_counter() + args.seconds
    min_steps = max(wl.min_steps, wl.trace_steps if args.trace else 0)
    # Stop once another step would end well past the deadline, so a run
    # measures close to --seconds whatever the step length.
    while len(step_s) < min_steps or (
        time.perf_counter() + 0.5 * statistics.median(step_s) < deadline
    ):
        step_s.append(wl.step(len(step_s), out))

    layer, trace_info = None, None
    if args.trace:
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        traced_s = []
        phase_start = time.perf_counter()
        try:
            with tracer.span("harness.traced_phase"):
                for i in range(wl.trace_steps):
                    traced_s.append(wl.step(i, out, tracer))
        finally:
            tracing.uninstall(undo)
        wall = time.perf_counter() - phase_start
        spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_path)
        agg = tracing.summarize(tracer.spans)
        harness_self = sum(v["self_s"] for k, v in agg.items() if k.startswith("harness."))
        genbal_self = sum(v["self_s"] for k, v in agg.items() if not k.startswith("harness."))
        misnested = tracing.misnested(tracer.spans)
        out.check("trace_spans_nest_in_parents", not misnested,
                  f"{len(misnested)} spans outside their parent, first: {misnested[:3]}")
        # Against the harness's own clocks: the wall of the whole phase and
        # the steps' own timers. genbal spans lie inside the timed steps;
        # the wall outside the steps is the traced phase's own self time;
        # with the genbal self times, the harness's self times make up the wall.
        eps = 1e-3 + 1e-3 * wall
        steps = sum(traced_s)
        loop_self = agg["harness.traced_phase"]["self_s"]
        out.check(
            "trace_accounts_for_wall",
            genbal_self <= steps + eps
            and abs((wall - steps) - loop_self) <= eps
            and abs(genbal_self + harness_self - wall) <= eps,
            f"wall {wall!r}, steps {steps!r}, loop self {loop_self!r}, "
            f"genbal self {genbal_self!r}, harness self {harness_self!r}",
        )
        interp = workloads.fresh_process_s("pass", FRESH_PROCESS_REPEATS)
        imp = workloads.fresh_process_s("import genbal.cli", FRESH_PROCESS_REPEATS)
        extras = dict(wl.layer_extras(out))
        extras.update({
            "cli.interpreter_s": interp,
            "cli.import_s": imp - interp,
            "trace.wall_s": wall,
            "trace.harness_self_s": harness_self,
            "trace.overhead_s": sum(traced_s) - len(traced_s) * statistics.median(step_s),
        })
        traced_names = {f"{m}.{f}" for m, f, _ in tracing.TARGETS}
        layer = layer_metrics(agg, extras, [m["name"] for m in spec["per_layer"]], traced_names)
        trace_info = {
            "steps": wl.trace_steps,
            "untraced_median_step_s": statistics.median(step_s),
            "traced_s": sum(traced_s),
            "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "layers": dict(sorted(agg.items())),
        }

    wl.check(out)
    correct = all(ok for ok, _ in out.checks.values())
    e2e, named = wl.end_to_end(out)
    setups = [setup_s] if args.trace else [setup_s] + setup_probes(args)
    named["setup_s"] = (statistics.median(setups), "s", len(setups))
    named["failed_share"] = (out.failed / out.attempted, "1", out.attempted)
    rss = peak_rss_mb()
    named["peak_rss_mb"] = (rss, "MB", 1)

    if args.trace:
        values, not_applicable = layer
        declared = spec["per_layer"]
    else:
        values = {**e2e, "setup_s": named["setup_s"][0], "peak_rss_mb": rss}
        not_applicable = []
        declared = spec["end_to_end"]
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(names)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    record = {
        "schema": "genbal/perfbench/1",
        "provenance": provenance(args),
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "failures": out.failures,
        "checks": {k: {"ok": ok, "detail": d} for k, (ok, d) in out.checks.items()},
        "named": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in named.items()},
        "samples": {**out.samples, "setup_s": setups, "step_s": step_s},
        "metrics": metrics,
        "not_applicable": not_applicable,
        "trace": trace_info,
    }
    result_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True))

    prov = record["provenance"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"git {prov['git_sha']}  nproc {prov['nproc']}  python {prov['python']}  "
          f"numpy {prov['numpy']}  scipy {prov['scipy']}  "
          f"blas {prov['blas']['name']} threads {prov['blas']['threads']}")
    for name, (value, unit, n) in named.items():
        print(f"  {name:<22} {value:>14.6g} {unit:<4} (n={n})")
    for name, (ok, detail) in out.checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED ' + detail}")
    if not_applicable:
        print(f"  not applicable on this workload (read 0): {', '.join(not_applicable)}")
    print(f"  record: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
