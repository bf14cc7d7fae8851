"""Command-line front end.

Subcommands: ``weights`` (per-row weights CSV), ``estimate`` (point
estimates with diagnostics), ``simulate`` (scenario grid), ``oracle``
(asymptotic variance report for a scenario).

Exit codes: 0 success, 2 validation error, 3 solver non-convergence,
4 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    NonConvergenceError,
    RankDeficiencyError,
    SeparationError,
    ValidationError,
    HypothesisViolationError,
    _one,
)
from .estimators import ESTIMATOR_NAMES, ESTIMATORS, _SharedWork, check_methods
from .fileio import (
    ColumnSchema,
    _read_header,
    emit_report,
    load_basis_json,
    load_scenarios_json,
    load_source_csv,
    load_target_summary,
    write_weights_csv,
)
from .solver import (
    SolverOptions,
    solve_att,
    solve_ebal,
    solve_et_calibration,
    solve_extended,
    solve_two_step,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_IO = 4

_WEIGHT_METHODS = ("extended", "ebal", "two_step", "et", "att")


def _add_source_args(cmd):
    cmd.add_argument("--source", required=True, help="source sample CSV")
    cmd.add_argument("--treatment", default="a", help="treatment column name")
    cmd.add_argument("--outcome", default="y", help="outcome column name")
    cmd.add_argument(
        "--covariates",
        default=None,
        help="comma-separated covariate columns (default: all other columns in header order)",
    )
    cmd.add_argument(
        "--categorical",
        default="",
        help="comma-separated covariate columns to encode as categories",
    )
    cmd.add_argument("--basis", required=True, help="basis JSON ({'h': [...], 'g': [...]})")


def _add_solver_args(cmd):
    cmd.add_argument("--tol", type=float, default=SolverOptions.tol, help="gradient sup-norm tolerance")
    cmd.add_argument("--max-iter", type=int, default=SolverOptions.max_iter, help="max Newton iterations")


def _add_out_args(cmd):
    cmd.add_argument("--out", default=None, help="output path (default: stdout)")
    cmd.add_argument("--format", choices=("human", "json", "csv"), default="human")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genbal",
        description=(
            "Calibration weights and treatment-effect estimates for a target "
            "population described only by summary-level covariate moments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    w = sub.add_parser("weights", help="solve for weights and emit a per-row CSV")
    _add_source_args(w)
    w.add_argument("--target-summary", default=None, help="target summary JSON")
    w.add_argument("--method", choices=_WEIGHT_METHODS, default="extended")
    w.add_argument(
        "--normalize",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="rescale each arm's weights to sum to n_s",
    )
    _add_solver_args(w)
    w.add_argument("--out", required=True, help="weights CSV path")

    e = sub.add_parser("estimate", help="estimate the target-population ATE")
    _add_source_args(e)
    e.add_argument("--target-summary", required=True)
    e.add_argument(
        "--methods",
        default=",".join(ESTIMATOR_NAMES),
        help=f"comma-separated subset of {ESTIMATOR_NAMES}",
    )
    _add_solver_args(e)
    _add_out_args(e)

    s = sub.add_parser("simulate", help="run a scenario grid")
    s.add_argument("--scenario", required=True, help="scenario JSON")
    s.add_argument(
        "--methods",
        default=",".join(ESTIMATOR_NAMES),
        help=f"comma-separated subset of {ESTIMATOR_NAMES}",
    )
    s.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    s.add_argument("--seed", type=int, default=None, help="override every scenario seed")
    s.add_argument(
        "--scale-100",
        action="store_true",
        help="multiply bias/sd/rmse by 100 in human and CSV tables",
    )
    _add_solver_args(s)
    _add_out_args(s)

    o = sub.add_parser("oracle", help="asymptotic variance report for one scenario")
    o.add_argument("--scenario", required=True, help="scenario JSON")
    o.add_argument("--cell", default=None, help="scenario name when the file has several")
    o.add_argument("--nodes", type=int, default=16, help="quadrature nodes per dimension")
    _add_out_args(o)

    return parser


def _schema_from_args(args, header_path) -> ColumnSchema:
    if args.covariates:
        covariates = tuple(c.strip() for c in args.covariates.split(",") if c.strip())
    else:
        with open(header_path, newline="") as fh:
            header = _read_header(fh, header_path)
        # a repeated header column is listed once, so the loader names the file
        covariates = tuple(dict.fromkeys(c for c in header if c not in (args.treatment, args.outcome)))
    categorical = tuple(c.strip() for c in args.categorical.split(",") if c.strip())
    return ColumnSchema(args.treatment, args.outcome, covariates, categorical)


def _solver_options(args) -> SolverOptions:
    return SolverOptions(tol=args.tol, max_iter=args.max_iter)


def _cmd_weights(args) -> int:
    from .basis import align_target_summary, evaluate_basis

    schema = _schema_from_args(args, args.source)
    sample, _ = load_source_csv(args.source, schema)
    spec = load_basis_json(args.basis)
    design = evaluate_basis(spec, sample)
    opts = _solver_options(args)
    treated = sample.treated
    if args.method == "att":
        ws = solve_att(design, treated, opts, normalize=args.normalize)
    else:
        if args.target_summary is None:
            raise ValidationError(f"--target-summary is required for method {args.method}")
        raw, n_t = load_target_summary(args.target_summary, spec)
        target = align_target_summary(spec, raw, design, n_t=n_t)
        if args.method == "extended":
            _, ws = solve_extended(design, target, treated, opts, normalize=args.normalize)
        elif args.method == "ebal":
            _, ws = solve_ebal(design, target, treated, opts, normalize=args.normalize)
        elif args.method == "two_step":
            ws = solve_two_step(design, target, treated, opts, normalize=args.normalize)
        else:
            _, ws = solve_et_calibration(design, target, opts, normalize=args.normalize)
    write_weights_csv(args.out, sample, ws)
    return EXIT_OK


def _emit(args, report, scale_100=False) -> int:
    """Render the report in ``--format`` to ``--out``, or to stdout."""
    text = emit_report(report, fmt=args.format, path=args.out, scale_100=scale_100)
    if args.out is None:
        sys.stdout.write(text)
    return EXIT_OK


def _parse_methods(text):
    return tuple(m.strip() for m in text.split(",") if m.strip())


def _cmd_estimate(args) -> int:
    schema = _schema_from_args(args, args.source)
    sample, _ = load_source_csv(args.source, schema)
    spec = load_basis_json(args.basis)
    raw, n_t = load_target_summary(args.target_summary, spec)
    methods = check_methods(_parse_methods(args.methods))
    opts = _solver_options(args)
    shared = _SharedWork([sample], spec, [raw], [n_t])
    return _emit(args, [_one(ESTIMATORS[m](shared, opts)[0]) for m in methods])


def _cmd_simulate(args) -> int:
    import dataclasses as _dc

    from .simulation import run_grid

    configs = load_scenarios_json(args.scenario)
    if args.seed is not None:
        configs = [_dc.replace(c, seed=args.seed) for c in configs]
    methods = _parse_methods(args.methods)
    result = run_grid(configs, methods, jobs=args.jobs, options=_solver_options(args))
    return _emit(args, result, scale_100=args.scale_100)


def _cmd_oracle(args) -> int:
    from .oracle import TruthFunctions, asymptotic_variance
    from .quadrature import gauss_legendre_box

    configs = load_scenarios_json(args.scenario)
    if args.cell is not None:
        matches = [c for c in configs if c.name == args.cell]
        if not matches:
            raise ValidationError(
                f"no scenario named {args.cell!r}; file has {[c.name for c in configs]}"
            )
        config = matches[0]
    elif len(configs) == 1:
        config = configs[0]
    else:
        raise ValidationError("scenario file has several cells; pick one with --cell")
    truth = TruthFunctions.from_scenario(config)
    grid = gauss_legendre_box(config.p, config.low, config.high, args.nodes)
    return _emit(args, asymptotic_variance(truth, config.basis(), grid))


_DISPATCH = {
    "weights": _cmd_weights,
    "estimate": _cmd_estimate,
    "simulate": _cmd_simulate,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ValidationError, RankDeficiencyError, HypothesisViolationError) as exc:
        print(f"genbal: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NonConvergenceError, SeparationError) as exc:
        print(f"genbal: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"genbal: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
