"""Command-line entry point.

Subcommands: pretrain | unlearn | infer | simulate | bench. Exit codes are a
stable contract: 0 on success, 2 on input/IO problems (missing files, parse
or schema errors, bad flag values), 3 on numerical or method failures
(singular Gram matrices, indefinite objectives, divergence, ...). Structured
error names go to stderr. simulate and bench fit each method through
simulation.run_method, so a method fails the same way in both. simulate's
--threads is its number of worker processes; bench checks its --threads and
runs its methods in the calling process.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import fields
from functools import partial

import numpy as np

from . import __version__
from .data_model import (
    LOSS_IDS,
    compute_stats,
    load_csv,
    load_model,
    save_json,
    save_model,
    save_table,
    subsample,
)
from .errors import ParseError, SchemaMismatch, UlsError
from .estimators import SOLVERS, GdConfig, forget_stats, prepare, pretrain
from .inference import INTERVALS, check_alpha
from .numerics import RngStream, blas_single_threaded
from .simulation import (
    METHODS,
    SimConfig,
    check_methods,
    mpe,
    pooled_problem,
    run_experiment,
    run_method,
    worker_count,
    write_records,
)
from .tuning import (
    CV_FOLDS,
    CV_GRID_HI,
    CV_GRID_LO,
    CV_GRID_SIZE,
    cv_select,
    plugin_lambda,
    search_spec,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

SIMULATE_THREADS_HELP = ("worker processes, a non-negative integer; 0 or absent"
                         " means all available CPUs, and the count is capped at"
                         " the CPUs and --reps")
BENCH_THREADS_HELP = ("a non-negative integer, checked; bench runs its methods in"
                      " the calling process whatever its value")


def _check_threads(args) -> None:
    """--threads is a non-negative integer."""
    if args.threads is not None and args.threads < 0:
        raise ValueError(f"--threads must be a non-negative integer, got {args.threads}")


def _add_cv_flags(parser) -> None:
    """The CV flags, under SimConfig's cv_* names, defaulting to tuning's search
    (which SimConfig's cv_* defaults are too)."""
    parser.add_argument("--folds", dest="cv_folds", type=int)
    parser.add_argument("--grid-lo", dest="cv_grid_lo", type=float)
    parser.add_argument("--grid-hi", dest="cv_grid_hi", type=float)
    parser.add_argument("--grid-size", dest="cv_grid_size", type=int)
    parser.set_defaults(cv_folds=CV_FOLDS, cv_grid_lo=CV_GRID_LO,
                        cv_grid_hi=CV_GRID_HI, cv_grid_size=CV_GRID_SIZE)


def _cmd_pretrain(args) -> int:
    full = load_csv(args.full_csv, role="remaining")
    model = pretrain(args.loss, full, n_forget=args.n_forget)
    save_model(model, args.out)
    print(f"wrote {args.out} ({model.p} coefficients, loss={model.loss_id})")
    return EXIT_OK


def _cmd_unlearn(args) -> int:
    # every flag is settled before any file is read
    plugin = args.lam is None and args.lam_rule == "plugin"
    if plugin and args.method != "uls+":
        raise ValueError("--lam-rule plugin is only defined for --method uls+")
    spec = None
    if args.lam is None and args.lam_rule == "cv":
        spec = search_spec((args.method,), args.cv_folds, args.cv_grid_lo,
                           args.cv_grid_hi, args.cv_grid_size)
    cv_rng = None if spec is None else RngStream(args.cv_seed, 0)
    if args.cv_table and spec is None:
        raise ValueError("--cv-table needs a CV search: a tuned --method, no --lam,"
                         " and --lam-rule cv")
    cfg = GdConfig()  # the GD controls are read, and checked, for gd alone
    if args.method == "gd":
        cfg = GdConfig(alpha=args.alpha, t_max=args.t_max, grad_tol=args.grad_tol)

    model = load_model(args.model)
    forget = load_csv(args.forget, role="forget", expected_p=model.p)
    sub = load_csv(args.sub, role="subsample", expected_p=model.p)
    pb = prepare(model, forget, sub, cfg)
    lam = plugin_lambda(pb) if plugin else args.lam
    if spec is not None:
        lam, cv_table = cv_select(args.method, pb, spec, cv_rng)

    result = SOLVERS[args.method].fit(pb, lam)

    save_json(result.to_json_dict(), args.out)
    if args.cv_table:
        save_table(("lambda", "fold", "mse"), cv_table, args.cv_table)
    print(f"wrote {args.out} (method={result.method})")
    return EXIT_OK


def _cmd_infer(args) -> int:
    check_alpha(args.alpha)
    model = forget = None
    if args.method == "uls":  # the model first: it fixes p for both CSVs
        if not args.model or not args.forget:
            raise ValueError("--model and --forget are required for --method uls")
        model = load_model(args.model)
        forget = load_csv(args.forget, role="forget", expected_p=model.p)
    sub = load_csv(args.sub, role="subsample", expected_p=model.p if model else None)
    if args.coord is not None:
        v = np.zeros(sub.p)
        if not 1 <= args.coord <= sub.p:
            raise ValueError(f"--coord must lie in [1, {sub.p}]")
        v[args.coord - 1] = 1.0
    else:
        with warnings.catch_warnings():  # an empty file fails the check below
            warnings.simplefilter("ignore", UserWarning)
            v = np.atleast_1d(np.loadtxt(args.v_file, dtype=np.float64))
        if v.shape != (sub.p,):
            got = f"{v.size} entries" if v.ndim == 1 else f"shape {v.shape}"
            raise SchemaMismatch(
                f"{args.v_file}: direction has {got}, expected {sub.p} entries"
            )

    pb = prepare(model, forget, sub)
    report = INTERVALS[args.method](pb, SOLVERS[args.method].fit(pb).theta, v, args.alpha)

    save_json(report.to_json_dict(), args.out)
    print(
        f"wrote {args.out} (point={report.point:.6g},"
        f" ci=[{report.ci_lo:.6g}, {report.ci_hi:.6g}])"
    )
    return EXIT_OK


def _cmd_simulate(args) -> int:
    given = {f.name: getattr(args, f.name) for f in fields(SimConfig) if f.name in args}
    methods = given.pop("methods", "")
    if methods:  # "" means the default methods, as in bench
        given["methods"] = tuple(methods.split(","))
    cfg = SimConfig(**given)

    _check_threads(args)
    records, summary = run_experiment(cfg, worker_count(args.threads, cfg.reps))
    write_records(records, args.records, include_timing=args.timing)
    save_json(summary.to_json_dict(args.timing), args.summary)
    print(f"wrote {args.records} and {args.summary} ({cfg.reps} replications)")
    return EXIT_OK


def _cmd_bench(args) -> int:
    _check_threads(args)
    if not 0.0 < args.ratio <= 1.0:
        raise ValueError(f"--ratio must lie in (0, 1], got {args.ratio}")
    # the retrained oracle rides along by default; an explicit list is final
    default = ("retrain", "pretrain", "ols", "uls")
    methods = check_methods(args.methods.split(",") if args.methods else default)
    spec = search_spec(methods, args.cv_folds, args.cv_grid_lo, args.cv_grid_hi,
                       args.cv_grid_size)
    sub_rng, cv_rng = RngStream(args.seed, 1), RngStream(args.seed, 2)
    remaining = load_csv(args.remaining, role="remaining")
    forget = load_csv(args.forget, role="forget", expected_p=remaining.p)
    test = load_csv(args.test, role="test", expected_p=remaining.p)

    n_sub = max(1, int(round(args.ratio * remaining.n)))
    sub = subsample(remaining, n_sub, sub_rng)
    st_r = compute_stats(remaining)
    pb = pooled_problem(st_r, compute_stats(sub), forget_stats(forget, sub.p), sub)
    score = partial(mpe, test=test)
    with blas_single_threaded():  # as in simulate; tuned methods share cv_rng's folds
        records = [run_method(name, pb, st_r, spec, cv_rng, None, score)
                   for name in methods]

    save_table(("method", "mpe", "millis"),
               ((r.method, float("nan") if r.error is None else r.error,
                 r.millis if args.timing else None) for r in records),
               args.out)
    failed = [(r.method, *r.failure) for r in records if r.failure is not None]
    for name, kind, message in failed:
        prefix = "" if message.startswith(f"{name}: ") else f"{name}: "  # as cv_select's
        print(f"{kind}: {prefix}{message}", file=sys.stderr)
    print(f"wrote {args.out} ({len(records)} methods)")
    return EXIT_NUMERIC if failed else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uls",
        description="Remove a forget set from a fitted linear model using the"
        " coefficients, the forget rows, and a small retained subsample.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="fit the full-data model from a CSV")
    p.add_argument("full_csv")
    p.add_argument("--loss", choices=LOSS_IDS, default="squared")
    p.add_argument("--n-forget", type=int, default=0,
                   help="how many of the rows belong to the forget set")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pretrain)

    u = sub.add_parser("unlearn", help="remove the forget set from a model")
    u.add_argument("--model", required=True)
    u.add_argument("--forget", required=True)
    u.add_argument("--sub", required=True)
    u.add_argument("--method", choices=list(SOLVERS), default="uls")
    u.add_argument("--lam", "--lambda", dest="lam", type=float, default=None,
                   help="regularization weight; omit to select via --lam-rule")
    u.add_argument("--lam-rule", choices=["cv", "plugin"], default="cv",
                   help="how to pick lambda when --lam is absent: cross-"
                        "validation, or the plug-in discrepancy rule (uls+)")
    _add_cv_flags(u)
    u.add_argument("--cv-seed", type=int, default=0)
    u.add_argument("--cv-table", default=None,
                   help="also write the lambda,fold,mse audit table here")
    u.add_argument("--alpha", type=float, default=None,
                   help="gradient-descent step size (gd only)")
    u.add_argument("--t-max", type=int, default=10_000)
    u.add_argument("--grad-tol", type=float, default=1e-8)
    u.add_argument("--out", required=True)
    u.set_defaults(func=_cmd_unlearn)

    i = sub.add_parser("infer", help="confidence interval for a linear functional")
    i.add_argument("--model")
    i.add_argument("--forget")
    i.add_argument("--sub", required=True)
    i.add_argument("--method", choices=list(INTERVALS), default="uls")
    group = i.add_mutually_exclusive_group(required=True)
    group.add_argument("--coord", type=int, default=None,
                       help="1-based elementary direction")
    group.add_argument("--v-file", default=None,
                       help="file of direction entries, one per line")
    i.add_argument("--alpha", type=float, default=0.05)
    i.add_argument("--out", required=True)
    i.set_defaults(func=_cmd_infer)

    # a config flag is stored under its SimConfig field name, and only if given
    # (the CV flags always, at defaults equal to SimConfig's own)
    s = sub.add_parser("simulate", help="Monte Carlo study of the estimators",
                       argument_default=argparse.SUPPRESS)
    s.add_argument("--preset", choices=["table1"], default=None,
                   help="the paper's Table 1 sizes, which are the defaults")
    s.add_argument("--nr", dest="n_r", type=int)
    s.add_argument("--nf", dest="n_f", type=int)
    s.add_argument("--p", type=int)
    s.add_argument("--ratio", dest="subsample_ratio", type=float)
    s.add_argument("--delta", type=float)
    s.add_argument("--rho", dest="rho_f", type=float)
    s.add_argument("--reps", type=int)
    s.add_argument("--seed", type=int)
    s.add_argument("--methods",
                   help="comma-separated subset of " + ",".join(METHODS))
    s.add_argument("--v-coord", dest="v_direction", type=int)
    s.add_argument("--alpha", type=float)
    s.add_argument("--oracle-lambda", action="store_true",
                   help="use the theory-guided lambda rules instead of CV")
    s.add_argument("--redraw-truth", action="store_true")
    _add_cv_flags(s)
    s.add_argument("--threads", type=int, default=None, help=SIMULATE_THREADS_HELP)
    s.add_argument("--timing", action="store_true", default=False,
                   help="fill the millis columns (breaks byte reproducibility)")
    s.add_argument("--records", required=True)
    s.add_argument("--summary", required=True)
    s.set_defaults(func=_cmd_simulate)

    b = sub.add_parser("bench", help="prediction-error benchmark on CSV data")
    b.add_argument("--remaining", required=True)
    b.add_argument("--forget", required=True)
    b.add_argument("--test", required=True)
    b.add_argument("--ratio", type=float, default=0.1)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--methods", default=None)
    _add_cv_flags(b)
    b.add_argument("--threads", type=int, default=None, help=BENCH_THREADS_HELP)
    b.add_argument("--timing", action="store_true")
    b.add_argument("--out", required=True)
    b.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, UlsError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        input_error = (ParseError, SchemaMismatch, OSError, ValueError)
        return EXIT_INPUT if isinstance(exc, input_error) else EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
