"""Command-line entry point.

Subcommands: pretrain | unlearn | infer | simulate | bench. Exit codes are a
stable contract: 0 on success, 2 on input/IO problems (missing files, parse
or schema errors, bad flag values), 3 on numerical or method failures
(singular Gram matrices, indefinite objectives, divergence, ...). Structured
error names go to stderr. The ULS_THREADS environment variable overrides
--threads wherever a worker pool is used.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .data_model import compute_stats, load_csv, load_model, save_model, subsample
from .errors import ParseError, SchemaMismatch, UlsError
from .estimators import SOLVERS, GdConfig, prepare, pretrain
from .inference import INTERVALS, ci_ols, ci_uls
from .loss import get_loss
from .numerics import RngStream
from .simulation import (
    METHODS,
    PRESETS,
    SimConfig,
    _pool_map,
    method_theta,
    mpe,
    pooled_problem,
    run_experiment,
    write_records,
    write_summary,
)
from .tuning import CvSpec, cv_select, log_grid, plugin_lambda

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _threads(args) -> int | None:
    """Pool size from ULS_THREADS, else --threads; None or 0 is the default."""
    env = os.environ.get("ULS_THREADS")
    name, raw = ("ULS_THREADS", env) if env else ("--threads", args.threads)
    if raw is not None and not str(raw).isdecimal():
        raise ValueError(f"{name} must be a non-negative integer, got {raw!r}")
    return None if raw is None else int(raw)


def _write_json(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cv_spec(args) -> CvSpec:
    return CvSpec(
        folds=args.folds,
        grid=tuple(log_grid(args.grid_lo, args.grid_hi, args.grid_size)),
    )


def _add_cv_flags(parser, defaults=(5, 1e-4, 1e4, 20)) -> None:
    """The CV flags; simulate passes Nones so that its config decides."""
    folds, lo, hi, size = defaults
    parser.add_argument("--folds", type=int, default=folds)
    parser.add_argument("--grid-lo", type=float, default=lo)
    parser.add_argument("--grid-hi", type=float, default=hi)
    parser.add_argument("--grid-size", type=int, default=size)


def _cmd_pretrain(args) -> int:
    full = load_csv(args.full_csv, role="remaining")
    model = pretrain(get_loss(args.loss), full, n_forget=args.n_forget)
    save_model(model, args.out)
    print(f"wrote {args.out} ({model.p} coefficients, loss={model.loss_id})")
    return EXIT_OK


def _cmd_unlearn(args) -> int:
    model = load_model(args.model)
    forget = load_csv(args.forget, role="forget", expected_p=model.p)
    sub = load_csv(args.sub, role="subsample", expected_p=model.p)
    solver = SOLVERS[args.method]
    cfg = GdConfig(alpha=args.alpha, t_max=args.t_max, grad_tol=args.grad_tol)
    pb = prepare(model, forget, sub, cfg)

    cv_table = None
    if args.lam is not None:
        lam = args.lam
    elif args.lam_rule == "plugin":
        if args.method != "uls+":
            raise ValueError("--lam-rule plugin is only defined for --method uls+")
        lam = plugin_lambda(pb)
    elif solver.tuned:
        rng = RngStream(args.cv_seed, 0)
        lam, cv_table = cv_select(args.method, pb, _cv_spec(args), rng)
    else:
        lam = None

    result = solver.fit(pb, lam)

    _write_json(result.to_json_dict(), args.out)
    if args.cv_table and cv_table is not None:
        with open(args.cv_table, "w", encoding="utf-8") as fh:
            fh.write("lambda,fold,mse\n")
            for row_lam, fold, mse in cv_table:
                fh.write(f"{row_lam:.17g},{fold},{mse:.17g}\n")
    print(f"wrote {args.out} (method={result.method})")
    return EXIT_OK


def _cmd_infer(args) -> int:
    sub = load_csv(args.sub, role="subsample")
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
            raise SchemaMismatch(
                f"{args.v_file}: direction has {v.size} entries, expected {sub.p}"
            )

    if args.method == "ols":
        report = ci_ols(sub, v, args.alpha)
    else:
        if not args.model or not args.forget:
            raise ValueError("--model and --forget are required for --method uls")
        model = load_model(args.model)
        forget = load_csv(args.forget, role="forget", expected_p=model.p)
        report = ci_uls(model, forget, sub, v, args.alpha)

    _write_json(report.to_json_dict(), args.out)
    print(
        f"wrote {args.out} (point={report.point:.6g},"
        f" ci=[{report.ci_lo:.6g}, {report.ci_hi:.6g}])"
    )
    return EXIT_OK


def _cmd_simulate(args) -> int:
    fields = {
        "n_r": args.nr,
        "n_f": args.nf,
        "p": args.p,
        "subsample_ratio": args.ratio,
        "delta": args.delta,
        "rho_f": args.rho,
        "reps": args.reps,
        "seed": args.seed,
        "v_direction": args.v_coord,
        "alpha": args.alpha,
        "cv_folds": args.folds,
        "cv_grid_size": args.grid_size,
        "cv_grid_lo": args.grid_lo,
        "cv_grid_hi": args.grid_hi,
    }
    kwargs = dict(PRESETS[args.preset]) if args.preset else {}
    kwargs.update({k: v for k, v in fields.items() if v is not None})
    if args.methods:
        kwargs["methods"] = tuple(args.methods.split(","))
    if args.oracle_lambda:
        kwargs["oracle_lambda"] = True
    if args.redraw_truth:
        kwargs["redraw_truth"] = True
    cfg = SimConfig(**kwargs)

    records, summary = run_experiment(cfg, threads=_threads(args))
    write_records(records, args.records, include_timing=args.timing)
    write_summary(summary, args.summary, include_timing=args.timing)
    print(f"wrote {args.records} and {args.summary} ({cfg.reps} replications)")
    return EXIT_OK


def _cmd_bench(args) -> int:
    threads = _threads(args)
    if not 0.0 < args.ratio <= 1.0:
        raise ValueError(f"--ratio must lie in (0, 1], got {args.ratio}")
    remaining = load_csv(args.remaining, role="remaining")
    forget = load_csv(args.forget, role="forget", expected_p=remaining.p)
    test = load_csv(args.test, role="test", expected_p=remaining.p)

    n_sub = max(1, int(round(args.ratio * remaining.n)))
    sub = subsample(remaining, n_sub, RngStream(args.seed, 1))
    spec = _cv_spec(args)
    st_r = compute_stats(remaining)
    pb = pooled_problem(st_r, compute_stats(sub), forget, sub)

    # the retrained oracle rides along by default; an explicit list is final
    if args.methods:
        methods = args.methods.split(",")
    else:
        methods = ["retrain", "pretrain", "ols", "uls"]

    def run_one(idx_name):
        idx, name = idx_name
        cv_rng = RngStream(args.seed, 2 + idx)

        def pick_lambda(method):
            return cv_select(method, pb, spec, cv_rng)[0]

        start = time.perf_counter()
        theta = method_theta(name, pb, st_r, pick_lambda)
        millis = (time.perf_counter() - start) * 1e3
        return name, mpe(theta, test), millis

    rows = _pool_map(run_one, enumerate(methods), threads)

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("method,mpe,millis\n")
        for name, value, millis in rows:
            cell = format(millis, ".17g") if args.timing else ""
            fh.write(f"{name},{value:.17g},{cell}\n")
    print(f"wrote {args.out} ({len(rows)} methods)")
    return EXIT_OK


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
    p.add_argument("--loss", choices=["squared", "logistic"], default="squared")
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

    s = sub.add_parser("simulate", help="Monte Carlo study of the estimators")
    s.add_argument("--preset", choices=sorted(PRESETS), default=None)
    s.add_argument("--nr", type=int, default=None)
    s.add_argument("--nf", type=int, default=None)
    s.add_argument("--p", type=int, default=None)
    s.add_argument("--ratio", type=float, default=None)
    s.add_argument("--delta", type=float, default=None)
    s.add_argument("--rho", type=float, default=None)
    s.add_argument("--reps", type=int, default=None)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--methods", default=None,
                   help="comma-separated subset of " + ",".join(METHODS))
    s.add_argument("--v-coord", type=int, default=None)
    s.add_argument("--alpha", type=float, default=None)
    s.add_argument("--oracle-lambda", action="store_true",
                   help="use the theory-guided lambda rules instead of CV")
    s.add_argument("--redraw-truth", action="store_true")
    _add_cv_flags(s, (None,) * 4)
    s.add_argument("--threads", type=int, default=None)
    s.add_argument("--timing", action="store_true",
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
    b.add_argument("--threads", type=int, default=None)
    b.add_argument("--timing", action="store_true")
    b.add_argument("--out", required=True)
    b.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, SchemaMismatch, OSError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UlsError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
