"""Command-line front end.

Subcommands
-----------
fit              cross-validate on CSV data, write the selected fit + JSON
cv               cross-validate only, write the error surface + best pair
simulate         draw a benchmark instance to X.csv / Y.csv / B0.csv
benchmark        run the replication study, write the long-format metrics CSV
threshold-curve  tabulate the scalar rule theta_hat(z) as CSV
minimax-check    Monte Carlo risk report as JSON

Exit codes: 0 success, 1 numeric/solver failure (nothing written), 2 I/O
or configuration failure, 3 outputs written but the selected fit is not
KKT-certified (``fit`` and ``cv``; ``fit.json`` or ``cv_best.json`` then
holds ``certified: false``).  Progress goes to stderr; data only to the
output files.  ``fit`` and ``cv`` also say on stderr when the selected
lambda is the first or last of the grid, which leaves the exit code as is.
"""

import argparse
import os
import sys

import numpy as np

from . import io
from .depth_penalty import PenaltySpec
from .estimator import LarnConfig
from .group_solver import Dataset, SolverError
from .model_selection import CvGrid, default_lambdas, fit_with_selection, cross_validate
from .scalar_rule import depth_scalar_penalty, minimax_check, soft_threshold_depth
from .simbench import MetricsRow, SimConfig, generate_instance, run_benchmark

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_CONFIG = 2
EXIT_UNCERTIFIED = 3


class CliError(Exception):
    """Configuration or I/O problem; maps to exit code 2."""


def _log(msg):
    print(msg, file=sys.stderr)


def _add_penalty_flags(parser):
    parser.add_argument("--depth", choices=["halfspace", "projection"],
                        default="halfspace")
    parser.add_argument("--transform", choices=["max", "exp"], default="max")


def _add_shared_flags(parser):
    # the run and lambda-grid flags of every cross-validating command
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--n-lambdas", type=int, default=100,
                        help="levels on the default grid, 10^-2..10^2 on the log10 "
                             "scale; wider grids go through --lambdas")
    parser.add_argument("--lambdas", type=str, default=None,
                        help="explicit comma-separated penalty levels (overrides --n-lambdas)")
    parser.add_argument("--n-thresholds", type=int, default=100)
    parser.add_argument("--folds", type=int, default=5)


def _add_cv_flags(parser):
    # the flags of the commands that cross-validate on CSV data: fit and cv
    parser.add_argument("--x", required=True, help="design matrix CSV")
    parser.add_argument("--y", required=True, help="response matrix CSV")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    _add_penalty_flags(parser)
    _add_shared_flags(parser)
    parser.add_argument("--lambda-scale", choices=["log10", "linear-positive"],
                        default="log10")
    parser.add_argument("--thresholds", type=str, default=None,
                        help="explicit comma-separated threshold levels")
    parser.add_argument("--one-step", choices=["true", "false"], default="true")


def build_parser():
    parser = argparse.ArgumentParser(prog="larn",
                                     description="depth-penalized multitask sparse regression")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="cross-validate and write the selected estimate")
    _add_cv_flags(p_fit)
    p_fit.add_argument("--trace-out", default=None,
                       help="optional CSV path for the solver objective trace")
    _add_cv_flags(sub.add_parser("cv", help="cross-validate only; write surface + best pair"))

    p_sim = sub.add_parser("simulate", help="draw a synthetic instance")
    p_sim.add_argument("--config", required=True, help="SimConfig JSON path")
    p_sim.add_argument("--out-dir", required=True)

    p_bench = sub.add_parser("benchmark", help="replication study")
    p_bench.add_argument("--config", required=True, help="SimConfig JSON path")
    p_bench.add_argument("--out", required=True, help="metrics CSV path")
    p_bench.add_argument("--methods", default="larn,tgl,seplasso")
    _add_shared_flags(p_bench)

    p_curve = sub.add_parser("threshold-curve", help="tabulate the scalar rule")
    p_curve.add_argument("--out", required=True)
    p_curve.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_curve.add_argument("--zmax", type=float, default=6.0)
    p_curve.add_argument("--step", type=float, default=0.01)
    _add_penalty_flags(p_curve)

    p_mm = sub.add_parser("minimax-check", help="Monte Carlo risk report")
    p_mm.add_argument("--out", required=True)
    p_mm.add_argument("--n", type=int, required=True)
    p_mm.add_argument("--theta-csv", default=None,
                      help="single-column CSV of means; zeros when omitted")
    p_mm.add_argument("--replications", type=int, default=2000)
    p_mm.add_argument("--seed", type=int, default=0)
    _add_penalty_flags(p_mm)

    return parser


def _penalty_from(args):
    return PenaltySpec(depth=args.depth, transform=args.transform)


def _lambdas_from(args, scale="log10"):
    # an explicit --lambdas overrides --n-lambdas on the default grid
    if args.lambdas is not None:
        return _parse_floats(args.lambdas, "--lambdas")
    return default_lambdas(num=args.n_lambdas, scale=scale)


def _grid_from(args):
    thresholds = None
    if args.thresholds is not None:
        thresholds = _parse_floats(args.thresholds, "--thresholds")
    return CvGrid(lambdas=_lambdas_from(args, args.lambda_scale), thresholds=thresholds,
                  n_thresholds=args.n_thresholds, k=args.folds, seed=args.seed)


def _parse_floats(text, flag):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliError(f"{flag}: {exc}") from None


def _cv_inputs(args):
    """(data, Y's header, config, grid) of a fit or cv run, read from its flags."""
    for path in (args.x, args.y):
        if not os.path.exists(path):
            raise CliError(f"input file not found: {path}")
    X, _ = io.read_matrix_csv(args.x)
    Y, y_header = io.read_matrix_csv(args.y)
    if X.shape[0] != Y.shape[0]:
        raise CliError(f"row count mismatch: {args.x} has {X.shape[0]} rows, "
                       f"{args.y} has {Y.shape[0]}")
    config = LarnConfig(penalty=_penalty_from(args),
                        one_step=(args.one_step == "true"))
    return Dataset(X, Y), y_header, config, _grid_from(args)


def _exit_code(cv, certified, what):
    # the edge note leaves the exit code as is; an uncertified fit exits 3
    if cv.best_on_edge:
        _log(f"selected lambda={cv.best[0]:.6g} is on the grid's edge; try a wider --lambdas")
    if not certified:
        _log(f"{what} is not KKT-certified")
        return EXIT_UNCERTIFIED
    return EXIT_OK


def _ensure_out_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create output directory {path}: {exc}") from None


def cmd_fit(args):
    data, y_header, config, grid = _cv_inputs(args)
    fit, cv = fit_with_selection(data, config, grid, jobs=args.jobs)
    # created only now, so a run that fails leaves no empty directory
    _ensure_out_dir(args.out_dir)
    io.write_matrix_csv(os.path.join(args.out_dir, "coefficients.csv"),
                        fit.b_hat, header=y_header)
    payload = fit.to_dict()
    payload["cv"] = cv.to_dict()
    io.write_json(os.path.join(args.out_dir, "fit.json"), payload)
    if args.trace_out:
        trace = np.asarray(fit.objective_trace, dtype=float)[:, None]
        io.write_matrix_csv(args.trace_out, trace, header=["objective"])
    _log(f"fit written to {args.out_dir} "
         f"(lambda={fit.lam:.6g}, threshold={fit.threshold:.6g})")
    return _exit_code(cv, fit.certified, "fit")


def cmd_cv(args):
    data, _, config, grid = _cv_inputs(args)
    cv = cross_validate(data, config, grid, jobs=args.jobs)
    _ensure_out_dir(args.out_dir)
    L, T = cv.cv_rmse.shape
    rows = [[cv.lambdas[i], cv.thresholds[i, j], cv.cv_rmse[i, j]]
            for i in range(L) for j in range(T)]
    io.write_matrix_csv(os.path.join(args.out_dir, "cv_surface.csv"), rows,
                        header=["lambda", "threshold", "cv_rmse"])
    best = cv.to_dict()
    best["certified"] = bool(cv.full_fit.certified)
    io.write_json(os.path.join(args.out_dir, "cv_best.json"), best)
    _log(f"cv surface written to {args.out_dir}")
    return _exit_code(cv, cv.full_fit.certified, "selected full-data fit")


def _load_sim_config(path):
    if not os.path.exists(path):
        raise CliError(f"config file not found: {path}")
    try:
        payload = io.read_json(path)
    except ValueError as exc:
        raise CliError(f"{path}: invalid JSON ({exc})") from None
    try:
        return SimConfig.from_dict(payload)
    except (TypeError, ValueError) as exc:
        raise CliError(f"{path}: {exc}") from None


def cmd_simulate(args):
    cfg = _load_sim_config(args.config)
    _ensure_out_dir(args.out_dir)
    data, B0 = generate_instance(cfg)
    io.write_matrix_csv(os.path.join(args.out_dir, "X.csv"), data.X)
    io.write_matrix_csv(os.path.join(args.out_dir, "Y.csv"), data.Y)
    io.write_matrix_csv(os.path.join(args.out_dir, "B0.csv"), B0)
    _log(f"instance (n={cfg.n}, p={cfg.p}, q={cfg.q}) written to {args.out_dir}")
    return EXIT_OK


def cmd_benchmark(args):
    cfg = _load_sim_config(args.config)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    # run_benchmark checks the methods, the grid and the jobs before it runs;
    # the file is created only after it returns, so bad input leaves none
    rows = run_benchmark(cfg, methods=methods, lambdas=_lambdas_from(args),
                         n_thresholds=args.n_thresholds, k=args.folds,
                         jobs=args.jobs, progress=_log)
    _ensure_out_dir(os.path.dirname(os.path.abspath(args.out)))
    io.write_rows(args.out, MetricsRow.FIELDS, [r.astuple() for r in rows])
    _log(f"metrics written to {args.out}")
    return EXIT_OK


def cmd_threshold_curve(args):
    if not (0 < args.step < np.inf and 0 < args.zmax < np.inf):
        raise CliError("--step and --zmax must be positive and finite")
    pen = depth_scalar_penalty(_penalty_from(args))
    steps = int(round(args.zmax / args.step))
    z = args.step * np.arange(-steps, steps + 1)
    theta = soft_threshold_depth(z, args.lam, pen)
    io.write_matrix_csv(args.out, np.column_stack([z, theta]),
                        header=["z", "theta_hat"])
    _log(f"threshold curve ({len(z)} points) written to {args.out}")
    return EXIT_OK


def cmd_minimax_check(args):
    pen = depth_scalar_penalty(_penalty_from(args))
    if args.theta_csv is not None:
        if not os.path.exists(args.theta_csv):
            raise CliError(f"input file not found: {args.theta_csv}")
        M, _ = io.read_matrix_csv(args.theta_csv)
        theta = M.ravel()
        if theta.size != args.n:
            raise CliError(f"--theta-csv holds {theta.size} values, expected n = {args.n}")
    else:
        theta = np.zeros(args.n)
    try:
        report = minimax_check(args.n, theta, pen,
                               replications=args.replications, seed=args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    io.write_json(args.out, report.to_dict())
    _log(f"risk report written to {args.out} (within bound: {report.within_bound})")
    return EXIT_OK


COMMANDS = {
    "fit": cmd_fit,
    "cv": cmd_cv,
    "simulate": cmd_simulate,
    "benchmark": cmd_benchmark,
    "threshold-curve": cmd_threshold_curve,
    "minimax-check": cmd_minimax_check,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except CliError as exc:
        _log(f"error: {exc}")
        return EXIT_CONFIG
    # before ValueError: numpy's LinAlgError is a subclass of it
    except (SolverError, np.linalg.LinAlgError, FloatingPointError) as exc:
        _log(f"numeric failure: {exc}")
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        _log(f"error: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
