"""Command-line front end.

Subcommands
-----------
fit              cross-validate on CSV data, write the selected fit + JSON
cv               cross-validate only, write the error surface + best pair
simulate         draw a benchmark instance to X.csv / Y.csv / B0.csv
benchmark        run the replication study, write the long-format metrics CSV
threshold-curve  tabulate the scalar rule theta_hat(z) as CSV
minimax-check    Monte Carlo risk report as JSON

Exit codes: 0 success, 1 numeric/solver failure, 2 I/O or configuration
failure.  Progress goes to stderr; data only to the output files.
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
from .simbench import SimConfig, run_benchmark

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_CONFIG = 2


class CliError(Exception):
    """Configuration or I/O problem; maps to exit code 2."""


def _log(msg):
    print(msg, file=sys.stderr)


def _add_penalty_flags(parser):
    parser.add_argument("--depth", choices=["halfspace", "projection"],
                        default="halfspace")
    parser.add_argument("--transform", choices=["max", "exp"], default="max")


def _add_grid_flags(parser):
    parser.add_argument("--lambda-scale", choices=["log10", "linear-positive"],
                        default="log10")
    parser.add_argument("--n-lambdas", type=int, default=100)
    parser.add_argument("--lambdas", type=str, default=None,
                        help="explicit comma-separated penalty levels (overrides the scale flags)")
    parser.add_argument("--n-thresholds", type=int, default=100)
    parser.add_argument("--thresholds", type=str, default=None,
                        help="explicit comma-separated threshold levels")
    parser.add_argument("--folds", type=int, default=5)
    parser.add_argument("--one-step", choices=["true", "false"], default="true")


def build_parser():
    parser = argparse.ArgumentParser(prog="larn",
                                     description="depth-penalized multitask sparse regression")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="cross-validate and write the selected estimate")
    p_fit.add_argument("--x", required=True, help="design matrix CSV")
    p_fit.add_argument("--y", required=True, help="response matrix CSV")
    p_fit.add_argument("--out-dir", required=True)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--jobs", type=int, default=1)
    p_fit.add_argument("--trace-out", default=None,
                       help="optional CSV path for the solver objective trace")
    _add_penalty_flags(p_fit)
    _add_grid_flags(p_fit)

    p_cv = sub.add_parser("cv", help="cross-validate only; write surface + best pair")
    p_cv.add_argument("--x", required=True)
    p_cv.add_argument("--y", required=True)
    p_cv.add_argument("--out-dir", required=True)
    p_cv.add_argument("--seed", type=int, default=0)
    p_cv.add_argument("--jobs", type=int, default=1)
    _add_penalty_flags(p_cv)
    _add_grid_flags(p_cv)

    p_sim = sub.add_parser("simulate", help="draw a synthetic instance")
    p_sim.add_argument("--config", required=True, help="SimConfig JSON path")
    p_sim.add_argument("--out-dir", required=True)

    p_bench = sub.add_parser("benchmark", help="replication study")
    p_bench.add_argument("--config", required=True, help="SimConfig JSON path")
    p_bench.add_argument("--out", required=True, help="metrics CSV path")
    p_bench.add_argument("--methods", default="larn,tgl,seplasso")
    p_bench.add_argument("--jobs", type=int, default=1)
    p_bench.add_argument("--n-lambdas", type=int, default=100)
    p_bench.add_argument("--n-thresholds", type=int, default=100)
    p_bench.add_argument("--folds", type=int, default=5)

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


def _grid_from(args):
    if args.lambdas is not None:
        lambdas = _parse_floats(args.lambdas, "--lambdas")
    else:
        lambdas = default_lambdas(num=args.n_lambdas, scale=args.lambda_scale)
    thresholds = None
    if args.thresholds is not None:
        thresholds = _parse_floats(args.thresholds, "--thresholds")
    return CvGrid(lambdas=lambdas, thresholds=thresholds,
                  n_thresholds=args.n_thresholds, k=args.folds, seed=args.seed)


def _parse_floats(text, flag):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliError(f"{flag}: {exc}") from None


def _load_dataset(x_path, y_path):
    for path in (x_path, y_path):
        if not os.path.exists(path):
            raise CliError(f"input file not found: {path}")
    X, _ = io.read_matrix_csv(x_path)
    Y, y_header = io.read_matrix_csv(y_path)
    if X.shape[0] != Y.shape[0]:
        raise CliError(f"row count mismatch: {x_path} has {X.shape[0]} rows, "
                       f"{y_path} has {Y.shape[0]}")
    return Dataset(X, Y), y_header


def _ensure_out_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create output directory {path}: {exc}") from None


def cmd_fit(args):
    data, y_header = _load_dataset(args.x, args.y)
    _ensure_out_dir(args.out_dir)
    config = LarnConfig(penalty=_penalty_from(args),
                        one_step=(args.one_step == "true"))
    fit, cv = fit_with_selection(data, config, _grid_from(args), jobs=args.jobs)
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
    return EXIT_OK


def cmd_cv(args):
    data, _ = _load_dataset(args.x, args.y)
    _ensure_out_dir(args.out_dir)
    config = LarnConfig(penalty=_penalty_from(args),
                        one_step=(args.one_step == "true"))
    cv = cross_validate(data, config, _grid_from(args), jobs=args.jobs)
    L, T = cv.cv_rmse.shape
    rows = [[cv.lambdas[i], cv.thresholds[i, j], cv.cv_rmse[i, j]]
            for i in range(L) for j in range(T)]
    io.write_matrix_csv(os.path.join(args.out_dir, "cv_surface.csv"), rows,
                        header=["lambda", "threshold", "cv_rmse"])
    io.write_json(os.path.join(args.out_dir, "cv_best.json"), cv.to_dict())
    _log(f"cv surface written to {args.out_dir}")
    return EXIT_OK


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
    from .simbench import generate_instance
    cfg = _load_sim_config(args.config)
    _ensure_out_dir(args.out_dir)
    data, B0 = generate_instance(cfg)
    io.write_matrix_csv(os.path.join(args.out_dir, "X.csv"), data.X)
    io.write_matrix_csv(os.path.join(args.out_dir, "Y.csv"), data.Y)
    io.write_matrix_csv(os.path.join(args.out_dir, "B0.csv"), B0)
    _log(f"instance (n={cfg.n}, p={cfg.p}, q={cfg.q}) written to {args.out_dir}")
    return EXIT_OK


def cmd_benchmark(args):
    from .simbench import METHODS, MetricsRow
    cfg = _load_sim_config(args.config)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise CliError(f"unknown methods {unknown}; choose from {list(METHODS)}")
    out_dir = os.path.dirname(os.path.abspath(args.out))
    _ensure_out_dir(out_dir)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(MetricsRow.FIELDS) + "\n")
        fh.flush()
        lambdas = default_lambdas(num=args.n_lambdas)
        rows = run_benchmark(cfg, methods=methods, lambdas=lambdas,
                             n_thresholds=args.n_thresholds, k=args.folds,
                             jobs=args.jobs, progress=_log)
        for row in rows:
            setting, rho, rep, method, err, mae, tp, tn = row.astuple()
            fh.write(",".join([setting, io.fmt(rho), str(rep), method,
                               io.fmt(err), io.fmt(mae), io.fmt(tp), io.fmt(tn)]) + "\n")
            fh.flush()
    _log(f"metrics written to {args.out}")
    return EXIT_OK


def cmd_threshold_curve(args):
    if args.step <= 0 or args.zmax <= 0:
        raise CliError("--step and --zmax must be positive")
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
    except (ValueError, OSError) as exc:
        _log(f"error: {exc}")
        return EXIT_CONFIG
    except (SolverError, np.linalg.LinAlgError, FloatingPointError) as exc:
        _log(f"numeric failure: {exc}")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
