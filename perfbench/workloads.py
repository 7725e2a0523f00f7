"""The three workloads: what each sets up, runs per round, and checks.

A round is one closed-loop call into larn; the next starts when it ends.
Instances are fixed per workload (see README.md), so every run does the
same solver work.  On ``tall-cli-fit`` ``--seed`` drives the
cross-validation fold layout of each round.  ``paper-replication`` and
``wide-fit`` keep fold seed 0: fold layouts move the replication's work by
about 10%, and ``wide-fit``'s uncertified solves must be the same ones on
every run.
"""

import json
import os

import numpy as np

import checks


def fold_seed(seed, round_index):
    """Fold-assignment seed of one round, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, round_index]).generate_state(1)[0])


class RoundCheck:
    """Operations attempted and failed in one round, and what was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.worst_kkt = 0.0
        self.problems = []
        self.call_failures = []
        self.fit_seconds = []

    def add_solves(self, larn, solves):
        levels, failed, worst = checks.kkt_failures(
            larn.group_solver.kkt_residual, larn.group_solver.SolverSettings().kkt_tol,
            solves)
        self.attempted += levels
        self.failed += failed
        self.worst_kkt = max(self.worst_kkt, worst)

    def add_call_failure(self, what):
        self.attempted += 1
        self.failed += 1
        self.call_failures.append(what)


class Workload:
    """Common round bookkeeping; subclasses define setup, run and check."""

    name = ""
    lambdas = None
    fit_is_round = False      # fit_s times the whole round, not fit_with_selection

    def __init__(self, larn, recorder):
        self.larn = larn
        self.recorder = recorder
        self.evidence = {}        # last verified outputs, for the self-test

    def check(self, state, outcome, error):
        out = RoundCheck()
        solves = self.recorder.take_calls("group_solver.bcd_solve_path")
        out.add_solves(self.larn, solves)
        if solves:
            self.evidence["solve"] = solves[-1]
        fits = self.recorder.take_calls("model_selection.fit_with_selection")
        out.fit_seconds = [seconds for *_, seconds in fits]
        metric_calls = self.recorder.take_calls("simbench.metrics")
        if error is not None:
            out.add_call_failure(repr(error))
            return out
        self.check_outputs(state, outcome, fits, metric_calls, out)
        return out

    def agree(self, out, label, b_hat, X, Y, lam, threshold, unit_weights=False):
        if not np.any(self.lambdas == lam):
            out.problems.append(f"{label}: selected lambda {lam!r} is not on the grid")
            return
        try:
            B_ref = checks.reference_fit(X, Y, lam, unit_weights)
        except RuntimeError as exc:
            out.problems.append(f"{label}: {exc}")
            return
        err = checks.agreement_error(b_hat, B_ref, threshold)
        if err > checks.AGREEMENT_TOL:
            out.problems.append(f"{label}: fit differs from the reference by {err:.3g}")
        self.evidence["fit"] = (np.array(b_hat, dtype=float), B_ref, threshold)

    def self_test(self):
        """Show that the checks reject perturbed outputs; returns problems."""
        problems = []
        b_hat, B_ref, threshold = self.evidence["fit"]
        if checks.agreement_error(checks.perturbed(b_hat), B_ref, threshold) \
                <= checks.AGREEMENT_TOL:
            problems.append("self-test: a perturbed coefficient passed the agreement check")
        gs = self.larn.group_solver
        args, _, (stack, _), _ = self.evidence["solve"]
        lam = float(np.atleast_1d(args[2])[-1])
        if np.max(gs.kkt_residual(args[0], checks.perturbed(stack[-1]), args[1], lam)) \
                <= gs.SolverSettings().kkt_tol:
            problems.append("self-test: a perturbed solve passed the KKT check")
        return problems


class PaperReplication(Workload):
    """simbench.run_benchmark on the paper's setting, all three methods."""

    name = "paper-replication"
    sim = dict(n=50, p=20, q=20, rho=0.7, seed=1, replications=1)
    lambdas = np.logspace(-2, 4, 100)      # the grid of acceptance test 07
    cv_seed = 0

    def setup(self, seed, workdir):
        return {"cfg": self.larn.simbench.SimConfig(**self.sim)}

    def run(self, state, i):
        return self.larn.simbench.run_benchmark(
            state["cfg"], lambdas=self.lambdas, n_thresholds=100, k=5,
            cv_seed=self.cv_seed, jobs=1)

    def check_outputs(self, state, rows, fits, metric_calls, out):
        methods = [row.method for row in rows]
        if methods != list(self.larn.simbench.METHODS):
            for _ in range(len(self.larn.simbench.METHODS) - len(rows)):
                out.add_call_failure("replication dropped a method")
            out.problems.append(f"replication rows {methods}")
            return
        for row, (args, _, _, _) in zip(rows, metric_calls):
            problem = checks.metrics_error(row, args[0], args[1])
            if problem:
                out.problems.append(f"{row.method}: {problem}")
        for method, (args, _, (fit, _), _) in zip(methods, fits):
            data, config = args[0], args[1]
            b_passed = metric_calls[methods.index(method)][0][0]
            if not np.array_equal(b_passed, fit.b_hat):
                out.problems.append(f"{method}: scored estimate is not the selected fit")
            self.agree(out, method, fit.b_hat, data.X, data.Y, fit.lam, fit.threshold,
                       unit_weights=config.unit_weights)
        self.evidence["row"] = (rows[0], metric_calls[0][0][0], metric_calls[0][0][1])

    def self_test(self):
        problems = super().self_test()
        row, B_hat, B0 = self.evidence["row"]
        bad = self.larn.simbench.MetricsRow(*row.astuple())
        bad.mae += checks.PERTURBATION
        if checks.metrics_error(bad, B_hat, B0) is None:
            problems.append("self-test: a perturbed metric passed the metrics check")
        return problems


class TallCliFit(Workload):
    """``larn fit`` through larn.cli.main on CSV files of a tall instance."""

    name = "tall-cli-fit"
    sim = dict(n=1000, p=50, q=20, rho=0.7, seed=1)
    lambdas = np.logspace(-2, 4, 10)
    jobs = 2
    fit_is_round = True       # fit_s includes CSV reading and writing

    def setup(self, seed, workdir):
        larn = self.larn
        data, _ = larn.simbench.generate_instance(larn.simbench.SimConfig(**self.sim))
        x_path = os.path.join(workdir, "X.csv")
        y_path = os.path.join(workdir, "Y.csv")
        larn.io.write_matrix_csv(x_path, data.X)
        larn.io.write_matrix_csv(y_path, data.Y)
        return {"seed": seed, "data": data, "x": x_path, "y": y_path, "workdir": workdir}

    def run(self, state, i):
        out_dir = os.path.join(state["workdir"], f"fit-{i}")
        argv = ["fit", "--x", state["x"], "--y", state["y"], "--out-dir", out_dir,
                "--lambdas", ",".join(repr(float(v)) for v in self.lambdas),
                "--folds", "5", "--seed", str(fold_seed(state["seed"], i)),
                "--jobs", str(self.jobs)]
        return self.larn.cli.main(argv), out_dir

    def check_outputs(self, state, outcome, fits, metric_calls, out):
        code, out_dir = outcome
        if code != 0:
            out.add_call_failure(f"larn fit exited with {code}")
            return
        if "X_read" not in state:
            # the CLI reads what setup wrote; the CSV round trip must be exact
            X = np.loadtxt(state["x"], delimiter=",", skiprows=1, ndmin=2)
            Y = np.loadtxt(state["y"], delimiter=",", skiprows=1, ndmin=2)
            if not (np.array_equal(X, state["data"].X) and np.array_equal(Y, state["data"].Y)):
                out.problems.append("input CSV files do not round-trip the instance")
            state["X_read"], state["Y_read"] = X, Y
        with open(os.path.join(out_dir, "fit.json"), encoding="utf-8") as fh:
            fit = json.load(fh)
        b_hat = np.loadtxt(os.path.join(out_dir, "coefficients.csv"), delimiter=",",
                           skiprows=1, ndmin=2)
        self.agree(out, "larn fit", b_hat, state["X_read"], state["Y_read"],
                   fit["lambda"], fit["threshold"])


class WideFit(Workload):
    """model_selection.fit_with_selection on a p > n instance."""

    name = "wide-fit"
    sim = dict(n=50, p=60, q=10, rho=0.7, seed=1)
    lambdas = np.logspace(-2, 4, 10)
    cv_seed = 0

    def setup(self, seed, workdir):
        larn = self.larn
        data, _ = larn.simbench.generate_instance(larn.simbench.SimConfig(**self.sim))
        return {"data": data}

    def run(self, state, i):
        larn = self.larn
        grid = larn.model_selection.CvGrid(lambdas=self.lambdas, n_thresholds=100,
                                           k=3, seed=self.cv_seed)
        return larn.model_selection.fit_with_selection(
            state["data"], larn.estimator.LarnConfig(), grid, jobs=1)

    def check_outputs(self, state, outcome, fits, metric_calls, out):
        fit, _ = outcome
        data = state["data"]
        self.agree(out, "fit", fit.b_hat, data.X, data.Y, fit.lam, fit.threshold)


WORKLOADS = {w.name: w for w in (PaperReplication, TallCliFit, WideFit)}
