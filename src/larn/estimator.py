"""Reweighted estimation loop and within-row corrective thresholding.

The nonconvex row-penalized objective

    Q(B) = Tr{(Y - XB)'(Y - XB)} + lam * sum_j p(||b_j||)

is minimized by majorize-minimize: at the current iterate the concave
penalty is replaced by its tangent line in each row norm, which turns the
subproblem into the weighted group lasso of :mod:`larn.group_solver` with
weights w_j = p'(||b_j||).  Because each inner solve starts from the
current iterate and the surrogate touches Q there, the Q-trace never
increases.

:func:`larn_path` runs the loop over a whole lambda grid.  Every level
starts from the least-squares estimate B0, whose weights do not depend on
lambda, so the first round is one batched solve over the grid.  The
default one-step estimator stops there (the first local linear
approximation step; Zou and Li, Ann. Statist. 36(4), 2008); full
iteration to a stationary point, available for diagnostics, goes on with
one batched solve of the unfinished levels per round.

Row-sparse estimates are refined by hard-thresholding small entries inside
surviving rows at a given level: a cross-validated one, or the closed-form
level sqrt(8 log(q*|S|) / (C_min * n)) of :func:`theory_threshold` for an
estimated nonzero-row set S.
"""

import math
import warnings

import numpy as np

from . import group_solver
from .depth_penalty import PenaltySpec, penalty_weight, row_penalty
from .group_solver import _GROUP, SolverSettings, _cd_path, _kkt_rows, row_support
# not called here; perfbench/spans.py wraps this name in this module
from .group_solver import bcd_solve  # noqa: F401


class LarnConfig:
    """Settings for a depth-penalized fit.

    Parameters
    ----------
    penalty : PenaltySpec
        Depth family and inverse transform; its ``lam`` field is ignored in
        favor of the levels passed to :func:`larn_path` or :func:`larn_fit`.
    one_step : bool
        Stop after the first reweighted solve (default).  Set False to
        iterate reweighting to a stationary point.
    unit_weights : bool
        Replace the depth-based weights by 1 for every row (the plain
        thresholded group lasso).

    Every fit starts from the minimum-norm least-squares estimate
    (:func:`initial_estimate`).
    """

    def __init__(self, penalty=None, one_step=True, max_outer_iters=50,
                 outer_tol=1e-8, unit_weights=False, solver=None):
        self.penalty = PenaltySpec() if penalty is None else penalty
        self.one_step = bool(one_step)
        if max_outer_iters < 1:
            raise ValueError("max_outer_iters must be a positive integer")
        if outer_tol <= 0:
            raise ValueError("outer_tol must be positive")
        self.max_outer_iters = int(max_outer_iters)
        self.outer_tol = float(outer_tol)
        self.unit_weights = bool(unit_weights)
        self.solver = SolverSettings() if solver is None else solver


class FitResult:
    """Fit output: estimates, tuning values, and per-solve diagnostics."""

    def __init__(self, b_hat, lam, threshold, objective_trace, kkt_residuals,
                 outer_iters):
        self.b_hat = b_hat
        self.lam = lam
        self.threshold = threshold
        self.objective_trace = objective_trace
        self.kkt_residuals = kkt_residuals
        self.outer_iters = outer_iters

    def to_dict(self):
        """JSON-ready summary (matrices reported through their supports)."""
        return {
            "lambda": self.lam,
            "threshold": self.threshold,
            "outer_iters": self.outer_iters,
            "objective_trace": [float(v) for v in self.objective_trace],
            "kkt_residuals": [float(v) for v in self.kkt_residuals],
            "row_support_size": int(len(row_support(self.b_hat))),
            "element_support_size": int(np.count_nonzero(self.b_hat)),
            "shape": list(self.b_hat.shape),
        }


def initial_estimate(data):
    """Starting matrix for the reweighted loop: minimum-norm least squares.

    Solved through a pseudo-inverse path; warns when X'X is rank deficient.
    """
    B0, _, rank, _ = np.linalg.lstsq(data.X, data.Y, rcond=None)
    if rank < data.p:
        warnings.warn(f"X'X is rank deficient (rank {rank} < p = {data.p}); "
                      "using the minimum-norm least-squares start",
                      RuntimeWarning, stacklevel=2)
    return B0


def group_weights(B, spec, unit=False):
    """Row weights p'(||b_j||) at the reference iterate (or all ones).

    B is one (p, q) matrix, giving (p,), or a stack (L, p, q), giving (L, p).
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if unit:
        return np.ones(B.shape[:-1])
    return np.asarray(penalty_weight(np.linalg.norm(B, axis=-1), spec))


def true_objective(data, B, spec):
    """Nonconvex objective: fit term plus lam * sum_j p(||b_j||)."""
    B = np.asarray(B, dtype=float)
    if not np.all(np.isfinite(B)):
        raise ValueError("coefficient matrix contains non-finite entries")
    R = data.Y - data.X @ B
    return float(np.sum(R * R)) + row_penalty(B, spec)


def larn_path(data, config, lambdas):
    """Run the reweighted group-lasso loop at every penalty level of a grid.

    Every level starts from the least-squares estimate B0 with the weights
    taken there, which do not depend on lambda, so round one is a single
    batched :func:`larn.group_solver.bcd_solve_path` call over the grid;
    one-step mode stops after it and reports the inner objective traces.
    In full mode each later round re-solves the unfinished levels as one
    batched kernel call, each from its own iterate and with the weights
    taken there, until the relative change in the nonconvex objective of a
    level drops below ``config.outer_tol`` or ``config.max_outer_iters``
    rounds have run; its trace then holds the nonconvex objective at B0 and
    after each round and is nonincreasing.

    Returns one :class:`FitResult` per level whose ``b_hat`` is the
    pre-threshold estimate (apply :func:`within_row_threshold` separately).
    Its KKT residuals are those of the weighted problem at the weights of
    the last reweighting: B0's in one-step mode, the returned estimate's in
    full mode.  Warns (``RuntimeWarning``) once per call for the ``exp``
    transform, whose concavity is not guaranteed.
    """
    if not config.penalty.concavity_guaranteed and not config.unit_weights:
        warnings.warn("exp inverse-depth transform: penalty concavity is not "
                      "guaranteed, descent of the outer loop may fail",
                      RuntimeWarning, stacklevel=2)
    lambdas = np.atleast_1d(np.asarray(lambdas, dtype=float))
    B0 = initial_estimate(data)
    w = group_weights(B0, config.penalty, unit=config.unit_weights)
    # called through the module, where perfbench/spans.py installs its wrapper
    stack, traces = group_solver.bcd_solve_path(data, w, lambdas, init=B0, settings=config.solver)
    weights = w[:, None]                   # B0's at every level; (p, L) once reweighted
    iters = np.ones(len(lambdas), dtype=int)
    if not config.one_step:
        traces = [[true_objective(data, B0, config.penalty.with_lam(lam))] for lam in lambdas]
        todo = np.arange(len(lambdas))
        while True:
            for i in todo:
                traces[i].append(true_objective(data, stack[i],
                                                config.penalty.with_lam(lambdas[i])))
            weights = group_weights(stack, config.penalty, unit=config.unit_weights).T
            rel = np.array([abs(traces[i][-2] - traces[i][-1]) / max(1.0, abs(traces[i][-2]))
                            for i in todo])
            todo = todo[(rel >= config.outer_tol) & (iters[todo] < config.max_outer_iters)]
            if todo.size == 0:
                break
            # each level starts at its own iterate, where its surrogate touches
            # Q, so the inner solve cannot increase Q
            stack[todo] = _cd_path(data, weights[:, todo], lambdas[todo], stack[todo],
                                   config.solver, _GROUP)[0]
            iters[todo] += 1
    G = data.X.T @ (data.Y - data.X @ stack)               # (L, p, q)
    kkt = _kkt_rows(G.transpose(1, 0, 2), stack.transpose(1, 0, 2), weights * lambdas)
    return [FitResult(B, float(lam), 0.0, trace, kkt[:, i], outer_iters=int(n))
            for i, (B, lam, trace, n) in enumerate(zip(stack, lambdas, traces, iters))]


def larn_fit(data, config, lam):
    """:func:`larn_path` at the single level ``lam``.

    Warns (``RuntimeWarning``) when the largest KKT residual of the result
    exceeds ``config.solver.kkt_tol``.
    """
    fit, = larn_path(data, config, [lam])
    _warn_uncertified(fit.lam, fit.kkt_residuals, config.solver.kkt_tol)
    return fit


def _warn_uncertified(lam, kkt, tol):
    worst = float(np.max(kkt))
    if worst > tol:
        warnings.warn(f"fit at lambda = {lam:g} is not certified: KKT residual "
                      f"{worst:.3g} exceeds the tolerance {tol:g}",
                      RuntimeWarning, stacklevel=3)


def theory_threshold(n, q, s_hat_size, c_min):
    """Closed-form within-row threshold sqrt(8 log(q*s) / (C_min * n))."""
    if c_min <= 0:
        raise ValueError("C_min must be positive")
    if n < 1:
        raise ValueError("n must be a positive integer")
    qs = q * s_hat_size
    if qs <= 1:
        raise ValueError(f"q * |S| = {qs} must exceed 1 for a positive log")
    return math.sqrt(8.0 * math.log(qs) / (c_min * n))


def within_row_threshold(B, t):
    """Zero the entries of nonzero rows whose magnitude is at most ``t``.

    ``t`` is a float level, such as a cross-validated one or
    :func:`theory_threshold`.  Surviving entries are kept unchanged (hard
    thresholding, no re-shrinkage); rows that are already zero stay zero.
    """
    out = np.array(B, dtype=float)
    out[np.abs(out) <= float(t)] = 0.0
    return out
