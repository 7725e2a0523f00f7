"""Reweighted estimation loop and within-row corrective thresholding.

The nonconvex row-penalized objective

    Q(B) = Tr{(Y - XB)'(Y - XB)} + lam * sum_j p(||b_j||)

is minimized by majorize-minimize: at the current iterate the concave
penalty is replaced by its tangent line in each row norm, which turns the
subproblem into the weighted group lasso of :mod:`larn.group_solver` with
weights w_j = p'(||b_j||).  Because each inner solve starts from the
current iterate and the surrogate touches Q there, the Q-trace never
increases.

The default mode stops after the first reweighted solve from the
least-squares start (the one-step estimator); full iteration to a
stationary point is available for diagnostics.  Row-sparse estimates are
refined by hard-thresholding small entries inside surviving rows at a
given level: a cross-validated one, or the closed-form level
sqrt(8 log(q*|S|) / (C_min * n)) of :func:`theory_threshold` for an
estimated nonzero-row set S.
"""

import math
import warnings

import numpy as np

from .depth_penalty import PenaltySpec, penalty_weight, row_penalty
from .group_solver import SolverSettings, bcd_solve, kkt_residual, row_support


class LarnConfig:
    """Settings for a depth-penalized fit.

    Parameters
    ----------
    penalty : PenaltySpec
        Depth family and inverse transform; its ``lam`` field is ignored in
        favor of the ``lam`` argument passed to :func:`larn_fit`.
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
    """Row weights p'(||b_j||) at the reference iterate (or all ones)."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if unit:
        return np.ones(B.shape[0])
    return np.asarray(penalty_weight(np.linalg.norm(B, axis=1), spec))


def true_objective(data, B, spec):
    """Nonconvex objective: fit term plus lam * sum_j p(||b_j||)."""
    B = np.asarray(B, dtype=float)
    if not np.all(np.isfinite(B)):
        raise ValueError("coefficient matrix contains non-finite entries")
    R = data.Y - data.X @ B
    return float(np.sum(R * R)) + row_penalty(B, spec)


def larn_fit(data, config, lam):
    """Run the reweighted group-lasso loop at a fixed penalty level.

    One-step mode performs a single weighted solve with weights taken at
    the initial estimate and reports the inner objective trace.  Full mode
    repeats reweight-and-solve until the relative change in the nonconvex
    objective drops below ``config.outer_tol``; the trace then holds the
    nonconvex objective at the start and after each outer iteration and is
    nonincreasing.

    Returns a :class:`FitResult` whose ``b_hat`` equals the pre-threshold
    estimate (apply :func:`within_row_threshold` separately).  Warns
    (``RuntimeWarning``) when the largest KKT residual of the result exceeds
    ``config.solver.kkt_tol``.
    """
    if lam < 0 or not np.isfinite(lam):
        raise ValueError("lam must be a nonnegative finite real")
    spec = config.penalty.with_lam(lam)
    if not spec.concavity_guaranteed and not config.unit_weights:
        warnings.warn("exp inverse-depth transform: penalty concavity is not "
                      "guaranteed, descent of the outer loop may fail",
                      RuntimeWarning, stacklevel=2)

    B = initial_estimate(data)
    if config.one_step:
        w = group_weights(B, spec, unit=config.unit_weights)
        B1, trace = bcd_solve(data, w, lam, init=B, settings=config.solver)
        kkt = kkt_residual(data, B1, w, lam)
        _warn_uncertified(lam, kkt, config.solver.kkt_tol)
        return FitResult(B1, lam, 0.0, trace, kkt, outer_iters=1)

    q_trace = [true_objective(data, B, spec)]
    w = group_weights(B, spec, unit=config.unit_weights)
    iters = 0
    for _ in range(config.max_outer_iters):
        # warm start at the current iterate: the surrogate touches Q there,
        # so the inner solver cannot increase Q
        B, _ = bcd_solve(data, w, lam, init=B, settings=config.solver)
        iters += 1
        q_trace.append(true_objective(data, B, spec))
        rel = abs(q_trace[-2] - q_trace[-1]) / max(1.0, abs(q_trace[-2]))
        w = group_weights(B, spec, unit=config.unit_weights)
        if rel < config.outer_tol:
            break
    kkt = kkt_residual(data, B, w, lam)
    _warn_uncertified(lam, kkt, config.solver.kkt_tol)
    return FitResult(B, lam, 0.0, q_trace, kkt, outer_iters=iters)


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
