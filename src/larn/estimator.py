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
one batched solve of the unfinished levels per round.  A level is
stationary for Q exactly when its estimate passes the KKT test of the
weighted problem at the weights taken there, so full mode stops a level
on that certificate.

Row-sparse estimates are refined by hard-thresholding small entries inside
surviving rows at a given level: a cross-validated one, or the closed-form
level sqrt(8 log(q*|S|) / (C_min * n)) of :func:`theory_threshold` for an
estimated nonzero-row set S.
"""

import math
import warnings

import numpy as np

from . import group_solver
from .depth_penalty import PenaltySpec, inverse_depth, penalty_weight
from .group_solver import _GROUP, SolverSettings, _cd_path, _path_kkt, row_support
# not called here; perfbench/spans.py wraps this name in this module
from .group_solver import bcd_solve  # noqa: F401


class LarnConfig:
    """Settings for a depth-penalized fit.

    Parameters
    ----------
    penalty : PenaltySpec
        Depth family and inverse transform; the penalty levels are passed
        to :func:`larn_path` or :func:`larn_fit`.
    one_step : bool
        Stop after the first reweighted solve (default).  Set False to
        iterate reweighting until each level is certified stationary.
    max_outer_iters : int
        Most reweighting rounds per level in full mode; a level still not
        certified then is returned flagged.
    unit_weights : bool
        Replace the depth-based weights by 1 for every row (the plain
        thresholded group lasso).
    solver : SolverSettings
        Sweep cap and KKT tolerance of the inner solves; the tolerance is
        also the certificate of every fit, and full mode's stop rule.

    Every fit starts from the minimum-norm least-squares estimate
    (:func:`initial_estimate`).
    """

    def __init__(self, penalty=None, one_step=True, max_outer_iters=50,
                 unit_weights=False, solver=None):
        self.penalty = PenaltySpec() if penalty is None else penalty
        self.one_step = bool(one_step)
        if max_outer_iters < 1:
            raise ValueError("max_outer_iters must be a positive integer")
        self.max_outer_iters = int(max_outer_iters)
        self.unit_weights = bool(unit_weights)
        self.solver = SolverSettings() if solver is None else solver


class FitResult:
    """Fit output: estimates, tuning values, and per-solve diagnostics.

    ``certified`` is whether the largest KKT residual was within the
    solver's ``kkt_tol``.
    """

    def __init__(self, b_hat, lam, threshold, objective_trace, kkt_residuals,
                 outer_iters, certified):
        self.b_hat = b_hat
        self.lam = lam
        self.threshold = threshold
        self.objective_trace = objective_trace
        self.kkt_residuals = kkt_residuals
        self.outer_iters = outer_iters
        self.certified = certified

    def to_dict(self):
        """JSON-ready summary (matrices reported through their supports)."""
        return {
            "lambda": self.lam,
            "threshold": self.threshold,
            "outer_iters": self.outer_iters,
            "objective_trace": [float(v) for v in self.objective_trace],
            "kkt_residuals": [float(v) for v in self.kkt_residuals],
            "certified": bool(self.certified),
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


def true_objective(data, B, spec, lam):
    """Nonconvex objective Q(B) = ||Y - XB||_F^2 + lam * sum_j p(||b_j||).

    ``B`` is one (p, q) matrix with a level ``lam``, giving a float, or a
    stack (L, p, q) with levels (L,), giving (L,).
    """
    B = np.asarray(B, dtype=float)
    if not np.all(np.isfinite(B)):
        raise ValueError("coefficient matrix contains non-finite entries")
    R = data.Y - data.X @ B
    pen = np.sum(inverse_depth(np.linalg.norm(B, axis=-1), spec), axis=-1)
    out = np.einsum("...nq,...nq->...", R, R) + lam * pen
    return float(out) if B.ndim == 2 else out


def larn_path(data, config, lambdas):
    """Run the reweighted group-lasso loop at every penalty level of a grid.

    Every level starts from the least-squares estimate B0 with the weights
    taken there, which do not depend on lambda, so round one is a single
    batched :func:`larn.group_solver.bcd_solve_path` call over the grid;
    one-step mode stops after it and reports the inner objective traces.
    In full mode each later round re-solves the unfinished levels as one
    batched kernel call, each from its own iterate and with the weights
    taken there.  A level stops once the KKT residual of the weighted
    problem at the weights taken at its own estimate is at most
    ``config.solver.kkt_tol`` (the estimate is then a certified stationary
    point of the nonconvex objective), or after ``config.max_outer_iters``
    rounds; its trace holds the nonconvex objective at B0 and after each
    round and is nonincreasing.

    Returns one :class:`FitResult` per level whose ``b_hat`` is the
    pre-threshold estimate (apply :func:`within_row_threshold` separately).
    Its KKT residuals are those of the weighted problem at the weights of
    the last reweighting: B0's in one-step mode, the returned estimate's in
    full mode; it is ``certified`` when none exceeds
    ``config.solver.kkt_tol``.  Warns (``RuntimeWarning``) once per call
    for the ``exp`` transform, whose concavity is not guaranteed.
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
    weights = np.repeat(w[:, None], len(lambdas), axis=1)   # (p, L); B0's until reweighted
    kkt = _path_kkt(data, stack, weights, lambdas)
    iters = np.ones(len(lambdas), dtype=int)
    if not config.one_step:
        traces = [[q] for q in true_objective(data, np.broadcast_to(B0, stack.shape),
                                              config.penalty, lambdas).tolist()]
        todo = np.arange(len(lambdas))
        while True:
            for i, q in zip(todo, true_objective(data, stack[todo], config.penalty,
                                                 lambdas[todo]).tolist()):
                traces[i].append(q)
            weights[:, todo] = group_weights(stack[todo], config.penalty,
                                             unit=config.unit_weights).T
            kkt[:, todo] = _path_kkt(data, stack[todo], weights[:, todo], lambdas[todo])
            todo = todo[(kkt[:, todo].max(axis=0) > config.solver.kkt_tol)
                        & (iters[todo] < config.max_outer_iters)]
            if todo.size == 0:
                break
            # each level starts at its own iterate, where its surrogate touches
            # Q, so the inner solve cannot increase Q
            stack[todo] = _cd_path(data, weights[:, todo], lambdas[todo], stack[todo],
                                   config.solver, _GROUP)[0]
            iters[todo] += 1
    return [FitResult(B, float(lam), 0.0, trace, kkt[:, i], int(n),
                      bool(kkt[:, i].max() <= config.solver.kkt_tol))
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
