"""k-fold cross-validation over the (penalty, threshold) grid.

Thresholding happens after estimation, so scanning the threshold axis
costs nothing beyond re-scoring: for every (lambda, fold) pair exactly one
pre-threshold model is fit, then the whole threshold grid is applied to
that fit.  A run therefore performs k * len(lambdas) inner solves, never
k * len(lambdas) * len(thresholds).  The full-data fit at each lambda sets
its threshold grid, and the one at the selected lambda is the returned
estimate: no (training set, lambda) pair is solved twice.

Fits along the lambda axis share the split's initial estimate B0 (whose
weights do not depend on lambda) and run as one batched solve in which
every level starts from B0, not from another level's solution.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .estimator import (FitResult, _warn_uncertified, group_weights, initial_estimate,
                        larn_fit, within_row_threshold)
from .group_solver import SolverError, _kkt_rows, bcd_solve_path


def default_lambdas(num=100, scale="log10", low=-2.0, high=2.0):
    """Penalty grid: num values 10^u for u equally spaced in (low, high).

    ``scale="linear-positive"`` instead spaces the values linearly over the
    positive part of (low, high); a literal linear grid on (-2, 2) would
    contain nonpositive penalty levels, which are ill-posed.
    """
    if scale == "log10":
        return np.logspace(low, high, num)
    if scale == "linear-positive":
        step = (high - low) / (num + 1)
        vals = low + step * np.arange(1, num + 1)
        return vals[vals > 0]
    raise ValueError(f"unknown lambda scale {scale!r}")


def threshold_grid(max_abs, num=100):
    """num threshold levels equally spaced from 0 to 0.9 * max_abs."""
    return np.linspace(0.0, 0.9 * max_abs, num)


class CvGrid:
    """Tuning grids and fold layout for cross-validation.

    ``thresholds=None`` (the default) builds a per-lambda grid of
    ``n_thresholds`` levels up to 0.9 * max|B| of the full-data fit at that
    lambda; an explicit array is shared across lambdas.
    """

    def __init__(self, lambdas=None, thresholds=None, n_thresholds=100,
                 k=5, seed=0):
        self.lambdas = default_lambdas() if lambdas is None else np.sort(
            np.asarray(lambdas, dtype=float))
        if self.lambdas.size == 0:
            raise ValueError("lambda grid is empty")
        if np.any(self.lambdas < 0) or not np.all(np.isfinite(self.lambdas)):
            raise ValueError("lambda grid must be finite and nonnegative")
        self.thresholds = None
        if thresholds is not None:
            self.thresholds = np.sort(np.asarray(thresholds, dtype=float))
            if self.thresholds.size == 0:
                raise ValueError("threshold grid is empty")
            if np.any(self.thresholds < 0):
                raise ValueError("thresholds must be nonnegative")
            n_thresholds = self.thresholds.size
        if n_thresholds < 1:
            raise ValueError("n_thresholds must be positive")
        self.n_thresholds = int(n_thresholds)
        if k < 2:
            raise ValueError("fold count k must be at least 2")
        self.k = int(k)
        self.seed = seed


class CvResult:
    """Cross-validation surface and the selected pair.

    Attributes
    ----------
    cv_rmse : ndarray (L, T)
        Pooled held-out error for every (lambda, threshold) cell.
    thresholds : ndarray (L, T)
        Actual threshold values per lambda row.
    best : (float, float)
        Selected (lambda, threshold); ties broken toward larger lambda,
        then larger threshold.
    per_fold_sse : ndarray (k, L, T)
        Held-out sum of squares per fold.
    fit_count : int
        Inner solves performed for scoring (k * L by construction).
    full_fit : FitResult
        Pre-threshold full-data fit at the selected lambda.
    """

    def __init__(self, lambdas, thresholds, cv_rmse, per_fold_sse, best_index,
                 fit_count, full_fit):
        self.lambdas = lambdas
        self.thresholds = thresholds
        self.cv_rmse = cv_rmse
        self.per_fold_sse = per_fold_sse
        self.best_index = best_index
        self.fit_count = fit_count
        self.full_fit = full_fit

    @property
    def best(self):
        i, j = self.best_index
        return float(self.lambdas[i]), float(self.thresholds[i, j])

    def to_dict(self):
        lam, t = self.best
        i, j = self.best_index
        return {
            "best_lambda": lam,
            "best_threshold": t,
            "best_cv_rmse": float(self.cv_rmse[i, j]),
            "fit_count": int(self.fit_count),
            "per_fold_sse_at_best": [float(v) for v in self.per_fold_sse[:, i, j]],
        }


def kfold_split(n, k, seed):
    """Shuffle 0..n-1 deterministically and split into k folds.

    Fold sizes differ by at most one; the folds partition the index range.
    """
    if not 2 <= k <= n:
        raise ValueError(f"fold count k = {k} must satisfy 2 <= k <= n = {n}")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(f) for f in np.array_split(perm, k)]


# thresholds are scored in blocks whose stacked fits and residuals hold at
# most this many entries (2 MB), so the work memory does not grow with n_test
_SCORE_BLOCK_ENTRIES = 1 << 18


def _sse_over_thresholds(X_test, Y_test, B, thresholds):
    """Held-out sum of squares of the thresholded fit at every level."""
    thresholds = np.asarray(thresholds)
    absB = np.abs(B)
    step = max(1, _SCORE_BLOCK_ENTRIES // (max(X_test.shape[0], B.shape[0]) * B.shape[1]))
    out = np.empty(len(thresholds))
    for s in range(0, len(thresholds), step):
        R = X_test @ np.where(absB > thresholds[s:s + step, None, None], B, 0.0)
        np.subtract(Y_test, R, out=R)              # (block, n_test, q)
        out[s:s + step] = np.sum(np.square(R, out=R), axis=(1, 2))
    return out


def _fold_fits(data, config, lambdas, train_idx):
    """One pre-threshold :class:`FitResult` per lambda on a training split.

    One-step fits share the split's initial estimate (weights do not depend
    on lambda) and run as a single batched solve over the lambda grid.
    """
    train = data.subset(train_idx)
    if not config.one_step:
        return [larn_fit(train, config, lam) for lam in lambdas]
    B0 = initial_estimate(train)
    w = group_weights(B0, config.penalty, unit=config.unit_weights)
    stack, traces = bcd_solve_path(train, w, lambdas, init=B0, settings=config.solver)
    G = train.X.T @ (train.Y - train.X @ stack)            # (L, p, q)
    kkt = _kkt_rows(G.transpose(1, 0, 2), stack.transpose(1, 0, 2), np.outer(w, lambdas))
    return [FitResult(B, float(lam), 0.0, trace, kkt[:, i], outer_iters=1)
            for i, (B, lam, trace) in enumerate(zip(stack, lambdas, traces))]


def cross_validate(data, config, grid, jobs=1):
    """Score every (lambda, threshold) cell by k-fold cross-validation.

    A failed (lambda, fold) cell contributes +inf to its lambda row instead
    of aborting the run.  Fold computations are independent; ``jobs``
    bounds how many run concurrently, with results identical at any level
    of parallelism.
    """
    L = len(grid.lambdas)
    T = grid.n_thresholds
    folds = kfold_split(data.n, grid.k, grid.seed)

    # full-data fits set the per-lambda threshold grids; the selected one is the estimate
    full_fits = _fold_fits(data, config, grid.lambdas, np.arange(data.n))
    if grid.thresholds is not None:
        thresholds = np.tile(grid.thresholds, (L, 1))
    else:
        thresholds = np.vstack([threshold_grid(np.max(np.abs(f.b_hat)), T)
                                for f in full_fits])

    def run_fold(fold_id):
        test_idx = folds[fold_id]
        train_idx = np.setdiff1d(np.arange(data.n), test_idx)
        sse = np.full((L, T), np.inf)
        try:
            fits = _fold_fits(data, config, grid.lambdas, train_idx)
        except (SolverError, np.linalg.LinAlgError):
            return sse, 0  # whole fold failed; every cell records +inf
        X_test, Y_test = data.X[test_idx], data.Y[test_idx]
        for l_idx, fit in enumerate(fits):
            sse[l_idx] = _sse_over_thresholds(X_test, Y_test, fit.b_hat, thresholds[l_idx])
        return sse, L

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_fold, range(grid.k)))
    else:
        results = [run_fold(f) for f in range(grid.k)]
    per_fold_sse = np.stack([sse for sse, _ in results])
    fit_count = sum(solved for _, solved in results)
    surface = np.sqrt(per_fold_sse.sum(axis=0)) / (data.n * data.q)
    best_index = _best_cell(surface)
    return CvResult(grid.lambdas, thresholds, surface, per_fold_sse, best_index,
                    fit_count, full_fits[best_index[0]])


def _best_cell(surface):
    """Arg-min of the error surface, ties going to larger lambda then threshold."""
    best = np.min(surface)
    ties = np.argwhere(surface == best)
    i, j = max(ties, key=tuple)
    return int(i), int(j)


def fit_with_selection(data, config, grid, jobs=1):
    """Cross-validate, then threshold ``cv.full_fit`` at the selected pair.

    Returns (FitResult, CvResult); the FitResult carries the selected
    lambda and threshold, the thresholded coefficient matrix and the fit's
    diagnostics.  Warns (``RuntimeWarning``) when the fit is not certified.
    """
    cv = cross_validate(data, config, grid, jobs=jobs)
    lam, t = cv.best
    fit = cv.full_fit
    _warn_uncertified(lam, fit.kkt_residuals, config.solver.kkt_tol)
    return FitResult(within_row_threshold(fit.b_hat, t), lam, t, fit.objective_trace,
                     fit.kkt_residuals, fit.outer_iters), cv
