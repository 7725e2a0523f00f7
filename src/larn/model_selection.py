"""k-fold cross-validation over the (penalty, threshold) grid.

Thresholding happens after estimation, so scanning the threshold axis
costs nothing beyond re-scoring: for every (lambda, fold) pair exactly one
pre-threshold model is fit, then the whole threshold grid is applied to
that fit.  A run therefore performs k * len(lambdas) inner solves, never
k * len(lambdas) * len(thresholds).

Per-fold fits along the lambda axis share the fold's initial estimate B0
(whose weights do not depend on lambda) and run as one batched solve in
which every level starts from B0, not from another level's solution.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .estimator import (LarnConfig, FitResult, group_weights, initial_estimate,
                        larn_fit, within_row_threshold)
from .group_solver import Dataset, SolverError, bcd_solve_path


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
    """

    def __init__(self, lambdas, thresholds, cv_rmse, per_fold_sse, best_index,
                 fit_count):
        self.lambdas = lambdas
        self.thresholds = thresholds
        self.cv_rmse = cv_rmse
        self.per_fold_sse = per_fold_sse
        self.best_index = best_index
        self.fit_count = fit_count

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


def cv_rmse(data, folds, b_per_fold):
    """Pooled held-out error: sqrt(sum of squares over folds) / (n*q)."""
    if len(folds) != len(b_per_fold):
        raise ValueError(f"{len(folds)} folds but {len(b_per_fold)} estimates")
    sse = 0.0
    for idx, B in zip(folds, b_per_fold):
        R = data.Y[idx] - data.X[idx] @ np.asarray(B, dtype=float)
        sse += float(np.sum(R * R))
    return np.sqrt(sse) / (data.n * data.q)


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
    """One pre-threshold fit per lambda on a training split.

    One-step fits share the split's initial estimate (weights do not depend
    on lambda) and run as a single batched solve over the lambda grid.
    """
    train = data.subset(train_idx)
    if config.one_step:
        B0 = initial_estimate(train, config)
        w = group_weights(B0, config.penalty, unit=config.unit_weights)
        stack, _ = bcd_solve_path(train, w, lambdas, init=B0, settings=config.solver)
        return list(stack)
    return [larn_fit(train, config, lam).b_hat for lam in lambdas]


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

    # full-data fits set the per-lambda threshold grids and serve as the
    # refit cache for the selected lambda
    full_fits = _fold_fits(data, config, grid.lambdas, np.arange(data.n))
    if grid.thresholds is not None:
        thresholds = np.tile(grid.thresholds, (L, 1))
    else:
        thresholds = np.vstack([threshold_grid(np.max(np.abs(B)) if B.size else 0.0, T)
                                for B in full_fits])

    per_fold_sse = np.zeros((grid.k, L, T))
    fit_count = 0

    def run_fold(fold_id):
        test_idx = folds[fold_id]
        train_idx = np.setdiff1d(np.arange(data.n), test_idx)
        sse = np.full((L, T), np.inf)
        try:
            fits = _fold_fits(data, config, grid.lambdas, train_idx)
        except (SolverError, np.linalg.LinAlgError):
            return sse, 0  # whole fold failed; every cell records +inf
        solved = L
        X_test, Y_test = data.X[test_idx], data.Y[test_idx]
        for l_idx, B in enumerate(fits):
            sse[l_idx] = _sse_over_thresholds(X_test, Y_test, B, thresholds[l_idx])
        return sse, solved

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_fold, range(grid.k)))
    else:
        results = [run_fold(f) for f in range(grid.k)]
    for fold_id, (sse, solved) in enumerate(results):
        per_fold_sse[fold_id] = sse
        fit_count += solved

    surface = np.sqrt(per_fold_sse.sum(axis=0)) / (data.n * data.q)
    best_index = _best_cell(surface)
    return CvResult(grid.lambdas, thresholds, surface, per_fold_sse, best_index,
                    fit_count)


def _best_cell(surface):
    """Arg-min of the error surface, ties going to larger lambda then threshold."""
    best = np.min(surface)
    ties = np.argwhere(surface == best)
    i, j = max(ties, key=tuple)
    return int(i), int(j)


def fit_with_selection(data, config, grid, jobs=1):
    """Cross-validate, refit on the full data at the winner, and threshold.

    Returns (FitResult, CvResult); the FitResult carries the selected
    lambda and threshold and the thresholded coefficient matrix.
    """
    cv = cross_validate(data, config, grid, jobs=jobs)
    lam, t = cv.best
    fit = larn_fit(data, config, lam)
    b_final = within_row_threshold(fit.b_one_step, t)
    result = FitResult(b_final, fit.b_one_step, lam, t, fit.objective_trace,
                       fit.kkt_residuals, fit.outer_iters)
    return result, cv
