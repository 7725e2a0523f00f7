"""k-fold cross-validation over the (penalty, threshold) grid.

Thresholding happens after estimation, so scanning the threshold axis
costs nothing beyond re-scoring: for every (lambda, fold) pair exactly one
pre-threshold model is fit, then the whole threshold grid is applied to
that fit.  A run therefore performs k * len(lambdas) inner solves, never
k * len(lambdas) * len(thresholds).  The full-data fit at each lambda sets
its threshold grid, and the one at the selected lambda is the returned
estimate: no (training set, lambda) pair is solved twice.

Each training set is fit by one :func:`larn.estimator.larn_path` call over
the lambda grid, in either mode.  Fits along the lambda axis share the
split's initial estimate B0 (whose weights do not depend on lambda); the
first round is one batched solve in which every level starts from B0, not
from another level's solution, and full mode re-solves the unfinished
levels as one batched call per round, each from its own iterate.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .estimator import FitResult, _warn_uncertified, larn_path, within_row_threshold
from .group_solver import SolverError
# not called here; perfbench/spans.py wraps these names in this module
from .estimator import group_weights, initial_estimate, larn_fit  # noqa: F401
from .group_solver import bcd_solve_path  # noqa: F401


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
        Inner solves performed for scoring: k * L, one per (fold, lambda).
    full_fit : FitResult
        Pre-threshold full-data fit at the selected lambda.
    best_on_edge : bool
        Whether the selected lambda is the first or last on the grid, where
        the true optimum may lie outside it.
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
    def best_on_edge(self):
        return self.best_index[0] in (0, len(self.lambdas) - 1)

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
            "best_on_edge": self.best_on_edge,
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
    """One pre-threshold :class:`FitResult` per lambda on a training split."""
    return larn_path(data.subset(train_idx), config, lambdas)


def cross_validate(data, config, grid, jobs=1):
    """Score every (lambda, threshold) cell by k-fold cross-validation.

    Each training set is fit by one :func:`larn_path` call over the whole
    lambda grid, so a training set that cannot be solved leaves no cell of
    its fold to score: the run stops with a :class:`SolverError` naming the
    fold and the cause.  Fold computations are independent; ``jobs`` (at
    least 1) bounds how many run concurrently, with results identical at
    any level of parallelism.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs}")
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
        try:
            fits = _fold_fits(data, config, grid.lambdas, train_idx)
        except (SolverError, np.linalg.LinAlgError) as exc:
            raise SolverError(f"fold {fold_id + 1} of {grid.k}: the training set "
                              f"cannot be solved ({exc})") from exc
        X_test, Y_test = data.X[test_idx], data.Y[test_idx]
        return np.stack([_sse_over_thresholds(X_test, Y_test, fit.b_hat, levels)
                         for fit, levels in zip(fits, thresholds)])

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_fold, range(grid.k)))
    else:
        results = [run_fold(f) for f in range(grid.k)]
    per_fold_sse = np.stack(results)
    surface = np.sqrt(per_fold_sse.sum(axis=0)) / (data.n * data.q)
    best_index = _best_cell(surface)
    return CvResult(grid.lambdas, thresholds, surface, per_fold_sse, best_index,
                    grid.k * L, full_fits[best_index[0]])


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
    diagnostics, ``certified`` included.  Warns (``RuntimeWarning``) when
    the fit is not certified.
    """
    cv = cross_validate(data, config, grid, jobs=jobs)
    lam, t = cv.best
    fit = cv.full_fit
    _warn_uncertified(lam, fit.kkt_residuals, config.solver.kkt_tol)
    return FitResult(within_row_threshold(fit.b_hat, t), lam, t, fit.objective_trace,
                     fit.kkt_residuals, fit.outer_iters, fit.certified), cv
