"""k-fold cross-validation over the (penalty, threshold) grid.

Thresholding happens after estimation, so scanning the threshold axis
costs nothing beyond re-scoring: for every (lambda, fold) pair exactly one
pre-threshold model is fit, then the whole threshold grid is applied to
that fit.  A run therefore performs k * len(lambdas) inner solves, never
k * len(lambdas) * len(thresholds).  The full-data fit at each lambda sets
its threshold grid, and the one at the selected lambda is the returned
estimate: no (training set, lambda) pair is solved twice.  A fold's fits
are scored together, each at all its thresholds from one cumulative sum
(:func:`_sse_over_thresholds`), so the threshold axis costs
O(n_test p q + q p min(n_test, p)) per fit, not per threshold.

Each training set is fit by one :func:`larn.estimator.larn_path` call over
the lambda grid, in either mode.  Fits along the lambda axis share the
split's initial estimate B0 (whose weights do not depend on lambda); the
first round is one batched solve in which every level starts from B0, not
from another level's solution, and full mode re-solves the unfinished
levels as one batched call per round, each from its own iterate.

Every cross-validation in larn runs through one fold driver,
:func:`_cv_surface`: :func:`cross_validate` here, and
:func:`larn.simbench.select_lasso` for the per-response lasso baseline,
each passing only the function that fits a training set and returns its
held-out sums of squares.  The driver owns the fold split, the error that
names a fold whose training set cannot be solved, the choice between the
calling thread and a thread pool, the pooled error and the tie rule.
"""

import dataclasses
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .estimator import FitResult, _warn_uncertified, larn_path, within_row_threshold
from .group_solver import SolverError, _count, _levels
# not called here; perfbench/spans.py wraps these names in this module
from .estimator import group_weights, initial_estimate, larn_fit  # noqa: F401
from .group_solver import bcd_solve_path  # noqa: F401


def default_lambdas(num=100, scale="log10", low=-2.0, high=2.0):
    """Penalty grid: num values 10^u for u equally spaced in (low, high).

    ``scale="linear-positive"`` instead spaces num values linearly over the
    positive part (max(low, 0), high), endpoints excluded; a literal linear
    grid on (-2, 2) would contain nonpositive penalty levels, which are
    ill-posed.  ``num`` must be an integer of at least 1.
    """
    num = _count("num", num)
    if scale == "log10":
        return np.logspace(low, high, num)
    if scale == "linear-positive":
        return np.linspace(max(low, 0.0), high, num + 2)[1:-1]
    raise ValueError(f"unknown lambda scale {scale!r}")


def threshold_grid(max_abs, num=100):
    """num (an integer of at least 1) threshold levels equally spaced from 0
    to 0.9 * max_abs."""
    return np.linspace(0.0, 0.9 * max_abs, _count("num", num))


def _grid(name, values):
    """A tuning grid, sorted; a ValueError naming ``name`` unless it is one
    nonempty axis of finite nonnegative levels."""
    values = _levels(name, values)
    if values.ndim != 1 or values.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D grid, got shape {values.shape}")
    return np.sort(values)


class CvGrid:
    """Tuning grids and fold layout for cross-validation.

    ``thresholds=None`` (the default) builds a per-lambda grid of
    ``n_thresholds`` levels up to 0.9 * max|B| of the full-data fit at that
    lambda; an explicit array is shared across lambdas.  Each grid given
    must be one nonempty axis of finite nonnegative levels, and is sorted;
    ``n_thresholds`` must be an integer of at least 1 and ``k`` one of at
    least 2.  ``seed``, a nonnegative integer, lays out the ``k`` folds.
    """

    def __init__(self, lambdas=None, thresholds=None, n_thresholds=100,
                 k=5, seed=0):
        self.lambdas = default_lambdas() if lambdas is None else _grid("lambdas", lambdas)
        self.thresholds = None if thresholds is None else _grid("thresholds", thresholds)
        if self.thresholds is not None:
            n_thresholds = self.thresholds.size
        self.n_thresholds = _count("n_thresholds", n_thresholds)
        self.k = _count("k", k, least=2)
        self.seed = _count("seed", seed, least=0)


@dataclasses.dataclass(eq=False)
class CvResult:
    """Cross-validation surface and the selected pair.

    Attributes
    ----------
    lambdas : ndarray (L,)
        The lambda grid, ascending.
    cv_rmse : ndarray (L, T)
        Pooled held-out error for every (lambda, threshold) cell.
    thresholds : ndarray (L, T)
        Actual threshold values per lambda row.
    best : (float, float)
        Selected (lambda, threshold); ties broken toward larger lambda,
        then larger threshold.
    per_fold_sse : ndarray (k, L, T)
        Held-out sum of squares per fold.
    best_index : (int, int)
        Row and column of the selected cell.
    fit_count : int
        Inner solves performed for scoring: k * L, one per (fold, lambda);
        read from ``per_fold_sse`` and ``lambdas``.
    full_fit : FitResult
        Pre-threshold full-data fit at the selected lambda.
    best_on_edge : bool
        Whether the selected lambda is the first or last on the grid, where
        the true optimum may lie outside it.
    """

    lambdas: np.ndarray
    thresholds: np.ndarray
    cv_rmse: np.ndarray
    per_fold_sse: np.ndarray
    best_index: tuple
    full_fit: FitResult

    @property
    def fit_count(self):
        return len(self.per_fold_sse) * len(self.lambdas)

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
            "fit_count": self.fit_count,
            "per_fold_sse_at_best": [float(v) for v in self.per_fold_sse[:, i, j]],
        }


def kfold_split(n, k, seed):
    """Shuffle 0..n-1 deterministically and split into k folds.

    Fold sizes differ by at most one; the folds partition the index range.
    ``n`` and ``k`` must be integers, with 2 <= k <= n.
    """
    if _count("k", k, least=2) > _count("n", n):
        raise ValueError(f"k must not exceed n = {n}, got {k}")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(f) for f in np.array_split(perm, k)]


# fits are scored in blocks whose work arrays each hold at most this many
# entries (2 MB): a fit's held-out residual (n_test, q) and its gathered
# factor columns and their prefix sums (q, p, min(n_test, p)), so the work
# memory grows with neither the number of fits nor n_test
_SCORE_BLOCK_ENTRIES = 1 << 18


def _sse_over_thresholds(X_test, Y_test, stack, thresholds):
    """Held-out sums of squares (L, T) of every fit of a stack (L, p, q), each
    thresholded at every level of its row of ``thresholds`` (L, T), rows
    sorted ascending.

    An entry b is zeroed at threshold t when |b| <= t, so within a column of
    a fit the zeroed entries are a prefix of the order by ascending |b|.
    With R0 = Y_test - X_test B the fit's held-out residual, c = X_test'R0, F
    the triangular factor of X_test (F'F = X_test'X_test, min(n_test, p)
    rows), and f_i, v_i the column of F and the value of the i-th entry of
    column k in that order,

        SSE(t) = ||R0||^2 + sum_k [2 sum_{i<=m} c_i v_i + ||sum_{i<=m} f_i v_i||^2],

    m = m_k(t) the number of entries |b| <= t.  Each entry's increment,
    2 c_i v_i + <P_i + P_{i-1}, f_i v_i> with P_i = sum_{i'<=i} f_i' v_i', is
    binned at the first threshold that zeroes it (one ``searchsorted`` per
    fit, one ``bincount``), and a cumulative sum over the bins gives every
    threshold's sum: O(n_test p q + q p min(n_test, p)) per fit, not per
    threshold.  Thresholds that zero the same entries get bitwise-equal
    sums, as the bins between them hold exactly 0.0.  The anchor is R0, not
    zero: the zero-anchored ||Y_test||^2 - 2<X_test'Y_test, B_t> +
    ||X_test B_t||^2 cancels when the fit leaves a small residual, down to
    negative sums at noise 1e-8.  A threshold of at least the fit's max |b|
    zeroes the whole fit, and its cell is set to ||Y_test||^2 exactly, so
    all-zero cells tie across fits.  Fits are taken in blocks of about
    ``_SCORE_BLOCK_ENTRIES`` work entries each.
    """
    L, _, q = stack.shape
    n_test, T = X_test.shape[0], thresholds.shape[1]
    F = np.linalg.qr(X_test, mode="r").T.copy()            # row j is f_j
    all_zero = np.sum(np.square(Y_test))
    out = np.empty((L, T))
    step = max(1, _SCORE_BLOCK_ENTRIES // (q * max(n_test, F.size)))
    for s in range(0, L, step):
        B, levels = stack[s:s + step], thresholds[s:s + step]
        nb = len(B)
        R0 = Y_test - X_test @ B                           # (nb, n_test, q)
        r0 = np.einsum("lnq,lnq->l", R0, R0)
        c = (X_test.T @ R0).transpose(0, 2, 1)             # (nb, q, p)
        Bt = B.transpose(0, 2, 1)
        order = np.argsort(np.abs(Bt), axis=-1)            # per column by |b|
        v = np.take_along_axis(Bt, order, -1)
        fv = F[order]                                      # (nb, q, p, min(n_test, p))
        fv *= v[..., None]
        P = np.cumsum(fv, axis=2)
        P *= 2.0
        P -= fv                                            # P_i + P_{i-1}
        inc = np.einsum("lqpm,lqpm->lqp", P, fv)
        del P, fv                                          # before the next block's
        inc += 2.0 * np.take_along_axis(c, order, -1) * v
        size = np.abs(v).reshape(nb, -1)
        first = np.stack([np.searchsorted(t, a) for t, a in zip(levels, size)])
        first += (T + 1) * np.arange(nb)[:, None]         # past T: never zeroed
        bins = np.bincount(first.ravel(), inc.ravel(), nb * (T + 1))
        sse = np.cumsum(bins.reshape(nb, T + 1)[:, :T], axis=1)
        sse += r0[:, None]
        sse[levels >= size.max(axis=1)[:, None]] = all_zero
        out[s:s + step] = sse
    return out


def _fold_fits(data, config, lambdas, train_idx):
    """One pre-threshold :class:`FitResult` per lambda on a training split."""
    return larn_path(data.subset(train_idx), config, lambdas)


def _cv_surface(data, grid, fold_sse, jobs=1):
    """Pooled k-fold error surface of one fold scorer, and its best cell.

    The folds are :func:`kfold_split`'s ``grid.k`` folds under ``grid.seed``;
    ``fold_sse(train_idx, test_idx)`` fits one training set and returns its
    held-out sums of squares (L, T).  A fold that raises a
    :class:`SolverError` or ``LinAlgError`` stops the run with a
    :class:`SolverError` naming the fold and the cause.  At ``jobs`` above 1
    the folds run in a thread pool of that size, at 1 on the calling thread;
    the results are identical either way.  Returns (surface, per_fold_sse,
    best_index): the surface is sqrt(sum of the folds' SSE) / (n q), and the
    best cell is :func:`_best_cell`'s.
    """
    folds = kfold_split(data.n, grid.k, grid.seed)

    def run_fold(fold_id, test_idx):
        try:
            return fold_sse(np.setdiff1d(np.arange(data.n), test_idx), test_idx)
        except (SolverError, np.linalg.LinAlgError) as exc:
            raise SolverError(f"fold {fold_id + 1} of {grid.k}: the training set "
                              f"cannot be solved ({exc})") from exc

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            per_fold_sse = np.stack(list(pool.map(run_fold, range(grid.k), folds)))
    else:
        per_fold_sse = np.stack([run_fold(f, test_idx) for f, test_idx in enumerate(folds)])
    surface = np.sqrt(per_fold_sse.sum(axis=0)) / (data.n * data.q)
    return surface, per_fold_sse, _best_cell(surface)


def cross_validate(data, config, grid, jobs=1):
    """Score every (lambda, threshold) cell by k-fold cross-validation.

    The folds run through the shared fold driver :func:`_cv_surface`, which
    :func:`larn.simbench.select_lasso` uses too.  Each training set is fit
    by one :func:`larn_path` call over the whole lambda grid and scored at
    every threshold by :func:`_sse_over_thresholds`, so a training set that
    cannot be solved leaves no cell of its fold to score: the run stops
    with a :class:`SolverError` naming the fold and the cause.  Fold
    computations are independent; ``jobs`` (at least 1) bounds how many
    run concurrently, with results identical at any level of parallelism.
    """
    jobs = _count("jobs", jobs)

    # full-data fits set the per-lambda threshold grids; the selected one is the estimate
    full_fits = _fold_fits(data, config, grid.lambdas, np.arange(data.n))
    if grid.thresholds is not None:
        thresholds = np.tile(grid.thresholds, (len(grid.lambdas), 1))
    else:
        thresholds = np.vstack([threshold_grid(np.max(np.abs(f.b_hat)), grid.n_thresholds)
                                for f in full_fits])

    def fold_sse(train_idx, test_idx):
        fits = _fold_fits(data, config, grid.lambdas, train_idx)
        return _sse_over_thresholds(data.X[test_idx], data.Y[test_idx],
                                    np.stack([fit.b_hat for fit in fits]), thresholds)

    surface, per_fold_sse, best_index = _cv_surface(data, grid, fold_sse, jobs)
    return CvResult(grid.lambdas, thresholds, surface, per_fold_sse, best_index,
                    full_fits[best_index[0]])


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
    return dataclasses.replace(fit, b_hat=within_row_threshold(fit.b_hat, t), threshold=t), cv
