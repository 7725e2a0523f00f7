"""Synthetic multitask benchmark: data generator, metrics, and baselines.

The generator draws design rows from a zero-mean Gaussian with AR(1)
covariance (entry (i,j) equal to rho^|i-j|), noise rows likewise with a
configurable AR parameter, and builds the true coefficient matrix as the
elementwise product

    B0 = W * K * Q

where W has N(mean, sd^2) entries, K has Bernoulli entries switching
individual coefficients, and Q has all-zero or all-one rows switching whole
predictors.  Y = X B0 + E.

Methods scored by the benchmark:

* depth-weighted row solver plus within-row thresholding ("larn")
* the same solver with unit row weights plus thresholding ("tgl")
* one lasso per response column with a shared penalty level ("seplasso")

Each is tuned by k-fold cross-validation through the one fold driver of
:mod:`larn.model_selection`, fit on the full data at the selected level,
and scored by held-out error, mean absolute error, and the true-positive /
true-negative rates of the recovered support.
"""

import dataclasses
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .estimator import LarnConfig, _warn_uncertified
from .group_solver import (Dataset, SolverError, SolverSettings, _cd_path, _count, _is_int,
                           _kkt_rows, _levels)
from .model_selection import CvGrid, _cv_surface, fit_with_selection

METHODS = ("larn", "tgl", "seplasso")


@dataclasses.dataclass(eq=False)
class SimConfig:
    """Generator and benchmark settings.

    ``n``, ``p``, ``q`` and ``replications`` are integers of at least 1;
    ``seed`` is a nonnegative integer or a list of them, kept as given.
    ``rho`` and ``design_ar`` lie in [0, 1), the two probabilities in
    [0, 1], ``signal_mean`` is finite and ``signal_sd`` finite and
    nonnegative.
    """

    n: int = 50
    p: int = 20
    q: int = 20
    rho: float = 0.7
    design_ar: float = 0.7
    signal_mean: float = 2.0
    signal_sd: float = 1.0
    within_row_prob: float = 0.3
    row_prob: float = 0.125
    seed: object = 0
    replications: int = 20

    def __post_init__(self):
        for name in ("n", "p", "q", "replications"):
            setattr(self, name, _count(name, getattr(self, name)))
        seeds = self.seed if isinstance(self.seed, (list, tuple)) else [self.seed]
        if not all(_is_int(v) and v >= 0 for v in seeds):
            raise ValueError("seed must be a nonnegative integer or a list of them, "
                             f"got {self.seed!r}")
        for name in ("rho", "design_ar"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {value}")
        for name in ("within_row_prob", "row_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if not np.isfinite(self.signal_mean):
            raise ValueError(f"signal_mean must be finite, got {self.signal_mean!r}")
        for name in ("rho", "design_ar", "signal_mean", "within_row_prob", "row_prob"):
            setattr(self, name, float(getattr(self, name)))
        self.signal_sd = float(_levels("signal_sd", self.signal_sd))

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d):
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown simulation config fields: {sorted(unknown)}")
        return cls(**d)


@dataclasses.dataclass(eq=False)
class MetricsRow:
    """One scored (replication, method) cell of the benchmark table; ``FIELDS``
    names its columns in order."""

    setting: str
    rho: float
    replication: int
    method: str
    cv_rmse: float
    mae: float
    tp: float
    tn: float

    def astuple(self):
        return dataclasses.astuple(self)


MetricsRow.FIELDS = tuple(f.name for f in dataclasses.fields(MetricsRow))


def ar1_covariance(dim, rho):
    """AR(1) covariance matrix: entry (i, j) = rho^|i-j|; positive definite."""
    dim = _count("dim", dim)
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    idx = np.arange(dim)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def sample_gaussian_rows(n, cov, rng):
    """n i.i.d. zero-mean Gaussian rows with the given covariance.

    Uses the lower-triangular Cholesky square root of ``cov`` applied to
    standard normal draws.  ``rng`` may be a Generator or a seed.
    """
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    cov = np.asarray(cov, dtype=float)
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance matrix is not positive definite") from exc
    return rng.standard_normal((n, cov.shape[0])) @ L.T


def generate_instance(cfg):
    """Draw (Dataset, B0) from the benchmark design, deterministically in cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    X = sample_gaussian_rows(cfg.n, ar1_covariance(cfg.p, cfg.design_ar), rng)
    E = sample_gaussian_rows(cfg.n, ar1_covariance(cfg.q, cfg.rho), rng)
    W = cfg.signal_mean + cfg.signal_sd * rng.standard_normal((cfg.p, cfg.q))
    K = rng.random((cfg.p, cfg.q)) < cfg.within_row_prob
    Q = rng.random(cfg.p) < cfg.row_prob
    B0 = W * K * Q[:, None]
    Y = X @ B0 + E
    return Dataset(X, Y), B0


def metrics(B_hat, B0, cv_rmse_value):
    """Four benchmark metrics of an estimate against the truth.

    TP is the fraction of nonzero entries of B0 estimated exactly nonzero,
    TN the fraction of zero entries estimated zero; an empty reference
    class scores 1 by convention.  ``cv_rmse_value`` is passed through.
    """
    B_hat = np.asarray(B_hat, dtype=float)
    B0 = np.asarray(B0, dtype=float)
    if B_hat.shape != B0.shape:
        raise ValueError(f"shape mismatch: {B_hat.shape} vs {B0.shape}")
    true_nz = B0 != 0
    est_nz = B_hat != 0
    n_pos = int(true_nz.sum())
    n_neg = true_nz.size - n_pos
    return {
        "cv_rmse": float(cv_rmse_value),
        "mae": float(np.mean(np.abs(B_hat - B0))),
        "tp": float((est_nz & true_nz).sum() / n_pos) if n_pos else 1.0,
        "tn": float((~est_nz & ~true_nz).sum() / n_neg) if n_neg else 1.0,
    }


def lasso_path(data, lambdas, max_sweeps=1000):
    """Entrywise-penalized fits ||Y - XB||_F^2 + lam ||B||_1 for a level grid.

    The lasso separates over response columns, and at one column the row
    norm is |b_j|, so this is one call of the group kernel of
    :mod:`larn.group_solver` on L*q single-column levels with unit weights,
    given a zero start: level l*q + k is column k at lambdas[l].  The kernel
    follows each column's exact path once
    (:func:`larn.group_solver._weighted_homotopy`, one track per column) and
    starts every level there, so it only certifies it: a column whose start
    passes the lasso KKT conditions to the default ``kkt_tol`` takes no
    sweep.  Any other column (one the homotopy stopped short on a singular
    solve) is solved by the sweeps and Newton finishes from the better of
    zero and that start.  Each column stops on its own once every entry
    meets the KKT conditions, or when ``max_sweeps`` runs out.  Warns once
    (``RuntimeWarning``, naming the worst level) when a level is not
    certified.  Returns (L, p, q); an empty grid gives (0, p, q) with no
    sweep and no warning.
    """
    lambdas = np.atleast_1d(_levels("lambdas", lambdas))
    settings = SolverSettings(max_sweeps=max_sweeps)
    L, p, q = len(lambdas), data.p, data.q
    columns = _cd_path(data, np.broadcast_to(1.0, (p, L * q)), np.repeat(lambdas, q),
                       np.zeros((L * q, p, 1)), settings)[0]
    stack = columns.reshape(L, q, p).transpose(0, 2, 1)
    if L == 0:
        return stack
    G = data.X.T @ (data.Y - data.X @ stack)               # (L, p, q)
    worst = _kkt_rows(G[..., None], stack[..., None], lambdas[:, None, None]).max(axis=(1, 2))
    i = int(np.argmax(worst))
    _warn_uncertified(lambdas[i], worst[i], settings.kkt_tol)
    return stack


def separate_lasso(data, lam):
    """One lasso per response column at a single shared penalty level."""
    return lasso_path(data, float(lam))[0]


def select_lasso(data, lambdas, k, seed):
    """Tune the shared lasso level by k-fold CV; refit on the full data.

    The folds run through the fold driver of
    :func:`larn.model_selection.cross_validate`: each training set's
    :func:`lasso_path` over the grid is scored by its held-out sum of
    squares, the error at a level is sqrt(sum over folds) / (n q), and ties
    go to the larger (sparser) level.  ``lambdas``, ``k`` and ``seed`` pass
    :class:`CvGrid`'s checks: the grid must be one nonempty axis of finite
    nonnegative levels (it is sorted; None gives the default grid, as
    there), ``k`` an integer of at least 2 and at most n, and ``seed`` a
    nonnegative integer; a ValueError names the argument otherwise.  A
    training set that cannot be solved stops the run with a
    :class:`SolverError` naming the fold.  The selected level is then fit
    alone on the full data.  Returns (B_final, best_lambda, best_cv_rmse).
    """
    grid = CvGrid(lambdas, k=k, seed=seed)

    def fold_sse(train_idx, test_idx):
        stack = lasso_path(data.subset(train_idx), grid.lambdas)
        R = data.Y[test_idx] - data.X[test_idx] @ stack    # (L, n_test, q)
        return np.einsum("lab,lab->l", R, R)[:, None]

    errors, _, (best, _) = _cv_surface(data, grid, fold_sse)
    B_final = separate_lasso(data, grid.lambdas[best])
    return B_final, float(grid.lambdas[best]), float(errors[best, 0])


def _score_replication(cfg, rep, methods, grid):
    """Generate one instance, tune and score every method on it over ``grid``."""
    data, B0 = generate_instance(dataclasses.replace(cfg, seed=[_seed_scalar(cfg.seed), rep]))
    setting = f"p{cfg.p}_q{cfg.q}"
    rows = []
    for method in methods:
        if method == "seplasso":
            B_hat, _, err = select_lasso(data, grid.lambdas, grid.k, grid.seed)
        else:
            fit, cv = fit_with_selection(data, LarnConfig(unit_weights=(method == "tgl")), grid)
            i, j = cv.best_index
            B_hat, err = fit.b_hat, float(cv.cv_rmse[i, j])
        rows.append(MetricsRow(setting, cfg.rho, rep, method, **metrics(B_hat, B0, err)))
    return rows


def _seed_scalar(seed):
    # flatten list-valued seeds so derived streams stay hashable ints
    if isinstance(seed, (list, tuple)):
        return int(np.random.SeedSequence(seed).generate_state(1)[0])
    return int(seed)


def run_benchmark(cfg, methods=METHODS, lambdas=None, n_thresholds=100,
                  k=5, cv_seed=0, jobs=1, progress=None):
    """Score every method over cfg.replications independent instances.

    Each replication owns an RNG stream derived from (cfg.seed,
    replication), so the output is identical for any ``jobs`` level (at
    least 1).  The grid (``lambdas``, the default grid when None) and the
    other arguments are checked before any replication runs.
    Failed replications are skipped with a note through ``progress``.
    Returns a list of MetricsRow in (replication, method) order.
    """
    if len(methods) == 0:
        raise ValueError(f"no methods given; choose from {METHODS}")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {METHODS}")
    jobs = _count("jobs", jobs)
    grid = CvGrid(lambdas, n_thresholds=n_thresholds, k=k, seed=cv_seed)

    def one(rep):
        try:
            return _score_replication(cfg, rep, methods, grid)
        except (SolverError, np.linalg.LinAlgError) as exc:
            if progress is not None:
                progress(f"replication {rep} failed: {exc}")
            return []

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(one, range(cfg.replications)))
    else:
        chunks = [one(rep) for rep in range(cfg.replications)]
    rows = [row for chunk in chunks for row in chunk]
    if progress is not None:
        progress(f"scored {len(rows)} rows over {cfg.replications} replications")
    return rows
