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

Each is tuned by k-fold cross-validation, fit on the full data at the
selected level, and scored by held-out error, mean absolute error, and
the true-positive / true-negative rates of the recovered support.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .estimator import LarnConfig, _warn_uncertified
from .group_solver import (_ENTRYWISE, Dataset, SolverError, SolverSettings, _cd_path,
                           _entry_residuals)
from .model_selection import CvGrid, fit_with_selection, kfold_split

METHODS = ("larn", "tgl", "seplasso")


class SimConfig:
    """Generator and benchmark settings."""

    def __init__(self, n=50, p=20, q=20, rho=0.7, design_ar=0.7,
                 signal_mean=2.0, signal_sd=1.0, within_row_prob=0.3,
                 row_prob=0.125, seed=0, replications=20):
        if min(n, p, q) < 1:
            raise ValueError("n, p, q must be positive integers")
        for name, value in (("rho", rho), ("design_ar", design_ar)):
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {value}")
        for name, value in (("within_row_prob", within_row_prob),
                            ("row_prob", row_prob)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if signal_sd < 0:
            raise ValueError("signal_sd must be nonnegative")
        if replications < 1:
            raise ValueError("replications must be a positive integer")
        self.n = int(n)
        self.p = int(p)
        self.q = int(q)
        self.rho = float(rho)
        self.design_ar = float(design_ar)
        self.signal_mean = float(signal_mean)
        self.signal_sd = float(signal_sd)
        self.within_row_prob = float(within_row_prob)
        self.row_prob = float(row_prob)
        self.seed = seed
        self.replications = int(replications)

    def to_dict(self):
        return {
            "n": self.n, "p": self.p, "q": self.q, "rho": self.rho,
            "design_ar": self.design_ar, "signal_mean": self.signal_mean,
            "signal_sd": self.signal_sd, "within_row_prob": self.within_row_prob,
            "row_prob": self.row_prob, "seed": self.seed,
            "replications": self.replications,
        }

    @classmethod
    def from_dict(cls, d):
        known = {"n", "p", "q", "rho", "design_ar", "signal_mean", "signal_sd",
                 "within_row_prob", "row_prob", "seed", "replications"}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown simulation config fields: {sorted(unknown)}")
        return cls(**d)


class MetricsRow:
    """One scored (replication, method) cell of the benchmark table."""

    FIELDS = ("setting", "rho", "replication", "method", "cv_rmse", "mae",
              "tp", "tn")

    def __init__(self, setting, rho, replication, method, cv_rmse, mae, tp, tn):
        self.setting = setting
        self.rho = rho
        self.replication = replication
        self.method = method
        self.cv_rmse = cv_rmse
        self.mae = mae
        self.tp = tp
        self.tn = tn

    def astuple(self):
        return (self.setting, self.rho, self.replication, self.method,
                self.cv_rmse, self.mae, self.tp, self.tn)


def ar1_covariance(dim, rho):
    """AR(1) covariance matrix: entry (i, j) = rho^|i-j|; positive definite."""
    if dim < 1:
        raise ValueError("dim must be a positive integer")
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

    The batched kernel of :mod:`larn.group_solver` with the soft-threshold
    at lam / 2 as row update and a feature-sign finish on the columns that
    fail the KKT test; a level stops under the kernel's rule (a flat
    objective and every entry meeting the lasso KKT conditions to the
    default ``kkt_tol``) or when ``max_sweeps`` runs out.  Warns once
    (``RuntimeWarning``, naming the worst level) when a level is not
    certified.  Returns (L, p, q).
    """
    lambdas = np.atleast_1d(np.asarray(lambdas, dtype=float))
    if np.any(lambdas < 0) or not np.all(np.isfinite(lambdas)):
        raise ValueError("lam must be nonnegative and finite")
    settings = SolverSettings(max_sweeps=max_sweeps)
    stack = _cd_path(data, np.ones((data.p, len(lambdas))), lambdas, None, settings, _ENTRYWISE)[0]
    G = data.X.T @ (data.Y - data.X @ stack)               # (L, p, q)
    worst = _entry_residuals(G, stack, 0.5 * lambdas[:, None, None]).max(axis=(1, 2))
    i = int(np.argmax(worst))
    _warn_uncertified(lambdas[i], worst[i], settings.kkt_tol)
    return stack


def separate_lasso(data, lam):
    """One lasso per response column at a single shared penalty level."""
    return lasso_path(data, float(lam))[0]


def select_lasso(data, lambdas, k, seed):
    """Tune the shared lasso level by k-fold CV; refit on the full data.

    Returns (B_final, best_lambda, best_cv_rmse).  Ties go to the larger
    (sparser) penalty level.
    """
    lambdas = np.sort(np.asarray(lambdas, dtype=float))
    folds = kfold_split(data.n, k, seed)
    sse = np.zeros(len(lambdas))
    for test_idx in folds:
        train_idx = np.setdiff1d(np.arange(data.n), test_idx)
        stack = lasso_path(data.subset(train_idx), lambdas)
        preds = data.X[test_idx] @ stack           # (L, n_test, q)
        Rt = data.Y[test_idx][None, :, :] - preds
        sse += np.einsum("lab,lab->l", Rt, Rt)
    errors = np.sqrt(sse) / (data.n * data.q)
    best = int(max(np.flatnonzero(errors == errors.min())))
    B_final = separate_lasso(data, lambdas[best])
    return B_final, float(lambdas[best]), float(errors[best])


def _score_replication(cfg, rep, methods, grid_settings):
    """Generate one instance, tune and score every method on it."""
    rep_cfg = SimConfig(**{**cfg.to_dict(), "seed": [_seed_scalar(cfg.seed), rep]})
    data, B0 = generate_instance(rep_cfg)
    setting = f"p{cfg.p}_q{cfg.q}"
    rows = []
    for method in methods:
        if method == "seplasso":
            B_hat, _, err = select_lasso(data, grid_settings["lambdas"],
                                         grid_settings["k"], grid_settings["seed"])
        else:
            config = LarnConfig(unit_weights=(method == "tgl"))
            grid = CvGrid(lambdas=grid_settings["lambdas"],
                          n_thresholds=grid_settings["n_thresholds"],
                          k=grid_settings["k"], seed=grid_settings["seed"])
            fit, cv = fit_with_selection(data, config, grid)
            i, j = cv.best_index
            B_hat, err = fit.b_hat, float(cv.cv_rmse[i, j])
        m = metrics(B_hat, B0, err)
        rows.append(MetricsRow(setting, cfg.rho, rep, method,
                               m["cv_rmse"], m["mae"], m["tp"], m["tn"]))
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
    least 1).
    Failed replications are skipped with a note through ``progress``.
    Returns a list of MetricsRow in (replication, method) order.
    """
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {METHODS}")
    if jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs}")
    if lambdas is None:
        from .model_selection import default_lambdas
        lambdas = default_lambdas()
    grid_settings = {
        "lambdas": np.asarray(lambdas, dtype=float),
        "n_thresholds": n_thresholds,
        "k": k,
        "seed": cv_seed,
    }

    def one(rep):
        try:
            return _score_replication(cfg, rep, methods, grid_settings)
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
