"""Output checks that do not compare against a stored copy of any output.

* ``kkt_failures``: every captured group-lasso level is re-checked with
  ``group_solver.kkt_residual`` after the clock stops; a level whose worst
  row residual exceeds ``SolverSettings().kkt_tol`` is a failed operation.
* ``reference_fit`` / ``agreement_error``: the selected fit is recomputed
  by an accelerated proximal-gradient solve written here, from its own
  least-squares start and weights phi(||b_j||) taken from scipy's normal
  pdf, then hard-thresholded at the selected level.
* ``metrics_error``: MAE, TP and TN of a replication row are recomputed
  from the estimate and the truth that were passed to ``simbench.metrics``.
"""

import numpy as np
import scipy.linalg
import scipy.stats

# entries whose reference magnitude lies this close to the selected
# threshold (relative to max(1, max|B|)) may fall on either side of it
THRESHOLD_MARGIN = 1e-5
# largest entrywise gap accepted between the program's fit and the
# reference; the program certifies its solves at a KKT residual of 1e-6
AGREEMENT_TOL = 1e-5
# the self-test perturbation, well above AGREEMENT_TOL
PERTURBATION = 1e-3
METRIC_TOL = 1e-12


def kkt_failures(kkt_residual, kkt_tol, solves):
    """(levels checked, levels whose KKT residual exceeds kkt_tol, worst residual).

    ``solves`` holds captured ``bcd_solve_path`` calls: (args, kwargs,
    result, seconds) with args (data, weights, lambdas, ...).
    """
    levels = failed = 0
    worst = 0.0
    for args, kwargs, (stack, _), _ in solves:
        data, weights = args[0], args[1]
        lambdas = np.atleast_1d(np.asarray(args[2], dtype=float))
        for lam, B in zip(lambdas, stack):
            res = float(np.max(kkt_residual(data, B, weights, lam)))
            levels += 1
            failed += res > kkt_tol
            worst = max(worst, res)
    return levels, failed, worst


def _group_kkt(G, C, B, weights, lam):
    grad = C - G @ B                               # X'(Y - XB)
    norms = np.linalg.norm(B, axis=1)
    gnorm = np.linalg.norm(grad, axis=1)
    res = np.maximum(gnorm - 0.5 * lam * weights, 0.0)
    nz = norms > 0
    stat = 2.0 * grad[nz] - (lam * weights[nz] / norms[nz])[:, None] * B[nz]
    res[nz] = np.linalg.norm(stat, axis=1)
    return float(res.max())


def prox_grad(X, Y, weights, lam, tol=1e-9, max_iter=200_000):
    """min ||Y - XB||_F^2 + lam sum_j w_j ||b_j|| by FISTA with adaptive restart.

    Raises RuntimeError when the KKT residual does not reach tol.
    """
    G = X.T @ X
    C = X.T @ Y
    step = 1.0 / (2.0 * scipy.linalg.eigvalsh(G)[-1])
    cut = step * lam * weights
    B = np.zeros((X.shape[1], Y.shape[1]))
    Z, t = B, 1.0
    for it in range(max_iter):
        V = Z + 2.0 * step * (C - G @ Z)
        vn = np.linalg.norm(V, axis=1)
        shrink = np.maximum(1.0 - np.divide(cut, vn, out=np.full_like(vn, np.inf),
                                            where=vn > 0), 0.0)
        B_new = shrink[:, None] * V
        if np.sum((Z - B_new) * (B_new - B)) > 0:   # restart on ascent
            t = 1.0
            Z = B_new
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            Z = B_new + ((t - 1.0) / t_new) * (B_new - B)
            t = t_new
        B = B_new
        if it % 50 == 0 and _group_kkt(G, C, B, weights, lam) <= tol:
            return B
    raise RuntimeError(f"reference solve did not reach KKT residual {tol:g}")


def reference_fit(X, Y, lam, unit_weights=False):
    """Pre-threshold one-step fit at ``lam``: LS start, normal-pdf weights, prox-grad."""
    B_ls = scipy.linalg.lstsq(X, Y)[0]             # minimum-norm when p > n
    if unit_weights:
        weights = np.ones(X.shape[1])
    else:
        weights = scipy.stats.norm.pdf(np.linalg.norm(B_ls, axis=1))
    return prox_grad(X, Y, weights, lam)


def agreement_error(b_hat, B_ref, threshold):
    """Worst gap between the program's thresholded fit and the thresholded
    reference, over entries not within the margin of the threshold."""
    b_hat = np.asarray(b_hat, dtype=float)
    if b_hat.shape != B_ref.shape or not np.all(np.isfinite(b_hat)):
        return np.inf
    scale = max(1.0, float(np.max(np.abs(B_ref))))
    ref_t = np.where(np.abs(B_ref) <= threshold, 0.0, B_ref)
    keep = np.abs(np.abs(B_ref) - threshold) > THRESHOLD_MARGIN * scale
    return float(np.max(np.abs(b_hat - ref_t)[keep], initial=0.0)) / scale


def perturbed(B):
    """Copy of B with its largest entry moved by PERTURBATION * max(1, max|B|)."""
    out = np.array(B, dtype=float)
    idx = np.unravel_index(np.argmax(np.abs(out)), out.shape)
    out[idx] += PERTURBATION * max(1.0, float(np.max(np.abs(out))))
    return out


def metrics_error(row, B_hat, B0):
    """Describe what is wrong with one replication row, or return None."""
    values = (row.cv_rmse, row.mae, row.tp, row.tn)
    if not all(np.isfinite(v) for v in values):
        return "non-finite value"
    if row.cv_rmse <= 0 or row.mae < 0 or not (0 <= row.tp <= 1 and 0 <= row.tn <= 1):
        return "value out of range"
    true_nz = np.asarray(B0) != 0
    est_nz = np.asarray(B_hat) != 0
    n_pos = int(true_nz.sum())
    n_neg = true_nz.size - n_pos
    mae = float(np.abs(np.asarray(B_hat) - np.asarray(B0)).sum() / true_nz.size)
    tp = np.count_nonzero(est_nz & true_nz) / n_pos if n_pos else 1.0
    tn = np.count_nonzero(~est_nz & ~true_nz) / n_neg if n_neg else 1.0
    for name, got, want in (("mae", row.mae, mae), ("tp", row.tp, tp), ("tn", row.tn, tn)):
        if abs(got - want) > METRIC_TOL * max(1.0, abs(want)):
            return f"{name} {got!r} differs from recomputed {want!r}"
    return None
