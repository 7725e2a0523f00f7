"""Block coordinate descent for the row-weighted group lasso.

Solves

    min_B  Tr{(Y - XB)'(Y - XB)} + lam * sum_j w_j ||b_j||_2

over p x q coefficient matrices B, where b_j is the j-th row and the
weights w_j come from linearizing a concave row penalty at the current
iterate.  Each block update has the closed form

    b_j <- (1 - lam*w_j / (2||g_j||))_+  g_j / s_j,
    g_j = x_j'(Y - X B_{-j}),  s_j = x_j'x_j,

which is the unique stationary point of the single-row subproblem.  A
solution is certified by the first-order conditions:

    b_j != 0:  2 x_j'(Y - XB) = lam w_j b_j / ||b_j||
    b_j  = 0:  ||x_j'(Y - XB)|| <= lam w_j / 2

The kernel runs a whole vector of penalty levels in one pass, the levels
laid side by side in blocks of L*q columns.  With R = Y - XB, H = X'R and
delta_j the change of row j, it reads and updates the gradient in Gram
form (the covariance updates of Friedman, Hastie and Tibshirani, JSS
33(1), 2010):

    g_j = H_j + s_j b_j,    H -= (X'X)[:, j] delta_j'

so a row costs O(p) instead of the O(n) of reading x_j'R and updating R.
R, and H from it, are recomputed from B after every sweep, so the traces
and the KKT certificate never rest on the cancelling expansion
||Y||^2 - 2 tr(B'X'Y) + tr(B'X'XB).  With the
entrywise soft-threshold as row update and the entrywise KKT conditions as
certificate, it solves :func:`larn.simbench.lasso_path`; :func:`bcd_solve`
and :func:`bcd_solve_path` solve the group lasso at one level or many.
"""

import numpy as np


class SolverError(RuntimeError):
    """Raised when a solve cannot proceed (degenerate column, non-finite state)."""


class Dataset:
    """Design matrix X (n x p) and response matrix Y (n x q)."""

    def __init__(self, X, Y):
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if X.ndim != 2 or Y.ndim != 2:
            raise ValueError("X and Y must be two-dimensional arrays")
        if X.shape[0] != Y.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but Y has {Y.shape[0]}")
        if X.shape[0] < 1 or X.shape[1] < 1 or Y.shape[1] < 1:
            raise ValueError("X and Y must be nonempty")
        if not np.all(np.isfinite(X)):
            raise ValueError("X contains non-finite entries")
        if not np.all(np.isfinite(Y)):
            raise ValueError("Y contains non-finite entries")
        self.X = X
        self.Y = Y

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def p(self):
        return self.X.shape[1]

    @property
    def q(self):
        return self.Y.shape[1]

    def subset(self, idx):
        """Dataset restricted to the given row indices."""
        return Dataset(self.X[idx], self.Y[idx])


class SolverSettings:
    """Stopping parameters for the block coordinate descent loop."""

    def __init__(self, max_sweeps=1000, tol=1e-8, kkt_tol=1e-6):
        if max_sweeps < 1:
            raise ValueError("max_sweeps must be a positive integer")
        if tol <= 0 or kkt_tol <= 0:
            raise ValueError("tol and kkt_tol must be positive")
        self.max_sweeps = int(max_sweeps)
        self.tol = float(tol)
        self.kkt_tol = float(kkt_tol)

    def tightened(self, factor):
        """Same settings with both tolerances divided by ``factor``."""
        return SolverSettings(self.max_sweeps, self.tol / factor, self.kkt_tol / factor)


def row_support(B):
    """Indices of rows with nonzero Euclidean norm."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    return np.flatnonzero(np.linalg.norm(B, axis=1) > 0)


def element_support(B):
    """Boolean mask of exactly nonzero entries."""
    return np.asarray(B) != 0


def _check_problem(data, weights, lam, B=None, allow_stack=False):
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (data.p,):
        raise ValueError(f"weights must have shape ({data.p},), got {weights.shape}")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise ValueError("weights must be finite and nonnegative")
    lam = np.asarray(lam, dtype=float)
    if not np.all(np.isfinite(lam)) or np.any(lam < 0):
        raise ValueError("lam must be nonnegative and finite")
    if B is not None:
        B = np.asarray(B, dtype=float)
        good_shape = (B.shape == (data.p, data.q)
                      or (allow_stack and B.ndim == 3 and B.shape[1:] == (data.p, data.q)))
        if not good_shape:
            raise ValueError(f"coefficient matrix must have shape ({data.p}, {data.q}), "
                             f"got {B.shape}")
        if not np.all(np.isfinite(B)):
            raise ValueError("coefficient matrix contains non-finite entries")
    return weights, lam, B


def objective(data, B, weights, lam):
    """Weighted group-lasso objective ||Y - XB||_F^2 + lam * sum_j w_j ||b_j||."""
    weights, lam, B = _check_problem(data, weights, float(lam), B)
    R = data.Y - data.X @ B
    return float(np.sum(R * R) + lam * weights @ np.linalg.norm(B, axis=1))


def kkt_residual(data, B, weights, lam):
    """Per-row violation of the stationarity conditions at B.

    Nonzero rows: ||2 x_j'(Y-XB) - lam w_j b_j/||b_j|| ||_2.
    Zero rows:    (||x_j'(Y-XB)|| - lam w_j / 2)_+.
    """
    weights, lam, B = _check_problem(data, weights, float(lam), B)
    G = data.X.T @ (data.Y - data.X @ B)          # p x q
    return _kkt_from_gradient(G, B, weights, float(lam))


def _kkt_from_gradient(G, B, weights, lam):
    norms = np.sqrt(np.einsum("jk,jk->j", B, B))
    nz = norms > 0
    res = np.maximum(np.sqrt(np.einsum("jk,jk->j", G, G)) - 0.5 * lam * weights, 0.0)
    if np.any(nz):
        direction = B[nz] / norms[nz, None]
        stat = 2.0 * G[nz] - (lam * weights[nz])[:, None] * direction
        res[nz] = np.sqrt(np.einsum("jk,jk->j", stat, stat))
    return res


def _kkt_per_level(G3, B3, shrink):
    """Max row residual per level; G3, B3 are (p, L, q), shrink is (p, L)."""
    gn = np.sqrt(np.einsum("plq,plq->pl", G3, G3))
    bn = np.sqrt(np.einsum("plq,plq->pl", B3, B3))
    res = np.maximum(gn - 0.5 * shrink, 0.0)
    nz = bn > 0
    if np.any(nz):
        inv = np.divide(1.0, bn, out=np.zeros_like(bn), where=nz)
        stat = 2.0 * G3 - (shrink * inv)[:, :, None] * B3
        sn = np.sqrt(np.einsum("plq,plq->pl", stat, stat))
        res = np.where(nz, sn, res)
    return res.max(axis=0)


def _kkt_entrywise_per_level(G3, B3, shrink):
    """Max entry residual per level: |2g - lam sign(b)| or (|g| - lam/2)_+."""
    lam = shrink[:, :, None]
    return np.where(B3 != 0, np.abs(2.0 * G3 - lam * np.sign(B3)),
                    np.maximum(np.abs(G3) - 0.5 * lam, 0.0)).max(axis=(0, 2))


def _group_prox(g, half, s):
    """Row update for the l2 row penalty; g is (A, q), half is (A,)."""
    gnorm = np.sqrt(np.einsum("lq,lq->l", g, g))
    inv = np.divide(1.0, gnorm, out=np.zeros(len(g)), where=gnorm > 0)
    return (np.maximum(1.0 - half * inv, 0.0) / s)[:, None] * g


def _entrywise_prox(g, half, s):
    """Row update for the entrywise l1 penalty (soft-threshold at half)."""
    return np.sign(g) * np.maximum(np.abs(g) - half[:, None], 0.0) / s


# (row update, per-row penalty norms (p, A), per-level KKT residual)
_GROUP = (_group_prox, lambda B: np.sqrt(np.einsum("plq,plq->pl", B, B)),
          _kkt_per_level)
_ENTRYWISE = (_entrywise_prox, lambda B: np.abs(B).sum(axis=2),
              _kkt_entrywise_per_level)


def _column_norms_squared(X):
    col_ss = np.einsum("ij,ij->j", X, X)
    dead = np.flatnonzero(col_ss == 0.0)
    if dead.size:
        raise SolverError(f"design column {dead[0]} is identically zero (s_j = 0)")
    return col_ss


def bcd_solve_path(data, weights, lambdas, init=None, settings=None):
    """Solve the weighted problem at every penalty level in one pass.

    All levels share the design and weights; each level keeps its own
    coefficient block, updated by the same cyclic sweeps until every level
    has a flat objective and a certified solution (or max_sweeps runs out).

    Parameters
    ----------
    data : Dataset
    weights : array (p,)
    lambdas : array (L,) of nonnegative levels.
    init : array (p, q) shared start, or (L, p, q) per-level starts.
    settings : SolverSettings

    Returns
    -------
    B : ndarray (L, p, q)
    traces : list of per-level objective traces (start plus one value per sweep).
    """
    lambdas = np.atleast_1d(np.asarray(lambdas, dtype=float))
    weights, lambdas, init = _check_problem(data, weights, lambdas, init,
                                            allow_stack=True)
    return _cd_path(data, weights, lambdas, init, settings or SolverSettings(), _GROUP)


def _cd_path(data, weights, lambdas, init, settings, penalty):
    """Batched cyclic coordinate descent on validated inputs (``_GROUP`` or ``_ENTRYWISE``)."""
    prox, row_norms, kkt = penalty
    X, Y = data.X, data.Y
    n, p, q = data.n, data.p, data.q
    L = len(lambdas)
    col_ss = _column_norms_squared(X)
    G = X.T @ X                                    # symmetric: row j is column j

    # work arrays cover the active levels only; solved levels retire into
    # ``out`` and the remaining blocks are compacted
    act = np.arange(L)
    B = np.zeros((p, L, q))                        # level axis in the middle
    if init is not None:
        B[:] = init.transpose(1, 0, 2) if init.ndim == 3 else init[:, None, :]
    B2 = B.reshape(p, -1)
    Yb = np.repeat(Y[:, None, :], L, axis=1).reshape(n, L * q)
    R = Yb - X @ B2                                # (n, A*q), C-contiguous
    H = X.T @ R                                    # (p, A*q)
    lam_w = lambdas.copy()
    half = 0.5 * lam_w[None, :] * weights[:, None]  # (p, A): lam w_j / 2
    out = np.empty((L, p, q))

    def objectives():
        resid = np.einsum("ab,ab->b", R, R).reshape(-1, q).sum(axis=1)
        return resid + lam_w * (weights @ row_norms(B))

    obj = objectives()
    traces = [[float(v)] for v in obj]

    for _ in range(settings.max_sweeps):
        A = len(act)
        changed = False
        for j in range(p):
            b_old = B[j]                           # (A, q) view
            g = col_ss[j] * b_old
            g += H[j].reshape(A, q)
            b_new = prox(g, half[j], col_ss[j])
            delta = b_new - b_old
            if delta.any():
                H -= G[j][:, None] * delta.reshape(A * q)[None, :]
                B[j] = b_new
                changed = True
        if changed:
            if not np.all(np.isfinite(B)):
                bad = int(np.flatnonzero(~np.isfinite(B).all(axis=(1, 2)))[0])
                raise SolverError(f"non-finite update in row {bad}")
            # full refresh keeps traces free of incremental drift
            np.subtract(Yb, X @ B2, out=R)
            np.matmul(X.T, R, out=H)
        prev = obj
        obj = objectives()
        for i, l in enumerate(act):
            traces[l].append(float(obj[i]))
        rel = np.abs(prev - obj) / np.maximum(1.0, np.abs(prev))
        ready = rel < settings.tol
        if np.any(ready):
            retire = ready & (kkt(H.reshape(p, A, q), B, 2.0 * half) <= settings.kkt_tol)
            if np.any(retire):
                for i in np.flatnonzero(retire):
                    out[act[i]] = B[:, i, :]
                keep = ~retire
                act = act[keep]
                if act.size == 0:
                    return out, traces
                B = np.ascontiguousarray(B[:, keep, :])
                B2 = B.reshape(p, -1)
                Yb = np.ascontiguousarray(
                    Yb.reshape(n, A, q)[:, keep, :]).reshape(n, -1)
                R = Yb - X @ B2
                H = X.T @ R
                lam_w = lam_w[keep]
                half = np.ascontiguousarray(half[:, keep])
                obj = obj[keep]
    for i, l in enumerate(act):
        out[l] = B[:, i, :]
    return out, traces


def bcd_solve(data, weights, lam, init=None, settings=None):
    """Run cyclic block coordinate descent at a single penalty level.

    Parameters
    ----------
    data : Dataset
    weights : array of shape (p,)
        Nonnegative row weights; a zero weight leaves the row unpenalized.
    lam : float
        Nonnegative penalty level.
    init : array (p, q), optional
        Starting matrix; zeros when omitted.  Starting from a reference
        iterate guarantees the returned objective does not exceed the
        objective at that iterate.
    settings : SolverSettings, optional

    Returns
    -------
    B : ndarray (p, q)
        Solution with exact zeros on thresholded rows.
    trace : list of float
        Objective value at the start and after each sweep; nonincreasing.

    Raises
    ------
    SolverError
        If a design column is identically zero or the iterate becomes
        non-finite (the offending row index is named).
    """
    stack, traces = bcd_solve_path(data, weights, float(lam), init=init,
                                   settings=settings)
    return stack[0], traces[0]
