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
||Y||^2 - 2 tr(B'X'Y) + tr(B'X'XB).

Every five sweeps each level tries an Anderson extrapolation of its last
iterates (Bertrand and Massias, AISTATS 2021): with U the five iterate
differences, (U'U + eps I) z = 1 is solved and the last five iterates are
combined with weights z / sum(z).  The safeguard keeps the combination only
when the level's objective, computed from the refreshed residual, is finite
and strictly lower, so the traces stay nonincreasing; a trace still holds
one value per sweep.

For the group penalty, each level whose nonzero rows S stayed the same
over those iterates then gets a Newton finish on S (proximal Newton, Lee,
Sun and Saunders, SIAM J. Optim. 2014; Newton steps on the identified
support, Bareilles, Iutzeler and Malick, Math. Programming).  On S the
objective is smooth.  With c_j = lam w_j, u_j = b_j/||b_j|| and
k_j = c_j/||b_j||, its gradient is -2 X_S'R + c u and its Hessian is
(2 G_SS + diag k) (x) I_q - W W', where column j of W is
e_j (x) sqrt(k_j) u_j: a rank-|S| correction, solved by Woodbury in
O(|S|^3 + |S|^2 q) without forming the (|S| q)^2 matrix.  Steps backtrack
(Armijo) on the objective and are taken only when it is finite and
strictly lower; the finish stops once the rows in S pass the KKT test,
when the line search fails, or after a fixed number of steps.  This is what
certifies p > n levels that sweeps alone leave uncertified after 1000.

With the entrywise soft-threshold as row update and the entrywise KKT
conditions as certificate, and no Newton finish, the kernel solves
:func:`larn.simbench.lasso_path`; :func:`bcd_solve` and
:func:`bcd_solve_path` solve the group lasso at one level or many.
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


def row_support(B):
    """Indices of rows with nonzero Euclidean norm."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    return np.flatnonzero(np.linalg.norm(B, axis=1) > 0)


def _check_problem(data, weights, lam, B=None):
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
        if B.shape != (data.p, data.q):
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
    return _kkt_rows(G[:, None, :], B[:, None, :], (lam * weights)[:, None])[:, 0]


def _kkt_rows(G3, B3, shrink):
    """Row residuals (p, L); G3 = X'R and B3 are (p, L, q), shrink is lam w (p, L)."""
    gn = np.sqrt(np.einsum("plq,plq->pl", G3, G3))
    bn = np.sqrt(np.einsum("plq,plq->pl", B3, B3))
    res = np.maximum(gn - 0.5 * shrink, 0.0)
    nz = bn > 0
    if np.any(nz):
        inv = np.divide(1.0, bn, out=np.zeros_like(bn), where=nz)
        stat = 2.0 * G3 - (shrink * inv)[:, :, None] * B3
        sn = np.sqrt(np.einsum("plq,plq->pl", stat, stat))
        res = np.where(nz, sn, res)
    return res


def _kkt_entrywise_rows(G3, B3, shrink):
    """Max entry residual per row (p, L): |2g - lam sign(b)| or (|g| - lam/2)_+."""
    lam = shrink[:, :, None]
    return np.where(B3 != 0, np.abs(2.0 * G3 - lam * np.sign(B3)),
                    np.maximum(np.abs(G3) - 0.5 * lam, 0.0)).max(axis=2)


def _group_prox(g, half, s):
    """Row update for the l2 row penalty; g is (A, q), half is (A,)."""
    gnorm = np.sqrt(np.einsum("lq,lq->l", g, g))
    inv = np.divide(1.0, gnorm, out=np.zeros(len(g)), where=gnorm > 0)
    return (np.maximum(1.0 - half * inv, 0.0) / s)[:, None] * g


def _entrywise_prox(g, half, s):
    """Row update for the entrywise l1 penalty (soft-threshold at half)."""
    return np.sign(g) * np.maximum(np.abs(g) - half[:, None], 0.0) / s


# (row update, per-row penalty norms (p, A), per-row KKT residual (p, A))
_GROUP = (_group_prox, lambda B: np.sqrt(np.einsum("plq,plq->pl", B, B)),
          _kkt_rows)
_ENTRYWISE = (_entrywise_prox, lambda B: np.abs(B).sum(axis=2),
              _kkt_entrywise_rows)


# Anderson extrapolation: iterates combined per step (also the sweeps
# between steps) and the ridge on U'U relative to its trace
_ANDERSON_DEPTH = 5
_ANDERSON_EPS = 1e-10

# Newton finish: steps per window, Armijo slope fraction, step halvings
_NEWTON_STEPS = 20
_ARMIJO = 1e-4
_NEWTON_BACKTRACKS = 30


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
    init : array (p, q), optional
        Start shared by every level; zeros when omitted.
    settings : SolverSettings

    Returns
    -------
    B : ndarray (L, p, q)
    traces : list of per-level objective traces (start plus one value per sweep).
    """
    lambdas = np.atleast_1d(np.asarray(lambdas, dtype=float))
    weights, lambdas, init = _check_problem(data, weights, lambdas, init)
    return _cd_path(data, weights, lambdas, init, settings or SolverSettings(), _GROUP)


def _anderson(iterates):
    """Anderson extrapolation of each level from the iterates (A, K+1, p, q).

    With U the K iterate differences of a level, solves the regularized
    system (U'U + eps I) z = 1 and combines the last K iterates with
    c = z / sum(z).  Returns the candidates (A, p, q) and a mask (A,) of
    the levels that have a finite one; a level that did not move has none.
    Never raises: a failed solve leaves every level without a candidate.
    """
    A, K = iterates.shape[0], iterates.shape[1] - 1
    flat = iterates.reshape(A, K + 1, -1)
    U = np.diff(flat, axis=1)                              # (A, K, p*q)
    C = U @ U.transpose(0, 2, 1)                           # (A, K, K)
    scale = np.trace(C, axis1=1, axis2=2)
    ok = np.isfinite(scale) & (scale > 0)
    reg = C[ok] + (_ANDERSON_EPS * scale[ok])[:, None, None] * np.eye(K)
    try:
        z = np.linalg.solve(reg, np.ones((len(reg), K, 1)))[:, :, 0]
    except np.linalg.LinAlgError:
        z = np.full((len(reg), K), np.nan)
    c = np.zeros((A, K))
    with np.errstate(all="ignore"):
        c[ok] = z / z.sum(axis=1, keepdims=True)
    cand = (c[:, None, :] @ flat[:, 1:]).reshape((A,) + iterates.shape[2:])
    ok &= np.all(np.isfinite(c), axis=1) & np.all(np.isfinite(cand), axis=(1, 2))
    return cand, ok


def _newton_direction(GS, BS, grad, c):
    """Newton direction -Hess^-1 grad on the nonzero rows BS (s, q), in Woodbury form.

    With k_j = c_j / ||b_j|| and u_j = b_j / ||b_j||, the Hessian of the
    objective on the support is (2 GS + diag k) (x) I_q - W W', where column
    j of W is e_j (x) sqrt(k_j) u_j.  Writing A = 2 GS + diag k and
    Z = A^-1 grad, Woodbury gives the direction from the s x s system
    C a = sqrt(k) * rowdot(U, Z), C = I - diag(sqrt k) (A^-1 o UU') diag(sqrt k),
    as -(Z + A^-1 diag(sqrt(k) a) U): O(s^3 + s^2 q), and no (s q)^2 matrix.
    Raises ``LinAlgError`` when A or C is singular.
    """
    nrm = np.sqrt(np.einsum("sq,sq->s", BS, BS))
    k = c / nrm
    U = BS / nrm[:, None]
    sk = np.sqrt(k)
    Ainv = np.linalg.inv(2.0 * GS + np.diag(k))
    Z = Ainv @ grad
    C = np.eye(len(k)) - sk[:, None] * (Ainv * (U @ U.T)) * sk[None, :]
    a = np.linalg.solve(C, sk * np.einsum("sq,sq->s", U, Z))
    return -(Z + Ainv @ ((sk * a)[:, None] * U))


def _newton_finish(X, Y, B, weights, lam, kkt_tol):
    """Safeguarded Newton steps on the nonzero rows of B (p, q) at one level.

    The rows of B that are zero stay zero; on the others the objective is
    smooth, and each step follows :func:`_newton_direction` with Armijo
    backtracking on the objective.  A step is taken only when the objective
    is finite and strictly lower.  Stops when the nonzero rows pass the
    KKT test at ``kkt_tol`` (zero rows only coordinate descent can move),
    when the line search fails, when the direction cannot be computed or is
    not finite, or after ``_NEWTON_STEPS`` steps.  Never raises.

    Returns the new B (a copy, or B itself when no step was taken) and the
    number of steps taken.
    """
    S = row_support(B)
    if S.size == 0:
        return B, 0
    XS = X[:, S]
    GS = XS.T @ XS
    c = lam * weights[S]

    def evaluate(BS):
        # residual, row norms and objective at the support rows BS
        R = Y - XS @ BS
        nrm = np.sqrt(np.einsum("sq,sq->s", BS, BS))
        return R, nrm, np.sum(R * R) + c @ nrm

    BS = B[S]
    R, nrm, f = evaluate(BS)
    steps = 0
    with np.errstate(all="ignore"):
        while steps < _NEWTON_STEPS:
            HS = XS.T @ R
            if _kkt_rows(HS[:, None, :], BS[:, None, :], c[:, None]).max() <= kkt_tol:
                break
            grad = (c / nrm)[:, None] * BS - 2.0 * HS
            try:
                d = _newton_direction(GS, BS, grad, c)
            except np.linalg.LinAlgError:
                break
            slope = np.sum(grad * d)
            if not (np.all(np.isfinite(d)) and slope < 0):
                break
            t = 1.0
            for _ in range(_NEWTON_BACKTRACKS):
                trial = BS + t * d
                R_t, nrm_t, f_t = evaluate(trial)
                if np.isfinite(f_t) and f_t < f and f_t <= f + _ARMIJO * t * slope:
                    break
                t *= 0.5
            else:
                break
            BS, R, nrm, f = trial, R_t, nrm_t, f_t
            steps += 1
    if steps == 0:
        return B, 0
    B = np.zeros_like(B)
    B[S] = BS
    return B, steps


def _cd_path(data, weights, lambdas, init, settings, penalty):
    """Batched cyclic coordinate descent on validated inputs (``_GROUP`` or ``_ENTRYWISE``).

    Every ``_ANDERSON_DEPTH`` sweeps each active level tries the Anderson
    extrapolation of its last iterates (:func:`_anderson`) and keeps it
    only when its objective, computed from the refreshed residual, is
    finite and strictly lower.  The candidates are evaluated in place: they
    overwrite B, R is refreshed into its buffer, and rejected levels are
    restored from the stored last iterate before a second refresh.

    With ``_GROUP``, each active level whose nonzero-row set did not change
    over the stored iterates (and is not empty) then runs
    :func:`_newton_finish`: at most ``_NEWTON_STEPS`` Woodbury-form Newton
    steps on those rows, with Armijo backtracking, stopping early once the
    rows pass the KKT test.  A finished level is kept under the same rule
    as an extrapolation (finite, strictly lower refreshed objective), else
    restored; R and H are then refreshed from B.  Zero rows are left to the
    sweeps and to the KKT retire test, which with the stopping rule and
    compaction are unchanged.  A trace holds one value per sweep, an
    accepted extrapolation or Newton finish included.
    """
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
        B[:] = init[:, None, :]
    B2 = B.reshape(p, -1)
    Yb = np.repeat(Y[:, None, :], L, axis=1).reshape(n, L * q)
    R = Yb - X @ B2                                # (n, A*q), C-contiguous
    H = X.T @ R                                    # (p, A*q)
    lam_w = lambdas.copy()
    half = 0.5 * lam_w[None, :] * weights[:, None]  # (p, A): lam w_j / 2
    out = np.empty((L, p, q))
    iterates = np.empty((L, _ANDERSON_DEPTH + 1, p, q))   # level axis first
    iterates[:, 0] = B.transpose(1, 0, 2)
    since = 0                                      # sweeps since iterates[:, 0]

    def objectives():
        resid = np.einsum("ab,ab->b", R, R).reshape(-1, q).sum(axis=1)
        return resid + lam_w * (weights @ row_norms(B))

    def keep_if_lower(moved, before, obj):
        # B holds a candidate on each level in ``moved``; keep it only when
        # the refreshed objective is finite and strictly lower, else restore
        # the level from ``before`` (laid out as B).  Lowers obj in place and
        # returns whether any candidate was kept.
        np.subtract(Yb, X @ B2, out=R)
        trial = objectives()
        take = moved & np.isfinite(trial) & (trial < obj)
        back = moved & ~take
        if np.any(back):
            B[:, back] = before[:, back]
            np.subtract(Yb, X @ B2, out=R)
        obj[take] = trial[take]
        return bool(np.any(take))

    def newton(obj):
        # finish each level whose nonzero rows held over the stored iterates
        nz = np.einsum("akpq,akpq->akp", iterates, iterates) > 0
        todo = np.all(nz == nz[:, -1:], axis=(1, 2)) & nz[:, -1].any(axis=1)
        before = B.copy()
        moved = np.zeros(len(obj), dtype=bool)
        for i in np.flatnonzero(todo):
            B[:, i, :], steps = _newton_finish(X, Y, before[:, i, :], weights,
                                               lam_w[i], settings.kkt_tol)
            moved[i] = steps > 0
        return bool(np.any(moved)) and keep_if_lower(moved, before, obj)

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
        prev = obj
        obj = objectives()
        since += 1
        iterates[:, since] = B.transpose(1, 0, 2)
        if since == _ANDERSON_DEPTH:
            cand, ok = _anderson(iterates)
            if np.any(ok):
                # evaluate in place; the last iterate holds the current B
                B[:, ok] = cand[ok].transpose(1, 0, 2)
                before = iterates[:, -1].transpose(1, 0, 2)
                changed = keep_if_lower(ok, before, obj) or changed
            if penalty is _GROUP:
                changed = newton(obj) or changed
            iterates[:, 0] = B.transpose(1, 0, 2)
            since = 0
        if changed:
            np.matmul(X.T, R, out=H)
        for i, l in enumerate(act):
            traces[l].append(float(obj[i]))
        rel = np.abs(prev - obj) / np.maximum(1.0, np.abs(prev))
        ready = rel < settings.tol
        if np.any(ready):
            worst = kkt(H.reshape(p, A, q), B, 2.0 * half).max(axis=0)
            retire = ready & (worst <= settings.kkt_tol)
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
                iterates = iterates[keep]
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
