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
conditions as certificate, the kernel solves the lasso of
:func:`larn.simbench.lasso_path`.  Its finish, run at the same point, is
feature-sign search (Lee, Battle, Raina and Ng, NIPS 2007).  The lasso
separates over response columns, so the finish works on the (level, column)
pairs whose entries fail the KKT test.  In each round, zero entries with
|x_j'r| > lam/2 enter with the sign s_j of x_j'r; the minimizer on that
orthant solves G_MM b_M = X_M'y - (lam/2) s_M; and the step goes to the
best of that point and the points where an entry reaches zero.  A round is
kept only when it lowers the column's objective.  A column with more
nonzeros than X has rows (p > n) instead steps along a null vector of X_M
until one entry reaches zero, which does not raise the objective.  The
masked systems of a round are solved in batches of bounded size.
:func:`bcd_solve` and :func:`bcd_solve_path` solve the group lasso at one
level or many.
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
    """Stopping parameters for the block coordinate descent loop.

    A level stops once its objective changes by less than a relative
    ``_FLAT_TOL`` in a sweep and its largest KKT residual is at most
    ``kkt_tol``, or after ``max_sweeps`` sweeps.  ``kkt_tol`` is also the
    certificate: a fit whose residual exceeds it is flagged as not
    certified.
    """

    def __init__(self, max_sweeps=1000, kkt_tol=1e-6):
        if max_sweeps < 1:
            raise ValueError("max_sweeps must be a positive integer")
        if kkt_tol <= 0:
            raise ValueError("kkt_tol must be positive")
        self.max_sweeps = int(max_sweeps)
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
    return _path_kkt(data, B[None], weights[:, None], lam)[:, 0]


def _path_kkt(data, stack, weights, lambdas):
    """Row residuals (p, L) of the weighted problems at a stack (L, p, q); weights (p, L)."""
    G = data.X.T @ (data.Y - data.X @ stack)               # (L, p, q)
    return _kkt_rows(G.transpose(1, 0, 2), stack.transpose(1, 0, 2), weights * lambdas)


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


def _entry_residuals(g, b, half):
    """Entrywise KKT residuals: |2g - 2 half sign(b)| if b != 0, else (|g| - half)_+."""
    return np.where(b != 0, np.abs(2.0 * g - 2.0 * half * np.sign(b)),
                    np.maximum(np.abs(g) - half, 0.0))


def _kkt_entrywise_rows(G3, B3, shrink):
    """Max entry residual per row (p, L): |2g - lam sign(b)| or (|g| - lam/2)_+."""
    return _entry_residuals(G3, B3, 0.5 * shrink[:, :, None]).max(axis=2)


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


# a level may stop once a sweep changes its objective by less than this
# fraction (and it passes the KKT test)
_FLAT_TOL = 1e-8

# Anderson extrapolation: iterates combined per step (also the sweeps
# between steps) and the ridge on U'U relative to its trace
_ANDERSON_DEPTH = 5
_ANDERSON_EPS = 1e-10

# Newton finish: steps per window, Armijo slope fraction, step halvings
_NEWTON_STEPS = 20
_ARMIJO = 1e-4
_NEWTON_BACKTRACKS = 30

# feature-sign finish: rounds per window, and the entries of the masked
# systems built and solved at once (0.5 MB), so memory does not grow with
# the number of pending (level, column) pairs
_SIGN_ROUNDS = 20
_SIGN_BLOCK_ENTRIES = 1 << 16


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
    L = len(lambdas)
    if init is not None:
        init = np.broadcast_to(init, (L,) + init.shape)
    return _cd_path(data, np.broadcast_to(weights[:, None], (data.p, L)), lambdas, init,
                    settings or SolverSettings(), _GROUP)


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


def _solve_masked(G, mask, rhs):
    """Solve G_MM x_M = rhs_M for each row of mask (N, p), x = 0 off the mask.

    The systems are built as (N, p, p) matrices with identity blocks off the
    mask.  A singular batch is solved one system at a time, and a system that
    is singular on its own gets a NaN solution.
    """
    p = G.shape[0]
    K = np.where(mask[:, :, None] & mask[:, None, :], G, 0.0)
    K[:, np.arange(p), np.arange(p)] += ~mask
    rhs = np.where(mask, rhs, 0.0)[:, :, None]
    try:
        return np.linalg.solve(K, rhs)[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.full(mask.shape, np.nan)
        for i in range(len(K)):
            try:
                out[i] = np.linalg.solve(K[i], rhs[i])[:, 0]
            except np.linalg.LinAlgError:
                pass
        return out


def _orthant_candidates(G, b, g, xty, half, max_active):
    """Feature-sign step candidates (N, p+1, p) for the lasso columns b (N, p).

    Zero entries with |g_j| > half_j enter with the sign of g_j, the
    strongest first and only while at most ``max_active`` entries are
    nonzero.  On that sign pattern s the objective is a quadratic whose
    minimizer solves G_MM b_M = xty_M - half_M s_M.  The candidates along the
    segment to it are the point where each nonzero entry reaches zero (that
    entry set to exactly zero; the segment end where no entry crosses) and
    the end itself.
    """
    p = b.shape[1]
    zero = b == 0
    viol = np.where(zero, np.abs(g) - half, -np.inf)
    room = max_active - np.count_nonzero(~zero, axis=1)
    rank = np.argsort(np.argsort(-viol, axis=1), axis=1)
    s = np.where(zero, np.sign(g) * ((viol > 0) & (rank < room[:, None])), np.sign(b))
    with np.errstate(all="ignore"):
        end = _solve_masked(G, s != 0, xty - half * s)
        cross = b * end < 0
        t = np.where(cross, b / (b - end), 1.0)
        trial = b[:, None, :] + t[:, :, None] * (end - b)[:, None, :]
    trial[:, np.arange(p), np.arange(p)] *= ~cross
    return np.concatenate([trial, end[:, None, :]], axis=1)


def _null_candidates(G, b, max_active):
    """Support-reducing candidates (N, 2, p) for columns with over ``max_active`` nonzeros.

    With more nonzeros than X has rows, X_M has a null vector v: keeping the
    ``max_active`` largest entries A and one more entry j, v = e_j - z with
    G_AA z = G_Aj.  Along +-v the fit X b does not change, so the objective
    is linear up to the first entry that reaches zero; that point (the entry
    set to exactly zero) is the candidate in each direction.
    """
    N, p = b.shape
    rows = np.arange(N)
    order = np.argsort(-np.abs(b), axis=1)
    keep = np.zeros((N, p), dtype=bool)
    keep[rows[:, None], order[:, :max_active]] = True
    j = order[:, max_active]
    v = -_solve_masked(G, keep, G[j])
    v[rows, j] = 1.0
    out = []
    for u in (v, -v):
        with np.errstate(all="ignore"):
            t = np.where(b * u < 0, -b / u, np.inf)
        k = np.argmin(t, axis=1)
        tk = np.where(np.isfinite(t[rows, k]), t[rows, k], 0.0)
        trial = b + tk[:, None] * u
        trial[rows, k] *= tk == 0
        out.append(trial)
    return np.stack(out, axis=1)


def _best_candidate(G, b, g, half, trial):
    """Objective change, point and G (point - b) of the best candidate per row.

    ``trial`` is (N, K, p).  The change of ||y - Xb||^2 + 2 sum half_j |b_j|
    is computed from D = point - b as D'GD - 2 D'g plus the l1 change;
    non-finite changes count as +inf.
    """
    with np.errstate(all="ignore"):
        D = trial - b[:, None, :]
        GD = D @ G
        change = (np.einsum("nkp,nkp->nk", D, GD - 2.0 * g[:, None, :])
                  + 2.0 * np.einsum("nkp,np->nk", np.abs(trial) - np.abs(b)[:, None, :], half))
    change = np.where(np.isfinite(change), change, np.inf)
    best = np.argmin(change, axis=1)
    rows = np.arange(len(b))
    return change[rows, best], trial[rows, best], GD[rows, best]


def _sign_round(G, b, g, xty, half, max_active):
    """One feature-sign round on lasso columns b (N, p) with g = X'(y - Xb).

    Columns with at most ``max_active`` nonzeros take the best of
    :func:`_orthant_candidates` when it lowers their objective; the others
    take the best of :func:`_null_candidates` when it does not raise it (a
    flat step still removes an entry).  Updates b and g in place and
    returns a mask (N,) of the columns that moved.
    """
    over = np.count_nonzero(b, axis=1) > max_active
    moved = np.zeros(len(b), dtype=bool)
    for reduce in (False, True):
        rows = np.flatnonzero(over == reduce)
        if rows.size == 0:
            continue
        br, gr, hr = b[rows], g[rows], half[rows]
        trial = (_null_candidates(G, br, max_active) if reduce
                 else _orthant_candidates(G, br, gr, xty[rows], hr, max_active))
        change, point, GD = _best_candidate(G, br, gr, hr, trial)
        ok = ((change <= 0) & np.any(point != br, axis=1)) if reduce else change < 0
        rows = rows[ok]
        b[rows] = point[ok]
        g[rows] -= GD[ok]
        moved[rows] = True
    return moved


def _feature_sign(G, b, g, xty, half, kkt_tol, max_active):
    """Feature-sign search on lasso columns (Lee, Battle, Raina and Ng, NIPS 2007).

    Each row of b (N, p) is one (level, column) pair of
    ||y - Xb||^2 + 2 sum_j half_j |b_j|, with g = X'(y - Xb), xty = X'y and
    G = X'X.  Each pair repeats :func:`_sign_round` until its entries pass
    the KKT test at ``kkt_tol``, a round does not move it, or
    ``_SIGN_ROUNDS`` rounds have run; ``max_active`` is the number of rows of
    X.  A round handles its pairs in blocks whose (N, p, p) systems hold at
    most ``_SIGN_BLOCK_ENTRIES`` entries.  Never raises.

    Returns the new b (a copy) and a mask (N,) of the pairs that moved.
    """
    b, g = b.copy(), g.copy()
    N, p = b.shape
    moved = np.zeros(N, dtype=bool)
    step = max(1, _SIGN_BLOCK_ENTRIES // (p * p))
    idx = np.arange(N)
    for _ in range(_SIGN_ROUNDS):
        idx = idx[_entry_residuals(g[idx], b[idx], half[idx]).max(axis=1) > kkt_tol]
        ok = np.zeros(len(idx), dtype=bool)
        for start in range(0, len(idx), step):
            blk = idx[start:start + step]
            bb, gb = b[blk], g[blk]
            ok[start:start + step] = _sign_round(G, bb, gb, xty[blk], half[blk], max_active)
            b[blk], g[blk] = bb, gb
        idx = idx[ok]
        moved[idx] = True
        if idx.size == 0:
            break
    return b, moved


def _cd_path(data, weights, lambdas, init, settings, penalty):
    """Batched cyclic coordinate descent on validated inputs (``_GROUP`` or ``_ENTRYWISE``).

    Each level has its own inputs: ``weights`` is (p, L), column l holding
    the row weights of level l, and ``init`` is (L, p, q), the start of each
    level (or None for zeros).  :func:`bcd_solve_path` broadcasts one weight
    vector and one start to that form; the reweighting rounds of
    :func:`larn.estimator.larn_path` after the first pass each level its
    own iterate and the weights taken there.

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

    With ``_ENTRYWISE``, the (level, column) pairs whose entries fail the KKT
    test at ``settings.kkt_tol`` run :func:`_feature_sign` there instead, and
    a level with a moved pair is kept or restored under the same rule.
    Only this finish needs ``X'Y``; the group path never computes it.
    """
    prox, row_norms, kkt = penalty
    X, Y = data.X, data.Y
    n, p, q = data.n, data.p, data.q
    L = len(lambdas)
    col_ss = _column_norms_squared(X)
    G = X.T @ X                                    # symmetric: row j is column j
    if penalty is _ENTRYWISE:
        XtY = X.T @ Y

    # work arrays cover the active levels only; solved levels retire into
    # ``out`` and the remaining blocks are compacted
    act = np.arange(L)
    B = np.zeros((p, L, q))                        # level axis in the middle
    if init is not None:
        B[:] = init.transpose(1, 0, 2)
    B2 = B.reshape(p, -1)
    Yb = np.repeat(Y[:, None, :], L, axis=1).reshape(n, L * q)
    R = Yb - X @ B2                                # (n, A*q), C-contiguous
    H = X.T @ R                                    # (p, A*q)
    lam_w = lambdas.copy()
    half = 0.5 * lam_w[None, :] * weights          # (p, A): lam w_j / 2
    out = np.empty((L, p, q))
    iterates = np.empty((L, _ANDERSON_DEPTH + 1, p, q))   # level axis first
    iterates[:, 0] = B.transpose(1, 0, 2)
    since = 0                                      # sweeps since iterates[:, 0]

    def objectives():
        resid = np.einsum("ab,ab->b", R, R).reshape(-1, q).sum(axis=1)
        return resid + lam_w * np.einsum("pa,pa->a", weights, row_norms(B))

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

    def feature_sign(obj):
        # finish the (level, column) pairs whose entries fail the KKT test;
        # H may predate the extrapolation, so X'R is formed afresh
        Hn = (X.T @ R).reshape(p, -1, q)
        res = _entry_residuals(Hn, B, half[:, :, None]).max(axis=0)
        lv, col = np.nonzero(res > settings.kkt_tol)
        if lv.size == 0:
            return False
        b, moved = _feature_sign(G, B[:, lv, col].T, Hn[:, lv, col].T, XtY[:, col].T,
                                 half[:, lv].T, settings.kkt_tol, n)
        if not np.any(moved):
            return False
        before = B.copy()
        B[:, lv[moved], col[moved]] = b[moved].T
        levels = np.zeros(len(obj), dtype=bool)
        levels[lv[moved]] = True
        return keep_if_lower(levels, before, obj)

    def newton(obj):
        # finish each level whose nonzero rows held over the stored iterates
        nz = np.einsum("akpq,akpq->akp", iterates, iterates) > 0
        todo = np.all(nz == nz[:, -1:], axis=(1, 2)) & nz[:, -1].any(axis=1)
        before = B.copy()
        moved = np.zeros(len(obj), dtype=bool)
        for i in np.flatnonzero(todo):
            B[:, i, :], steps = _newton_finish(X, Y, before[:, i, :], weights[:, i],
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
            else:
                changed = feature_sign(obj) or changed
            iterates[:, 0] = B.transpose(1, 0, 2)
            since = 0
        if changed:
            np.matmul(X.T, R, out=H)
        for i, l in enumerate(act):
            traces[l].append(float(obj[i]))
        rel = np.abs(prev - obj) / np.maximum(1.0, np.abs(prev))
        ready = rel < _FLAT_TOL
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
                weights = weights[:, keep]
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
