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
R itself is formed once, at each level's start B_s.  With G = X'X,
D = B - B_s, H_s = X'(Y - X B_s) and r_s = ||Y - X B_s||^2 per column, H
is recomputed as H_s - G D after every sweep, and the fit term is read as

    ||Y - XB||^2 = r_s - <D, H_s> - <D, H>,

so the traces, the finishes and the KKT retire test never rest on the
incremental updates, and a sweep costs O(p^2) per column with no O(n)
term (G D has the row updates' flop count, but as one BLAS product it takes
a small share of their time, also at p >> n).  The anchor is the
start, not zero: the starts the package passes (the least-squares fit, the
lasso's homotopy path, the previous reweighting round's iterate) lie near
their solutions, so the expansion cancels little, while the zero-anchored
||Y||^2 - <B, X'Y> - <B, H> cancels enough to raise one p > n lasso
column's trace by 1.1e-12 on an objective of 0.149.  :func:`kkt_residual`
still reads X'(Y - XB) from the data.

After every sweep, the levels whose nonzero rows S held over that sweep
(and are not empty) are due for a Newton finish on S (proximal Newton, Lee,
Sun and Saunders, SIAM J. Optim. 2014; Newton steps on the identified
support, Bareilles, Iutzeler and Malick, Math. Programming).  A due level
parks: it leaves the sweeping levels, and once none is left sweeping,
every parked level takes its finish in one call that steps them together,
then rejoins.  So each level runs the same sweeps and finishes as when
solved alone, and a kernel call pays for few batched steps.  A level keeps
its finish unless its refreshed objective is above the sweep's or NaN; a
step is taken only on a negative computed change, so a level that took
none comes back unchanged.  A trace still holds one value per sweep.
On S the objective is smooth.  With c_j = lam w_j, u_j = b_j/||b_j|| and
k_j = c_j/||b_j||, its gradient is -2 X_S'R + c u and its Hessian is
(2 G_SS + diag k) (x) I_q - W W', where column j of W is
e_j (x) sqrt(k_j) u_j: a rank-|S| correction, solved by Woodbury in
O(|S|^3 + |S|^2 q) without forming the (|S| q)^2 matrix.  Each level's S
is padded to all p rows, with identity blocks off S, so a step is one
batched inverse and one batched solve over the levels, and a level's
arithmetic does not depend on which other levels share the call.  The
finish reads the design only through G = X'X and the kernel's H = X'R,
and tracks H across its steps as the sweeps do.  Along a step d the fit
term changes by t^2 <d, Gd> - 2t <d, H>, and row j's norm by
m_j / (||b_j + t d_j|| + ||b_j||), where m_j = t (2<b_j, d_j> + t ||d_j||^2)
and ||b_j + t d_j|| = sqrt(||b_j||^2 + m_j).  This form does not cancel when
the step is short next to the row, as it is when a finish starts one sweep
from the optimum.  So the line search reads every trial point from dot
products taken once per step, at O(p) a trial, and never forms it.

Rows may leave S: a row j crosses when its full step d_j passes through
zero, <b_j, b_j + d_j> < 0, and the candidates are then the full step with
every crossing row set to zero and, for each crossing row, the point of the
segment where its norm is smallest with that row set to zero, whose change
of fit reads G_jj and row j of H and Gd.  The lowest is taken if it lowers
the objective, and the rows it zeroes leave S.  Only when no row crosses
or no candidate is lower does the step backtrack: the full step is read
first, and only where it fails Armijo are the lengths 1/2, 1/4, ... read,
all at once, the longest that satisfies Armijo taken.
Each step is accepted on its computed objective change, which must be
finite and negative, not on the difference of two rounded objectives; the
trace then records the refreshed objective.  A level's finish stops once
the rows in S pass the KKT test, when the line search fails, or after a
fixed number of steps.
This is what certifies p > n levels that sweeps alone leave uncertified
after 1000.

At q = 1 the row penalty is l1, ||b_j|| = |b_j|, the problem is a weighted
lasso, and the Hessian on S, 2 G_SS, is singular once |S| > n.  There the
path in lam is piecewise linear, and :func:`_weighted_homotopy` follows it
exactly (LARS-lasso with row weights; rows of zero weight stay active).
Levels that read one response column, a single-response group fit and the
per-response lasso of :func:`larn.simbench.lasso_path` alike, start at the
better of their given start and their homotopy point, by the weighted
objective, so those the homotopy solves pass the KKT test at their start
and take no sweep; the sweeps and the Newton finish take any other from
there.
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


def _is_int(value):
    # a JSON config gives floats and booleans too; neither is a count or a seed
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _count(name, value, least=1):
    """``value`` as an int; a ValueError naming ``name`` unless it is an
    integer (not a float or a bool) of at least ``least``."""
    if not _is_int(value) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)


def _levels(name, values):
    """``values`` as a float array; a ValueError naming ``name`` unless every
    entry is finite and nonnegative."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise ValueError(f"{name} must be finite and nonnegative")
    return values


class SolverSettings:
    """Stopping parameters for the block coordinate descent loop.

    A level stops once its largest KKT residual is at most ``kkt_tol``
    (positive and finite), tested at its start and after every sweep and
    Newton finish, or when the kernel has run ``max_sweeps`` iterations (a
    positive integer).  Each iteration sweeps the levels that are not
    waiting for a finish, so a level sweeps at most ``max_sweeps`` times.
    ``kkt_tol`` is also the certificate: a fit whose residual exceeds it is
    flagged as not certified.
    """

    def __init__(self, max_sweeps=1000, kkt_tol=1e-6):
        if not 0.0 < kkt_tol < np.inf:
            raise ValueError(f"kkt_tol must be positive and finite, got {kkt_tol!r}")
        self.max_sweeps = _count("max_sweeps", max_sweeps)
        self.kkt_tol = float(kkt_tol)


def row_support(B):
    """Indices of rows with nonzero Euclidean norm."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    return np.flatnonzero(np.linalg.norm(B, axis=1) > 0)


def _check_problem(data, weights, lam, B=None):
    weights = _levels("weights", weights)
    if weights.shape != (data.p,):
        raise ValueError(f"weights must have shape ({data.p},), got {weights.shape}")
    lam = _levels("lam", lam)
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


def _row_norms(B):
    """Euclidean norms over the last axis: row norms (p, A) of a level stack (p, A, q)."""
    return np.sqrt(np.einsum("...q,...q->...", B, B))


def _kkt_rows(G3, B3, shrink):
    """Row residuals (p, L); G3 = X'R and B3 are (p, L, q), shrink is lam w (p, L).

    Any leading shape in place of (p, L) works alike, shrink broadcast to it.
    """
    gn = _row_norms(G3)
    bn = _row_norms(B3)
    nz = bn > 0
    inv = np.divide(1.0, bn, out=np.zeros_like(bn), where=nz)
    stat = 2.0 * G3 - (shrink * inv)[..., None] * B3
    return np.where(nz, _row_norms(stat), np.maximum(gn - 0.5 * shrink, 0.0))


def _group_prox(g, half, s):
    """Row update for the l2 row penalty; g is (A, q), half is (A,)."""
    gnorm = _row_norms(g)
    inv = np.divide(1.0, gnorm, out=np.zeros(len(g)), where=gnorm > 0)
    return (np.maximum(1.0 - half * inv, 0.0) / s)[:, None] * g


# Newton finish: steps per finish, Armijo slope fraction, step halvings
_NEWTON_STEPS = 20
_ARMIJO = 1e-4
_NEWTON_BACKTRACKS = 30

# entries (8 MB) of all the work arrays of a block of Newton-finished
# levels, so memory does not grow with the number of levels; a finish pays
# per batched step, so a block should hold most finishes' due levels (218
# levels at p = q = 20, 34 at p = q = 50).  The line
# search reads its trial points from row dots into (K, p) arrays, with at
# most max(_NEWTON_BACKTRACKS, p + 1) rows per level; the count of a level's
# work arrays in _newton_finish leaves them out
_BLOCK_ENTRIES = 1 << 20


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
    passes the KKT test (or max_sweeps runs out); a level that passes it at
    its start takes no sweep.

    Parameters
    ----------
    data : Dataset
    weights : array (p,)
    lambdas : array (L,) of nonnegative levels.
    init : array (p, q), optional
        Start shared by every level; zeros when omitted.  At q = 1 each
        level starts at whichever of it and the level's point on the
        weighted lasso path has the lower objective.
    settings : SolverSettings

    Returns
    -------
    B : ndarray (L, p, q)
    traces : list of per-level objective traces (the chosen start plus one
        value per sweep).
    """
    weights, lambdas, init = _check_problem(data, weights, np.atleast_1d(lambdas), init)
    L = len(lambdas)
    start = np.zeros((data.p, data.q)) if init is None else init
    return _cd_path(data, np.broadcast_to(weights[:, None], (data.p, L)), lambdas,
                    np.broadcast_to(start, (L,) + start.shape), settings or SolverSettings())


def _padded(G, mask, shift):
    """Stack (N, p, p) of G restricted to each row of mask (N, p), shift (N, p) added
    to its diagonal, with identity blocks off the mask."""
    p = G.shape[0]
    K = np.where(mask[:, :, None] & mask[:, None, :], G, 0.0)
    K[:, np.arange(p), np.arange(p)] += np.where(mask, shift, 1.0)
    return K


def _stacked(fn, K, *rhs):
    """``fn`` (``np.linalg.inv`` or ``solve``) on a stack K (N, p, p).

    A singular stack is redone one matrix at a time, and a matrix that is
    singular on its own gets a NaN result.
    """
    try:
        return fn(K, *rhs)
    except np.linalg.LinAlgError:
        out = np.full((rhs[0] if rhs else K).shape, np.nan)
        for i in range(len(K)):
            try:
                out[i] = fn(K[i], *(r[i] for r in rhs))
            except np.linalg.LinAlgError:
                pass
        return out


def _newton_direction(G, B, grad, c):
    """Newton directions -Hess^-1 grad (N, p, q) on the nonzero rows of each level of B.

    ``B`` and ``grad`` are (N, p, q), ``c`` (N, p) and G = X'X.  With S the
    nonzero rows of a level, k_j = c_j / ||b_j|| and u_j = b_j / ||b_j||,
    the Hessian of the objective on S is (2 G_SS + diag k) (x) I_q - W W',
    where column j of W is e_j (x) sqrt(k_j) u_j.  Writing A = 2 G_SS + diag k
    and Z = A^-1 grad, Woodbury gives the direction from the |S| x |S| system
    C a = sqrt(k) * rowdot(U, Z), C = I - diag(sqrt k) (A^-1 o UU') diag(sqrt k),
    as -(Z + A^-1 diag(sqrt(k) a) U), with no (|S| q)^2 matrix.  Each level
    is padded to all p rows, identity blocks in A off S, so it costs
    O(p^3 + p^2 q) and its arithmetic does not depend on the other levels of
    the stack; rows off S get a zero direction.  A level whose A or C is
    singular gets NaN.
    """
    nrm = _row_norms(B)
    S = nrm > 0
    k = np.divide(c, nrm, out=np.zeros_like(nrm), where=S)
    U = B / np.where(S, nrm, 1.0)[:, :, None]
    sk = np.sqrt(k)
    Ainv = _stacked(np.linalg.inv, _padded(2.0 * G, S, k))
    Z = Ainv @ grad
    C = U @ U.transpose(0, 2, 1)
    C *= Ainv
    C *= sk[:, :, None]
    C *= sk[:, None, :]
    np.subtract(np.eye(len(G)), C, out=C)
    a = _stacked(np.linalg.solve, C, (sk * np.einsum("npq,npq->np", U, Z))[:, :, None])
    d = -(Z + Ainv @ ((sk * a[:, :, 0])[:, :, None] * U))
    d[~S] = 0.0
    return d


def _newton_finish(G, H, B, c, kkt_tol):
    """Safeguarded Newton steps on the nonzero rows S of each level of B (A, p, q).

    G = X'X, and H (A, p, q) is each level's X'R at B, R = Y - XB; row i of
    ``c`` (A, p) is level i's shrinkage lam_i w_i.  The finish reads the
    design only through G and H, and H follows each accepted step as
    H - G (B_new - B), zeroed rows included.  The levels step together, in
    blocks whose work arrays hold about ``_BLOCK_ENTRIES`` entries in all;
    each level is padded to all p rows, so its arithmetic does not depend on
    the other levels.  :func:`_cd_path` calls it once each time no level is
    left sweeping, with every level parked since its last call.

    Each step follows :func:`_newton_direction` on S; zero rows stay zero.
    The objective change at B + t d is
    t^2 <d, Gd> - 2t <d, H> + c'(||b + t d|| - ||b||), each row's norm
    change read as m / (sqrt(||b||^2 + m) + ||b||), m = t (2<b, d> + t ||d||^2),
    from row dots taken once per step, so no trial point is formed; setting
    rows V of that point to zero adds <V, G V + 2 H - 2t Gd> to the fit term
    and -||b_j|| per zeroed row to the norm term.  When rows cross,
    <b_j, b_j + d_j> < 0, the candidates are the full step with every
    crossing row zeroed and, per crossing row j, the step
    t_j = -<b_j, d_j> / ||d_j||^2 with row j zeroed; the lowest is taken when
    its change is negative, and the zeroed rows leave S.  Otherwise the full
    step is read first, for every level at once, and only a level it fails
    reads the shorter lengths 1/2, 1/4, ... (``_NEWTON_BACKTRACKS`` lengths
    in all) in one pass, taking the longest that satisfies Armijo.  A level
    stops when its rows in S pass the KKT test at ``kkt_tol``, when S is
    empty, when the direction is not finite or not a descent direction, when
    the line search fails, or after ``_NEWTON_STEPS`` steps.  Never raises.

    Returns the new B (a copy), the steps taken (A,) and the sum of each
    level's computed objective changes (A,), negative for every level that
    took a step.
    """
    B = np.array(B, dtype=float, order="C")
    H = np.array(H, dtype=float, order="C")
    A, p, q = B.shape
    steps = np.zeros(A, dtype=int)
    total = np.zeros(A)
    # a level's work arrays: about nine (p, q) and three (p, p)
    size = max(1, _BLOCK_ENTRIES // (9 * p * q + 3 * p * p))
    with np.errstate(all="ignore"):
        for lo in range(0, A, size):
            blk = slice(lo, lo + size)
            _newton_steps(G, H[blk], B[blk], c[blk], kkt_tol, steps[blk], total[blk])
    return B, steps, total


def _newton_steps(G, H, B, c, kkt_tol, steps, total):
    """The steps of :func:`_newton_finish` on one block of levels; updates B,
    H, steps and total in place.  A trial point is never formed: its change
    is read from the step's row dots, as (K, p) arithmetic per batch of K
    trials.  Each level's B and H are carried from its accepted step to the
    next, and the work arrays are gathered again only when a level stops."""
    p = B.shape[1]
    shorter = 0.5 ** np.arange(1, _NEWTON_BACKTRACKS)        # 1/2, 1/4, ...
    live = np.flatnonzero(np.any(B != 0, axis=(1, 2)))
    Bl, Hl, cl = B[live], H[live], c[live]
    for _ in range(_NEWTON_STEPS):
        nrm = _row_norms(Bl)
        S = nrm > 0
        # on S, row j's KKT residual is ||grad_j||
        grad = np.divide(cl, nrm, out=np.zeros_like(nrm), where=S)[:, :, None] * Bl - 2.0 * Hl
        grad[~S] = 0.0
        go = _row_norms(grad).max(axis=1) > kkt_tol
        if not go.all():
            live, Bl, Hl, cl, nrm, S, grad = (v[go] for v in (live, Bl, Hl, cl, nrm, S, grad))
        if live.size == 0:
            break
        d = _newton_direction(G, Bl, grad, cl)
        slope = np.einsum("apq,apq->a", grad, d)
        ok = np.isfinite(d).all(axis=(1, 2)) & (slope < 0)
        if not ok.all():
            live, Bl, Hl, nrm, S, cl, d, slope = (
                v[ok] for v in (live, Bl, Hl, nrm, S, cl, d, slope))
        Gd = G @ d
        dgd = np.einsum("apq,apq->a", d, Gd)
        dh = np.einsum("apq,apq->a", d, Hl)
        bd, dd = np.einsum("apq,apq->ap", Bl, d), np.einsum("apq,apq->ap", d, d)

        def changes(lv, t, zero=None, extra=None):
            # objective change at Bl[lv] + t d[lv] with the rows in zero (K, p)
            # set to zero, whose change of fit is ``extra`` (K,); t broadcasts
            # against lv.  Non-finite as +inf.  A row's norm change
            # ||b + t d|| - ||b|| is read as m / (||b + t d|| + ||b||),
            # m = t (2<b, d> + t ||d||^2), which does not cancel when the step
            # is short; a zeroed row's is -||b||.  ||b + t d|| =
            # sqrt(||b||^2 + m) cancels only where the trial nearly zeroes the
            # row, and there its error, about sqrt(eps) ||b||, sits in a
            # denominator of at least ||b||
            tk = t[..., None]
            m = tk * (2.0 * bd[lv] + tk * dd[lv])
            den = np.sqrt(np.maximum(nrm[lv] ** 2 + m, 0.0)) + nrm[lv]
            pen = np.divide(m, den, out=np.zeros_like(den), where=den > 0)
            fit = t * (t * dgd[lv] - 2.0 * dh[lv])
            if zero is not None:
                pen[zero] = -nrm[lv][zero]
                fit += extra
            out = fit + np.einsum("...p,...p->...", cl[lv], pen)
            return np.where(np.isfinite(out), out, np.inf)

        # every level reads the full step; a crossing level's lowest candidate
        # replaces it below when that lowers the objective
        a = len(live)
        t = np.ones(a)
        df = changes(slice(None), t)
        df[~((df < 0) & (df <= _ARMIJO * slope))] = np.inf
        zero = np.zeros((a, p), dtype=bool)
        cross = S & (np.einsum("apq,apq->ap", Bl, Bl + d) < 0)
        lc, jc = np.nonzero(cross)
        if lc.size:
            hl = np.flatnonzero(cross.any(axis=1))
            bj, dj = Bl[lc, jc], d[lc, jc]
            tj = -bd[lc, jc] / dd[lc, jc]
            # zeroing the rows V of a trial adds <V, G V + 2 H - 2t Gd> to its
            # change of fit: all crossing rows at t = 1, or one row j
            V = np.where(cross[hl, :, None], Bl[hl] + d[hl], 0.0)
            vj = bj + tj[:, None] * dj
            extra = np.concatenate([
                np.einsum("hpq,hpq->h", V, G @ V + 2.0 * (Hl[hl] - Gd[hl])),
                np.einsum("kq,kq->k", vj, G[jc, jc][:, None] * vj
                          + 2.0 * (Hl[lc, jc] - tj[:, None] * Gd[lc, jc]))])
            lv = np.concatenate([hl, lc])
            tc = np.concatenate([np.ones(hl.size), tj])
            zc = np.concatenate([cross[hl], np.arange(p) == jc[:, None]])
            dfc = changes(lv, tc, zc, extra)
            # per level the lowest candidate; lexsort is stable, so a tie goes
            # to the earlier one: the all-crossing step, then rows in order
            order = np.lexsort((dfc, lv))
            best = order[np.r_[True, lv[order][1:] != lv[order][:-1]]]
            best = best[dfc[best] < 0]
            won = lv[best]
            df[won], t[won], zero[won] = dfc[best], tc[best], zc[best]
        # the levels the full step fails read all shorter lengths at once,
        # each taking the longest that satisfies Armijo
        back = np.flatnonzero(~(df < 0))
        if back.size:
            dfs = changes(back[:, None], shorter)
            armijo = (dfs < 0) & (dfs <= (_ARMIJO * shorter) * slope[back, None])
            k = armijo.argmax(axis=1)
            found = armijo[np.arange(back.size), k]
            df[back] = np.where(found, dfs[np.arange(back.size), k], np.inf)
            t[back] = shorter[k]
        take = df < 0
        if not take.all():
            live, Bl, Hl, cl, d, t, zero, df = (
                v[take] for v in (live, Bl, Hl, cl, d, t, zero, df))
        new = Bl + t[:, None, None] * d
        new[zero] = 0.0
        Hl = Hl - G @ (new - Bl)
        Bl = new
        B[live], H[live] = Bl, Hl
        steps[live] += 1
        total[live] += df


def _solve_masked(G, mask, rhs):
    """Solve G_MM x_M = rhs_M for each row of mask (N, p), x = 0 off the mask.

    The systems are built as (N, p, p) matrices with identity blocks off the
    mask (:func:`_padded`); a system that is singular gets a NaN solution.
    """
    rhs = np.where(mask, rhs, 0.0)[:, :, None]
    return _stacked(np.linalg.solve, _padded(G, mask, 0.0), rhs)[:, :, 0]


def _weighted_homotopy(G, XtY, W, lambdas, track):
    """Weighted lasso solutions (L, p) at one response column, by homotopy.

    Track k is one column y with row weights W[:, k], given as XtY[:, k] =
    X'y, and level l lies on track ``track[l]`` at ``lambdas[l]``.  The path
    of min ||y - Xb||^2 + lam sum_j w_j |b_j| is piecewise linear in lam
    (Osborne, Presnell and Turlach, IMA J. Numer. Anal. 20, 2000; the lasso
    variant of LARS, Efron, Hastie, Johnstone and Tibshirani, Ann. Statist.
    32(2), 2004); with weights it is the adaptive lasso (Zou, JASA 2006).
    With mu = lam / 2 and c = X'(y - Xb), a track with active set A and
    signs s has c_A = mu w_A s_A and |c_j| <= mu w_j off A.  Rows with zero
    weight are unpenalized: they start active, at the least-squares fit on
    them, and never drop.  A track starts at mu = max_j |c_j| / w_j, and as
    mu falls by t, b_A moves by t d with G_AA d = w_A s_A and c by -t G d.
    Each track steps to its nearest event with t > 0: an entry joining
    (|c_j - t (Gd)_j| = (mu - t) w_j), a penalized active entry reaching
    zero and leaving A, or the lowest mu among its levels.  An entry that
    left may not re-enter in the next step on the side it left at, where
    c_j = +-mu w_j already holds up to rounding.  The tracks step in
    lockstep, one padded batched solve per step; the levels a step crosses
    are read off by linear interpolation.  A track whose solve is singular,
    or whose step does not lower mu in floating point, stops, and its
    unreached levels take its last knot (NaN where the least-squares fit on
    the zero-weight rows is singular).  Reads only G = X'X.
    """
    p, T = XtY.shape
    mu_lv = 0.5 * np.asarray(lambdas, dtype=float)
    mu_min = np.full(T, np.inf)
    np.minimum.at(mu_min, track, mu_lv)
    Wt = W.T                                       # (T, p): tracks in rows
    free = Wt == 0                                 # unpenalized rows, always active
    s = free.astype(float)                         # signs, zero off A; a free row's w s is 0
    rows = np.arange(T)
    with np.errstate(all="ignore"):
        b = _solve_masked(G, free, XtY.T)          # least squares on the free rows
        c = XtY.T - b @ G
        ratio = np.where(free, -np.inf, np.abs(c) / Wt)
    j = np.argmax(ratio, axis=1)
    mu = ratio[rows, j]                            # -inf where every row is free
    s[rows, j] = np.sign(c[rows, j])               # j is free only if all rows are: no step
    out = b[track]                                 # levels above a track's start
    # the join root (index into the event candidates below) of the entry
    # that left in the last step, on the side it left at; -1 for none
    blocked = np.full(T, -1)
    live = np.flatnonzero(mu > mu_min)
    while live.size:
        act = s[live] != 0
        d = _solve_masked(G, act, Wt[live] * s[live])
        ok = np.isfinite(d).all(axis=1)
        live, act, d = live[ok], act[ok], d[ok]
        if live.size == 0:
            break
        k = np.arange(len(live))
        a, cl, bl, m, wl, lo = d @ G, c[live], b[live], mu[live], Wt[live], mu_min[live]
        with np.errstate(divide="ignore", invalid="ignore"):
            # joins at +(mu - t) w, then at -(mu - t) w, then drops
            mw = m[:, None] * wl
            t = np.concatenate([(mw - cl) / (wl - a), (mw + cl) / (wl + a), -bl / d], axis=1)
        t[np.concatenate([act, act, ~act | free[live]], axis=1)] = np.inf
        back = blocked[live] >= 0
        t[k[back], blocked[live][back]] = np.inf
        t = np.where(t > 0, t, np.inf)             # NaN too
        event = np.argmin(t, axis=1)
        step = t[k, event]
        end = ~(step < m - lo)
        step[end] = (m - lo)[end]
        new_mu = np.where(end, lo, m - step)
        # levels in [new_mu, mu) of a track lie on this step's segment
        pos = np.full(T, -1)                       # each track's row among the live ones
        pos[live] = k
        lv = np.flatnonzero(pos[track] >= 0)
        kv = pos[track[lv]]
        on = (mu_lv[lv] < m[kv]) & (mu_lv[lv] >= new_mu[kv])
        lv, kv = lv[on], kv[on]
        out[lv] = bl[kv] + (m[kv] - mu_lv[lv])[:, None] * d[kv]
        c[live] = cl - step[:, None] * a
        b[live] = bl + step[:, None] * d
        mu[live] = new_mu
        blocked[live] = -1
        ln, e = live[~end], event[~end]
        join = e < 2 * p
        s[ln[join], e[join] % p] = np.where(e[join] < p, 1.0, -1.0)
        gone = ln[~join], e[~join] % p
        blocked[gone[0]] = gone[1] + p * (s[gone] < 0)
        s[gone] = b[gone] = 0.0
        # a step too short to lower mu in floating point stops the track
        live = live[~end & (new_mu < m)]
    # tracks stopped short: unreached levels from the last knot
    lv = np.flatnonzero(mu_lv < mu[track])
    out[lv] = b[track[lv]]
    return out


def _cd_path(data, weights, lambdas, init, settings):
    """Batched cyclic coordinate descent on validated inputs.

    Each level has its own inputs: ``weights`` is (p, L), column l holding
    the row weights of level l, and ``init`` is (L, p, c), the given start
    of each level.  A level reads c columns of Y: all q when c = q, and when
    c = 1 level l reads column l mod q (L then a multiple of q).
    :func:`bcd_solve_path` broadcasts one weight vector and one start to
    that form; the reweighting rounds of :func:`larn.estimator.larn_path`
    after the first pass each level its own iterate and the weights taken
    there, and :func:`larn.simbench.lasso_path` passes L*q single-column
    levels from zero.

    At c = 1 a level's problem is a weighted lasso, and the kernel follows
    its exact path with :func:`_weighted_homotopy`.  Levels share a track
    when they read the same column and their weight columns are equal
    (compared with the level before, so a broadcast weight vector gives one
    track per column); each track runs down to the lowest level on it.  A
    level starts at whichever of its given start and its homotopy point has
    the lower weighted objective, so it never starts above its given start,
    and its trace begins at the chosen start.  A level whose homotopy point
    is its solution then passes the KKT test at its start.

    A level retires as soon as every row passes the KKT test at
    ``settings.kkt_tol``, read from the kernel's H.  The test runs before
    every sweep of a level: at the start, and after each sweep that does
    not make it due for a finish, and after each finish.  A level certified
    at its start takes no sweep and keeps a one-value trace.

    Each kernel iteration sweeps the active levels once.  After the sweep,
    the levels whose nonzero rows are not empty and held over it (the rows
    are taken at the top of each sweep, after retire and compaction) are
    due for the Newton finish.  They park: they leave the active arrays
    through the compaction the retire test uses, carrying B, H, B_s, H_s,
    r_s and lam w; the sweep's objective is the last value of the trace.
    When no level is left active, every parked level goes to one
    :func:`_newton_finish` call: each takes at most ``_NEWTON_STEPS``
    Woodbury-form Newton steps on its rows, padded to all p rows so that
    the levels step together with a line search read from row dots, where
    a row whose step passes through zero may leave them, stopping early
    once the remaining rows pass the KKT test.  A level keeps its finish
    unless its refreshed objective is above the sweep's or NaN, and is
    restored then; a step is taken only on a negative computed change, so
    a level that took none comes back unchanged.  Then the parked levels
    are the active ones and meet the retire test.  So each level runs the
    sweeps and finishes it would run alone, and its arithmetic does not
    depend on when it parks.
    ``settings.max_sweeps`` caps the kernel iterations: a parked level takes
    no sweep in one, so a level sweeps at most that many times, and the
    levels still parked at the cap are finished before the return.
    The finish reads the kernel's G and H.  The kernel forms R = Y - XB
    only at the starts B_s, keeping H_s = X'R and r_s = ||R||^2 there per
    column; H is recomputed as H_s - G (B - B_s) after every sweep, so a
    finish reads a fresh H, and again after a finish.  Compaction carries
    each level's B_s, H_s and r_s.  Rows the finish zeroes, like the other
    zero rows, are left to the sweeps and to the KKT retire test.  The
    kernel returns as soon as no level is active or parked, so an empty
    grid takes no sweep.  A trace holds one value per sweep, a kept finish
    included.
    """
    X, p = data.X, data.p
    L, _, q = init.shape                           # q: columns per level
    col_ss = _column_norms_squared(X)
    G = X.T @ X                                    # symmetric: row j is column j

    # work arrays cover the active levels only; solved levels retire into
    # ``out`` and the remaining blocks are compacted.  A copy, not
    # np.ascontiguousarray: that returns a broadcast (read-only) start as is
    act = np.arange(L)
    B = init.transpose(1, 0, 2).copy()             # level axis in the middle
    B2 = B.reshape(p, -1)
    half = 0.5 * lambdas[None, :] * weights        # (p, A): lam w_j / 2
    # R at the starts, formed once; column i reads Y[:, i mod q]
    Y = np.tile(data.Y, L * q // data.q)
    Rs = Y - X @ B2
    if q == 1:
        col = np.arange(L) % data.q
        run = np.cumsum(np.r_[True, np.any(weights[:, 1:] != weights[:, :-1], axis=0)])
        _, first, track = np.unique(run * data.q + col, return_index=True, return_inverse=True)
        path = _weighted_homotopy(G, (X.T @ data.Y)[:, col[first]], weights[:, first],
                                  lambdas, track)
        path = np.ascontiguousarray(path.T)
        Rp = Y - X @ path

        def start_objectives(R, b):
            return np.einsum("ab,ab->b", R, R) + 2.0 * np.einsum("pa,pa->a", half, np.abs(b))

        better = start_objectives(Rp, path) <= start_objectives(Rs, B2)
        B2[:, better] = path[:, better]
        Rs[:, better] = Rp[:, better]
    Bs = B2.copy()                                 # (p, A*q): each level's start, its anchor
    Hs, rs = X.T @ Rs, np.einsum("ab,ab->b", Rs, Rs)   # X'R (p, A*q), ||R||^2 (A*q,)
    del Rs, Y
    H = Hs.copy()                                  # (p, A*q): X'R at B
    out = np.empty((L, p, q))

    def refresh():
        # H = H_s - G D with D = B - B_s, recomputed from B, not updated
        np.subtract(Hs, G @ (B.reshape(p, -1) - Bs), out=H)

    def objectives():
        # ||R||^2 = r_s - <D, H_s> - <D, H> per column
        resid = rs - np.einsum("pa,pa->a", B.reshape(p, -1) - Bs, Hs + H)
        pen = 2.0 * np.einsum("pa,pa->a", half, _row_norms(B))
        return resid.reshape(-1, q).sum(axis=1) + pen

    def levels(keep):
        # the state of the active levels where keep (A,) holds, in the order
        # act, B, half, B_s, H_s, H, r_s; the level axis is second when
        # there is one
        cols = np.repeat(keep, q)
        return (act[keep], np.ascontiguousarray(B[:, keep]), np.ascontiguousarray(half[:, keep]),
                *(np.compress(cols, M, axis=1) for M in (Bs, Hs, H)), rs[cols])

    parked = levels(np.zeros(L, dtype=bool))
    traces = [[v] for v in objectives().tolist()]
    swept = 0                                      # kernel iterations, each one sweep
    while True:
        retire = _kkt_rows(H.reshape(B.shape), B, 2.0 * half).max(axis=0) <= settings.kkt_tol
        retire |= swept == settings.max_sweeps     # at the cap every level leaves
        if np.any(retire):
            out[act[retire]] = B[:, retire].transpose(1, 0, 2)
            act, B, half, Bs, Hs, H, rs = levels(~retire)
        if act.size == 0:
            if parked[0].size == 0:
                return out, traces
            # no level is left sweeping: the parked ones rejoin (the emptied
            # active state is the new, empty parked one), take one finish
            # together and meet the retire test.  Each keeps its finish unless
            # its refreshed objective is above the sweep's or NaN; a level
            # that took no step comes back unchanged
            (act, B, half, Bs, Hs, H, rs), parked = parked, (act, B, half, Bs, Hs, H, rs)
            before = B.copy()
            B[...] = _newton_finish(G, H.reshape(B.shape).transpose(1, 0, 2),
                                    B.transpose(1, 0, 2), 2.0 * half.T,
                                    settings.kkt_tol)[0].transpose(1, 0, 2)
            refresh()
            trial = objectives()
            bad = ~(trial <= [traces[l][-1] for l in act])
            if np.any(bad):
                B[:, bad] = before[:, bad]
                refresh()
            for l, v in zip(act[~bad].tolist(), trial[~bad].tolist()):
                traces[l][-1] = v
            continue
        A = len(act)
        support = _row_norms(B).T > 0              # (A, p): each level's nonzero rows
        for j in range(p):
            b_old = B[j]                           # (A, q) view
            g = col_ss[j] * b_old
            g += H[j].reshape(A, q)
            b_new = _group_prox(g, half[j], col_ss[j])
            delta = b_new - b_old
            if delta.any():
                H -= G[j][:, None] * delta.reshape(A * q)[None, :]
                B[j] = b_new
        if not np.all(np.isfinite(B)):
            bad = int(np.flatnonzero(~np.isfinite(B).all(axis=(1, 2)))[0])
            raise SolverError(f"non-finite update in row {bad}")
        # the traces and the finishes never read the row updates' drift; with
        # no row moved, H comes back bit for bit
        refresh()
        swept += 1
        for l, v in zip(act.tolist(), objectives().tolist()):
            traces[l].append(v)
        # the levels whose nonzero rows held over the sweep and are not empty
        # park until no level is left sweeping
        nonzero = _row_norms(B).T > 0
        due = np.all(nonzero == support, axis=1) & nonzero.any(axis=1)
        if np.any(due):
            parked = tuple(np.concatenate(v, axis=int(v[0].ndim > 1))
                           for v in zip(parked, levels(due)))
            act, B, half, Bs, Hs, H, rs = levels(~due)


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
        Given start; zeros when omitted.  Starting from a reference
        iterate guarantees the returned objective does not exceed the
        objective at that iterate.
    settings : SolverSettings, optional

    Returns
    -------
    B : ndarray (p, q)
        Solution with exact zeros on thresholded rows.
    trace : list of float
        Objective value at the start and after each sweep; nonincreasing up
        to rounding (a Newton step is taken only on a negative computed
        objective change, and a finish is kept only when it does not raise
        the recorded objective).  At q = 1 the start is whichever of ``init``
        and the weighted lasso's homotopy point is lower, and the trace
        begins there.

    Raises
    ------
    SolverError
        If a design column is identically zero or the iterate becomes
        non-finite (the offending row index is named).
    """
    stack, traces = bcd_solve_path(data, weights, float(lam), init=init,
                                   settings=settings)
    return stack[0], traces[0]
