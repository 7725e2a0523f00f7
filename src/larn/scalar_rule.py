"""Univariate thresholding rule, SCAD/MCP special cases, and a risk check.

Under an orthonormal design with independent responses the multitask
problem separates into scalar problems whose solution is the generalized
soft-thresholding rule

    theta_hat(z) = sign(z) * (|z| - lam * d(z))_+

where d is the derivative of the scalar penalty, evaluated at the data
value z rather than at the solution (the one-step approximation; the exact
fixed-point variant is available for comparison).  For penalties whose
derivative vanishes at infinity the rule is nearly unbiased for large z.

``minimax_check`` simulates the Gaussian sequence model z_i = theta_i +
noise and compares the Monte Carlo risk of the rule at
lam = (sqrt(0.5 log n) - 1) / c1 against the reference bound

    (2 log n - 3) * [ sum_i min(theta_i^2, 1) + c1 / (p0 * (sqrt(0.5 log n) - 1)) ]

with c1 the supremum of the penalty derivative and p0 its right-limit
at zero.
"""

import math

import numpy as np

from .depth_penalty import penalty_weight


class ScalarPenalty:
    """Scalar penalty described by its derivative d(theta) = d(|theta|).

    Parameters
    ----------
    derivative_fn : callable
        Vectorized map |theta| -> d(|theta|) >= 0.
    p0 : float
        Right-limit of the derivative at 0.
    c1 : float, optional
        Supremum of the derivative; computed by grid maximization over
        (0, 50] when omitted.
    name : str
        Label used in reports.
    """

    def __init__(self, derivative_fn, p0, c1=None, name="custom"):
        self.derivative_fn = derivative_fn
        self.p0 = float(p0)
        self._c1 = c1
        self.name = name

    def derivative(self, theta):
        return self.derivative_fn(np.abs(np.asarray(theta, dtype=float)))

    @property
    def c1(self):
        if self._c1 is None:
            self._c1 = float(np.max(self.derivative(_bound_grid())))
        return self._c1

    def derivative_bounds(self):
        """(c1, c2): grid-maximized sup of d and of |d'| over (0, 50]."""
        grid = _bound_grid()
        d = self.derivative(grid)
        c2 = float(np.max(np.abs(np.diff(d) / np.diff(grid))))
        return self.c1, c2


def _bound_grid():
    return np.linspace(1e-6, 50.0, 500001)


def depth_scalar_penalty(spec):
    """Depth-based scalar penalty: d = p'(|theta|) for the given spec."""
    c1 = None
    if spec.transform == "max" or spec.depth == "projection":
        # the derivative is maximal at the origin: both "max" forms decrease
        # in r, and projection + exp is (u^2/c) e^-u with u = c/(c+r), which
        # rises with u on (0, 1]; the grid starts at r = 1e-6 and reads it low
        c1 = float(penalty_weight(0.0, spec))
    return ScalarPenalty(lambda t: np.asarray(penalty_weight(t, spec)),
                         p0=float(penalty_weight(0.0, spec)), c1=c1,
                         name=f"depth:{spec.depth}+{spec.transform}")


def mcp_penalty(lam):
    """MCP derivative display: d(theta) = |theta| on |theta| < lam, else 0."""
    lam = float(lam)

    def d(t):
        return np.where(t < lam, t, 0.0)

    return ScalarPenalty(d, p0=0.0, c1=lam, name="mcp")


def scad_penalty(a, lam):
    """SCAD derivative display with c = 1 / (2 lam^2 (a + 2)).

    d(theta) = c*lam                     for |theta| < 2 lam,
               c (a lam - |theta|)/(a-2) for 2 lam <= |theta| < a lam,
               0                         for |theta| >= a lam.
    """
    if a <= 2:
        raise ValueError("SCAD parameter a must exceed 2")
    lam = float(lam)
    c = 1.0 / (2.0 * lam * lam * (a + 2.0))

    def d(t):
        mid = c * (a * lam - t) / (a - 2.0)
        return np.where(t < 2.0 * lam, c * lam, np.where(t < a * lam, mid, 0.0))

    return ScalarPenalty(d, p0=c * lam, c1=c * lam, name="scad")


# fixed-point iteration of the exact rule: iteration cap and step tolerance
_EXACT_ITERS = 200
_EXACT_TOL = 1e-12


def soft_threshold_depth(z, lam, pen, exact=False):
    """Generalized soft thresholding sign(z) * (|z| - lam*d(z))_+.

    Odd in z, never larger than |z| in magnitude, and exactly zero whenever
    |z| <= lam * d(z).  With ``exact=True`` the derivative is instead
    evaluated at the solution, found by fixed-point iteration.
    """
    z_arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z_arr)):
        raise ValueError("z must be finite")
    if not 0 <= lam < np.inf:
        raise ValueError("lam must be nonnegative and finite")
    absz = np.abs(z_arr)
    mag = np.maximum(absz - lam * pen.derivative_fn(absz), 0.0)
    if exact:
        for _ in range(_EXACT_ITERS):
            mag, last = np.maximum(absz - lam * pen.derivative_fn(mag), 0.0), mag
            if np.max(np.abs(mag - last)) < _EXACT_TOL:
                break
    out = np.where(mag > 0, np.sign(z_arr) * mag, 0.0)
    return float(out) if np.ndim(z) == 0 else out


def equivalence_orthogonal(data, lam, pen):
    """Coordinate-wise rule for an orthonormal design, columns independent.

    Applies the scalar rule entrywise to X'Y.  The matrix objective carries
    no 1/2 in front of its quadratic term, so penalty level ``lam`` there
    corresponds to scalar level ``lam / 2`` here; this function performs
    that mapping, making it the reference output for the row-solver run one
    response column at a time.
    """
    gram = data.X.T @ data.X
    if not np.allclose(gram, np.eye(data.p), atol=1e-10):
        raise ValueError("design is not orthonormal (X'X must equal I to 1e-10)")
    Z = data.X.T @ data.Y
    return soft_threshold_depth(Z, 0.5 * lam, pen)


class RiskReport:
    """Monte Carlo risk of the rule against the reference bound."""

    def __init__(self, n, lam, monte_carlo_risk, mc_standard_error,
                 ideal_risk, bound, replications, penalty_name):
        self.n = n
        self.lam = lam
        self.monte_carlo_risk = monte_carlo_risk
        self.mc_standard_error = mc_standard_error
        self.ideal_risk = ideal_risk
        self.bound = bound
        self.replications = replications
        self.penalty_name = penalty_name

    @property
    def within_bound(self):
        return self.monte_carlo_risk <= self.bound

    def to_dict(self):
        return {
            "n": int(self.n),
            "lambda": self.lam,
            "monte_carlo_risk": self.monte_carlo_risk,
            "mc_standard_error": self.mc_standard_error,
            "ideal_risk": self.ideal_risk,
            "bound": self.bound,
            "within_bound": bool(self.within_bound),
            "replications": int(self.replications),
            "penalty": self.penalty_name,
        }


def ideal_risk(theta):
    """sum_i min(theta_i^2, 1): the oracle benchmark of the sequence model."""
    theta = np.asarray(theta, dtype=float)
    return float(np.sum(np.minimum(theta * theta, 1.0)))


def risk_bound(n, theta, pen):
    """(2 log n - 3) * [ideal risk + c1 / (p0 * (sqrt(0.5 log n) - 1))]."""
    if pen.p0 <= 0:
        raise ValueError("risk bound needs a penalty with positive derivative at 0")
    root = math.sqrt(0.5 * math.log(n)) - 1.0
    if root <= 0:
        raise ValueError(f"n = {n} is too small for a positive penalty level")
    return (2.0 * math.log(n) - 3.0) * (ideal_risk(theta) + pen.c1 / (pen.p0 * root))


def minimax_check(n, theta, pen, replications=2000, seed=0):
    """Monte Carlo estimate of the total risk versus the reference bound.

    Simulates z = theta + standard normal noise, applies the rule at
    lam = (sqrt(0.5 log n) - 1) / c1, and averages the total squared error
    over independent replications (one RNG stream per call, derived from
    ``seed``).  At least two replications are needed for a standard error.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (n,):
        raise ValueError(f"theta must have shape ({n},), got {theta.shape}")
    if n < 64:
        raise ValueError("n must be at least 64")
    if replications < 2:
        raise ValueError(f"replications must be at least 2, got {replications}")
    root = math.sqrt(0.5 * math.log(n)) - 1.0
    lam = root / pen.c1

    rng = np.random.default_rng(seed)
    totals = np.empty(replications)
    for r in range(replications):
        z = theta + rng.standard_normal(n)
        err = soft_threshold_depth(z, lam, pen) - theta
        totals[r] = np.sum(err * err)
    risk = float(np.mean(totals))
    se = float(np.std(totals, ddof=1) / math.sqrt(replications))
    return RiskReport(n, lam, risk, se, ideal_risk(theta),
                      risk_bound(n, theta, pen), replications, pen.name)
