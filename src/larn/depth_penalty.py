"""Depth functions under a spherical Gaussian reference and the row penalties they induce.

For a spherically symmetric reference distribution centered at the origin,
the depth of a coefficient row depends on the row only through its Euclidean
norm r, so every quantity here is a scalar function of r >= 0:

* halfspace depth:   D(r) = 1 - Phi(r)          (Phi = standard normal cdf)
* projection depth:  D(r) = c / (c + r),        c = Phi^{-1}(3/4)

An inverse-depth transform turns depth into a bounded, increasing penalty
p(r) (small near the origin, saturating for large rows):

* "max":  p(r) = max_r D - D(r)
* "exp":  p(r) = exp(-D(r)), shifted so p(0) = 0

The shift makes the penalty vanish at the origin; an additive constant
changes no minimizer.  p'(r) (``penalty_weight``) is the group weight used
by the reweighted solver; its right-limit at 0 is strictly positive for
every combination implemented here.
"""

import numpy as np
from scipy.special import ndtr, ndtri

HALFSPACE = "halfspace"
PROJECTION = "projection"
MAX_MINUS = "max"
EXP_NEG = "exp"

DEPTH_FAMILIES = (HALFSPACE, PROJECTION)
TRANSFORMS = (MAX_MINUS, EXP_NEG)

# 3/4 quantile of the standard normal: projection-depth constant for a
# spherical Gaussian reference.
PROJECTION_C = float(ndtri(0.75))


def std_normal_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


class PenaltySpec:
    """Depth family + inverse transform.

    Parameters
    ----------
    depth : {"halfspace", "projection"}
    transform : {"max", "exp"}

    The reference distribution is always the spherical standard Gaussian,
    so the projection-depth constant is always ``PROJECTION_C``.  The
    penalty level is not part of the spec: the functions that need it
    (:func:`row_penalty`, the fitting API) take it as an argument.
    """

    def __init__(self, depth=HALFSPACE, transform=MAX_MINUS):
        if depth not in DEPTH_FAMILIES:
            raise ValueError(f"unknown depth family {depth!r}; choose from {DEPTH_FAMILIES}")
        if transform not in TRANSFORMS:
            raise ValueError(f"unknown inverse transform {transform!r}; choose from {TRANSFORMS}")
        self.depth = depth
        self.transform = transform

    @property
    def concavity_guaranteed(self):
        """True when p(r) is concave on r > 0 (the "max" transform combinations)."""
        return self.transform == MAX_MINUS

    def __repr__(self):
        return f"PenaltySpec(depth={self.depth!r}, transform={self.transform!r})"


def _check_radius(r, allow_negative=False):
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValueError("radius must be finite")
    if not allow_negative and np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    return r


def _scalar_like(value, template):
    return float(value) if np.ndim(template) == 0 else value


def depth(r, family=HALFSPACE):
    """Depth of a point at distance r from the origin of the spherical Gaussian.

    Maximal at r = 0, strictly decreasing, vanishing as r grows.
    """
    arr = _check_radius(r)
    if family == HALFSPACE:
        out = 1.0 - ndtr(arr)
    elif family == PROJECTION:
        out = PROJECTION_C / (PROJECTION_C + arr)
    else:
        raise ValueError(f"unknown depth family {family!r}")
    return _scalar_like(out, r)


def max_depth(family=HALFSPACE):
    """Depth at the center (r = 0): 1/2 for halfspace, 1 for projection."""
    return depth(0.0, family)


def inverse_depth(r, spec):
    """Scalar penalty p(r): the inverse-depth transform, shifted so p(0) = 0.

    Closed forms (Gaussian reference):
      halfspace  + max:  Phi(r) - 1/2
      projection + max:  r / (c + r)
      halfspace  + exp:  exp(Phi(r) - 1) - exp(-1/2)
      projection + exp:  exp(-c/(c+r)) - exp(-1)
    """
    arr = _check_radius(r)
    d = depth(arr, spec.depth)
    if spec.transform == MAX_MINUS:
        out = max_depth(spec.depth) - d
    else:
        out = np.exp(-d) - np.exp(-max_depth(spec.depth))
    return _scalar_like(out, r)


def penalty_weight(r, spec):
    """Derivative p'(r), the group weight of the reweighted solver.

    Strictly positive, with a positive right-limit at 0:
      halfspace  + max:  phi(r)
      projection + max:  c / (c + r)^2
      halfspace  + exp:  phi(r) * exp(Phi(r) - 1)
      projection + exp:  exp(-c/(c+r)) * c / (c + r)^2
    """
    arr = _check_radius(r)
    if spec.depth == HALFSPACE:
        out = std_normal_pdf(arr)
        if spec.transform == EXP_NEG:
            out = out * np.exp(ndtr(arr) - 1.0)
    else:
        c = PROJECTION_C
        out = c / (c + arr) ** 2
        if spec.transform == EXP_NEG:
            out = out * np.exp(-c / (c + arr))
    return _scalar_like(out, r)


def row_norms(B):
    """Euclidean norms of the rows of a p x q coefficient matrix."""
    B = np.asarray(B, dtype=float)
    return np.linalg.norm(np.atleast_2d(B), axis=1)


def row_penalty(B, spec, lam):
    """Total penalty lam * sum_j p(||b_j||_2) over the rows of B."""
    B = np.asarray(B, dtype=float)
    if not np.all(np.isfinite(B)):
        raise ValueError("coefficient matrix must be finite")
    if not np.isfinite(lam) or lam < 0:
        raise ValueError(f"lam must be a nonnegative finite real, got {lam!r}")
    return float(lam) * float(np.sum(inverse_depth(row_norms(B), spec)))
