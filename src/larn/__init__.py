"""Depth-penalized multitask sparse regression.

Rows of the coefficient matrix are penalized through an inverse data-depth
function of their Euclidean norm, yielding a bounded concave row penalty.
Estimation linearizes the penalty at the current iterate and solves the
resulting weighted group lasso by block coordinate descent; small entries
inside surviving rows are removed by corrective hard thresholding.  Tuning
runs over a two-dimensional (penalty, threshold) grid by k-fold
cross-validation, and a simulation benchmark compares the estimator with a
unit-weight thresholded group lasso and per-response lasso fits.
"""

from .depth_penalty import (EXP_NEG, HALFSPACE, MAX_MINUS, PROJECTION,
                            PROJECTION_C, PenaltySpec, depth, inverse_depth,
                            penalty_weight, row_norms, row_penalty)
from .estimator import (FitResult, LarnConfig, initial_estimate, group_weights,
                        larn_fit, larn_path, theory_threshold, true_objective,
                        within_row_threshold)
from .group_solver import (Dataset, SolverError, SolverSettings, bcd_solve,
                           kkt_residual, objective, row_support)
from .model_selection import (CvGrid, CvResult, cross_validate,
                              default_lambdas, fit_with_selection, kfold_split)
from .scalar_rule import (RiskReport, ScalarPenalty, depth_scalar_penalty,
                          equivalence_orthogonal, ideal_risk, mcp_penalty,
                          minimax_check, risk_bound, scad_penalty,
                          soft_threshold_depth)
from .simbench import (METHODS, MetricsRow, SimConfig, ar1_covariance,
                       generate_instance, metrics, run_benchmark,
                       sample_gaussian_rows, select_lasso, separate_lasso)

__version__ = "0.1.0"
