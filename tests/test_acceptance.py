"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from larn import cli
from larn.depth_penalty import HALFSPACE, MAX_MINUS, PenaltySpec
from larn.estimator import (LarnConfig, group_weights, initial_estimate,
                            larn_fit, theory_threshold)
from larn.group_solver import Dataset, bcd_solve, kkt_residual, objective
from larn.model_selection import default_lambdas
from larn.scalar_rule import (depth_scalar_penalty, equivalence_orthogonal,
                              mcp_penalty, minimax_check, scad_penalty,
                              soft_threshold_depth)
from larn.simbench import SimConfig, ar1_covariance, generate_instance, run_benchmark

from oracle_gridsearch import grid_min_objective


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_01_kkt_certification():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(1, 101):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((30, 10))
        B0 = np.zeros((10, 5))
        live = rng.random(10) < 0.4
        B0[live] = rng.normal(1.5, 1.0, (int(live.sum()), 5))
        Y = X @ B0 + rng.standard_normal((30, 5))
        data = Dataset(X, Y)
        B_init = initial_estimate(data)
        w = group_weights(B_init, PenaltySpec())
        lam = float(rng.uniform(0.5, 5.0))
        B, _ = bcd_solve(data, w, lam, init=B_init)
        worst = max(worst, float(np.max(kkt_residual(data, B, w, lam))))
    elapsed = time.perf_counter() - t0
    report(1, "kkt-certification", worst <= 1e-6 and elapsed < 5.0,
           f"max residual {worst:.2e}, {elapsed:.2f}s for 100 instances")


def test_02_mm_descent():
    worst_rise = -np.inf
    lams = [1.0, 5.0, 20.0]
    for seed in range(1, 21):
        cfg = SimConfig(n=40, p=10, q=5, rho=0.5, seed=seed)
        data, _ = generate_instance(cfg)
        fit = larn_fit(data, LarnConfig(one_step=False, max_outer_iters=30),
                       lams[seed % 3])
        rises = np.diff(fit.objective_trace)
        worst_rise = max(worst_rise, float(np.max(rises)))
    report(2, "mm-descent", worst_rise <= 1e-10,
           f"worst objective rise {worst_rise:.2e} over 20 instances")


def test_03_brute_force_grid_oracle():
    worst_gap = -np.inf
    for seed in range(1, 26):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((10, 2))
        B0 = rng.normal(0.0, 0.4, (2, 2))
        Y = X @ B0 + 0.5 * rng.standard_normal((10, 2))
        data = Dataset(X, Y)
        lam = float(rng.uniform(0.5, 6.0))
        config = LarnConfig()
        fit = larn_fit(data, config, lam)
        w = group_weights(initial_estimate(data), config.penalty)
        achieved = objective(data, fit.b_hat, w, lam)
        gmin = grid_min_objective(X, Y, w, lam, step=0.01, lo=-3.0, hi=3.0)
        worst_gap = max(worst_gap, achieved - gmin)
    report(3, "brute-force-grid-oracle", worst_gap <= 1e-4,
           f"worst objective excess over grid minimum {worst_gap:.2e}")


def test_04_orthogonal_design_equivalence():
    pen = depth_scalar_penalty(PenaltySpec(HALFSPACE, MAX_MINUS))
    lam = 0.5
    worst = 0.0
    for seed in range(1, 11):
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        Y = 2.0 * rng.standard_normal((8, 3))
        data = Dataset(Q, Y)
        ref = equivalence_orthogonal(data, lam, pen)
        cfg = LarnConfig()
        cols = [larn_fit(Dataset(Q, Y[:, [k]]), cfg, lam).b_hat[:, 0]
                for k in range(3)]
        worst = max(worst, float(np.max(np.abs(np.column_stack(cols) - ref))))
    report(4, "orthogonal-equivalence", worst <= 1e-4,
           f"max columnwise gap {worst:.2e} over 10 seeds")


def test_05_special_case_thresholding():
    z = np.linspace(-8.0, 8.0, 10_000)
    lam = 0.5
    mcp_out = soft_threshold_depth(z, lam, mcp_penalty(lam))
    mcp_ok = np.array_equal(mcp_out[np.abs(z) >= lam], z[np.abs(z) >= lam])
    a = 3.7
    scad_out = soft_threshold_depth(z, lam, scad_penalty(a, lam))
    scad_mask = np.abs(z) > a * lam
    scad_ok = np.array_equal(scad_out[scad_mask], z[scad_mask])
    report(5, "special-case-thresholding", mcp_ok and scad_ok,
           f"MCP exact: {mcp_ok}, SCAD exact: {scad_ok} on 1e4-point grid")


def test_06_minimax_bound_monte_carlo():
    # configurations mix dense and moderately sparse signal vectors; the
    # reference bound's noise term does not grow with dimension, so signal
    # mass must be non-negligible for a finite-sample check
    t0 = time.perf_counter()
    n = 1024
    pen = depth_scalar_penalty(PenaltySpec(HALFSPACE, MAX_MINUS))
    failures = []
    rng = np.random.default_rng(2024)
    for c in range(20):
        if c == 0:
            theta = np.concatenate([np.zeros(n // 2), np.full(n // 2, 3.0)])
        else:
            frac = rng.uniform(0.3, 1.0)
            scale = rng.uniform(0.8, 4.0)
            theta = rng.normal(0.0, scale, n) * (rng.random(n) < frac)
        rep = minimax_check(n, theta, pen, replications=2000, seed=c)
        if rep.monte_carlo_risk > rep.bound + 2.0 * rep.mc_standard_error:
            failures.append(c)
    elapsed = time.perf_counter() - t0
    report(6, "minimax-bound-monte-carlo", not failures and elapsed < 60.0,
           f"{20 - len(failures)}/20 configs within bound, {elapsed:.1f}s")


def test_07_simulation_study_direction():
    t0 = time.perf_counter()
    cfg = SimConfig(n=50, p=20, q=20, rho=0.7, seed=11, replications=20)
    # shared tuning grid for all methods; the upper exponent is raised so the
    # depth-weighted method's CV optimum (rescaled by weights well below 1)
    # lies inside the grid rather than clipped at its edge
    rows = run_benchmark(cfg, lambdas=default_lambdas(num=100, low=-2, high=4),
                         n_thresholds=100, k=5)
    elapsed = time.perf_counter() - t0
    med = {}
    for method in ("larn", "tgl", "seplasso"):
        sub = [r for r in rows if r.method == method]
        med[method] = {
            "cv_rmse": float(np.median([r.cv_rmse for r in sub])),
            "mae": float(np.median([r.mae for r in sub])),
            "tn": float(np.median([r.tn for r in sub])),
        }
    ok = (med["larn"]["cv_rmse"] <= med["tgl"]["cv_rmse"]
          and med["larn"]["mae"] < med["seplasso"]["mae"]
          and med["tgl"]["mae"] < med["seplasso"]["mae"]
          and med["larn"]["tn"] > med["seplasso"]["tn"]
          and med["tgl"]["tn"] > med["seplasso"]["tn"]
          and elapsed < 900.0)
    report(7, "simulation-study-direction", ok,
           f"median cv-RMSE larn {med['larn']['cv_rmse']:.4f} vs tgl "
           f"{med['tgl']['cv_rmse']:.4f}; MAE larn {med['larn']['mae']:.4f} "
           f"tgl {med['tgl']['mae']:.4f} seplasso {med['seplasso']['mae']:.4f}; "
           f"TN larn {med['larn']['tn']:.3f} tgl {med['tgl']['tn']:.3f} "
           f"seplasso {med['seplasso']['tn']:.3f}; {elapsed:.0f}s")


def test_08_generator_fidelity():
    from larn.simbench import sample_gaussian_rows
    Z = sample_gaussian_rows(100_000, ar1_covariance(5, 0.7), 31)
    lag1 = np.corrcoef(Z[:, 1], Z[:, 2])[0, 1]
    lag2 = np.corrcoef(Z[:, 0], Z[:, 2])[0, 1]
    ar_ok = abs(lag1 - 0.7) <= 0.02 and abs(lag2 - 0.49) <= 0.02
    row_fracs, densities = [], []
    for rep in range(500):
        cfg = SimConfig(n=2, p=60, q=60, seed=[77, rep])
        _, B0 = generate_instance(cfg)
        nz = np.linalg.norm(B0, axis=1) > 0
        row_fracs.append(nz.mean())
        if nz.any():
            densities.append((B0[nz] != 0).mean())
    row_rate = float(np.mean(row_fracs))
    density = float(np.mean(densities))
    sparsity_ok = abs(row_rate - 0.125) <= 0.03 and abs(density - 0.3) <= 0.03
    report(8, "generator-fidelity", ar_ok and sparsity_ok,
           f"lag-1 corr {lag1:.3f}, lag-2 {lag2:.3f}, row rate {row_rate:.3f}, "
           f"within-row density {density:.3f}")


def test_09_threshold_formula_exactness():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 10**6))
        q = int(rng.integers(2, 100))
        s = int(rng.integers(1, 50))
        c_min = float(rng.uniform(0.1, 10.0))
        got = theory_threshold(n, q, s, c_min)
        exact = mpmath.sqrt(8 * mpmath.log(q * s) / (mpmath.mpf(c_min) * n))
        rel = abs(got - float(exact)) / float(exact)
        worst = max(worst, rel)
    report(9, "threshold-formula-exactness", worst <= 1e-12,
           f"worst relative error {worst:.2e} over 50 tuples")


def test_10_benchmark_determinism(tmp_path):
    import json
    cfg_path = tmp_path / "sim.json"
    with open(cfg_path, "w") as fh:
        json.dump({"n": 15, "p": 4, "q": 2, "rho": 0.5, "seed": 3,
                   "replications": 3}, fh)
    outputs = []
    for tag, jobs in (("a", "1"), ("b", "1"), ("c", "8")):
        out = tmp_path / f"metrics_{tag}.csv"
        rc = cli.main(["benchmark", "--config", str(cfg_path), "--out", str(out),
                       "--n-lambdas", "6", "--n-thresholds", "5", "--folds", "3",
                       "--jobs", jobs])
        assert rc == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(10, "benchmark-determinism", ok,
           "seed-repeat and jobs=1 vs jobs=8 byte-identical")
