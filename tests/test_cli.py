import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from larn import cli, estimator, group_solver
from larn.depth_penalty import PenaltySpec
from larn.estimator import LarnConfig
from larn.group_solver import Dataset, SolverSettings
from larn.io import read_matrix_csv, write_matrix_csv
from larn.model_selection import CvGrid, fit_with_selection
from larn.scalar_rule import depth_scalar_penalty
from larn.simbench import MetricsRow


def run(argv):
    return cli.main(argv)


def write_sim_config(path, **overrides):
    payload = {"n": 20, "p": 5, "q": 3, "rho": 0.5, "seed": 1, "replications": 1}
    payload.update(overrides)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return payload


def assert_fold_failure_exit_1(tmp_path, capsys, command):
    # column 3 is nonzero only in row 5: the training set without it has a
    # zero column, so its fold cannot be scored at any lambda; the run exits
    # 1 and leaves no output directory behind
    rng = np.random.default_rng(0)
    X = rng.standard_normal((12, 4))
    X[:, 3] = 0.0
    X[5, 3] = 1.0
    write_matrix_csv(tmp_path / "x.csv", X)
    write_matrix_csv(tmp_path / "y.csv", rng.standard_normal((12, 2)))
    out = tmp_path / command
    with pytest.warns(RuntimeWarning, match="rank deficient"):
        rc = run([command, "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                  "--out-dir", str(out), "--lambdas", "0.1,1,10", "--n-thresholds", "4",
                  "--folds", "3"])
    assert rc == 1
    assert "numeric failure: fold" in capsys.readouterr().err
    assert not out.exists()


def assert_bad_thresholds_exit_2(tmp_path, command, bad):
    # a NaN or infinite threshold level was written to the JSON output as
    # NaN or Infinity, which is not valid JSON; now the run exits 2 and
    # writes nothing
    rng = np.random.default_rng(1)
    write_matrix_csv(tmp_path / "x.csv", rng.standard_normal((12, 3)))
    write_matrix_csv(tmp_path / "y.csv", rng.standard_normal((12, 2)))
    out = tmp_path / command
    rc = run([command, "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
              "--out-dir", str(out), "--lambdas", "0.1,1", "--thresholds", f"0,{bad}",
              "--folds", "3"])
    assert rc == 2
    assert not out.exists()


def assert_bad_seed_exit_2(tmp_path, capsys, command):
    # numpy rejected a negative fold seed deep inside the fold split, with a
    # message that named no flag; now the grid rejects it and names the seed
    rng = np.random.default_rng(1)
    write_matrix_csv(tmp_path / "x.csv", rng.standard_normal((12, 3)))
    write_matrix_csv(tmp_path / "y.csv", rng.standard_normal((12, 2)))
    out = tmp_path / command
    rc = run([command, "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
              "--out-dir", str(out), "--lambdas", "0.1,1", "--folds", "3", "--seed", "-1"])
    assert rc == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


REQUIRED = "required"

# every subcommand's options and their defaults; REQUIRED marks a required one
OPTIONS = {
    "fit": {"--x": REQUIRED, "--y": REQUIRED, "--out-dir": REQUIRED, "--seed": 0,
            "--jobs": 1, "--trace-out": None, "--depth": "halfspace", "--transform": "max",
            "--lambda-scale": "log10", "--n-lambdas": 100, "--lambdas": None,
            "--n-thresholds": 100, "--thresholds": None, "--folds": 5, "--one-step": "true"},
    "cv": {"--x": REQUIRED, "--y": REQUIRED, "--out-dir": REQUIRED, "--seed": 0,
           "--jobs": 1, "--depth": "halfspace", "--transform": "max",
           "--lambda-scale": "log10", "--n-lambdas": 100, "--lambdas": None,
           "--n-thresholds": 100, "--thresholds": None, "--folds": 5, "--one-step": "true"},
    "simulate": {"--config": REQUIRED, "--out-dir": REQUIRED},
    "benchmark": {"--config": REQUIRED, "--out": REQUIRED, "--methods": "larn,tgl,seplasso",
                  "--jobs": 1, "--n-lambdas": 100, "--lambdas": None, "--n-thresholds": 100,
                  "--folds": 5},
    "threshold-curve": {"--out": REQUIRED, "--lambda": 1.0, "--zmax": 6.0, "--step": 0.01,
                        "--depth": "halfspace", "--transform": "max"},
    "minimax-check": {"--out": REQUIRED, "--n": REQUIRED, "--theta-csv": None,
                      "--replications": 2000, "--seed": 0, "--depth": "halfspace",
                      "--transform": "max"},
}


class TestParser:
    def test_options_and_defaults(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        found = {name: {opt: REQUIRED if a.required else a.default
                        for a in parser._actions for opt in a.option_strings
                        if opt not in ("-h", "--help")}
                 for name, parser in sub.choices.items()}
        assert found == OPTIONS


class TestMatrixCsv:
    def test_roundtrip_exact(self, tmp_path):
        M = np.random.default_rng(0).standard_normal((7, 3)) * 1e3
        path = tmp_path / "m.csv"
        write_matrix_csv(path, M)
        back, header = read_matrix_csv(path)
        np.testing.assert_array_equal(back, M)
        assert header == ["c0", "c1", "c2"]

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(ValueError, match=r"bad.csv:3.*oops"):
            read_matrix_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1.0\n")
        with pytest.raises(ValueError, match="expected 2 cells"):
            read_matrix_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("blank", [False, True])
    def test_non_finite_cell_names_line(self, tmp_path, cell, blank):
        # a blank line is skipped but still counted in the line numbers
        path = tmp_path / "nonfinite.csv"
        gap = "\n" if blank else ""
        path.write_text(f"a,b\n1.0,2.0\n{gap}3.0,4.0\n5.0,{cell}\n6.0,{cell}\n")
        with pytest.raises(ValueError, match=rf"nonfinite.csv:{4 + blank}: non-finite value"):
            read_matrix_csv(path)

    def test_fit_on_non_finite_cell_exit_2(self, tmp_path, capsys):
        X = np.random.default_rng(0).standard_normal((10, 3))
        X[6, 1] = np.inf
        write_matrix_csv(tmp_path / "x.csv", X)
        write_matrix_csv(tmp_path / "y.csv", np.ones((10, 2)))
        rc = run(["fit", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                  "--out-dir", str(tmp_path / "fit")])
        assert rc == 2
        assert "x.csv:8: non-finite value" in capsys.readouterr().err


class TestSimulate:
    def test_writes_shape_contract(self, tmp_path):
        cfg_path = tmp_path / "sim.json"
        write_sim_config(cfg_path, n=50, p=20, q=20)
        out = tmp_path / "inst"
        assert run(["simulate", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        X, _ = read_matrix_csv(out / "X.csv")
        assert X.shape == (50, 20)

    def test_zero_row_prob_gives_zero_truth(self, tmp_path):
        cfg_path = tmp_path / "sim.json"
        write_sim_config(cfg_path, row_prob=0.0)
        out = tmp_path / "inst"
        run(["simulate", "--config", str(cfg_path), "--out-dir", str(out)])
        B0, _ = read_matrix_csv(out / "B0.csv")
        assert np.all(B0 == 0.0)

    def test_byte_identical_on_seed_repeat(self, tmp_path):
        cfg_path = tmp_path / "sim.json"
        write_sim_config(cfg_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(["simulate", "--config", str(cfg_path), "--out-dir", str(out1)])
        run(["simulate", "--config", str(cfg_path), "--out-dir", str(out2)])
        for name in ("X.csv", "Y.csv", "B0.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_invalid_config_field_named(self, tmp_path):
        cfg_path = tmp_path / "sim.json"
        with open(cfg_path, "w") as fh:
            json.dump({"n": 10, "bogus": 1}, fh)
        assert run(["simulate", "--config", str(cfg_path),
                    "--out-dir", str(tmp_path / "o")]) == 2

    def test_missing_config_exit_2(self, tmp_path):
        assert run(["simulate", "--config", str(tmp_path / "nope.json"),
                    "--out-dir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("field, value", [("seed", 1.5), ("seed", "abc"), ("n", 20.7)])
    @pytest.mark.parametrize("command", ["simulate", "benchmark"])
    def test_non_integer_config_field_exit_2(self, tmp_path, capsys, command, field, value):
        # a bad seed failed with a traceback (exit 1) once the instance was
        # drawn, and n = 20.7 simulated n = 20; both exit 2 and write nothing
        cfg_path = tmp_path / "sim.json"
        write_sim_config(cfg_path, **{field: value})
        out = tmp_path / "out"
        dest = ["--out-dir", str(out)] if command == "simulate" else ["--out", str(out)]
        assert run([command, "--config", str(cfg_path)] + dest) == 2
        assert f"{field} must be" in capsys.readouterr().err
        assert not out.exists()


class TestFit:
    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc = run(["fit", "--x", str(tmp_path / "missing.csv"),
                  "--y", str(tmp_path / "y.csv"), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "missing.csv" in capsys.readouterr().err

    def test_identity_design_unpenalized(self, tmp_path):
        # the identity stacked twice, left out one row at a time, so that no
        # training set loses a column (a fold that cannot be solved is an error)
        n = 5
        write_matrix_csv(tmp_path / "x.csv", np.tile(np.eye(n), (2, 1)))
        write_matrix_csv(tmp_path / "y.csv", np.tile(np.eye(n), (2, 1)))
        out = tmp_path / "fit"
        rc = run(["fit", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                  "--out-dir", str(out), "--lambdas", "0", "--thresholds", "0",
                  "--folds", str(2 * n)])
        assert rc == 0
        B, _ = read_matrix_csv(out / "coefficients.csv")
        np.testing.assert_allclose(np.diag(B), np.ones(n), atol=1e-8)

    def test_roundtrip_matches_in_process_fit(self, tmp_path):
        cfg_path = tmp_path / "sim.json"
        write_sim_config(cfg_path, n=30, p=6, q=3, seed=1)
        inst = tmp_path / "inst"
        run(["simulate", "--config", str(cfg_path), "--out-dir", str(inst)])
        out = tmp_path / "fit"
        rc = run(["fit", "--x", str(inst / "X.csv"), "--y", str(inst / "Y.csv"),
                  "--out-dir", str(out), "--n-lambdas", "12", "--n-thresholds", "10",
                  "--folds", "3", "--seed", "0"])
        assert rc == 0
        B_cli, _ = read_matrix_csv(out / "coefficients.csv")

        X, _ = read_matrix_csv(inst / "X.csv")
        Y, _ = read_matrix_csv(inst / "Y.csv")
        from larn.model_selection import default_lambdas
        grid = CvGrid(lambdas=default_lambdas(num=12), n_thresholds=10, k=3, seed=0)
        fit, _ = fit_with_selection(Dataset(X, Y), LarnConfig(), grid)
        np.testing.assert_array_equal(B_cli != 0, fit.b_hat != 0)
        np.testing.assert_allclose(B_cli, fit.b_hat, atol=1e-12)

    def test_fit_json_fields(self, tmp_path):
        write_matrix_csv(tmp_path / "x.csv", np.random.default_rng(0).standard_normal((12, 3)))
        write_matrix_csv(tmp_path / "y.csv", np.random.default_rng(1).standard_normal((12, 2)))
        out = tmp_path / "fit"
        rc = run(["fit", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                  "--out-dir", str(out), "--n-lambdas", "5", "--n-thresholds", "4",
                  "--folds", "3"])
        assert rc == 0
        with open(out / "fit.json") as fh:
            payload = json.load(fh)
        for key in ("lambda", "threshold", "objective_trace", "kkt_residuals", "cv"):
            assert key in payload
        assert payload["certified"] is True

    def test_trace_out_matches_fit_json(self, tmp_path):
        rng = np.random.default_rng(2)
        write_matrix_csv(tmp_path / "x.csv", rng.standard_normal((15, 4)))
        write_matrix_csv(tmp_path / "y.csv", rng.standard_normal((15, 2)))
        out = tmp_path / "fit"
        rc = run(["fit", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                  "--out-dir", str(out), "--n-lambdas", "5", "--n-thresholds", "4",
                  "--folds", "3", "--trace-out", str(tmp_path / "trace.csv")])
        assert rc == 0
        trace, header = read_matrix_csv(tmp_path / "trace.csv")
        with open(out / "fit.json") as fh:
            payload = json.load(fh)
        assert header == ["objective"]
        assert trace.shape == (len(payload["objective_trace"]), 1)
        assert np.array_equal(trace[:, 0], payload["objective_trace"])

    def test_row_count_mismatch_exit_2(self, tmp_path):
        write_matrix_csv(tmp_path / "x.csv", np.zeros((4, 2)) + 1.0)
        write_matrix_csv(tmp_path / "y.csv", np.ones((5, 1)))
        rc = run(["fit", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                  "--out-dir", str(tmp_path / "o")])
        assert rc == 2

    def test_full_mode(self, tmp_path):
        rng = np.random.default_rng(3)
        write_matrix_csv(tmp_path / "x.csv", rng.standard_normal((15, 4)))
        write_matrix_csv(tmp_path / "y.csv", rng.standard_normal((15, 2)))
        out = tmp_path / "fit"
        rc = run(["fit", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                  "--out-dir", str(out), "--n-lambdas", "5", "--n-thresholds", "4",
                  "--folds", "3", "--one-step", "false"])
        assert rc == 0
        with open(out / "fit.json") as fh:
            payload = json.load(fh)
        assert payload["outer_iters"] >= 1
        trace = np.asarray(payload["objective_trace"])
        assert len(trace) == payload["outer_iters"] + 1
        assert np.all(np.diff(trace) <= 1e-10 * trace[0])
        assert payload["certified"] is True

    def test_uncertified_fit_exit_3(self, tmp_path, capsys, monkeypatch):
        # three sweeps with no Newton finish leave the selected fit
        # uncertified: its outputs are written, flagged, and the run exits 3
        monkeypatch.setattr(SolverSettings.__init__, "__defaults__", (3, 1e-6))
        monkeypatch.setattr(group_solver, "_NEWTON_STEPS", 0)
        rng = np.random.default_rng(6)
        write_matrix_csv(tmp_path / "x.csv", rng.standard_normal((15, 4)))
        write_matrix_csv(tmp_path / "y.csv", rng.standard_normal((15, 2)))
        out = tmp_path / "fit"
        with pytest.warns(RuntimeWarning, match="not certified"):
            rc = run(["fit", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                      "--out-dir", str(out), "--lambdas", "0.5,2", "--n-thresholds", "4",
                      "--folds", "3"])
        assert rc == 3
        assert "not KKT-certified" in capsys.readouterr().err
        assert (out / "coefficients.csv").exists()
        with open(out / "fit.json") as fh:
            payload = json.load(fh)
        assert payload["certified"] is False

    def test_fold_failure_exit_1(self, tmp_path, capsys):
        assert_fold_failure_exit_1(tmp_path, capsys, "fit")

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_threshold_exit_2(self, tmp_path, bad):
        assert_bad_thresholds_exit_2(tmp_path, "fit", bad)

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        assert_bad_seed_exit_2(tmp_path, capsys, "fit")

    def test_linalg_failure_exit_1(self, tmp_path, capsys, monkeypatch):
        # numpy's LinAlgError subclasses ValueError, yet it exits 1, not 2
        def no_svd(data):
            raise np.linalg.LinAlgError("SVD did not converge")
        monkeypatch.setattr(estimator, "initial_estimate", no_svd)
        rng = np.random.default_rng(4)
        write_matrix_csv(tmp_path / "x.csv", rng.standard_normal((12, 3)))
        write_matrix_csv(tmp_path / "y.csv", rng.standard_normal((12, 2)))
        rc = run(["fit", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                  "--out-dir", str(tmp_path / "fit"), "--n-lambdas", "3", "--folds", "3"])
        assert rc == 1
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_bad_jobs_exit_2(self, tmp_path, jobs):
        rng = np.random.default_rng(5)
        write_matrix_csv(tmp_path / "x.csv", rng.standard_normal((12, 3)))
        write_matrix_csv(tmp_path / "y.csv", rng.standard_normal((12, 2)))
        rc = run(["fit", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                  "--out-dir", str(tmp_path / "fit"), "--n-lambdas", "3", "--folds", "3",
                  f"--jobs={jobs}"])
        assert rc == 2


class TestCv:
    def test_surface_files(self, tmp_path):
        rng = np.random.default_rng(2)
        write_matrix_csv(tmp_path / "x.csv", rng.standard_normal((15, 4)))
        write_matrix_csv(tmp_path / "y.csv", rng.standard_normal((15, 2)))
        out = tmp_path / "cv"
        rc = run(["cv", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                  "--out-dir", str(out), "--n-lambdas", "6", "--n-thresholds", "5",
                  "--folds", "3"])
        assert rc == 0
        surface, header = read_matrix_csv(out / "cv_surface.csv")
        assert header == ["lambda", "threshold", "cv_rmse"]
        assert surface.shape == (30, 3)
        with open(out / "cv_best.json") as fh:
            best = json.load(fh)
        assert best["fit_count"] == 18
        assert best["certified"] is True

    def test_linear_positive_scale_gives_every_level(self, tmp_path):
        rng = np.random.default_rng(2)
        write_matrix_csv(tmp_path / "x.csv", rng.standard_normal((15, 4)))
        write_matrix_csv(tmp_path / "y.csv", rng.standard_normal((15, 2)))
        out = tmp_path / "cv"
        rc = run(["cv", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                  "--out-dir", str(out), "--n-lambdas", "7",
                  "--lambda-scale", "linear-positive", "--n-thresholds", "3",
                  "--folds", "3"])
        assert rc == 0
        surface, _ = read_matrix_csv(out / "cv_surface.csv")
        np.testing.assert_allclose(np.unique(surface[:, 0]), np.linspace(0.25, 1.75, 7))

    def test_fold_failure_exit_1(self, tmp_path, capsys):
        assert_fold_failure_exit_1(tmp_path, capsys, "cv")

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_threshold_exit_2(self, tmp_path, bad):
        assert_bad_thresholds_exit_2(tmp_path, "cv", bad)

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        assert_bad_seed_exit_2(tmp_path, capsys, "cv")

    def test_uncertified_selection_exit_3(self, tmp_path, capsys, monkeypatch):
        # three sweeps with no Newton finish leave the selected full-data
        # fit uncertified: the surface and best pair are written, flagged,
        # and the run exits 3
        monkeypatch.setattr(SolverSettings.__init__, "__defaults__", (3, 1e-6))
        monkeypatch.setattr(group_solver, "_NEWTON_STEPS", 0)
        rng = np.random.default_rng(6)
        write_matrix_csv(tmp_path / "x.csv", rng.standard_normal((15, 4)))
        write_matrix_csv(tmp_path / "y.csv", rng.standard_normal((15, 2)))
        out = tmp_path / "cv"
        rc = run(["cv", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                  "--out-dir", str(out), "--lambdas", "0.5,2", "--n-thresholds", "4",
                  "--folds", "3"])
        assert rc == 3
        assert "not KKT-certified" in capsys.readouterr().err
        assert (out / "cv_surface.csv").exists()
        with open(out / "cv_best.json") as fh:
            best = json.load(fh)
        assert best["certified"] is False

    def test_edge_flag_reaches_json(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((15, 4))
        write_matrix_csv(tmp_path / "x.csv", X)
        write_matrix_csv(tmp_path / "y.csv", X @ np.ones((4, 2)) + 0.1 * rng.standard_normal((15, 2)))
        args = ["--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                "--lambdas", "1e-8,1e3,1e4", "--thresholds", "0", "--folds", "3"]
        for cmd in ("cv", "fit"):
            assert run([cmd, "--out-dir", str(tmp_path / cmd)] + args) == 0
            err = capsys.readouterr().err
            assert "selected lambda=1e-08 is on the grid's edge; try a wider --lambdas" in err
        with open(tmp_path / "cv" / "cv_best.json") as fh:
            best = json.load(fh)
        with open(tmp_path / "fit" / "fit.json") as fh:
            fit = json.load(fh)
        assert best["best_lambda"] == 1e-8 and best["best_on_edge"] is True
        assert fit["cv"]["best_on_edge"] is True


class TestThresholdCurve:
    def test_identity_at_lambda_zero(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = run(["threshold-curve", "--out", str(out), "--lambda", "0",
                  "--zmax", "3", "--step", "0.5"])
        assert rc == 0
        M, _ = read_matrix_csv(out)
        np.testing.assert_array_equal(M[:, 0], M[:, 1])

    def test_curve_is_odd(self, tmp_path):
        out = tmp_path / "curve.csv"
        run(["threshold-curve", "--out", str(out), "--lambda", "1.5",
             "--zmax", "4", "--step", "0.25"])
        M, _ = read_matrix_csv(out)
        z, theta = M[:, 0], M[:, 1]
        np.testing.assert_array_equal(z, -z[::-1])
        np.testing.assert_array_equal(theta, -theta[::-1])

    def test_matches_library_rule(self, tmp_path):
        out = tmp_path / "curve.csv"
        run(["threshold-curve", "--out", str(out), "--lambda", "1.0",
             "--zmax", "2", "--step", "1.0", "--depth", "projection"])
        M, _ = read_matrix_csv(out)
        pen = depth_scalar_penalty(PenaltySpec("projection", "max"))
        from larn.scalar_rule import soft_threshold_depth
        np.testing.assert_array_equal(M[:, 1], soft_threshold_depth(M[:, 0], 1.0, pen))

    def test_bad_step_exit_2(self, tmp_path):
        assert run(["threshold-curve", "--out", str(tmp_path / "c.csv"),
                    "--step", "-1"]) == 2

    @pytest.mark.parametrize("flag, value", [("--zmax", "inf"), ("--zmax", "nan"),
                                             ("--step", "inf"), ("--step", "nan")])
    def test_non_finite_range_exit_2(self, tmp_path, flag, value):
        # --zmax inf overflowed the point count with a traceback
        out = tmp_path / "c.csv"
        assert run(["threshold-curve", "--out", str(out), f"{flag}={value}"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda_exit_2(self, tmp_path, lam):
        # --lambda nan wrote an all-zero curve and exited 0
        out = tmp_path / "c.csv"
        assert run(["threshold-curve", "--out", str(out), f"--lambda={lam}"]) == 2
        assert not out.exists()


class TestMinimaxCheck:
    def test_bound_matches_hand_formula(self, tmp_path):
        out = tmp_path / "mm.json"
        rc = run(["minimax-check", "--out", str(out), "--n", "1024",
                  "--replications", "10", "--seed", "0"])
        assert rc == 0
        with open(out) as fh:
            rep = json.load(fh)
        n = 1024
        c1 = p0 = 1 / math.sqrt(2 * math.pi)
        expected = (2 * math.log(n) - 3) * (0.0 + c1 / (p0 * (math.sqrt(0.5 * math.log(n)) - 1)))
        assert rep["bound"] == pytest.approx(expected, abs=1e-10)
        assert rep["ideal_risk"] == 0.0

    def test_theta_csv_input(self, tmp_path):
        write_matrix_csv(tmp_path / "theta.csv", np.ones((128, 1)))
        out = tmp_path / "mm.json"
        rc = run(["minimax-check", "--out", str(out), "--n", "128",
                  "--theta-csv", str(tmp_path / "theta.csv"),
                  "--replications", "20"])
        assert rc == 0
        with open(out) as fh:
            rep = json.load(fh)
        assert rep["ideal_risk"] == 128.0

    def test_wrong_theta_length_exit_2(self, tmp_path):
        write_matrix_csv(tmp_path / "theta.csv", np.ones((4, 1)))
        assert run(["minimax-check", "--out", str(tmp_path / "mm.json"),
                    "--n", "128", "--theta-csv", str(tmp_path / "theta.csv")]) == 2

    def test_too_small_n_exit_2(self, tmp_path):
        assert run(["minimax-check", "--out", str(tmp_path / "mm.json"),
                    "--n", "32"]) == 2

    @pytest.mark.parametrize("replications", ["0", "1"])
    def test_fewer_than_two_replications_exit_2(self, tmp_path, replications):
        out = tmp_path / "mm.json"
        assert run(["minimax-check", "--out", str(out), "--n", "128",
                    "--replications", replications]) == 2
        assert not out.exists()


class TestBenchmark:
    def test_smoke_rows(self, tmp_path):
        cfg_path = tmp_path / "sim.json"
        write_sim_config(cfg_path)
        out = tmp_path / "metrics.csv"
        rc = run(["benchmark", "--config", str(cfg_path), "--out", str(out),
                  "--n-lambdas", "6", "--n-thresholds", "5", "--folds", "3"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "setting,rho,replication,method,cv_rmse,mae,tp,tn"
        assert len(lines) == 4  # header + one row per method

    def test_seed_repeat_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "sim.json"
        write_sim_config(cfg_path, replications=2)
        out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        args = ["--n-lambdas", "5", "--n-thresholds", "4", "--folds", "3"]
        run(["benchmark", "--config", str(cfg_path), "--out", str(out1)] + args)
        run(["benchmark", "--config", str(cfg_path), "--out", str(out2)] + args)
        assert out1.read_bytes() == out2.read_bytes()

    def test_row_format(self, tmp_path, monkeypatch):
        # strings verbatim, the replication as an integer, floats through io.fmt
        rows = [MetricsRow("p5_q3", 0.7, 0, "larn", 0.1, 1 / 3, 1.0, 0.75),
                MetricsRow("p5_q3", 0.7, 12, "seplasso", 2.5e-17, 0.0, 0.5, 1.0)]
        monkeypatch.setattr(cli, "run_benchmark", lambda *args, **kwargs: rows)
        cfg_path = tmp_path / "sim.json"
        write_sim_config(cfg_path)
        out = tmp_path / "metrics.csv"
        assert run(["benchmark", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert out.read_text().splitlines() == [
            "setting,rho,replication,method,cv_rmse,mae,tp,tn",
            "p5_q3,0.69999999999999996,0,larn,0.10000000000000001,0.33333333333333331,1,0.75",
            "p5_q3,0.69999999999999996,12,seplasso,2.4999999999999999e-17,0,0.5,1",
        ]

    def test_unknown_method_exit_2(self, tmp_path):
        cfg_path = tmp_path / "sim.json"
        write_sim_config(cfg_path)
        out = tmp_path / "m.csv"
        assert run(["benchmark", "--config", str(cfg_path),
                    "--out", str(out), "--methods", "larn,oops"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("methods", [",", ""])
    def test_empty_method_list_exit_2(self, tmp_path, capsys, methods):
        # an empty list wrote a header-only CSV and exited 0
        cfg_path = tmp_path / "sim.json"
        write_sim_config(cfg_path)
        out = tmp_path / "m.csv"
        assert run(["benchmark", "--config", str(cfg_path), "--out", str(out),
                    f"--methods={methods}"]) == 2
        assert "no methods" in capsys.readouterr().err
        assert not out.exists()

    def test_explicit_lambdas(self, tmp_path):
        cfg_path = tmp_path / "sim.json"
        write_sim_config(cfg_path)
        out = tmp_path / "metrics.csv"
        base = ["benchmark", "--config", str(cfg_path), "--n-thresholds", "4", "--folds", "3"]
        assert run(base + ["--out", str(out), "--lambdas", "0.1,1,10,1e4"]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        # --lambdas overrides --n-lambdas
        same = tmp_path / "same.csv"
        assert run(base + ["--out", str(same), "--lambdas", "0.1,1,10,1e4",
                           "--n-lambdas", "7"]) == 0
        assert same.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("bad", ["0.1,abc", "", "-1,2", "nan"])
    def test_bad_lambdas_exit_2(self, tmp_path, bad):
        cfg_path = tmp_path / "sim.json"
        write_sim_config(cfg_path)
        out = tmp_path / "m.csv"
        assert run(["benchmark", "--config", str(cfg_path), "--out", str(out),
                    f"--lambdas={bad}"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_bad_jobs_exit_2(self, tmp_path, jobs):
        cfg_path = tmp_path / "sim.json"
        write_sim_config(cfg_path)
        out = tmp_path / "m.csv"
        assert run(["benchmark", "--config", str(cfg_path), "--out", str(out),
                    f"--jobs={jobs}"]) == 2
        assert not out.exists()


# Runs in a fresh interpreter in which every scipy import fails: the package
# imports, and each command below (the first two evaluate the normal cdf
# through the halfspace + exp weights) exits 0, with scipy never loaded.
WITHOUT_SCIPY = """
import importlib, json, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
for name in ("group_solver", "estimator", "model_selection", "simbench", "io", "cli"):
    importlib.import_module(f"larn.{name}")
from larn import cli

out, x, y = sys.argv[1:]
penalty = ["--depth", "halfspace", "--transform", "exp"]
grid = ["--n-lambdas", "5", "--n-thresholds", "5", "--folds", "3"]
with open(f"{out}/sim.json", "w") as fh:
    json.dump({"n": 20, "p": 5, "q": 3, "rho": 0.5, "seed": 1, "replications": 1}, fh)
codes = [
    cli.main(["threshold-curve", "--out", f"{out}/curve.csv", "--step", "0.5"] + penalty),
    cli.main(["minimax-check", "--out", f"{out}/mm.json", "--n", "128",
              "--replications", "5"] + penalty),
    cli.main(["fit", "--x", x, "--y", y, "--out-dir", f"{out}/fit"] + grid),
    cli.main(["cv", "--x", x, "--y", y, "--out-dir", f"{out}/cv"] + grid),
    cli.main(["benchmark", "--config", f"{out}/sim.json", "--out", f"{out}/metrics.csv"]
             + grid),
]
assert codes == [0, 0, 0, 0, 0], codes
assert "scipy" not in sys.modules
"""


class TestWithoutScipy:
    def test_commands_run_without_scipy(self, tmp_path):
        rng = np.random.default_rng(0)
        write_matrix_csv(tmp_path / "x.csv", rng.standard_normal((15, 4)))
        write_matrix_csv(tmp_path / "y.csv", rng.standard_normal((15, 2)))
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", WITHOUT_SCIPY, str(tmp_path),
             str(tmp_path / "x.csv"), str(tmp_path / "y.csv")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "curve.csv").exists()
        assert (tmp_path / "fit" / "coefficients.csv").exists()
        assert (tmp_path / "cv" / "cv_best.json").exists()
        assert (tmp_path / "metrics.csv").exists()
