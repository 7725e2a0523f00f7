"""The names and records the benchmark under perfbench/ uses must exist in larn.

perfbench/spans.py replaces functions in larn's modules by name when the
benchmark starts, and perfbench/workloads.py builds configs, rebuilds
metrics rows and reads fits; a rename or deletion there would otherwise
surface only when the benchmark is run.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

from larn.estimator import LarnConfig
from larn.model_selection import CvGrid, fit_with_selection
from larn.simbench import MetricsRow, SimConfig, generate_instance, metrics

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load("perfbench_spans", PERFBENCH / "spans.py")


def test_patched_names_resolve():
    missing = [f"{module}.{attr}" for module, attr, _, _ in spans.PATCHES
               if not callable(getattr(importlib.import_module(f"larn.{module}"),
                                       attr, None))]
    assert missing == []


def test_pool_modules_use_thread_pool():
    for module in spans.POOL_MODULES:
        assert hasattr(importlib.import_module(f"larn.{module}"), "ThreadPoolExecutor")


def test_fold_fits_takes_train_idx_fourth():
    # spans._fold_attrs reads the training indices as positional argument 3
    from larn.model_selection import _fold_fits
    assert list(inspect.signature(_fold_fits).parameters)[3] == "train_idx"


def test_records_workloads_use(monkeypatch):
    # workloads.py imports its sibling checks.py by that name
    checks = load("checks", PERFBENCH / "checks.py")
    monkeypatch.setitem(sys.modules, "checks", checks)
    workloads = load("perfbench_workloads", PERFBENCH / "workloads.py")
    for workload in workloads.WORKLOADS.values():
        SimConfig(**workload.sim)
    # the paper workload's self-test rebuilds a row and perturbs its mae
    data, B0 = generate_instance(SimConfig(n=20, p=5, q=3, seed=1, replications=1))
    B_hat = np.where(np.abs(B0) > 1.0, B0 + 0.1, 0.0)
    row = MetricsRow("p5_q3", 0.7, 0, "larn", **metrics(B_hat, B0, 0.5))
    bad = MetricsRow(*row.astuple())
    bad.mae += checks.PERTURBATION
    assert len(MetricsRow.FIELDS) == len(row.astuple())
    assert checks.metrics_error(row, B_hat, B0) is None
    assert checks.metrics_error(bad, B_hat, B0) is not None
    # the fit checks read the selected fit's b_hat, lam and threshold
    fit, _ = fit_with_selection(data, LarnConfig(), CvGrid([0.5, 2.0], n_thresholds=3, k=3))
    assert fit.b_hat.shape == (5, 3)
    assert fit.lam in (0.5, 2.0)
    assert 0.0 <= fit.threshold
