"""The names the benchmark under perfbench/ wraps must exist in larn.

perfbench/spans.py replaces functions in larn's modules by name when the
benchmark starts; a rename or deletion there would otherwise surface only
when the benchmark is run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


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
