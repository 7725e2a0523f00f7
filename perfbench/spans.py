"""Spans and captures around calls into larn, installed from outside.

Every function listed in ``PATCHES`` is replaced, in each module namespace
that calls it, by a wrapper that

* keeps the call's arguments and result when the function is marked as
  captured, so the benchmark can check outputs after the clock stops
  (this happens in every run, traced or not, so both run the same code);
* records a span (id, parent, name, start, end, attributes) while
  ``Recorder.tracing`` is set.

Span parents come from a context variable.  The thread pools of
``model_selection`` and ``simbench`` are replaced by one that runs each
task in a copy of the submitting context, so spans recorded in a fold
thread name the ``cross_validate`` span that submitted them as parent.
"""

import concurrent.futures
import contextvars
import itertools
import json
import os
import threading
import time

# (module, attribute, span name, captured).  A function that several
# modules import is patched in each of them, so calls through any of the
# names are seen.  ``model_selection._fold_fits`` is the one private
# function: the per-fold unit of work has no public entry point.
PATCHES = [
    ("group_solver", "bcd_solve_path", "group_solver.bcd_solve_path", True),
    ("model_selection", "bcd_solve_path", "group_solver.bcd_solve_path", True),
    ("estimator", "bcd_solve", "group_solver.bcd_solve", False),
    ("estimator", "initial_estimate", "estimator.initial_estimate", False),
    ("model_selection", "initial_estimate", "estimator.initial_estimate", False),
    ("estimator", "group_weights", "estimator.group_weights", False),
    ("model_selection", "group_weights", "estimator.group_weights", False),
    ("model_selection", "larn_fit", "estimator.larn_fit", False),
    ("model_selection", "_fold_fits", "model_selection.fold_fits", False),
    ("model_selection", "cross_validate", "model_selection.cross_validate", False),
    ("cli", "cross_validate", "model_selection.cross_validate", False),
    ("model_selection", "fit_with_selection", "model_selection.fit_with_selection", True),
    ("cli", "fit_with_selection", "model_selection.fit_with_selection", True),
    ("simbench", "fit_with_selection", "model_selection.fit_with_selection", True),
    ("simbench", "lasso_path", "simbench.lasso_path", False),
    ("simbench", "select_lasso", "simbench.select_lasso", False),
    ("simbench", "generate_instance", "simbench.generate_instance", False),
    ("simbench", "metrics", "simbench.metrics", True),
    ("simbench", "run_benchmark", "simbench.run_benchmark", False),
    ("io", "read_matrix_csv", "io.read_matrix_csv", False),
    ("io", "write_matrix_csv", "io.write_matrix_csv", False),
    ("io", "write_json", "io.write_json", False),
    ("cli", "main", "cli.main", False),
]
POOL_MODULES = ("model_selection", "simbench")


def _solve_attrs(args, kwargs, result):
    _, traces = result
    sweeps = [len(t) - 1 for t in traces]
    return {"levels": len(traces), "sweeps": int(sum(sweeps)),
            "sweeps_max": int(max(sweeps))}


def _fold_attrs(args, kwargs, result):
    data, train_idx = args[0], args[3]
    return {"fold": len(train_idx) < data.n}


def _path_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


ATTRS = {
    "group_solver.bcd_solve_path": _solve_attrs,
    "model_selection.fold_fits": _fold_attrs,
    "io.read_matrix_csv": _path_attrs,
    "io.write_matrix_csv": _path_attrs,
    "io.write_json": _path_attrs,
}


class Recorder:
    """Span store and capture lists shared by all wrappers of one run."""

    def __init__(self):
        self.tracing = False
        self.spans = []
        self.calls = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=0)

    def take_calls(self, name):
        """Captured (args, kwargs, result, seconds) of ``name`` since the last take."""
        with self._lock:
            return self.calls.pop(name, [])

    def open(self, name, attrs=None):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name, attrs or {})

    def _start(self):
        with self._lock:
            sid = next(self._ids)
        parent = self._current.get()
        return sid, parent, self._current.set(sid)

    def _finish(self, sid, parent, token, name, start, end, attrs):
        self._current.reset(token)
        with self._lock:
            self.spans.append((sid, parent, name, start, end, attrs))

    def wrap(self, fn, name, captured):
        attrs_fn = ATTRS.get(name)

        def wrapper(*args, **kwargs):
            if not self.tracing:
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                seconds = time.perf_counter() - start
            else:
                sid, parent, token = self._start()
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    self._finish(sid, parent, token, name, start,
                                 time.perf_counter(), {"error": True})
                    raise
                end = time.perf_counter()
                seconds = end - start
                attrs = attrs_fn(args, kwargs, result) if attrs_fn else {}
                self._finish(sid, parent, token, name, start, end, attrs)
            if captured:
                with self._lock:
                    self.calls.setdefault(name, []).append((args, kwargs, result, seconds))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, **attrs}) + "\n")


class _Span:
    def __init__(self, recorder, name, attrs):
        self.recorder = recorder
        self.name = name
        self.attrs = attrs
        self.sid = 0

    def __enter__(self):
        if self.recorder.tracing:
            self.sid, self.parent, self.token = self.recorder._start()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        if self.sid:
            self.recorder._finish(self.sid, self.parent, self.token, self.name,
                                  self.start, self.end, self.attrs)
        return False

    @property
    def seconds(self):
        return self.end - self.start


class _ContextPool(concurrent.futures.ThreadPoolExecutor):
    """Thread pool that runs each task in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def install(larn, recorder):
    """Replace every name in PATCHES by a wrapper bound to ``recorder``."""
    wrappers = {}
    for module, attr, name, captured in PATCHES:
        mod = getattr(larn, module)
        fn = getattr(mod, attr)
        key = id(fn)
        if key not in wrappers:
            wrappers[key] = recorder.wrap(fn, name, captured)
        setattr(mod, attr, wrappers[key])
    for module in POOL_MODULES:
        getattr(larn, module).ThreadPoolExecutor = _ContextPool


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_totals(spans, root):
    """Per-name call count, total and self seconds, and the durations and
    attributes of each call, over the spans that descend from span ``root``."""
    children = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)
    totals = {}
    stack = list(children.get(root, []))
    while stack:
        sid, _, name, start, end, attrs = stack.pop()
        kids = children.get(sid, [])
        stack.extend(kids)
        t = totals.setdefault(name, {"calls": 0, "seconds": 0.0, "self": 0.0,
                                     "durations": [], "attrs": []})
        t["calls"] += 1
        t["seconds"] += end - start
        t["self"] += (end - start) - _covered(
            [(max(k[3], start), min(k[4], end)) for k in kids])
        t["durations"].append(end - start)
        t["attrs"].append(attrs)
    return totals
