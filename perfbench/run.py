"""Benchmark for larn: one workload per call, result as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; larn is imported from ./src.
Rounds run back to back until ``--seconds`` have passed, at least three.  With
``--trace 0`` every round is untraced and the end-to-end metrics are
printed.  With ``--trace 1`` untraced and traced rounds alternate; the
per-layer metrics come from the traced rounds, and ``trace.overhead_s`` is
the median traced round minus the median untraced round.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
import warnings

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
LARN_MODULES = ("group_solver", "estimator", "model_selection", "simbench", "io", "cli")
SETUP_REPEATS = 5
MIN_ROUNDS = 3

END_TO_END = {"setup_s": "s", "replication_s": "s", "fit_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "group_solver.path_s": "s",
    "group_solver.levels": "count",
    "group_solver.sweeps": "count",
    "group_solver.sweeps_max": "count",
    "group_solver.us_per_level_sweep": "us",
    "group_solver.levels_uncertified": "count",
    "group_solver.single_s": "s",
    "estimator.initial_estimate_s": "s",
    "estimator.initial_estimate_calls": "count",
    "estimator.larn_fit_s": "s",
    "estimator.larn_fit_calls": "count",
    "estimator.group_weights_s": "s",
    "model_selection.cross_validate_s": "s",
    "model_selection.cross_validate_self_s": "s",
    "model_selection.fold_busy_s": "s",
    "model_selection.fold_concurrency": "ratio",
    "simbench.lasso_path_s": "s",
    "simbench.lasso_path_calls": "count",
    "simbench.select_lasso_self_s": "s",
    "simbench.run_benchmark_self_s": "s",
    "simbench.generate_instance_s": "s",
    "io.read_s": "s",
    "io.write_s": "s",
    "io.bytes_read": "B",
    "io.bytes_written": "B",
    "cli.main_self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def import_larn():
    """Import larn's modules from ./src of the checkout, nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "larn", "__init__.py")):
        raise ImportError(f"no larn sources under {SRC}")
    sys.path.insert(0, SRC)
    modules = {name: importlib.import_module(f"larn.{name}") for name in LARN_MODULES}
    origin = os.path.dirname(os.path.abspath(modules["cli"].__file__))
    if origin != os.path.join(SRC, "larn"):
        raise ImportError(f"larn was imported from {origin}, not from {SRC}")
    return types.SimpleNamespace(**modules)


def layer_metrics(totals, uncertified):
    """Per-layer metrics of one traced round from its span totals."""
    def get(name, key="seconds"):
        return totals[name][key] if name in totals else 0
    attrs = totals.get("group_solver.bcd_solve_path", {}).get("attrs", [])
    sweeps = sum(a.get("sweeps", 0) for a in attrs)
    path_s = get("group_solver.bcd_solve_path", "self")
    folds = totals.get("model_selection.fold_fits", {"durations": [], "attrs": []})
    fold_busy = sum(d for d, a in zip(folds["durations"], folds["attrs"]) if a.get("fold"))
    cv_s = get("model_selection.cross_validate")

    def io_sum(names, key):
        if key == "bytes":
            return sum(a.get("bytes", 0) for n in names for a in totals.get(n, {}).get("attrs", []))
        return sum(get(n) for n in names)
    reads = ("io.read_matrix_csv",)
    writes = ("io.write_matrix_csv", "io.write_json")
    return {
        "group_solver.path_s": path_s,
        "group_solver.levels": sum(a.get("levels", 0) for a in attrs),
        "group_solver.sweeps": sweeps,
        "group_solver.sweeps_max": max((a.get("sweeps_max", 0) for a in attrs), default=0),
        "group_solver.us_per_level_sweep": 1e6 * path_s / sweeps if sweeps else 0.0,
        "group_solver.levels_uncertified": uncertified,
        "group_solver.single_s": get("group_solver.bcd_solve"),
        "estimator.initial_estimate_s": get("estimator.initial_estimate"),
        "estimator.initial_estimate_calls": get("estimator.initial_estimate", "calls"),
        "estimator.larn_fit_s": get("estimator.larn_fit"),
        "estimator.larn_fit_calls": get("estimator.larn_fit", "calls"),
        "estimator.group_weights_s": get("estimator.group_weights"),
        "model_selection.cross_validate_s": cv_s,
        "model_selection.cross_validate_self_s": get("model_selection.cross_validate", "self"),
        "model_selection.fold_busy_s": fold_busy,
        "model_selection.fold_concurrency": fold_busy / cv_s if cv_s else 0.0,
        "simbench.lasso_path_s": get("simbench.lasso_path"),
        "simbench.lasso_path_calls": get("simbench.lasso_path", "calls"),
        "simbench.select_lasso_self_s": get("simbench.select_lasso", "self"),
        "simbench.run_benchmark_self_s": get("simbench.run_benchmark", "self"),
        "io.read_s": io_sum(reads, "seconds"),
        "io.write_s": io_sum(writes, "seconds"),
        "io.bytes_read": io_sum(reads, "bytes"),
        "io.bytes_written": io_sum(writes, "bytes"),
        "cli.main_self_s": get("cli.main", "self"),
        "trace.spans": sum(t["calls"] for t in totals.values()),
    }


def report(values, units):
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None):
    args = parse_args(argv)
    try:
        larn = import_larn()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    # p > n starts are rank deficient by design; the warning is expected
    warnings.filterwarnings("ignore", message="X'X is rank deficient")
    print(f"perfbench: BLAS threads from OPENBLAS_NUM_THREADS="
          f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}, "
          f"{os.cpu_count()} cpus", file=sys.stderr)

    recorder = spans.Recorder()
    spans.install(larn, recorder)
    workload = WORKLOADS[args.workload](larn, recorder)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    try:
        return run(args, workload, recorder, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def import_seconds():
    """Wall time of a fresh interpreter that imports larn's modules."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); " + "; ".join(
        f"import larn.{name}" for name in LARN_MODULES)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - start


def run(args, workload, recorder, workdir):
    setup_times = []
    recorder.tracing = bool(args.trace)
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        imported = import_seconds()
        with recorder.open("setup") as span:
            state = workload.setup(args.seed, workdir)
        setup_times.append(imported + span.seconds)
    recorder.tracing = False

    rounds = []          # (traced, seconds, RoundCheck, root span id)
    measure_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        recorder.tracing = traced
        error = outcome = None
        with recorder.open("round", {"index": len(rounds)}) as span:
            try:
                outcome = workload.run(state, len(rounds))
            except Exception as exc:       # a failed call is counted, not fatal
                traceback.print_exc()
                error = exc
        recorder.tracing = False
        result = workload.check(state, outcome, error)
        rounds.append((traced, span.seconds, result, span.sid))
        print(f"perfbench: round {len(rounds)} {'traced' if traced else 'untraced'} "
              f"{span.seconds:.3f}s, {result.attempted} solves, {result.failed} failed "
              f"(worst KKT {result.worst_kkt:.3g}){'; ' if result.problems else ''}"
              f"{'; '.join(result.problems)}", file=sys.stderr)
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - measure_start >= args.seconds:
            break

    problems = [p for _, _, r, _ in rounds for p in r.problems]
    if "fit" in workload.evidence and "solve" in workload.evidence:
        problems += workload.self_test()
    else:
        problems.append("self-test: no verified output to perturb")
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    untraced = [(s, r) for t, s, r, _ in rounds if not t and not r.call_failures]
    if args.trace:
        per_round = [layer_metrics(spans.layer_totals(recorder.spans, sid), r.failed)
                     for t, _, r, sid in rounds if t]
        values = {name: statistics.median(m[name] for m in per_round)
                  for name in per_round[0]}
        gen = [end - start for _, _, name, start, end, _ in recorder.spans
               if name == "simbench.generate_instance"]
        values["simbench.generate_instance_s"] = statistics.median(gen) if gen else 0.0
        traced_s = [s for t, s, r, _ in rounds if t and not r.call_failures]
        values["trace.overhead_s"] = (statistics.median(traced_s)
                                      - statistics.median(s for s, _ in untraced)
                                      if traced_s and untraced else 0.0)
        metrics = report(values, PER_LAYER)
        recorder.write(os.path.join(
            OUT, f"{workload.name}-seed{args.seed}-spans.jsonl"))
    else:
        round_s = [s for s, _ in untraced]
        fit_s = round_s if workload.fit_is_round else [f for _, r in untraced
                                                       for f in r.fit_seconds]
        values = {
            "setup_s": statistics.median(setup_times),
            "replication_s": statistics.median(round_s) if round_s else 0.0,
            "fit_s": statistics.median(fit_s) if fit_s else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = report(values, END_TO_END)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for _, _, r, _ in rounds),
        "failed": sum(r.failed for _, _, r, _ in rounds),
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}"
                                "-result.json"), "w", encoding="utf-8") as fh:
        json.dump({"rounds": len(rounds), **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
