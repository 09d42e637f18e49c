#!/usr/bin/env python3
"""Seeded benchmark of skillsgraph: constrained routes, scenario plans, cohort learning.

    python3 bench/run.py --workload {route,plan,learn} --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout: it imports the program from src/
and exits with code 2 when that is missing. One process, one thread, one
client in a closed loop: each op starts when the previous one has ended.

The run generates its inputs from the seed, times a pass of the program's
loaders over them, runs one untimed warm-up op, then runs whole rounds of ops
until --seconds have passed and, untraced, at least MIN_OPS ops are done.
Every op's output is checked (see workloads.py). An untraced run makes
SETUP_REPEATS loader passes in all, spread between rounds; setup_s is their
median.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced rounds, reports per-layer metrics from the traced ones and the
tracing overhead against the untraced ones, and writes the spans to
bench/out/trace-<workload>-<seed>.json.

The last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 7
MIN_OPS = 40  # the tail needs ten ops beyond it and forty samples in all

def _path_span(args, kwargs) -> str:
    tau = args[3] if len(args) > 3 else kwargs.get("tau")
    return "paths.unconstrained" if tau is None else "paths.constrained"


# (module, attribute, span name) for every layer call the trace times. A
# function is wrapped in the module that calls it. A callable span name picks
# the name from the call's arguments.
TRACE_POINTS = [
    ("skillsgraph.cli", "main", "cli.main"),
    ("skillsgraph.cli", "cmd_run", "cli.command"),
    ("skillsgraph.cli", "cmd_train", "cli.command"),
    ("skillsgraph.cli", "cmd_predict", "cli.command"),
    ("skillsgraph.cli", "run_scenario", "scenario.run_scenario"),
    ("skillsgraph.scenario", "load_graph", "graph.load_graph"),
    ("skillsgraph.graph", "validate_dag", "graph.validate_dag"),
    ("skillsgraph.scenario", "validate_dag", "graph.validate_dag"),
    ("skillsgraph.scenario", "weighted_centrality", "graph.weighted_centrality"),
    ("skillsgraph.feedback", "weighted_centrality", "graph.weighted_centrality"),
    ("skillsgraph.scenario", "select_knapsack", "allocate.select_knapsack"),
    ("skillsgraph.scenario", "allocate_fractional", "allocate.allocate_fractional"),
    ("skillsgraph.feedback", "allocate_fractional", "allocate.allocate_fractional"),
    ("skillsgraph.paths", "find_optimal_path", _path_span),
    ("skillsgraph.scenario", "find_optimal_path", _path_span),
    ("skillsgraph.scenario", "load_metrics", "feedback.load_metrics"),
    ("skillsgraph.scenario", "run_feedback_cycle", "feedback.run_feedback_cycle"),
    ("skillsgraph.scenario", "save_history", "feedback.save_history"),
    ("skillsgraph.cli", "load_cohort_csv", "cohort.load_cohort_csv"),
    ("skillsgraph.cli", "preprocess", "prepare.preprocess"),
    ("skillsgraph.cli", "apply_stats", "prepare.apply_stats"),
    ("skillsgraph.cli", "grid_search_cv", "search.grid_search_cv"),
    ("skillsgraph.search", "fit_tree", "tree.fit_tree"),
    ("skillsgraph.cli", "predict_many", "tree.predict_many"),
    ("skillsgraph.cli", "feature_importance", "tree.feature_importance"),
]

# per-layer time metric -> (how, span name), read with Tracer.per_op_<how>:
# "total" sums the spans in an op, "last" takes the op's last span, "self"
# subtracts the span's direct children
LAYER_TIMES = {
    "graph.load_graph_s": ("total", "graph.load_graph"),
    "graph.validate_dag_s": ("total", "graph.validate_dag"),
    "graph.weighted_centrality_s": ("total", "graph.weighted_centrality"),
    "allocate.select_knapsack_s": ("total", "allocate.select_knapsack"),
    "allocate.allocate_fractional_s": ("total", "allocate.allocate_fractional"),
    "paths.constrained_s": ("total", "paths.constrained"),
    "paths.unconstrained_s": ("total", "paths.unconstrained"),
    "feedback.load_metrics_s": ("total", "feedback.load_metrics"),
    "feedback.run_feedback_cycle_s": ("total", "feedback.run_feedback_cycle"),
    "feedback.save_history_s": ("total", "feedback.save_history"),
    "scenario.run_scenario_s": ("total", "scenario.run_scenario"),
    "scenario.self_s": ("self", "scenario.run_scenario"),
    "cli.self_s": ("self", "cli.main"),
    "cohort.load_cohort_csv_s": ("total", "cohort.load_cohort_csv"),
    "prepare.preprocess_s": ("total", "prepare.preprocess"),
    "prepare.apply_stats_s": ("total", "prepare.apply_stats"),
    "search.grid_search_cv_s": ("total", "search.grid_search_cv"),
    "tree.fit_tree_s": ("last", "tree.fit_tree"),
    "tree.predict_many_s": ("total", "tree.predict_many"),
    "tree.feature_importance_s": ("total", "tree.feature_importance"),
}

LAYER_COUNTS = {
    "allocate.knapsack_cells": "count",
    "allocate.select_knapsack_peak_mb": "MB",
    "paths.reachable_nodes": "count",
    "paths.relevant_nodes": "count",
    "feedback.rounds": "count",
    "scenario.artifact_bytes": "bytes",
    "cohort.rows": "count",
    "search.cv_fits": "count",
    "tree.model_nodes": "count",
}


def tail(times: list) -> float:
    """The highest whole percentile of op time with at least ten ops beyond it
    (nearest rank)."""
    n = len(times)
    percentile = math.floor(100 * (n - 10) / n)
    rank = math.ceil(percentile * n / 100)
    return sorted(times)[rank - 1]


class Loop:
    """Runs ops, times them, checks them, and counts failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._reported = set()

    def _report(self, kind: str, text: str) -> None:
        if kind not in self._reported:  # the first of each kind is enough
            self._reported.add(kind)
            print(text, file=sys.stderr)

    def round(self, ops, tracer=None) -> list:
        times = []
        for op in ops:
            self.attempted += 1
            if tracer is not None:
                tracer.op = self.attempted
            start = time.perf_counter()
            try:
                result = self.workload.run(op)
            except Exception:
                times.append(time.perf_counter() - start)
                self.failed += 1
                self._report("raised", traceback.format_exc())
                continue
            times.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.op = None
            try:
                self.workload.check(op, result)
            except Exception as exc:
                self.failed += 1
                self.correct = False
                self._report("check", f"check failed on op {op!r}: {exc!r}")
        return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("route", "plan", "learn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "skillsgraph" / "__init__.py").is_file():
        print(f"bench: no program sources at {SRC / 'skillsgraph'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports skillsgraph and numpy before anything is timed
    from tracer import Tracer

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        setup = []

        def setup_pass():
            gc.collect()
            start = time.perf_counter()
            workload.setup()
            setup.append(time.perf_counter() - start)

        setup_pass()
        loop = Loop(workload)
        ops = workload.ops()
        try:
            workload.run(ops[0])  # warm-up, not counted
        except Exception:
            pass  # the same op fails again in the loop, where it is counted
        gc.collect()

        tracer = Tracer(TRACE_POINTS) if args.trace else None
        untraced, traced = [], []
        began = time.perf_counter()
        while True:
            untraced += loop.round(ops)
            if tracer is not None:
                tracer.install()
                try:
                    traced += loop.round(ops, tracer)
                finally:
                    tracer.uninstall()
            elapsed = time.perf_counter() - began
            if tracer is None and elapsed >= len(setup) * args.seconds / SETUP_REPEATS:
                setup_pass()  # spread over the run, so one slow spell cannot skew them all
            if elapsed >= args.seconds and (tracer is not None or len(untraced) >= MIN_OPS):
                break
        while tracer is None and len(setup) < SETUP_REPEATS:
            setup_pass()

        if tracer is None:
            metrics = {
                "op_p50_s": (statistics.median(untraced), "s"),
                "op_tail_s": (tail(untraced), "s"),
                "ops_per_s": (len(untraced) / math.fsum(untraced), "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "setup_s": (statistics.median(setup), "s"),
            }
        else:
            metrics = {}
            for name, (how, span) in LAYER_TIMES.items():
                metrics[name] = (getattr(tracer, f"per_op_{how}")(span), "s")
            counts = workload.counts()
            for name, unit in LAYER_COUNTS.items():
                metrics[name] = (counts.get(name, 0), unit)
            overhead = 100 * (statistics.median(traced) / statistics.median(untraced) - 1)
            metrics["trace.overhead_pct"] = (overhead, "%")
            tracer.write(
                OUT / f"trace-{args.workload}-{args.seed}.json",
                {"workload": args.workload, "seed": args.seed,
                 "metrics": {k: v for k, (v, _) in metrics.items()}},
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}", file=sys.stderr)
    print(f"ops {loop.attempted} attempted, {loop.failed} failed", file=sys.stderr)
    print(json.dumps({
        "correct": loop.correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
