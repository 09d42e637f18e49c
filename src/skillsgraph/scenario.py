"""End-to-end scenario execution.

A scenario file names a graph plus the analysis to run over it, and
run_scenario walks the pipeline in its canonical order: validate, centrality,
allocation, path queries, then feedback rounds with re-optimization. Every
stage writes its artifact into the output directory and the combined report
lands in report.json. Wall-clock numbers live only under the "timings" key so
the rest of the report is byte-stable for identical inputs.

Scenario layout (paths are relative to the scenario file):

    {
      "graph": "graph.json",
      "budget": 10.0,
      "allocation_mode": "fractional",      // or "select"
      "paths": [{"from": "v1", "to": "v5", "tau": 2.0}],
      "actions": ["v1", "v2", "v5"],        // optional, defaults to the first path
      "feedback": {"metrics": "metrics.json", "eta": 0.5, "iterations": 2,
                   "w_min": 0.01, "w_max": 10.0},   // optional
      "seed": 42                             // optional, recorded in the report
    }
"""

from __future__ import annotations

import json
import time
from pathlib import Path as FsPath
from typing import Mapping

from . import __version__
from .allocate import allocate_fractional, plan_to_dict, select_knapsack
from .errors import ScenarioFormatError, open_text
from .feedback import (
    FeedbackConfig,
    execute_plan,
    load_metrics,
    run_feedback_cycle,
    save_history,
    snapshot_to_dict,
)
from .graph import finite_number, graph_to_dict, load_graph, validate_dag, weighted_centrality
from .paths import find_optimal_path, path_to_dict

_SCENARIO_KEYS = {"graph", "budget", "allocation_mode", "paths", "actions", "feedback", "seed"}
_FEEDBACK_KEYS = {"metrics", "eta", "iterations", "w_min", "w_max"}
_QUERY_KEYS = {"from", "to", "tau"}


def load_scenario(path) -> dict:
    with open_text(path, ScenarioFormatError) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(
                f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}"
            ) from None
    if not isinstance(data, Mapping):
        raise ScenarioFormatError(f"{path}: scenario must be a JSON object")
    unknown = set(data) - _SCENARIO_KEYS
    if unknown:
        raise ScenarioFormatError(f"{path}: unknown keys {sorted(unknown)}")
    if "graph" not in data:
        raise ScenarioFormatError(f"{path}: missing required key 'graph'")
    if "budget" not in data:
        raise ScenarioFormatError(f"{path}: missing required key 'budget'")
    if not isinstance(data.get("paths", []), list):
        raise ScenarioFormatError(f"{path}: paths must be an array of queries")
    for i, query in enumerate(data.get("paths", [])):
        if not isinstance(query, Mapping) or set(query) - _QUERY_KEYS or {"from", "to"} - set(query):
            raise ScenarioFormatError(f"{path}: paths[{i}] must be an object with from/to[/tau]")
        tau = query.get("tau")
        if tau is not None and (not finite_number(tau) or tau < 0):
            raise ScenarioFormatError(f"{path}: paths[{i}].tau must be a finite number >= 0, got {tau!r}")
    fb = data.get("feedback")
    if fb is not None:
        if not isinstance(fb, Mapping) or set(fb) - _FEEDBACK_KEYS or {"metrics", "eta", "iterations"} - set(fb):
            raise ScenarioFormatError(
                f"{path}: feedback must be an object with metrics/eta/iterations[/w_min/w_max]"
            )
    return dict(data)


def run_scenario(scenario_path, out_dir) -> dict:
    """Execute a scenario and return the report (also written to report.json)."""
    scenario_path = FsPath(scenario_path)
    base = scenario_path.parent
    out = FsPath(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scenario = load_scenario(scenario_path)

    timings: dict[str, float] = {}
    stages: dict[str, object] = {}
    artifacts: dict[str, str] = {}

    def timed(stage: str, fn):
        start = time.perf_counter()
        result = fn()
        timings[stage] = time.perf_counter() - start
        return result

    def write_artifact(name: str, payload) -> None:
        with open(out / name, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        artifacts[name.split(".")[0]] = name

    graph = load_graph(base / scenario["graph"])
    budget = scenario["budget"]

    order = timed("validate", lambda: validate_dag(graph))
    stages["validate"] = {
        "nodes": len(graph.nodes),
        "edges": len(graph.edges),
        "topological_order": order,
    }

    centrality = timed("centrality", lambda: weighted_centrality(graph))
    stages["centrality"] = centrality
    write_artifact("centrality.json", centrality)

    mode = scenario.get("allocation_mode", "fractional")
    if mode not in ("fractional", "select"):
        raise ScenarioFormatError(f"allocation_mode must be 'fractional' or 'select', got {mode!r}")
    allocator = select_knapsack if mode == "select" else allocate_fractional
    plan = timed("allocation", lambda: allocator(graph, budget))
    stages["allocation"] = plan_to_dict(plan)
    write_artifact("allocation.json", plan_to_dict(plan))

    queries = scenario.get("paths", [])
    def run_paths():
        results = []
        for query in queries:
            found = find_optimal_path(graph, query["from"], query["to"], query.get("tau"))
            results.append({"query": dict(query), "path": path_to_dict(found)})
        return results
    path_results = timed("paths", run_paths)
    stages["paths"] = path_results
    if queries:
        write_artifact("paths.json", path_results)

    fb = scenario.get("feedback")
    if fb is not None:
        metrics = load_metrics(base / fb["metrics"])
        config = FeedbackConfig(
            learning_rate=fb["eta"],
            w_min=fb.get("w_min", 0.01),
            w_max=fb.get("w_max", 10.0),
            iterations=fb["iterations"],
        )
        history = timed("feedback", lambda: run_feedback_cycle(graph, metrics, config, budget))

        actions = scenario.get("actions")
        if actions is None and path_results:
            actions = path_results[0]["path"]["nodes"]
        success_rates = None
        if actions:
            success_rates = [
                execute_plan(actions, metrics[k]).success_rate
                for k in range(config.iterations)
            ]

        final = history.snapshots[-1]
        stages["feedback"] = {
            "iterations": config.iterations,
            "learning_rate": config.learning_rate,
            "snapshots": [snapshot_to_dict(s) for s in history.snapshots],
            "final_objective": final.allocation.objective,
            "success_rates": success_rates,
        }
        save_history(history, out / "history.jsonl")
        artifacts["history"] = "history.jsonl"
        write_artifact("final_graph.json", graph_to_dict(history.final_graph))

    report = {
        "tool_version": __version__,
        "scenario": scenario_path.name,
        "seed": scenario.get("seed"),
        "stages": stages,
        "artifacts": artifacts,
        "timings": timings,
    }
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report
