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

load_scenario checks every key's type before anything runs, and a value of
the wrong type is a ScenarioFormatError (exit 2):

    graph, feedback.metrics          a string
    budget, feedback.eta,
    feedback.w_min, feedback.w_max   a finite number (not a bool)
    feedback.iterations              an integer (not a bool)
    allocation_mode                  "fractional" or "select"
    paths                            an array of {from, to[, tau]} objects;
                                     from and to strings, tau null or a
                                     finite number >= 0
    actions                          an array of strings, or null
    feedback                         an object, or null

A null "actions" or "feedback" is the same as leaving the key out. Ranges the
analyses own stay theirs: a negative budget is NegativeBudget, an eta outside
(0, 1] or a negative iteration count is MetricOutOfRange (exit 1).
"""

from __future__ import annotations

import time
from pathlib import Path as FsPath
from typing import Mapping

from . import __version__
from .allocate import allocate_fractional, plan_to_dict, select_knapsack
from .errors import ScenarioFormatError, load_json
from .feedback import (
    CycleHistory,
    FeedbackConfig,
    execute_plan,
    load_metrics,
    run_feedback_cycle,
    save_history,
)
from .graph import finite_number, graph_to_dict, load_graph, validate_dag, weighted_centrality
from .jsonio import Encoded, dumps, write_json
from .paths import find_optimal_path, path_to_dict

_SCENARIO_KEYS = {"graph", "budget", "allocation_mode", "paths", "actions", "feedback", "seed"}


def _string(value) -> bool:
    return isinstance(value, str)


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _strings(value) -> bool:
    return value is None or (isinstance(value, list) and all(isinstance(v, str) for v in value))


def _tau(value) -> bool:
    return value is None or (finite_number(value) and value >= 0)


# key -> (check, what the value must be); a key that is absent is not checked
_SCENARIO_TYPES = {
    "graph": (_string, "a string"),
    "budget": (finite_number, "a finite number"),
    "allocation_mode": (lambda v: v in ("fractional", "select"), "'fractional' or 'select'"),
    "actions": (_strings, "an array of strings"),
}
_QUERY_TYPES = {
    "from": (_string, "a string"),
    "to": (_string, "a string"),
    "tau": (_tau, "a finite number >= 0"),
}
_FEEDBACK_TYPES = {
    "metrics": (_string, "a string"),
    "eta": (finite_number, "a finite number"),
    "iterations": (_integer, "an integer"),
    "w_min": (finite_number, "a finite number"),
    "w_max": (finite_number, "a finite number"),
}


def _check_types(path, where: str, data: Mapping, types: dict) -> None:
    for key, (ok, what) in types.items():
        if key in data and not ok(data[key]):
            raise ScenarioFormatError(f"{path}: {where}{key} must be {what}, got {data[key]!r}")


def load_scenario(path) -> dict:
    data = load_json(path, ScenarioFormatError)
    if not isinstance(data, Mapping):
        raise ScenarioFormatError(f"{path}: scenario must be a JSON object")
    unknown = set(data) - _SCENARIO_KEYS
    if unknown:
        raise ScenarioFormatError(f"{path}: unknown keys {sorted(unknown)}")
    if "graph" not in data:
        raise ScenarioFormatError(f"{path}: missing required key 'graph'")
    if "budget" not in data:
        raise ScenarioFormatError(f"{path}: missing required key 'budget'")
    _check_types(path, "", data, _SCENARIO_TYPES)
    if not isinstance(data.get("paths", []), list):
        raise ScenarioFormatError(f"{path}: paths must be an array of queries")
    for i, query in enumerate(data.get("paths", [])):
        if not isinstance(query, Mapping) or set(query) - set(_QUERY_TYPES) or {"from", "to"} - set(query):
            raise ScenarioFormatError(f"{path}: paths[{i}] must be an object with from/to[/tau]")
        _check_types(path, f"paths[{i}].", query, _QUERY_TYPES)
    fb = data.get("feedback")
    if fb is not None:
        if not isinstance(fb, Mapping) or set(fb) - set(_FEEDBACK_TYPES) or {"metrics", "eta", "iterations"} - set(fb):
            raise ScenarioFormatError(
                f"{path}: feedback must be an object with metrics/eta/iterations[/w_min/w_max]"
            )
        _check_types(path, "feedback.", fb, _FEEDBACK_TYPES)
    return dict(data)


# -- stages: each returns its payload as report.json holds it; the CLI commands
# call them too, so a command prints what the matching stage of `run` reports


def validate_stage(graph) -> dict:
    order = validate_dag(graph)
    return {"nodes": len(graph.nodes), "edges": len(graph.edges), "topological_order": order}


def allocation_stage(graph, budget, mode: str) -> dict:
    """mode "select" is the exact 0/1 knapsack; anything else is fractional."""
    allocator = select_knapsack if mode == "select" else allocate_fractional
    return plan_to_dict(allocator(graph, budget))


def path_stage(graph, query: Mapping) -> dict:
    """query is a scenario's path query: from, to and an optional tau."""
    found = find_optimal_path(graph, query["from"], query["to"], query.get("tau"))
    return {"query": dict(query), "path": path_to_dict(found)}


def feedback_stage(graph, metrics, budget, block: Mapping) -> tuple[CycleHistory, dict]:
    """Run the feedback rounds a scenario's feedback block asks for: eta,
    iterations, and w_min/w_max where given (FeedbackConfig's defaults
    otherwise). Returns the history and the stage payload."""
    config = FeedbackConfig(
        learning_rate=block["eta"],
        iterations=block["iterations"],
        **{key: block[key] for key in ("w_min", "w_max") if key in block},
    )
    history = run_feedback_cycle(graph, metrics, config, budget)
    return history, {
        "iterations": config.iterations,
        "learning_rate": config.learning_rate,
        "snapshots": [Encoded(s.text) for s in history.snapshots],
        "final_objective": history.snapshots[-1].allocation.objective,
    }


def run_scenario(scenario_path, out_dir) -> str:
    """Execute a scenario, write report.json, and return the text written.

    That text is the report's only encoding: `skillsgraph run` prints it.
    Each feedback snapshot goes into it as the text it was encoded to for
    history.jsonl.
    """
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
        write_json(out / name, payload)
        artifacts[name.split(".")[0]] = name

    graph = load_graph(base / scenario["graph"])
    budget = scenario["budget"]

    stages["validate"] = timed("validate", lambda: validate_stage(graph))

    stages["centrality"] = timed("centrality", lambda: weighted_centrality(graph))
    write_artifact("centrality.json", stages["centrality"])

    mode = scenario.get("allocation_mode", "fractional")
    stages["allocation"] = timed("allocation", lambda: allocation_stage(graph, budget, mode))
    write_artifact("allocation.json", stages["allocation"])

    queries = scenario.get("paths", [])
    path_results = timed("paths", lambda: [path_stage(graph, query) for query in queries])
    stages["paths"] = path_results
    if queries:
        write_artifact("paths.json", path_results)

    fb = scenario.get("feedback")
    if fb is not None:
        metrics = load_metrics(base / fb["metrics"])
        history, payload = timed("feedback", lambda: feedback_stage(graph, metrics, budget, fb))

        actions = scenario.get("actions")
        if actions is None and path_results:
            actions = path_results[0]["path"]["nodes"]
        payload["success_rates"] = [
            execute_plan(actions, metrics[k]).success_rate for k in range(fb["iterations"])
        ] if actions else None
        stages["feedback"] = payload
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
    text = dumps(report) + "\n"
    (out / "report.json").write_text(text, encoding="utf-8")
    return text
