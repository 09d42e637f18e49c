"""Outcome-driven weight updates and the monitoring loop.

After a round of capacity-building actions, each instrumented edge reports an
observed effectiveness m in [0, w_max]. Weights track the observation with a
constant-rate update

    w' = clamp(w + eta * (m - w), w_min, w_max)

so the gap to a steady observation decays by (1 - eta) per round. The loop
re-derives centrality and the fractional allocation after every update and
keeps the full trajectory.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .allocate import AllocationPlan, allocate_fractional
from .errors import (
    EmptyPlan,
    MetricOutOfRange,
    MetricsExhausted,
    MetricsFormatError,
    MissingOutcome,
    UnknownEdge,
)
from .graph import DependencyEdge, SkillsGraph, weighted_centrality

EdgeKey = tuple  # (src, dst)


@dataclass(frozen=True)
class FeedbackConfig:
    learning_rate: float
    w_min: float = 0.01
    w_max: float = 10.0
    iterations: int = 0

    def __post_init__(self):
        if not (0.0 < self.learning_rate <= 1.0):
            raise MetricOutOfRange(f"learning_rate must be in (0, 1], got {self.learning_rate!r}")
        if not (0.0 < self.w_min <= self.w_max):
            raise MetricOutOfRange(
                f"need 0 < w_min <= w_max, got w_min={self.w_min!r} w_max={self.w_max!r}"
            )
        if self.iterations < 0:
            raise MetricOutOfRange(f"iterations must be >= 0, got {self.iterations!r}")


@dataclass(frozen=True)
class MetricsReport:
    """One round of observations: per-edge effectiveness, per-action outcomes."""

    edge_metrics: Mapping[EdgeKey, float] = field(default_factory=dict)
    action_outcomes: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ExecutionReport:
    success_rate: float
    outcomes: dict  # action id -> outcome, plan order
    threshold: float


@dataclass(frozen=True)
class CycleSnapshot:
    iteration: int
    weights: dict  # (src, dst) -> weight, edge insertion order
    centrality: dict
    allocation: AllocationPlan


@dataclass(frozen=True)
class CycleHistory:
    snapshots: tuple
    final_graph: SkillsGraph


def execute_plan(
    actions: Sequence[str], metrics: MetricsReport, threshold: float = 0.5
) -> ExecutionReport:
    """Score a round of actions: success rate = share of outcomes >= threshold."""
    if not actions:
        raise EmptyPlan("no actions to execute")
    outcomes = {}
    for action in actions:
        if action not in metrics.action_outcomes:
            raise MissingOutcome(f"no outcome reported for action {action!r}")
        value = metrics.action_outcomes[action]
        if not (0.0 <= value <= 1.0):
            raise MetricOutOfRange(f"outcome for {action!r} must be in [0, 1], got {value!r}")
        outcomes[action] = value
    successes = sum(1 for v in outcomes.values() if v >= threshold)
    return ExecutionReport(
        success_rate=successes / len(outcomes), outcomes=outcomes, threshold=threshold
    )


def update_weights(
    graph: SkillsGraph, metrics: MetricsReport, config: FeedbackConfig
) -> SkillsGraph:
    """New graph with observed edges nudged toward their metrics; input untouched."""
    known = {(e.src, e.dst) for e in graph.edges}
    for key, value in metrics.edge_metrics.items():
        src, dst = key
        if (src, dst) not in known:
            raise UnknownEdge(f"metrics reference unknown edge ({src!r} -> {dst!r})")
        if not (0.0 <= value <= config.w_max):
            raise MetricOutOfRange(
                f"metric for ({src!r} -> {dst!r}) must be in [0, w_max={config.w_max}], got {value!r}"
            )

    eta = config.learning_rate
    new_edges = []
    for e in graph.edges:
        if (e.src, e.dst) in metrics.edge_metrics:
            m = metrics.edge_metrics[(e.src, e.dst)]
            w = e.weight + eta * (m - e.weight)
            w = min(max(w, config.w_min), config.w_max)
            new_edges.append(DependencyEdge(e.src, e.dst, w, e.objective_cost))
        else:
            new_edges.append(e)
    # construction invariants already hold; rebuild without re-running Kahn
    return SkillsGraph(graph.nodes, new_edges)


def _snapshot(iteration: int, graph: SkillsGraph, budget: float) -> CycleSnapshot:
    return CycleSnapshot(
        iteration=iteration,
        weights={(e.src, e.dst): e.weight for e in graph.edges},
        centrality=weighted_centrality(graph),
        allocation=allocate_fractional(graph, budget),
    )


def run_feedback_cycle(
    graph: SkillsGraph,
    metrics_stream: Iterable[MetricsReport],
    config: FeedbackConfig,
    budget: float,
) -> CycleHistory:
    """Run config.iterations update rounds, re-optimizing after each.

    The history holds iterations + 1 snapshots; snapshot 0 is the state before
    any update. Raises MetricsExhausted if the stream runs dry early.
    """
    snapshots = [_snapshot(0, graph, budget)]
    stream: Iterator[MetricsReport] = iter(metrics_stream)
    current = graph
    for k in range(1, config.iterations + 1):
        try:
            metrics = next(stream)
        except StopIteration:
            raise MetricsExhausted(
                f"iteration {k} of {config.iterations} has no metrics report"
            ) from None
        current = update_weights(current, metrics, config)
        snapshots.append(_snapshot(k, current, budget))
    return CycleHistory(snapshots=tuple(snapshots), final_graph=current)


# -- file formats --------------------------------------------------------------
#
# Metrics JSON: {"iterations": [{"edge_metrics": {"v1->v2": 0.8, ...},
#                                "action_outcomes": {"v1": 1.0, ...}}, ...]}
# History: JSON lines, one snapshot per line.


def _parse_edge_key(text: str) -> EdgeKey:
    parts = text.split("->")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise MetricsFormatError(f"bad edge key {text!r}, expected 'src->dst'")
    return (parts[0], parts[1])


def _check_unit_interval(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MetricsFormatError(f"{what} must be a number, got {value!r}")
    if not (0.0 <= value <= 1.0) or not math.isfinite(value):
        raise MetricsFormatError(f"{what} must be in [0, 1], got {value!r}")
    return float(value)


def _check_nonnegative(value, what: str) -> float:
    # edge metrics range over [0, w_max]; the config-aware upper bound is
    # enforced at update time, the file format only fixes the floor
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MetricsFormatError(f"{what} must be a number, got {value!r}")
    if value < 0.0 or not math.isfinite(value):
        raise MetricsFormatError(f"{what} must be finite and >= 0, got {value!r}")
    return float(value)


def metrics_from_dict(data: Mapping) -> list[MetricsReport]:
    if not isinstance(data, Mapping) or "iterations" not in data:
        raise MetricsFormatError("metrics file must be an object with an 'iterations' array")
    rounds = data["iterations"]
    if not isinstance(rounds, list):
        raise MetricsFormatError("'iterations' must be an array")
    reports = []
    for i, raw in enumerate(rounds):
        if not isinstance(raw, Mapping):
            raise MetricsFormatError(f"iterations[{i}] must be an object")
        unknown = set(raw) - {"edge_metrics", "action_outcomes"}
        if unknown:
            raise MetricsFormatError(f"iterations[{i}]: unknown keys {sorted(unknown)}")
        edge_metrics = {
            _parse_edge_key(k): _check_nonnegative(v, f"iterations[{i}].edge_metrics[{k!r}]")
            for k, v in raw.get("edge_metrics", {}).items()
        }
        outcomes = {
            k: _check_unit_interval(v, f"iterations[{i}].action_outcomes[{k!r}]")
            for k, v in raw.get("action_outcomes", {}).items()
        }
        reports.append(MetricsReport(edge_metrics=edge_metrics, action_outcomes=outcomes))
    return reports


def load_metrics(path) -> list[MetricsReport]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MetricsFormatError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
    return metrics_from_dict(data)


def snapshot_to_dict(snap: CycleSnapshot) -> dict:
    return {
        "iteration": snap.iteration,
        "weights": {f"{src}->{dst}": w for (src, dst), w in snap.weights.items()},
        "centrality": dict(snap.centrality),
        "allocation": dict(snap.allocation.allocation),
        "objective": snap.allocation.objective,
    }


def save_history(history: CycleHistory, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for snap in history.snapshots:
            fh.write(json.dumps(snapshot_to_dict(snap), sort_keys=True))
            fh.write("\n")
