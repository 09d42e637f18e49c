"""Outcome-driven weight updates and the monitoring loop.

After a round of capacity-building actions, each instrumented edge reports an
observed effectiveness m in [0, w_max]. Weights track the observation with a
constant-rate update

    w' = clamp(w + eta * (m - w), w_min, w_max)

so the gap to a steady observation decays by (1 - eta) per round. The loop
re-derives centrality after every update and keeps the full trajectory. It
runs on one float64 array of the weights, in graph edge order, and
re-weights the graph once, at the end, with SkillsGraph.with_weights. The
fractional allocation depends only on the nodes and the budget, which no
round changes, so it is computed once per cycle and every snapshot shares it.

The loop also keeps one text layout per cycle: the '"src->dst": w' item of
each weight and the item of each node's centrality, in json's key order, and
the allocation's text, encoded once since every snapshot shares the plan.
After a round it re-formats only the weights that round observed (and the
centrality, which every round changes), and a snapshot's history.jsonl line
(CycleSnapshot.line) is one join over the item strings. A snapshot built by
hand, snapshot 0 of a graph with an int weight, and every snapshot of a
graph whose edge keys repeat (possible only without build_graph) are encoded
from snapshot_to_dict() on first use. The reports name the history by its
line count and the SHA-256 of its bytes (history_digest), not by embedding
the snapshots.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .allocate import AllocationPlan, allocate_fractional
from .errors import (
    EmptyPlan,
    MetricOutOfRange,
    MetricsExhausted,
    MetricsFormatError,
    MissingOutcome,
    UnknownEdge,
    load_json,
)
from .graph import SkillsGraph, finite_number, out_weight_shares, weighted_centrality
from .jsonio import FloatItems, object_line

EdgeKey = tuple  # (src, dst)


@dataclass(frozen=True)
class FeedbackConfig:
    """Update parameters; learning_rate, w_min and w_max are stored as floats,
    so a clamped weight is a float even when a bound was given as an int."""

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
        for name in ("learning_rate", "w_min", "w_max"):
            try:
                object.__setattr__(self, name, float(getattr(self, name)))
            except OverflowError:
                raise MetricOutOfRange(f"{name} is too large for a float") from None


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

    @cached_property
    def line(self) -> str:
        """json.dumps(snapshot_to_dict(self), sort_keys=True), its
        history.jsonl line."""
        return json.dumps(snapshot_to_dict(self), sort_keys=True)


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


def _step(weights: np.ndarray, metrics: np.ndarray, config: FeedbackConfig) -> np.ndarray:
    """The update rule, elementwise: clamp(w + eta * (m - w), w_min, w_max).

    These are the IEEE operations of the scalar rule, one at a time, so each
    result has the bits the scalar rule gives."""
    moved = weights + config.learning_rate * (metrics - weights)
    return np.minimum(np.maximum(moved, config.w_min), config.w_max)


def _checked_round(index: Mapping, metrics: MetricsReport, config: FeedbackConfig):
    """The edge indices and values of one round's metrics, in report order.

    The first metric, in report order, whose edge is unknown or whose value
    is outside [0, w_max] raises. numpy gathers and checks a round of plain
    numbers; anything else, and every round that fails, goes through the
    same checks one metric at a time, which find the error to raise.
    """
    observed = metrics.edge_metrics
    n = len(observed)
    if set(map(type, observed.values())) <= {float, int}:
        try:
            idx = np.fromiter(map(index.__getitem__, observed), np.intp, n)
            values = np.fromiter(observed.values(), np.float64, n)
            if ((values >= 0.0) & (values <= config.w_max)).all():
                return idx, values
        except (KeyError, TypeError, OverflowError):
            pass
    positions = []
    for key, value in observed.items():
        src, dst = key
        if (src, dst) not in index:
            raise UnknownEdge(f"metrics reference unknown edge ({src!r} -> {dst!r})")
        if not (0.0 <= value <= config.w_max):
            raise MetricOutOfRange(
                f"metric for ({src!r} -> {dst!r}) must be in [0, w_max={config.w_max}], got {value!r}"
            )
        positions.append(index[(src, dst)])
    return np.array(positions, np.intp), np.array(list(observed.values()), np.float64)


def _edge_index(graph: SkillsGraph) -> dict:
    ids = graph.ids
    return {(ids[s], ids[d]): e for e, (s, d) in enumerate(zip(graph.src, graph.dst))}


def update_weights(
    graph: SkillsGraph, metrics: MetricsReport, config: FeedbackConfig
) -> SkillsGraph:
    """New graph with observed edges nudged toward their metrics; input untouched."""
    idx, values = _checked_round(_edge_index(graph), metrics, config)
    weights = list(graph.weights)  # an unobserved weight stays as it was, an int included
    for i, w in zip(idx.tolist(), _step(np.array(weights, np.float64)[idx], values, config).tolist()):
        weights[i] = w
    return graph.with_weights(weights)


class _SnapshotLayout:
    """The lines of one cycle's snapshots, kept item by item: the cycle
    assigns the values a round changed, and encode() joins the current items
    into a snapshot's line."""

    def __init__(self, names: list, weights: list, first: CycleSnapshot):
        self.weights = FloatItems(names, weights)
        self.centrality = FloatItems(first.centrality, list(first.centrality.values()))
        self._allocation = json.dumps(dict(first.allocation.allocation), sort_keys=True)
        self._objective = json.dumps(first.allocation.objective)

    def encode(self, snapshot: CycleSnapshot) -> CycleSnapshot:
        """Set the snapshot's line, the text of snapshot_to_dict(), from the
        current items, and return it."""
        line = object_line(
            {
                "iteration": json.dumps(snapshot.iteration),
                "weights": self.weights.line(),
                "centrality": self.centrality.line(),
                "allocation": self._allocation,
                "objective": self._objective,
            }
        )
        vars(snapshot)["line"] = line  # where cached_property keeps it
        return snapshot


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
    index = _edge_index(graph)
    keys = list(index)
    first = CycleSnapshot(
        iteration=0,
        weights=dict(zip(keys, graph.weights)),
        centrality=weighted_centrality(graph),
        allocation=allocate_fractional(graph, budget),
    )
    plan = first.allocation  # nodes and budget fix it for every round
    weights = np.array(graph.weights, np.float64)
    snapshots = [first]
    # build_graph keeps every "src->dst" distinct; a graph built without it
    # may repeat one, and its snapshots are encoded from snapshot_to_dict()
    names = [f"{src}->{dst}" for src, dst in keys]
    layout = None
    if len(set(names)) == len(names):
        layout = _SnapshotLayout(names, weights.tolist(), first)
        # snapshot 0 holds the graph's own weights, which may be ints
        if set(map(type, first.weights.values())) <= {float}:
            layout.encode(first)

    # the weights grouped by source node, as weighted_centrality reads them
    by_source = np.array(graph.out_order, np.intp)

    stream: Iterator[MetricsReport] = iter(metrics_stream)
    for k in range(1, config.iterations + 1):
        try:
            metrics = next(stream)
        except StopIteration:
            raise MetricsExhausted(
                f"iteration {k} of {config.iterations} has no metrics report"
            ) from None
        idx, values = _checked_round(index, metrics, config)
        moved = _step(weights[idx], values, config)
        weights[idx] = moved
        scores = out_weight_shares(weights[by_source].tolist(), graph.out_start)
        snapshot = CycleSnapshot(
            iteration=k,
            weights=dict(zip(keys, weights.tolist())),
            centrality=dict(zip(graph.ids, scores)),
            allocation=plan,
        )
        if layout is not None:
            layout.weights.assign(idx.tolist(), moved.tolist())
            layout.centrality.assign_all(scores)
            layout.encode(snapshot)
        snapshots.append(snapshot)

    final = graph.with_weights(weights.tolist()) if config.iterations else graph
    return CycleHistory(snapshots=tuple(snapshots), final_graph=final)


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
    if not finite_number(value) or value < 0.0:
        raise MetricsFormatError(f"{what} must be finite and >= 0, got {value!r}")
    return float(value)


def _edge_metrics(raw: Mapping, where: str) -> dict:
    """One round's edge metrics: {(src, dst): float}, in file order.

    A round of str keys and plain int and float values is checked in bulk:
    the values as one float64 array, finite and >= 0, and every key split
    into two non-empty ends. Any other round, and every round that fails,
    goes through the checks one metric at a time, which find the error to
    raise.
    """
    if set(map(type, raw)) <= {str} and set(map(type, raw.values())) <= {int, float}:
        try:
            values = np.fromiter(raw.values(), np.float64, len(raw))
        except OverflowError:  # an int too large for a float
            pass
        else:
            parts = [key.split("->") for key in raw]
            if (
                np.isfinite(values).all()
                and (values >= 0.0).all()
                and set(map(len, parts)) <= {2}
                and all(map(all, parts))
            ):
                return dict(zip(map(tuple, parts), values.tolist()))
    return {
        _parse_edge_key(k): _check_nonnegative(v, f"{where}[{k!r}]") for k, v in raw.items()
    }


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
        for key in ("edge_metrics", "action_outcomes"):
            if not isinstance(raw.get(key, {}), Mapping):
                raise MetricsFormatError(f"iterations[{i}].{key} must be an object")
        edge_metrics = _edge_metrics(raw.get("edge_metrics", {}), f"iterations[{i}].edge_metrics")
        outcomes = {
            k: _check_unit_interval(v, f"iterations[{i}].action_outcomes[{k!r}]")
            for k, v in raw.get("action_outcomes", {}).items()
        }
        reports.append(MetricsReport(edge_metrics=edge_metrics, action_outcomes=outcomes))
    return reports


def load_metrics(path) -> list[MetricsReport]:
    return metrics_from_dict(load_json(path, MetricsFormatError))


def snapshot_to_dict(snap: CycleSnapshot) -> dict:
    return {
        "iteration": snap.iteration,
        "weights": {f"{src}->{dst}": w for (src, dst), w in snap.weights.items()},
        "centrality": dict(snap.centrality),
        "allocation": dict(snap.allocation.allocation),
        "objective": snap.allocation.objective,
    }


def history_digest(history: CycleHistory) -> str:
    """The SHA-256, in hex, of the bytes save_history writes."""
    digest = hashlib.sha256()
    for snap in history.snapshots:
        digest.update(snap.line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def save_history(history: CycleHistory, path) -> None:
    """One line per snapshot: json.dumps(snapshot_to_dict(snap), sort_keys=True),
    the snapshot's line, each ended by a newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for snap in history.snapshots:
            fh.write(snap.line)
            fh.write("\n")
