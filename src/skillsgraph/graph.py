"""Weighted skills dependency graph: construction, DAG validation, centrality.

Nodes are capacity-building skill areas; a directed edge (u, v) with weight
w > 0 says u feeds v, and the weight carries the strength of that dependency.
Graphs are validated once at construction and treated as immutable afterwards;
every traversal order is deterministic (insertion order, never hash order).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import (
    CycleDetected,
    DuplicateEdge,
    DuplicateNodeId,
    EmptyGraph,
    GraphFormatError,
    InvalidNodeValue,
    NonPositiveWeight,
    SelfLoop,
    UnknownEndpoint,
    load_json,
)
from .jsonio import write_json

UNBOUNDED = None  # capacity sentinel: node can absorb any allocation

NodeScores = dict  # node id -> score, insertion-ordered by graph node order


@dataclass(frozen=True)
class SkillNode:
    """A skill area with its payoff and resourcing attributes."""

    id: str
    label: str = ""
    effectiveness: float = 0.0
    cost: float = 0.0
    capacity: float | None = UNBOUNDED


@dataclass(frozen=True)
class DependencyEdge:
    """Directed dependency src -> dst with positive weight.

    objective_cost is the secondary per-edge cost accumulated by path search
    (resource consumption along a path), independent of the weight.
    """

    src: str
    dst: str
    weight: float
    objective_cost: float = 0.0


class SkillsGraph:
    """Validated dependency graph. Build through build_graph, then read-only."""

    def __init__(self, nodes: Sequence[SkillNode], edges: Sequence[DependencyEdge]):
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)
        self._node_by_id = {n.id: n for n in self.nodes}
        out: dict[str, list[DependencyEdge]] = {n.id: [] for n in self.nodes}
        into: dict[str, list[DependencyEdge]] = {n.id: [] for n in self.nodes}
        for e in self.edges:
            out[e.src].append(e)
            into[e.dst].append(e)
        # tuples: smaller than lists, and handed out without a copy
        self._out = {nid: tuple(es) for nid, es in out.items()}
        self._in = {nid: tuple(es) for nid, es in into.items()}

    def node(self, node_id: str) -> SkillNode:
        return self._node_by_id[node_id]

    def has_node(self, node_id: str) -> bool:
        return node_id in self._node_by_id

    def out_edges(self, node_id: str) -> tuple[DependencyEdge, ...]:
        return self._out[node_id]

    def in_edges(self, node_id: str) -> tuple[DependencyEdge, ...]:
        return self._in[node_id]

    def edge(self, src: str, dst: str) -> DependencyEdge | None:
        """The edge src -> dst, or None; a scan of src's out-edges."""
        return next((e for e in self._out.get(src, ()) if e.dst == dst), None)

    def node_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes)

    def __eq__(self, other):
        return (
            isinstance(other, SkillsGraph)
            and self.nodes == other.nodes
            and self.edges == other.edges
        )

    def __repr__(self):
        return f"SkillsGraph({len(self.nodes)} nodes, {len(self.edges)} edges)"


def finite_number(value) -> bool:
    """A finite int or float; bool is not a number here, as in the JSON loaders.

    An int too large for a float is not finite here either.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_node_fields(node: SkillNode) -> None:
    for field in ("effectiveness", "cost"):
        value = getattr(node, field)
        if not finite_number(value) or value < 0:
            raise InvalidNodeValue(f"node {node.id!r}: {field} must be finite and >= 0, got {value!r}")
    cap = node.capacity
    if cap is not UNBOUNDED:
        if not finite_number(cap) or cap < 0:
            raise InvalidNodeValue(f"node {node.id!r}: capacity must be finite and >= 0 or None, got {cap!r}")


def _check_edges(edges: Sequence[DependencyEdge], node_ids: set[str]) -> None:
    seen_pairs = set()  # freed on return, before the graph builds its own index
    for e in edges:
        if e.src not in node_ids:
            raise UnknownEndpoint(f"edge ({e.src!r} -> {e.dst!r}): unknown source {e.src!r}")
        if e.dst not in node_ids:
            raise UnknownEndpoint(f"edge ({e.src!r} -> {e.dst!r}): unknown target {e.dst!r}")
        if e.src == e.dst:
            raise SelfLoop(f"self loop on {e.src!r}")
        if (e.src, e.dst) in seen_pairs:
            raise DuplicateEdge(f"duplicate edge ({e.src!r} -> {e.dst!r})")
        seen_pairs.add((e.src, e.dst))
        if not finite_number(e.weight) or e.weight <= 0:
            raise NonPositiveWeight(f"edge ({e.src!r} -> {e.dst!r}): weight must be finite and > 0, got {e.weight!r}")
        oc = e.objective_cost
        if not finite_number(oc) or oc < 0:
            raise InvalidNodeValue(f"edge ({e.src!r} -> {e.dst!r}): objective_cost must be finite and >= 0, got {oc!r}")


def build_graph(
    nodes: Iterable[SkillNode],
    edges: Iterable[DependencyEdge],
    allow_cycles: bool = False,
) -> SkillsGraph:
    """Validate and assemble a graph.

    Node ids must be unique (case sensitive) and must not contain "->", which
    joins the ends of an edge in its "src->dst" key, so that every edge has
    its own key. Edge endpoints must exist, edges must be unique per
    (src, dst), self-loops are rejected, weights must be positive and finite,
    objective costs finite and >= 0. Acyclicity is enforced unless
    allow_cycles is set (state-transition style graphs).
    """
    node_list = list(nodes)
    seen_ids = set()
    for n in node_list:
        if n.id in seen_ids:
            raise DuplicateNodeId(f"duplicate node id {n.id!r}")
        if "->" in n.id:
            raise InvalidNodeValue(f"node {n.id!r}: id must not contain '->' (it joins edge keys)")
        seen_ids.add(n.id)
        _check_node_fields(n)

    edge_list = list(edges)
    _check_edges(edge_list, seen_ids)

    graph = SkillsGraph(node_list, edge_list)
    if not allow_cycles:
        validate_dag(graph)  # raises CycleDetected with a witness
    return graph


def _witness_cycle(graph: SkillsGraph, stuck: set[str]) -> list[str]:
    """Walk predecessors inside the stuck set until a node repeats.

    Every stuck node kept an unfinished, so stuck, predecessor; successors
    offer no such guarantee, since a node fed by a cycle is stuck too.
    """
    start = next(nid for nid in graph.node_ids() if nid in stuck)
    path, seen_at = [], {}
    current = start
    while current not in seen_at:
        seen_at[current] = len(path)
        path.append(current)
        current = next(e.src for e in graph.in_edges(current) if e.src in stuck)
    cycle = path[seen_at[current]:]
    return cycle[:1] + cycle[:0:-1]  # in edge direction, from the repeated node


def validate_dag(graph: SkillsGraph) -> list[str]:
    """Kahn's algorithm; ties go to node insertion order.

    Returns the topological order of node ids, or raises CycleDetected whose
    .cycle attribute carries one witness cycle.
    """
    ids = graph.node_ids()
    order_index = {nid: i for i, nid in enumerate(ids)}
    indegree = {nid: 0 for nid in ids}
    for e in graph.edges:
        indegree[e.dst] += 1

    # frontier: a heap of insertion indices, so the earliest ready node goes next
    frontier = [i for i, nid in enumerate(ids) if indegree[nid] == 0]
    result: list[str] = []
    while frontier:
        current = ids[heapq.heappop(frontier)]
        result.append(current)
        for e in graph.out_edges(current):
            indegree[e.dst] -= 1
            if indegree[e.dst] == 0:
                heapq.heappush(frontier, order_index[e.dst])

    if len(result) != len(graph.nodes):
        done = set(result)
        stuck = {nid for nid in ids if nid not in done}
        cycle = _witness_cycle(graph, stuck)
        raise CycleDetected(f"graph contains a cycle: {' -> '.join(cycle)}", cycle=cycle)
    return result


def weighted_centrality(graph: SkillsGraph) -> NodeScores:
    """Share of total edge weight carried by each node's outgoing edges.

    Scores are nonnegative and sum to 1; sink nodes score 0. Requires at
    least one edge.
    """
    if not graph.edges:
        raise EmptyGraph("centrality requires a graph with at least one edge")
    total = math.fsum(e.weight for e in graph.edges)
    return {
        nid: math.fsum(e.weight for e in graph.out_edges(nid)) / total
        for nid in graph.node_ids()
    }


# -- JSON file format ---------------------------------------------------------
#
# {"nodes": [{"id", "label", "effectiveness", "cost", "capacity"}],
#  "edges": [{"from", "to", "weight", "objective_cost"}]}
#
# Missing capacity means unbounded; missing objective_cost means 0. Unknown
# keys are rejected rather than ignored.

_NODE_KEYS = {"id", "label", "effectiveness", "cost", "capacity"}
_EDGE_KEYS = {"from", "to", "weight", "objective_cost"}


def _require_keys(obj: Mapping, allowed: set[str], required: set[str], where: str):
    if not isinstance(obj, Mapping):
        raise GraphFormatError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise GraphFormatError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise GraphFormatError(f"{where}: missing keys {sorted(missing)}")


def _number(obj: Mapping, key: str, where: str, default=None):
    if key not in obj:
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GraphFormatError(f"{where}: {key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise GraphFormatError(f"{where}: {key} is too large for a float") from None


def graph_from_dict(data: Mapping, allow_cycles: bool = False) -> SkillsGraph:
    _require_keys(data, {"nodes", "edges"}, {"nodes", "edges"}, "graph")
    if not isinstance(data["nodes"], list) or not isinstance(data["edges"], list):
        raise GraphFormatError("graph: 'nodes' and 'edges' must be arrays")

    nodes = []
    for i, raw in enumerate(data["nodes"]):
        where = f"nodes[{i}]"
        # only capacity may be omitted (meaning unbounded)
        _require_keys(raw, _NODE_KEYS, {"id", "label", "effectiveness", "cost"}, where)
        if not isinstance(raw["id"], str):
            raise GraphFormatError(f"{where}: id must be a string")
        if not isinstance(raw["label"], str):
            raise GraphFormatError(f"{where}: label must be a string")
        nodes.append(
            SkillNode(
                id=raw["id"],
                label=raw["label"],
                effectiveness=_number(raw, "effectiveness", where),
                cost=_number(raw, "cost", where),
                capacity=_number(raw, "capacity", where, UNBOUNDED),
            )
        )

    edges = []
    for i, raw in enumerate(data["edges"]):
        where = f"edges[{i}]"
        _require_keys(raw, _EDGE_KEYS, {"from", "to", "weight"}, where)
        if not isinstance(raw["from"], str) or not isinstance(raw["to"], str):
            raise GraphFormatError(f"{where}: 'from' and 'to' must be strings")
        edges.append(
            DependencyEdge(
                src=raw["from"],
                dst=raw["to"],
                weight=_number(raw, "weight", where),
                objective_cost=_number(raw, "objective_cost", where, 0.0),
            )
        )

    return build_graph(nodes, edges, allow_cycles=allow_cycles)


def graph_to_dict(graph: SkillsGraph) -> dict:
    nodes = []
    for n in graph.nodes:
        entry = {"id": n.id, "label": n.label, "effectiveness": n.effectiveness, "cost": n.cost}
        if n.capacity is not UNBOUNDED:
            entry["capacity"] = n.capacity
        nodes.append(entry)
    edges = [
        {"from": e.src, "to": e.dst, "weight": e.weight, "objective_cost": e.objective_cost}
        for e in graph.edges
    ]
    return {"nodes": nodes, "edges": edges}


def load_graph(path, allow_cycles: bool = False) -> SkillsGraph:
    return graph_from_dict(load_json(path, GraphFormatError), allow_cycles=allow_cycles)


def save_graph(graph: SkillsGraph, path) -> None:
    write_json(path, graph_to_dict(graph))
