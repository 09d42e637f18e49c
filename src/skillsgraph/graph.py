"""Weighted skills dependency graph: construction, DAG validation, centrality.

Nodes are capacity-building skill areas; a directed edge (u, v) with weight
w > 0 says u feeds v, and the weight carries the strength of that dependency.
Graphs are validated once at construction and treated as immutable afterwards;
every traversal order is deterministic (insertion order, never hash order).

A SkillsGraph is one integer index of columns (see its docstring), and
library code reads nothing else. The SkillNode and DependencyEdge views are
built from the columns on first use, for callers that ask; no command or
analysis builds them.

Loading checks in bulk first and one item at a time only where that fails:
graph_from_dict reads each JSON array a column at a time and build_graph
pulls each field of its objects into a column, and both hand the columns to
the same checks and then to the index. Where a bulk check finds a fault, or
a value it does not take in bulk (a bool, a numpy.float64, a str subclass),
the per-item code runs over the same items and raises the first error in
them, with the message it always had, or passes what it accepts. A node
order in which every edge points forward is taken as the topological order
after one pass over the edges; any other order goes through Kahn's
algorithm.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, repeat
from operator import attrgetter, eq, itemgetter, lt
from typing import Container, Iterable, Mapping, Sequence

from .errors import (
    CycleDetected,
    DuplicateEdge,
    DuplicateNodeId,
    EmptyGraph,
    FloatRangeExceeded,
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

_FLOAT_MAX = sys.float_info.max

_NODE_COLUMNS = ("ids", "labels", "effectiveness", "costs", "capacities")
_node_table = attrgetter(*_NODE_COLUMNS)
_columns_of = attrgetter(*_NODE_COLUMNS, "src", "dst", "weights", "consumption")


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
    """Validated dependency graph. Build through build_graph, then read-only.

    The graph is held as one integer index of columns:

    - ids, the node ids in node order, and index, which maps an id to its
      position there;
    - labels, effectiveness, costs and capacities, in node order;
    - src and dst, the positions of each edge's ends, with weights and
      consumption (the objective costs), in edge order;
    - out_start/out_order and in_start/in_order: the edges out of (into) the
      node at position i are out_order[out_start[i]:out_start[i + 1]]
      (in_order[in_start[i]:in_start[i + 1]]), in edge order.

    The nodes and edges views, which out_edges, in_edges, node and edge hand
    out, are built from the columns on first use and kept.
    SkillsGraph(nodes, edges) checks nothing; with_weights re-weights a
    graph and shares the rest of its index.
    """

    def __init__(self, nodes: Sequence[SkillNode], edges: Sequence[DependencyEdge]):
        nodes, edges = tuple(nodes), tuple(edges)
        node_columns, (src, dst, *edge_values) = _node_columns(nodes), _edge_columns(edges)
        index = _index(node_columns[0])
        self._hold(node_columns, index, [index[s] for s in src], [index[d] for d in dst], *edge_values)

    def _hold(self, node_columns, index, src, dst, weights, consumption) -> None:
        ids, self.labels, self.effectiveness, self.costs, self.capacities = node_columns
        self.ids = tuple(ids)
        self.index = index
        self.src, self.dst, self.weights, self.consumption = src, dst, weights, consumption
        self.out_start, self.out_order = _grouped(src, len(ids))
        self.in_start, self.in_order = _grouped(dst, len(ids))

    @cached_property
    def nodes(self) -> tuple[SkillNode, ...]:
        return tuple(map(SkillNode, *_node_table(self)))

    @cached_property
    def edges(self) -> tuple[DependencyEdge, ...]:
        ids = self.ids
        ends = map(ids.__getitem__, self.src), map(ids.__getitem__, self.dst)
        return tuple(map(DependencyEdge, *ends, self.weights, self.consumption))

    def with_weights(self, weights: list) -> SkillsGraph:
        """This graph with weights (in edge order) as its edge weights, sharing
        every other column; nothing is checked and Kahn does not run again."""
        graph = object.__new__(type(self))
        vars(graph).update(vars(self), weights=weights)
        vars(graph).pop("edges", None)  # a kept view holds the old weights
        return graph

    def node(self, node_id: str) -> SkillNode:
        return self.nodes[self.index[node_id]]

    def out_edges(self, node_id: str) -> tuple[DependencyEdge, ...]:
        i, start = self.index[node_id], self.out_start
        return tuple(map(self.edges.__getitem__, self.out_order[start[i]:start[i + 1]]))

    def in_edges(self, node_id: str) -> tuple[DependencyEdge, ...]:
        i, start = self.index[node_id], self.in_start
        return tuple(map(self.edges.__getitem__, self.in_order[start[i]:start[i + 1]]))

    def edge(self, src: str, dst: str) -> DependencyEdge | None:
        """The edge src -> dst, or None; a scan of src's out-edges."""
        if src not in self.index:
            return None
        return next((e for e in self.out_edges(src) if e.dst == dst), None)

    def __eq__(self, other):
        """Equal columns; with unique ids, that is equal nodes and edges views."""
        if not isinstance(other, SkillsGraph):
            return False
        return list(map(list, _columns_of(self))) == list(map(list, _columns_of(other)))

    def __repr__(self):
        return f"SkillsGraph({len(self.ids)} nodes, {len(self.src)} edges)"


def _index(ids: Sequence[str]) -> dict[str, int]:
    return dict(zip(ids, range(len(ids))))


def _grouped(keys: list[int], n: int) -> tuple[list[int], list[int]]:
    """(start, order): the positions e with keys[e] == i are
    order[start[i]:start[i + 1]], in increasing order."""
    start = [0] * (n + 1)
    for key in keys:
        start[key + 1] += 1
    # sorted is stable, so each group keeps the edge order
    return list(accumulate(start)), sorted(range(len(keys)), key=keys.__getitem__)


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


def _check_nodes(nodes: Sequence[SkillNode]) -> None:
    """Check one node at a time; raise the first error in node order."""
    seen_ids = set()
    for n in nodes:
        if not isinstance(n.id, str):
            raise InvalidNodeValue(f"node {n.id!r}: id must be a string")
        if n.id in seen_ids:
            raise DuplicateNodeId(f"duplicate node id {n.id!r}")
        if "->" in n.id:
            raise InvalidNodeValue(f"node {n.id!r}: id must not contain '->' (it joins edge keys)")
        if not isinstance(n.label, str):
            raise InvalidNodeValue(f"node {n.id!r}: label must be a string, got {n.label!r}")
        seen_ids.add(n.id)
        _check_node_fields(n)


def _check_edges(edges: Sequence[DependencyEdge], node_ids: Container[str]) -> None:
    """Check one edge at a time; raise the first error in edge order."""
    seen_pairs = set()
    for e in edges:
        if not isinstance(e.src, str) or e.src not in node_ids:
            raise UnknownEndpoint(f"edge ({e.src!r} -> {e.dst!r}): unknown source {e.src!r}")
        if not isinstance(e.dst, str) or e.dst not in node_ids:
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


def _node_columns(nodes: Sequence[SkillNode]) -> list[list]:
    """ids, labels, effectiveness, cost and capacity, one list each."""
    return [list(map(attrgetter(field), nodes)) for field in ("id", "label", "effectiveness", "cost", "capacity")]


def _edge_columns(edges: Sequence[DependencyEdge]) -> list[list]:
    """Sources, targets, weights and objective costs, one list each."""
    return [list(map(attrgetter(field), edges)) for field in ("src", "dst", "weight", "objective_cost")]


def _in_range(values: Sequence, strict: bool = False) -> bool:
    """Whether each value is exactly an int or a float with
    0 <= value <= sys.float_info.max (0 < value when strict).

    A value that passes passes finite_number and the per-item bound too;
    NaN fails every comparison. A bool, a subclass such as numpy.float64, or
    an int above the largest float that still rounds to it, fails here and
    is left to the per-item checks.
    """
    if not set(map(type, values)) <= {int, float}:
        return False
    above = (0.0).__lt__ if strict else (0.0).__le__
    return all(map(above, values)) and all(map(_FLOAT_MAX.__ge__, values))


def _nodes_pass_in_bulk(node_columns: list[list]) -> bool:
    """Whether every node passes _check_nodes, checked a column at a time."""
    ids, labels, effectiveness, cost, capacity = node_columns
    # a separator that is neither '-' nor '>' makes no '->' of its own
    return (
        set(map(type, ids)) | set(map(type, labels)) <= {str}
        and len(set(ids)) == len(ids)
        and "->" not in " ".join(ids)
        and _in_range(effectiveness)
        and _in_range(cost)
        and _in_range([c for c in capacity if c is not UNBOUNDED])
    )


def _edge_ends_in_bulk(edge_columns: list[list], index: dict[str, int]) -> tuple[list, list] | None:
    """The node positions of every edge's source and target if every edge
    passes _check_edges, checked a column at a time; None if any check fails."""
    src_ids, dst_ids, weights, consumption = edge_columns
    if not set(map(type, src_ids)) | set(map(type, dst_ids)) <= {str}:
        return None
    src, dst = list(map(index.get, src_ids)), list(map(index.get, dst_ids))
    if (
        None in src
        or None in dst
        or any(map(eq, src, dst))
        or len(set(zip(src, dst))) != len(src)
        or not _in_range(weights, strict=True)
        or not _in_range(consumption)
    ):
        return None
    return src, dst


def _checked_graph(node_columns: list[list], edge_columns: list[list], allow_cycles: bool) -> SkillsGraph:
    """Check the columns as build_graph does and index them.

    Nodes, then edges, are checked a column at a time; where that finds a
    fault, or a value it does not take in bulk, the per-item checks run over
    the same items and raise the first error, or pass them.
    """
    if not _nodes_pass_in_bulk(node_columns):
        _check_nodes(list(map(SkillNode, *node_columns)))
    index = _index(node_columns[0])
    ends = _edge_ends_in_bulk(edge_columns, index)
    if ends is None:
        _check_edges(list(map(DependencyEdge, *edge_columns)), index)
        ends = [list(map(index.__getitem__, column)) for column in edge_columns[:2]]
    graph = object.__new__(SkillsGraph)
    graph._hold(node_columns, index, *ends, *edge_columns[2:])
    if not allow_cycles:
        validate_dag(graph)  # raises CycleDetected with a witness
    return graph


def build_graph(
    nodes: Iterable[SkillNode],
    edges: Iterable[DependencyEdge],
    allow_cycles: bool = False,
) -> SkillsGraph:
    """Validate and assemble a graph.

    Node ids and labels must be strings. Ids must be unique (case sensitive)
    and must not contain "->", which joins the ends of an edge in its
    "src->dst" key, so that every edge has its own key. Edge endpoints must
    exist, edges must be unique per (src, dst), self-loops are rejected,
    weights must be positive and finite, objective costs finite and >= 0.
    Acyclicity is enforced unless allow_cycles is set (state-transition style
    graphs).

    Nodes, then edges, are checked a column at a time; where that finds a
    fault, or a value it does not take in bulk, the per-item checks run and
    raise the first error in the list, or pass it. The graph holds each
    field of the objects given in its columns, not the objects.
    """
    nodes, edges = tuple(nodes), tuple(edges)
    return _checked_graph(_node_columns(nodes), _edge_columns(edges), allow_cycles)


def _witness_cycle(graph: SkillsGraph, stuck: set[int]) -> list[str]:
    """Walk predecessors inside the stuck set until a node repeats.

    Every stuck node kept an unfinished, so stuck, predecessor; successors
    offer no such guarantee, since a node fed by a cycle is stuck too.
    """
    src, start, order = graph.src, graph.in_start, graph.in_order
    path, seen_at = [], {}
    current = min(stuck)  # the earliest stuck node in node order
    while current not in seen_at:
        seen_at[current] = len(path)
        path.append(current)
        current = next(src[e] for e in order[start[current]:start[current + 1]] if src[e] in stuck)
    cycle = path[seen_at[current]:]
    # in edge direction, from the repeated node
    return list(map(graph.ids.__getitem__, cycle[:1] + cycle[:0:-1]))


def validate_dag(graph: SkillsGraph) -> list[str]:
    """Kahn's algorithm; ties go to node insertion order.

    Returns the topological order of node ids, or raises CycleDetected whose
    .cycle attribute carries one witness cycle.

    When every edge runs from an earlier node to a later one, the node order
    is returned after one pass over the edges. Kahn's algorithm returns that
    very order there: once the nodes before node k are out, node k is ready,
    and it is the earliest node still waiting.
    """
    ids, dst = graph.ids, graph.dst
    if all(map(lt, graph.src, dst)):
        return list(ids)

    indegree = [0] * len(ids)
    for i in dst:
        indegree[i] += 1
    start, order = graph.out_start, graph.out_order
    # frontier: a heap of node positions, so the earliest ready node goes
    # next; the ascending list it starts as is a heap already
    frontier = [i for i, degree in enumerate(indegree) if degree == 0]
    result: list[int] = []
    while frontier:
        current = heapq.heappop(frontier)
        result.append(current)
        for e in order[start[current]:start[current + 1]]:
            indegree[dst[e]] -= 1
            if indegree[dst[e]] == 0:
                heapq.heappush(frontier, dst[e])

    if len(result) != len(ids):
        stuck = set(range(len(ids))).difference(result)
        cycle = _witness_cycle(graph, stuck)
        raise CycleDetected(f"graph contains a cycle: {' -> '.join(cycle)}", cycle=cycle)
    return list(map(ids.__getitem__, result))


def out_weight_shares(weights: Sequence[float], start: Sequence[int]) -> list[float]:
    """Each node's share of the total edge weight, where weights lists the
    edge weights grouped by source node, node i's at weights[start[i]:start[i + 1]].

    fsum is exactly rounded, so the shares do not depend on the edge order.
    FloatRangeExceeded where the weights sum beyond the float range.
    """
    try:
        total = math.fsum(weights)
    except OverflowError:
        raise FloatRangeExceeded("the edge weights sum beyond the float range") from None
    return [math.fsum(weights[a:b]) / total for a, b in zip(start, start[1:])]


def weighted_centrality(graph: SkillsGraph) -> NodeScores:
    """Share of total edge weight carried by each node's outgoing edges.

    Scores are nonnegative and sum to 1; sink nodes score 0. Requires at
    least one edge; FloatRangeExceeded where the weights sum beyond the
    float range.
    """
    if not graph.src:
        raise EmptyGraph("centrality requires a graph with at least one edge")
    grouped = list(map(graph.weights.__getitem__, graph.out_order))
    return dict(zip(graph.ids, out_weight_shares(grouped, graph.out_start)))


# -- JSON file format ---------------------------------------------------------
#
# {"nodes": [{"id", "label", "effectiveness", "cost", "capacity"}],
#  "edges": [{"from", "to", "weight", "objective_cost"}]}
#
# Missing capacity means unbounded; missing objective_cost means 0. Unknown
# keys are rejected rather than ignored.

_NODE_KEYS = {"id", "label", "effectiveness", "cost", "capacity"}
_EDGE_KEYS = {"from", "to", "weight", "objective_cost"}
# only capacity may be omitted (meaning unbounded)
_NODE_REQUIRED = {"id", "label", "effectiveness", "cost"}
_EDGE_REQUIRED = {"from", "to", "weight"}


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


def _nodes_by_item(raws: list) -> list[SkillNode]:
    """Read the nodes array one object at a time; raise its first error."""
    nodes = []
    for i, raw in enumerate(raws):
        where = f"nodes[{i}]"
        _require_keys(raw, _NODE_KEYS, _NODE_REQUIRED, where)
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
    return nodes


def _edges_by_item(raws: list) -> list[DependencyEdge]:
    """Read the edges array one object at a time; raise its first error."""
    edges = []
    for i, raw in enumerate(raws):
        where = f"edges[{i}]"
        _require_keys(raw, _EDGE_KEYS, _EDGE_REQUIRED, where)
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
    return edges


class _Absent:
    """The value a column holds where an object leaves out an optional key."""


_ABSENT = _Absent()


def _columns(raws: list, allowed: set[str], required: set[str], strings, numbers) -> list | None:
    """The columns of one array of objects: the string keys in order, then
    the number keys in order, each number as a float.

    numbers holds (key, default) pairs; default stands where an object
    leaves out an optional key. Returns None where the per-item read would
    raise or read a value another way: an item that is not exactly a dict,
    a key tuple with an unknown key or without a required one, a string
    value not exactly a str, a number not exactly an int or a float, or an
    int too large for a float.
    """
    if not set(map(type, raws)) <= {dict}:
        return None
    # objects in one array nearly always share one key tuple
    for keys in set(map(tuple, raws)):
        if not allowed.issuperset(keys) or not required.issubset(keys):
            return None
    columns = [list(map(itemgetter(key), raws)) for key in strings]
    if not set().union(*(map(type, column) for column in columns)) <= {str}:
        return None
    for key, default in numbers:
        values = list(map(dict.get, raws, repeat(key), repeat(_ABSENT)))
        types = set(map(type, values))
        if not types <= {int, float, _Absent}:
            return None
        if not types <= {float}:
            try:
                values = [default if v is _ABSENT else float(v) for v in values]
            except OverflowError:
                return None
        columns.append(values)
    return columns


def _read_nodes(raws: list) -> list[list]:
    columns = _columns(
        raws, _NODE_KEYS, _NODE_REQUIRED, ("id", "label"),
        (("effectiveness", None), ("cost", None), ("capacity", UNBOUNDED)),
    )
    return _node_columns(_nodes_by_item(raws)) if columns is None else columns


def _read_edges(raws: list) -> list[list]:
    columns = _columns(raws, _EDGE_KEYS, _EDGE_REQUIRED, ("from", "to"), (("weight", None), ("objective_cost", 0.0)))
    return _edge_columns(_edges_by_item(raws)) if columns is None else columns


def graph_from_dict(data: Mapping, allow_cycles: bool = False) -> SkillsGraph:
    """Read a graph from its JSON form; see build_graph for the checks.

    Each array is read a column at a time. Where that finds a fault, or a
    value it does not take in bulk, the array is read one item at a time,
    which raises its first error. Nodes are read before edges. The columns
    go to the checks and into the graph's index as they are; no SkillNode
    or DependencyEdge is built unless a check fails or a view is asked for.
    """
    _require_keys(data, {"nodes", "edges"}, {"nodes", "edges"}, "graph")
    if not isinstance(data["nodes"], list) or not isinstance(data["edges"], list):
        raise GraphFormatError("graph: 'nodes' and 'edges' must be arrays")
    return _checked_graph(_read_nodes(data["nodes"]), _read_edges(data["edges"]), allow_cycles)


def graph_to_dict(graph: SkillsGraph) -> dict:
    nodes = []
    for nid, label, effectiveness, cost, capacity in zip(*_node_table(graph)):
        entry = {"id": nid, "label": label, "effectiveness": effectiveness, "cost": cost}
        if capacity is not UNBOUNDED:
            entry["capacity"] = capacity
        nodes.append(entry)
    ids = graph.ids
    edges = [
        {"from": ids[s], "to": ids[d], "weight": weight, "objective_cost": cost}
        for s, d, weight, cost in zip(graph.src, graph.dst, graph.weights, graph.consumption)
    ]
    return {"nodes": nodes, "edges": edges}


def load_graph(path, allow_cycles: bool = False) -> SkillsGraph:
    return graph_from_dict(load_json(path, GraphFormatError), allow_cycles=allow_cycles)


def save_graph(graph: SkillsGraph, path) -> None:
    write_json(path, graph_to_dict(graph))
