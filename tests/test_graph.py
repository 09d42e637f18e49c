"""Graph construction, validation, topological order, and centrality."""

import dataclasses
import heapq
import json
import math
import random
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillsgraph import (
    DependencyEdge,
    SkillNode,
    SkillsGraph,
    build_graph,
    find_optimal_path,
    load_graph,
    save_graph,
    validate_dag,
    weighted_centrality,
)
from skillsgraph.errors import (
    CycleDetected,
    DomainError,
    DuplicateEdge,
    DuplicateNodeId,
    EmptyGraph,
    GraphFormatError,
    InvalidNodeValue,
    NonPositiveWeight,
    SelfLoop,
    UnknownEndpoint,
)
from skillsgraph.graph import _node_columns, _nodes_pass_in_bulk, finite_number, graph_from_dict, graph_to_dict
from skillsgraph.scenario import validate_stage
from tests.conftest import DEMO_EDGE_PAIRS, demo_graph, random_dag


def node(nid, eff=1.0, cost=1.0, capacity=None):
    return SkillNode(nid, nid.upper(), eff, cost, capacity)


class TestBuildValidation:
    def test_duplicate_node_id(self):
        with pytest.raises(DuplicateNodeId):
            build_graph([node("a"), node("a")], [])

    @pytest.mark.parametrize("nid", ["a->b", "->", "x->", "->y"])
    def test_arrow_in_node_id(self, nid):
        # "a->b" -> "c" and "a" -> "b->c" would share the edge key "a->b->c"
        with pytest.raises(InvalidNodeValue, match="must not contain '->'"):
            build_graph([node("a"), node(nid)], [])

    @pytest.mark.parametrize("nid", ["a-", ">b", "-", ">", "a>-b", "a- >b"])
    def test_arrow_halves_are_allowed(self, nid):
        assert build_graph([node(nid)], []).ids == (nid,)

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownEndpoint):
            build_graph([node("a")], [DependencyEdge("a", "z", 1.0)])

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            build_graph(
                [node("a"), node("b")],
                [DependencyEdge("a", "b", 1.0), DependencyEdge("a", "b", 2.0)],
            )

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            build_graph([node("a")], [DependencyEdge("a", "a", 1.0)])

    @pytest.mark.parametrize("weight", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_weight(self, weight):
        with pytest.raises(NonPositiveWeight):
            build_graph([node("a"), node("b")], [DependencyEdge("a", "b", weight)])

    @pytest.mark.parametrize(
        "bad",
        [
            SkillNode("a", "A", -1.0, 1.0),
            SkillNode("a", "A", 1.0, -0.5),
            SkillNode("a", "A", float("nan"), 1.0),
            SkillNode("a", "A", 1.0, 1.0, capacity=-2.0),
        ],
    )
    def test_bad_node_values(self, bad):
        with pytest.raises(InvalidNodeValue):
            build_graph([bad], [])

    @pytest.mark.parametrize(
        "bad",
        [
            SkillNode("a", "A", True, 1.0),
            SkillNode("a", "A", 1.0, False),
            SkillNode("a", "A", 1.0, 1.0, capacity=True),
        ],
    )
    def test_bool_node_values_rejected(self, bad):
        # bool is an int subclass; the JSON loader already refuses it
        with pytest.raises(InvalidNodeValue):
            build_graph([bad], [])

    def test_bool_edge_values_rejected(self):
        with pytest.raises(NonPositiveWeight):
            build_graph([node("a"), node("b")], [DependencyEdge("a", "b", True)])
        with pytest.raises(InvalidNodeValue):
            build_graph([node("a"), node("b")], [DependencyEdge("a", "b", 1.0, False)])

    def test_cycle_rejected_with_witness(self):
        nodes = [node(x) for x in "abc"]
        edges = [
            DependencyEdge("a", "b", 1.0),
            DependencyEdge("b", "c", 1.0),
            DependencyEdge("c", "a", 1.0),
        ]
        with pytest.raises(CycleDetected) as exc:
            build_graph(nodes, edges)
        cycle = exc.value.cycle
        # witness lists each cycle node once; the closing edge wraps around
        assert len(cycle) == len(set(cycle)) == 3
        pairs = set(zip(cycle, cycle[1:] + cycle[:1]))
        assert pairs == {("a", "b"), ("b", "c"), ("c", "a")}

    def test_two_cycle_witness(self):
        nodes = [node(x) for x in "ab"]
        edges = [DependencyEdge("a", "b", 1.0), DependencyEdge("b", "a", 1.0)]
        with pytest.raises(CycleDetected) as want:
            reference_validate_dag(reference_build_graph(nodes, edges, allow_cycles=True))
        with pytest.raises(CycleDetected) as exc:
            build_graph(nodes, edges)
        assert sorted(exc.value.cycle) == ["a", "b"]
        assert (str(exc.value), exc.value.cycle) == (str(want.value), want.value.cycle)

    def test_long_chain_into_two_cycle(self):
        # the stuck set is found in linear time; the witness is the 2-cycle
        n = 8000
        nodes = [node(f"n{i}") for i in range(n)]
        edges = [DependencyEdge(f"n{i}", f"n{i + 1}", 1.0) for i in range(n - 1)]
        edges.append(DependencyEdge(f"n{n - 1}", f"n{n - 2}", 1.0))
        with pytest.raises(CycleDetected) as exc:
            build_graph(nodes, edges)
        assert exc.value.cycle == (f"n{n - 2}", f"n{n - 1}")

    def test_witness_skips_nodes_downstream_of_the_cycle(self):
        # c comes first and is stuck behind the cycle, but has no successor
        nodes = [node(x) for x in "cab"]
        edges = [DependencyEdge("a", "b", 1.0), DependencyEdge("b", "a", 1.0), DependencyEdge("b", "c", 1.0)]
        with pytest.raises(CycleDetected) as exc:
            build_graph(nodes, edges)
        assert sorted(exc.value.cycle) == ["a", "b"]


class TestTopologicalOrder:
    def test_demo_graph_order(self, five_node_graph):
        assert validate_dag(five_node_graph) == ["v1", "v2", "v3", "v4", "v5"]

    def test_ties_follow_insertion_order(self):
        # b and a are both sources; b was inserted first so it is emitted first
        g = build_graph([node("b"), node("a"), node("c")], [DependencyEdge("a", "c", 1.0)])
        assert validate_dag(g) == ["b", "a", "c"]

    def test_order_is_a_valid_linearization(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_dag(rng)
            order = validate_dag(g)
            position = {nid: i for i, nid in enumerate(order)}
            assert sorted(position) == sorted(g.ids)
            for e in g.edges:
                assert position[e.src] < position[e.dst]


class TestCentrality:
    def test_demo_unit_weights(self, five_node_graph):
        scores = weighted_centrality(five_node_graph)
        expected = {"v1": 3 / 9, "v2": 3 / 9, "v3": 2 / 9, "v4": 1 / 9, "v5": 0.0}
        assert scores.keys() == expected.keys()
        for nid, want in expected.items():
            assert scores[nid] == pytest.approx(want, abs=1e-12)

    def test_random_weightings_sum_to_one(self):
        rng = random.Random(123)
        for _ in range(100):
            weights = {pair: rng.uniform(0.1, 10.0) for pair in DEMO_EDGE_PAIRS}
            scores = weighted_centrality(demo_graph(weights=weights))
            assert math.fsum(scores.values()) == pytest.approx(1.0, abs=1e-12)

    def test_single_edge(self):
        g = build_graph([node("a"), node("b")], [DependencyEdge("a", "b", 2.5)])
        assert weighted_centrality(g) == {"a": 1.0, "b": 0.0}

    def test_no_edges_raises(self):
        g = build_graph([node("a")], [])
        with pytest.raises(EmptyGraph):
            weighted_centrality(g)

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=9, max_size=9))
    @settings(max_examples=50, deadline=None)
    def test_property_sums_to_one(self, raw):
        weights = dict(zip(DEMO_EDGE_PAIRS, raw))
        scores = weighted_centrality(demo_graph(weights=weights))
        assert math.fsum(scores.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(v >= 0 for v in scores.values())


class TestSerialization:
    def test_round_trip(self, tmp_path, five_node_graph):
        p = tmp_path / "g.json"
        save_graph(five_node_graph, p)
        assert load_graph(p) == five_node_graph

    def test_round_trip_with_capacity_and_objective_cost(self, tmp_path):
        g = build_graph(
            [node("a", 2.0, 3.0, capacity=1.5), node("b")],
            [DependencyEdge("a", "b", 2.0, objective_cost=0.5)],
        )
        p = tmp_path / "g.json"
        save_graph(g, p)
        assert load_graph(p) == g
        raw = json.loads(p.read_text())
        assert raw["nodes"][0]["capacity"] == 1.5
        assert "capacity" not in raw["nodes"][1]

    def test_write_is_deterministic(self, tmp_path, five_node_graph):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_graph(five_node_graph, a)
        save_graph(five_node_graph, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "payload",
        [
            {"nodes": [], "edges": [], "extra": 1},
            {"nodes": [{"id": "a", "label": "A", "effectiveness": 1, "cost": 1, "oops": 2}], "edges": []},
            {"nodes": [{"id": "a", "label": "A", "effectiveness": 1, "cost": 1}],
             "edges": [{"from": "a", "to": "a", "weight": 1, "hm": 0}]},
            {"nodes": [{"id": "a", "label": "A", "effectiveness": 1}], "edges": []},
            {"edges": []},
            [],
        ],
    )
    def test_unknown_or_missing_keys_rejected(self, tmp_path, payload):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(payload))
        with pytest.raises(GraphFormatError):
            load_graph(p)

    def test_malformed_json_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(GraphFormatError) as exc:
            load_graph(p)
        assert "line" in str(exc.value)


# -- equality of the columns and the re-weighted graph ---------------------------


def reference_graph_eq(a, b):
    """Graph equality as it compared the views."""
    return a.nodes == b.nodes and a.edges == b.edges


def _random_parts(rng):
    """The nodes and edges of a random DAG whose capacities are None or a value."""
    graph = random_dag(rng)
    nodes = [
        dataclasses.replace(n, capacity=rng.choice([None, 0.0, 1.5, 4.0])) for n in graph.nodes
    ]
    return nodes, list(graph.edges)


def _one_change(rng, nodes, edges):
    """(kind, nodes, edges) with one field of one node or edge changed."""
    nodes, edges = list(nodes), list(edges)
    kinds = ["label", "capacity"] + (["weight", "objective_cost", "int weight"] if edges else [])
    kind = rng.choice(kinds)
    if kind in ("label", "capacity"):
        i = rng.randrange(len(nodes))
        n = nodes[i]
        if kind == "label":
            nodes[i] = dataclasses.replace(n, label=n.label + rng.choice(["", "x"]))
        else:
            nodes[i] = dataclasses.replace(n, capacity=rng.choice([None, 0.0, 1.5, 4.0]))
        return kind, nodes, edges
    i = rng.randrange(len(edges))
    e = edges[i]
    if kind == "int weight":
        edges[i] = dataclasses.replace(e, weight=int(e.weight) if e.weight.is_integer() else e.weight + 1)
    elif kind == "weight":
        edges[i] = dataclasses.replace(e, weight=rng.choice([0.25, 1.0, 3.0]))
    else:
        edges[i] = dataclasses.replace(e, objective_cost=rng.choice([0.0, 0.5, 5.0]))
    return kind, nodes, edges


def test_equality_matches_view_equality():
    rng = random.Random(29)
    outcomes = set()
    for _ in range(400):
        nodes, edges = _random_parts(rng)
        a = build_graph(nodes, edges)
        loaded = graph_from_dict(json.loads(json.dumps(graph_to_dict(a))))
        pairs = [("equal", a, build_graph(nodes, edges)), ("equal", a, loaded)]
        kind, changed_nodes, changed_edges = _one_change(rng, nodes, edges)
        pairs.append((kind, a, build_graph(changed_nodes, changed_edges)))
        for kind, x, y in pairs:
            want = reference_graph_eq(x, y)
            assert (x == y) is want and (y == x) is want and (x != y) is not want
            outcomes.add((kind, want))
    assert outcomes >= {("equal", True)} | {
        (kind, want) for kind in ("label", "capacity", "weight", "objective_cost") for want in (True, False)
    } | {("int weight", True)}
    assert demo_graph() != object() and demo_graph() != "graph"


def test_with_weights_shares_the_index_and_leaves_the_input_alone():
    graph = demo_graph(objective_costs={("v1", "v2"): 0.5})
    view = graph.edges
    before = list(graph.weights)
    weights = [float(i + 2) for i in range(len(before))]
    reweighted = graph.with_weights(weights)
    assert graph.weights == before and graph.edges is view
    assert [e.weight for e in view] == before
    assert reweighted.weights is weights and "edges" not in vars(reweighted)
    assert [e.weight for e in reweighted.edges] == weights
    for name in ("ids", "index", "labels", "effectiveness", "costs", "capacities", "src", "dst",
                 "consumption", "out_start", "out_order", "in_start", "in_order", "rank"):
        assert getattr(reweighted, name) is getattr(graph, name)
    rebuilt = build_graph(graph.nodes, [dataclasses.replace(e, weight=w) for e, w in zip(view, weights)])
    assert reweighted == rebuilt and reweighted.edges == rebuilt.edges
    assert weighted_centrality(reweighted) == weighted_centrality(rebuilt)


# -- reference loader ----------------------------------------------------------
#
# The graph loader checked one item at a time, as it did before the column
# checks: graph_from_dict, build_graph and validate_dag must agree with it on
# every input, raising the same error type with the same message, or
# building an equal graph.

def reference_validate_dag(graph):
    ids = graph.ids
    order_index = {nid: i for i, nid in enumerate(ids)}
    indegree = {nid: 0 for nid in ids}
    for e in graph.edges:
        indegree[e.dst] += 1
    frontier = [i for i, nid in enumerate(ids) if indegree[nid] == 0]
    result = []
    while frontier:
        current = ids[heapq.heappop(frontier)]
        result.append(current)
        for e in graph.out_edges(current):
            indegree[e.dst] -= 1
            if indegree[e.dst] == 0:
                heapq.heappush(frontier, order_index[e.dst])
    if len(result) != len(graph.nodes):
        stuck = set(ids) - set(result)
        path, seen_at = [], {}
        current = next(nid for nid in ids if nid in stuck)
        while current not in seen_at:
            seen_at[current] = len(path)
            path.append(current)
            current = next(e.src for e in graph.in_edges(current) if e.src in stuck)
        cycle = path[seen_at[current]:]
        cycle = cycle[:1] + cycle[:0:-1]
        raise CycleDetected(f"graph contains a cycle: {' -> '.join(cycle)}", cycle=cycle)
    return result


def reference_build_graph(nodes, edges, allow_cycles=False):
    node_list = list(nodes)
    seen_ids = set()
    for n in node_list:
        if not isinstance(n.id, str):
            raise InvalidNodeValue(f"node {n.id!r}: id must be a string")
        if n.id in seen_ids:
            raise DuplicateNodeId(f"duplicate node id {n.id!r}")
        if "->" in n.id:
            raise InvalidNodeValue(f"node {n.id!r}: id must not contain '->' (it joins edge keys)")
        if not isinstance(n.label, str):
            raise InvalidNodeValue(f"node {n.id!r}: label must be a string, got {n.label!r}")
        seen_ids.add(n.id)
        for field in ("effectiveness", "cost"):
            value = getattr(n, field)
            if not finite_number(value) or value < 0:
                raise InvalidNodeValue(f"node {n.id!r}: {field} must be finite and >= 0, got {value!r}")
        cap = n.capacity
        if cap is not None and (not finite_number(cap) or cap < 0):
            raise InvalidNodeValue(f"node {n.id!r}: capacity must be finite and >= 0 or None, got {cap!r}")

    edge_list = list(edges)
    seen_pairs = set()
    for e in edge_list:
        if not isinstance(e.src, str) or e.src not in seen_ids:
            raise UnknownEndpoint(f"edge ({e.src!r} -> {e.dst!r}): unknown source {e.src!r}")
        if not isinstance(e.dst, str) or e.dst not in seen_ids:
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

    graph = SkillsGraph(node_list, edge_list)
    if not allow_cycles:
        reference_validate_dag(graph)
    return graph


def _reference_keys(obj, allowed, required, where):
    if not isinstance(obj, Mapping):
        raise GraphFormatError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise GraphFormatError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise GraphFormatError(f"{where}: missing keys {sorted(missing)}")


def _reference_number(obj, key, where, default=None):
    if key not in obj:
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GraphFormatError(f"{where}: {key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise GraphFormatError(f"{where}: {key} is too large for a float") from None


def reference_graph_from_dict(data, allow_cycles=False):
    _reference_keys(data, {"nodes", "edges"}, {"nodes", "edges"}, "graph")
    if not isinstance(data["nodes"], list) or not isinstance(data["edges"], list):
        raise GraphFormatError("graph: 'nodes' and 'edges' must be arrays")
    nodes = []
    for i, raw in enumerate(data["nodes"]):
        where = f"nodes[{i}]"
        _reference_keys(
            raw, {"id", "label", "effectiveness", "cost", "capacity"}, {"id", "label", "effectiveness", "cost"}, where
        )
        if not isinstance(raw["id"], str):
            raise GraphFormatError(f"{where}: id must be a string")
        if not isinstance(raw["label"], str):
            raise GraphFormatError(f"{where}: label must be a string")
        nodes.append(SkillNode(
            raw["id"],
            raw["label"],
            _reference_number(raw, "effectiveness", where),
            _reference_number(raw, "cost", where),
            _reference_number(raw, "capacity", where, None),
        ))
    edges = []
    for i, raw in enumerate(data["edges"]):
        where = f"edges[{i}]"
        _reference_keys(raw, {"from", "to", "weight", "objective_cost"}, {"from", "to", "weight"}, where)
        if not isinstance(raw["from"], str) or not isinstance(raw["to"], str):
            raise GraphFormatError(f"{where}: 'from' and 'to' must be strings")
        edges.append(DependencyEdge(
            raw["from"],
            raw["to"],
            _reference_number(raw, "weight", where),
            _reference_number(raw, "objective_cost", where, 0.0),
        ))
    return reference_build_graph(nodes, edges, allow_cycles=allow_cycles)


def _typed(graph):
    """Every field of every node and edge with its type: 1 == 1.0, but a
    loader that kept an int where the reference made a float differs here."""
    return [
        tuple((type(v), v) for v in (item.id, item.label, item.effectiveness, item.cost, item.capacity))
        for item in graph.nodes
    ] + [
        tuple((type(v), v) for v in (item.src, item.dst, item.weight, item.objective_cost))
        for item in graph.edges
    ]


def _outcome(load, *args, **kwargs):
    try:
        graph = load(*args, **kwargs)
    except Exception as exc:  # the reference and the loader must fail alike
        return ("raised", type(exc), str(exc), getattr(exc, "cycle", None))
    return ("built", _typed(graph), graph.ids)


def assert_same_load(data):
    want = _outcome(reference_graph_from_dict, data)
    assert _outcome(graph_from_dict, data) == want
    return want


def assert_same_build(nodes, edges):
    want = _outcome(reference_build_graph, nodes, edges)
    assert _outcome(build_graph, nodes, edges) == want
    return want


def _answer(query, *args):
    try:
        return query(*args)
    except DomainError as exc:
        return type(exc), str(exc), getattr(exc, "cycle", None)


def assert_index_matches_objects(data):
    """A graph that graph_from_dict indexes from the JSON columns answers as
    one that build_graph indexes from the reference reader's objects: the
    same views, out- and in-edges, order, and every path query's answer or
    error, with and without a tau."""
    want = reference_graph_from_dict(data)
    from_objects = build_graph(want.nodes, want.edges)
    from_columns = graph_from_dict(data)
    assert from_columns.nodes == from_objects.nodes == want.nodes
    assert from_columns.edges == from_objects.edges == want.edges
    ids = from_objects.ids
    for nid in ids:
        out_edges = tuple(e for e in want.edges if e.src == nid)
        in_edges = tuple(e for e in want.edges if e.dst == nid)
        assert from_columns.out_edges(nid) == from_objects.out_edges(nid) == out_edges
        assert from_columns.in_edges(nid) == from_objects.in_edges(nid) == in_edges
    assert _answer(validate_dag, from_columns) == _answer(validate_dag, from_objects)
    for source in ids:
        for target in ids:
            for tau in (None, 2.0):
                args = source, target, tau
                assert _answer(find_optimal_path, from_columns, *args) == _answer(find_optimal_path, from_objects, *args)


def _shuffled_keys(rng, obj):
    keys = list(obj)
    rng.shuffle(keys)
    return {key: obj[key] for key in keys}


def _number(rng):
    """A valid JSON number: an int or a float, zero included."""
    return rng.choice([rng.randint(0, 9), rng.randint(0, 64) / 8, 0, 0.0, 1e300])


def random_graph_dict(rng, forward=None):
    """A random acyclic graph in its JSON form, keys in random order.

    Every edge points forward in the node list when forward is true,
    otherwise the node list is shuffled after the edges are drawn; capacity
    and objective_cost are each present on all, none or some objects.
    """
    n = rng.randint(2, 24)
    ids = [rng.choice(["v", "skill ", "k-", ">x", "é"]) + str(i) for i in range(n)]
    capacity = rng.choice(["all", "none", "some"])
    nodes = []
    for nid in ids:
        raw = {"id": nid, "label": f"label {nid}", "effectiveness": _number(rng), "cost": _number(rng)}
        if capacity == "all" or (capacity == "some" and rng.random() < 0.5):
            raw["capacity"] = _number(rng)
        nodes.append(_shuffled_keys(rng, raw))
    objective = rng.choice(["all", "none", "some"])
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3 or (i, j) == (0, 1):
                raw = {"from": ids[i], "to": ids[j], "weight": rng.choice([1, 2, 0.5, 1e-300, 1e300])}
                if objective == "all" or (objective == "some" and rng.random() < 0.5):
                    raw["objective_cost"] = _number(rng)
                edges.append(_shuffled_keys(rng, raw))
    rng.shuffle(edges)
    if forward is None:
        forward = rng.random() < 0.5
    if not forward:
        rng.shuffle(nodes)
    return {"nodes": nodes, "edges": edges}


# Each fault takes (rng, data) and changes one object of data in place. A
# second fault picks among the objects the first one left objects.

def _pick(rng, data, arrays=("nodes", "edges")):
    """(array, index, object) of a random object in the named arrays."""
    return rng.choice([(a, i, raw) for a in arrays for i, raw in enumerate(data[a]) if isinstance(raw, dict)])


def _non_object(rng, data):
    array, i, _ = _pick(rng, data)
    data[array][i] = rng.choice([[], "node", 3, None, True, [["id", "a"]]])


def _unknown_key(rng, data):
    array, _, raw = _pick(rng, data)
    raw[rng.choice(["extra", "ID", "weight ", "capacity" if array == "edges" else "from"])] = 1.0


def _missing_key(rng, data):
    array, _, raw = _pick(rng, data)
    required = ["id", "label", "effectiveness", "cost"] if array == "nodes" else ["from", "to", "weight"]
    raw.pop(rng.choice(required), None)


def _non_string(rng, data):
    array, _, raw = _pick(rng, data)
    raw[rng.choice(["id", "label"] if array == "nodes" else ["from", "to"])] = rng.choice(
        [1, 1.5, None, True, ["a"], {"a": 1}]
    )


def _number_key(rng, data):
    array, _, raw = _pick(rng, data)
    return raw, rng.choice(["effectiveness", "cost", "capacity"] if array == "nodes" else ["weight", "objective_cost"])


def _not_a_number(rng, data):
    raw, key = _number_key(rng, data)
    raw[key] = rng.choice([True, False, "1.0", None, [1.0], 10**400, -(10**400)])


def _bad_value(rng, data):
    raw, key = _number_key(rng, data)
    raw[key] = rng.choice([math.nan, math.inf, -math.inf, -1.0, -1, -1e-300])


def _zero_weight(rng, data):
    _, _, raw = _pick(rng, data, ["edges"])
    raw["weight"] = rng.choice([0, 0.0, -0.0])


def _duplicate_id(rng, data):
    (_, _, first), (_, _, second) = rng.sample([_pick(rng, data, ["nodes"]) for _ in range(8)], 2)
    second["id"] = first.get("id")


def _arrow_id(rng, data):
    _, _, raw = _pick(rng, data, ["nodes"])
    raw["id"] = rng.choice(["a->b", "->", "x->", "->y"])


def _unknown_endpoint(rng, data):
    _, _, raw = _pick(rng, data, ["edges"])
    raw[rng.choice(["from", "to"])] = rng.choice(["nope", "", "V1"])


def _self_loop(rng, data):
    _, _, raw = _pick(rng, data, ["edges"])
    raw["to"] = raw.get("from")


def _duplicate_edge(rng, data):
    _, _, raw = _pick(rng, data, ["edges"])
    data["edges"].insert(rng.randrange(len(data["edges"]) + 1), dict(raw, weight=rng.choice([1, 7.5])))


def _cycle(rng, data):
    _, _, raw = _pick(rng, data, ["edges"])
    back = {"from": raw.get("to"), "to": raw.get("from"), "weight": 1}
    data["edges"].insert(rng.randrange(len(data["edges"]) + 1), back)


FAULTS = {
    "non_object": _non_object,
    "unknown_key": _unknown_key,
    "missing_key": _missing_key,
    "non_string": _non_string,
    "not_a_number": _not_a_number,
    "bad_value": _bad_value,
    "zero_weight": _zero_weight,
    "duplicate_id": _duplicate_id,
    "arrow_id": _arrow_id,
    "unknown_endpoint": _unknown_endpoint,
    "self_loop": _self_loop,
    "duplicate_edge": _duplicate_edge,
    "cycle": _cycle,
}


class TestLoaderAgainstReference:
    def test_valid_graphs(self):
        rng = random.Random(20261019)
        for k in range(300):
            data = random_graph_dict(rng)
            assert assert_same_load(data)[0] == "built"
            if k % 5 == 0:
                assert_index_matches_objects(data)

    @pytest.mark.parametrize("kind", sorted(FAULTS))
    def test_one_fault(self, kind):
        rng = random.Random(kind)
        raised = 0
        for _ in range(60):
            data = random_graph_dict(rng)
            FAULTS[kind](rng, data)
            raised += assert_same_load(data)[0] == "raised"
        assert raised > 0

    def test_two_faults(self):
        rng = random.Random(2)
        kinds = sorted(FAULTS)
        for _ in range(600):
            data = random_graph_dict(rng)
            for kind in rng.sample(kinds, 2):
                FAULTS[kind](rng, data)
            assert_same_load(data)

    def test_later_fault_does_not_hide_the_first(self):
        # a node fault, then an edge fault: the node's error is raised
        data = {
            "nodes": [
                {"id": "a", "label": "A", "effectiveness": 1, "cost": -1},
                {"id": "b", "label": "B", "effectiveness": 1, "cost": 1},
            ],
            "edges": [{"from": "a", "to": "b", "weight": 0}],
        }
        assert assert_same_load(data)[1] is InvalidNodeValue
        data["nodes"][0]["cost"] = 1
        assert assert_same_load(data)[1] is NonPositiveWeight

    def test_not_a_mapping_or_arrays(self):
        for data in ([], {"nodes": []}, {"nodes": {}, "edges": []}, {"nodes": [], "edges": [], "x": 1}):
            assert assert_same_load(data)[0] == "raised"
        assert assert_same_load({"nodes": [], "edges": []})[0] == "built"


class TestBuildGraphSemantics:
    def test_numpy_float_and_str_subclass_accepted(self):
        class Name(str):
            pass

        nodes = [
            SkillNode(Name("a"), "A", np.float64(1.5), np.float64(0.0), np.float64(2.0)),
            SkillNode("b", "B", 1, 2, 3),
        ]
        edges = [DependencyEdge(Name("a"), "b", np.float64(0.5), np.float64(1.0))]
        assert assert_same_build(nodes, edges)[0] == "built"
        graph = build_graph(nodes, edges)
        assert graph.nodes == tuple(nodes) and graph.edges == tuple(edges)
        assert type(graph.nodes[0].id) is Name and type(graph.nodes[0].effectiveness) is np.float64

    @pytest.mark.parametrize(
        "nodes, edges, error, message",
        [
            ([SkillNode("a", "A", True, 1.0)], [], InvalidNodeValue,
             "node 'a': effectiveness must be finite and >= 0, got True"),
            ([node("a"), node("b")], [DependencyEdge("a", "b", True)], NonPositiveWeight,
             "edge ('a' -> 'b'): weight must be finite and > 0, got True"),
            ([node("a"), node("b")], [DependencyEdge("a", "b", "1.0")], NonPositiveWeight,
             "edge ('a' -> 'b'): weight must be finite and > 0, got '1.0'"),
        ],
    )
    def test_bool_and_string_values_refused(self, nodes, edges, error, message):
        with pytest.raises(error) as exc:
            build_graph(nodes, edges)
        assert str(exc.value) == message
        assert assert_same_build(nodes, edges)[:3] == ("raised", error, message)

    @pytest.mark.parametrize(
        "nodes, message",
        [
            ([SkillNode(5)], "node 5: id must be a string"),
            ([node("a"), SkillNode(["b"])], "node ['b']: id must be a string"),
            ([SkillNode("a", 5)], "node 'a': label must be a string, got 5"),
            ([node("a"), SkillNode("b", None)], "node 'b': label must be a string, got None"),
        ],
    )
    def test_id_or_label_not_a_string_refused(self, nodes, message):
        # the bulk check passes them on to the per-item checks, which name them
        assert not _nodes_pass_in_bulk(_node_columns(nodes))
        with pytest.raises(InvalidNodeValue) as exc:
            build_graph(nodes, [])
        assert str(exc.value) == message
        assert assert_same_build(nodes, [])[:3] == ("raised", InvalidNodeValue, message)

    @pytest.mark.parametrize(
        "edge, message",
        [
            (DependencyEdge(["a"], "b", 1.0), "edge (['a'] -> 'b'): unknown source ['a']"),
            (DependencyEdge("a", {"b": 1}, 1.0), "edge ('a' -> {'b': 1}): unknown target {'b': 1}"),
            (DependencyEdge(("a",), "b", 1.0), "edge (('a',) -> 'b'): unknown source ('a',)"),
        ],
        ids=["list_source", "dict_target", "tuple_source"],
    )
    def test_endpoint_not_a_string_is_unknown(self, edge, message):
        # checked before the set lookup, which an unhashable endpoint would fail
        nodes = [SkillNode("a"), SkillNode("b")]
        with pytest.raises(UnknownEndpoint) as exc:
            build_graph(nodes, [edge])
        assert str(exc.value) == message
        assert assert_same_build(nodes, [edge])[:3] == ("raised", UnknownEndpoint, message)

    def test_str_subclass_label_accepted(self):
        class Name(str):
            pass

        nodes = [SkillNode("a", Name("A"))]
        assert not _nodes_pass_in_bulk(_node_columns(nodes))
        assert build_graph(nodes, []).nodes == tuple(nodes)

    def test_odd_values_against_reference(self):
        class Name(str):
            pass

        big = int(1.7976931348623157e308) + 1  # above the largest float, rounds to it
        values = [0, 1, 0.0, 2.5, True, False, "1", None, np.float64(1.0), np.float64(-1.0),
                  np.float64("nan"), big, 10**400, -1, math.inf, math.nan, 1e-320]
        rng = random.Random(5)
        for _ in range(400):
            ids = [rng.choice(["a", "b", "c", Name("a"), Name("d"), "e->f"]) for _ in range(rng.randint(1, 4))]
            nodes = [
                SkillNode(nid, "", rng.choice(values), rng.choice(values), rng.choice(values + [None] * 4))
                for nid in ids
            ]
            edges = [
                DependencyEdge(rng.choice(ids + ["z"]), rng.choice(ids), rng.choice(values), rng.choice(values))
                for _ in range(rng.randint(0, 3))
            ]
            assert_same_build(nodes, edges)


class TestForwardOrder:
    def test_forward_listed_dags_match_kahn(self):
        rng = random.Random(11)
        for k in range(200):
            data = random_graph_dict(rng, forward=True)
            graph = reference_graph_from_dict(data)
            assert validate_dag(graph) == reference_validate_dag(graph) == list(graph.ids)
            if k % 5 == 0:
                assert_index_matches_objects(data)

    def test_backward_edges_keep_the_kahn_order(self):
        rng = random.Random(12)
        backward = 0
        for k in range(200):
            data = random_graph_dict(rng, forward=False)
            graph, want = graph_from_dict(data), reference_graph_from_dict(data)
            position = {nid: i for i, nid in enumerate(graph.ids)}
            backward += any(position[e.src] > position[e.dst] for e in graph.edges)
            assert validate_dag(graph) == reference_validate_dag(want)
            if k % 5 == 0:
                assert_index_matches_objects(data)
        assert backward > 100

    def test_rank_is_each_node_position_in_the_kahn_order(self):
        rng = random.Random(14)
        for k in range(200):
            data = random_graph_dict(rng, forward=k % 2 == 0)
            graph = graph_from_dict(data)
            want = reference_validate_dag(reference_graph_from_dict(data))
            assert list(graph.rank) == [want.index(nid) for nid in graph.ids]
            # validate_dag reads the kept rank, and a re-weighted graph shares it
            rank = graph.rank
            assert validate_dag(graph) == validate_dag(graph) == want
            assert graph.rank is rank and graph.with_weights(list(graph.weights)).rank is rank

    def test_cycle_among_backward_edges(self):
        # each loader raises the reference witness, and so does the rank of
        # the unchecked graph; the index is checked on the graph before its
        # cycle is added
        rng = random.Random(13)
        for k in range(200):
            data = random_graph_dict(rng, forward=rng.random() < 0.5)
            if k % 5 == 0:
                assert_index_matches_objects(data)
            _cycle(rng, data)
            graph = reference_graph_from_dict(data, allow_cycles=True)
            with pytest.raises(CycleDetected) as want:
                reference_validate_dag(graph)
            for raises in (
                lambda: graph_from_dict(data),
                lambda: build_graph(graph.nodes, graph.edges),
                lambda: validate_dag(graph),
                lambda: graph.rank,
            ):
                with pytest.raises(CycleDetected) as got:
                    raises()
                assert (str(got.value), got.value.cycle) == (str(want.value), want.value.cycle)


class TestQueriesReadTheIndex:
    def test_loaded_graph_answers_without_node_or_edge_objects(self, monkeypatch, tmp_path):
        built = []

        def counting(init):
            def counted(self, *args, **kwargs):
                built.append(type(self).__name__)
                init(self, *args, **kwargs)
            return counted

        for cls in (SkillNode, DependencyEdge):
            monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
        rng = random.Random(22)
        for k in range(20):
            path = tmp_path / f"graph{k}.json"
            # backward-listed graphs too, so Kahn's algorithm runs on the index
            path.write_text(json.dumps(random_graph_dict(rng, forward=k % 2 == 0)))
            graph = load_graph(path)
            validate_stage(graph)
            weighted_centrality(graph)
            for source in graph.ids:
                for target in graph.ids:
                    for tau in (None, 2.0):
                        _answer(find_optimal_path, graph, source, target, tau)
            assert built == []
        graph.edges  # the views are built on first use, and counted
        assert set(built) == {"DependencyEdge"}
