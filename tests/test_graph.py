"""Graph construction, validation, topological order, and centrality."""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillsgraph import (
    DependencyEdge,
    SkillNode,
    build_graph,
    load_graph,
    save_graph,
    validate_dag,
    weighted_centrality,
)
from skillsgraph.errors import (
    CycleDetected,
    DuplicateEdge,
    DuplicateNodeId,
    EmptyGraph,
    GraphFormatError,
    InvalidNodeValue,
    NonPositiveWeight,
    SelfLoop,
    UnknownEndpoint,
)
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
        assert build_graph([node(nid)], []).node_ids() == (nid,)

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
        g = build_graph(nodes, edges, allow_cycles=True)
        with pytest.raises(CycleDetected) as exc:
            validate_dag(g)
        assert sorted(exc.value.cycle) == ["a", "b"]

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

    def test_allow_cycles_defers_check(self):
        nodes = [node(x) for x in "ab"]
        edges = [DependencyEdge("a", "b", 1.0), DependencyEdge("b", "a", 1.0)]
        g = build_graph(nodes, edges, allow_cycles=True)
        with pytest.raises(CycleDetected):
            validate_dag(g)


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
            assert sorted(position) == sorted(g.node_ids())
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
