"""Constrained path search against a brute-force enumeration oracle."""

import random
from fractions import Fraction

import pytest

from skillsgraph import DependencyEdge, SkillNode, build_graph, enumerate_paths, find_optimal_path
from skillsgraph.errors import CycleDetected, InvalidQuery, NoFeasiblePath, UnknownNode
from skillsgraph.graph import validate_dag
from tests.conftest import DEMO_EDGE_PAIRS, demo_graph, random_dag

# objective costs used by the constrained fixture: the direct shortcut is
# expensive, every other hop costs 1
SHORTCUT_COSTS = {pair: (5.0 if pair == ("v1", "v5") else 1.0) for pair in DEMO_EDGE_PAIRS}


def oracle_best(graph, source, target, tau):
    """Cheapest feasible path via exhaustive enumeration with exact sums."""
    feasible = []
    for p in enumerate_paths(graph, source, target):
        pairs = list(zip(p.nodes, p.nodes[1:]))
        cost = sum((Fraction(graph.edge(a, b).weight) for a, b in pairs), Fraction(0))
        obj = sum((Fraction(graph.edge(a, b).objective_cost) for a, b in pairs), Fraction(0))
        if tau is None or obj <= Fraction(tau):
            feasible.append((cost, p.nodes, obj))
    if not feasible:
        return None
    cost, nodes, obj = min(feasible)
    return nodes, cost, obj


def simple_path_best(graph, source, target, tau):
    """Least (cost, nodes) over every simple path with exact sums; unlike
    enumerate_paths this also walks graphs that contain cycles."""
    best = None

    def walk(nodes, cost, used):
        nonlocal best
        if nodes[-1] == target:
            if (tau is None or used <= Fraction(tau)) and (best is None or (cost, nodes) < best[:2]):
                best = (cost, nodes, used)
            return
        for e in graph.out_edges(nodes[-1]):
            if e.dst not in nodes:
                walk(nodes + (e.dst,), cost + Fraction(e.weight), used + Fraction(e.objective_cost))

    walk((source,), Fraction(0), Fraction(0))
    return best


def random_digraph(rng, max_nodes=7):
    """Random graph over v1..vn with edges in both directions, so cycles are common."""
    n = rng.randint(2, max_nodes)
    ids = [f"v{i}" for i in range(1, n + 1)]
    edges = [
        DependencyEdge(a, b, rng.choice([0.25, 0.5, 1.0, 1.5]), rng.choice([0.0, 0.5, 1.0, 2.0]))
        for a in ids
        for b in ids
        if a != b and rng.random() < 0.35
    ]
    return build_graph([SkillNode(v, v) for v in ids], edges, allow_cycles=True)


def layered_dag(rng, layers=40, width=25, fanout=4):
    """Each node feeds `fanout` distinct nodes of the next layer.

    Weights are quarter units 1..8 and consumptions whole units 0..3, so the
    reference DP can work in integers. Returns the graph, the arcs as
    (src, dst, quarters, consumption), and the node ids layer by layer.
    """
    ids = [[f"L{i:02d}N{j:02d}" for j in range(width)] for i in range(layers)]
    arcs = [
        (ids[i][j], ids[i + 1][k], rng.randint(1, 8), rng.randint(0, 3))
        for i in range(layers - 1)
        for j in range(width)
        for k in rng.sample(range(width), fanout)
    ]
    nodes = [SkillNode(nid, nid) for row in ids for nid in row]
    edges = [DependencyEdge(a, b, q / 4, float(c)) for a, b, q, c in arcs]
    return build_graph(nodes, edges), arcs, ids


def layered_best(arcs, ids, source, target, cap):
    """DP over (node, consumption) in layer order.

    Each state keeps its least (cost, nodes) prefix, which stays least under
    any common extension. Returns (quarters, nodes, consumption) or None.
    """
    out = {}
    for a, b, q, c in arcs:
        out.setdefault(a, []).append((b, q, c))
    states = {source: {0: (0, (source,), 0)}}
    for row in ids:
        for node in row:
            if node == target:
                continue
            for cost, nodes, used in states.pop(node, {}).values():
                for dst, q, c in out.get(node, ()):
                    total = used + c
                    if cap is not None and total > cap:
                        continue
                    bucket = states.setdefault(dst, {})
                    key = 0 if cap is None else total
                    if key not in bucket or (cost + q, nodes + (dst,)) < bucket[key][:2]:
                        bucket[key] = (cost + q, nodes + (dst,), total)
    finals = states.get(target)
    return min(finals.values()) if finals else None


class TestFindOptimalPath:
    def test_unbounded_takes_direct_edge(self, five_node_graph):
        p = find_optimal_path(five_node_graph, "v1", "v5")
        assert p.nodes == ("v1", "v5")
        assert p.cost == 1.0

    def test_constrained_fixture(self):
        g = demo_graph(objective_costs=SHORTCUT_COSTS)
        p = find_optimal_path(g, "v1", "v5", tau=2.0)
        assert p.nodes == ("v1", "v2", "v5")
        assert p.cost == 2.0
        assert p.objective == 2.0

    def test_source_equals_target(self, five_node_graph):
        p = find_optimal_path(five_node_graph, "v3", "v3")
        assert p.nodes == ("v3",)
        assert p.cost == 0.0
        assert p.objective == 0.0

    def test_equal_cost_tie_is_lexicographic(self):
        g = demo_graph(objective_costs=SHORTCUT_COSTS)
        # (v1,v2,v5) and (v1,v3,v5) tie at cost 2, objective 2
        assert find_optimal_path(g, "v1", "v5", tau=2.0).nodes == ("v1", "v2", "v5")

    def test_tie_goes_to_lexicographic_order_not_fewest_hops(self):
        # a->b->c and a->c both cost 2; (a, b, c) < (a, c) although it is longer
        g = build_graph(
            [SkillNode(x, x) for x in "abc"],
            [DependencyEdge("a", "b", 1.0), DependencyEdge("b", "c", 1.0), DependencyEdge("a", "c", 2.0)],
        )
        for tau in (None, 0.0, 5.0):
            p = find_optimal_path(g, "a", "c", tau)
            assert p.nodes == ("a", "b", "c")
            assert p.cost == 2.0

    def test_no_path_at_all(self, five_node_graph):
        with pytest.raises(NoFeasiblePath):
            find_optimal_path(five_node_graph, "v5", "v1")

    def test_all_paths_violate_tau(self):
        g = demo_graph(objective_costs={pair: 3.0 for pair in DEMO_EDGE_PAIRS})
        with pytest.raises(NoFeasiblePath):
            find_optimal_path(g, "v1", "v5", tau=2.0)

    def test_unknown_node(self, five_node_graph):
        with pytest.raises(UnknownNode):
            find_optimal_path(five_node_graph, "v1", "zz")

    @pytest.mark.parametrize("tau", [-1.0, float("nan"), float("-inf")])
    def test_bad_tau(self, five_node_graph, tau):
        with pytest.raises(InvalidQuery):
            find_optimal_path(five_node_graph, "v1", "v5", tau=tau)

    def test_oracle_agreement_100_random_dags(self):
        rng = random.Random(404)
        checked = 0
        while checked < 100:
            g = random_dag(rng, max_nodes=8)
            if not g.edges:
                continue
            nodes = g.ids
            source, target = nodes[0], nodes[-1]
            tau = rng.choice([None, 0.0, 0.5, 1.0, 2.0, 4.0, 8.0])
            want = oracle_best(g, source, target, tau)
            if want is None:
                with pytest.raises(NoFeasiblePath):
                    find_optimal_path(g, source, target, tau)
            else:
                got = find_optimal_path(g, source, target, tau)
                assert got.nodes == want[0]
                assert Fraction(got.cost) == want[1]
                assert Fraction(got.objective) == want[2]
            checked += 1

    def test_tau_monotonicity(self):
        rng = random.Random(77)
        for _ in range(30):
            g = random_dag(rng, max_nodes=7)
            nodes = g.ids
            source, target = nodes[0], nodes[-1]
            costs = []
            for tau in (0.5, 1.0, 2.0, 5.0, None):
                try:
                    costs.append(find_optimal_path(g, source, target, tau).cost)
                except NoFeasiblePath:
                    costs.append(float("inf"))
            # loosening tau never makes the best path more expensive
            assert all(a >= b for a, b in zip(costs, costs[1:]))

    def test_unbounded_to_every_target_agrees_with_oracle(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_dag(rng, max_nodes=6)
            ids = g.ids
            for target in ids[1:]:
                want = oracle_best(g, ids[0], target, None)
                if want is None:
                    with pytest.raises(NoFeasiblePath):
                        find_optimal_path(g, ids[0], target)
                else:
                    assert find_optimal_path(g, ids[0], target).nodes == want[0]

    def test_cyclic_graphs_agree_with_simple_path_oracle(self):
        rng = random.Random(2603)
        cyclic = 0
        for _ in range(300):
            g = random_digraph(rng)
            try:
                validate_dag(g)
            except CycleDetected:
                cyclic += 1
            source, target = rng.sample(g.ids, 2)
            tau = rng.choice([None, 0.0, 0.5, 1.0, 2.0, 4.0])
            want = simple_path_best(g, source, target, tau)
            if want is None:
                with pytest.raises(NoFeasiblePath):
                    find_optimal_path(g, source, target, tau)
                continue
            got = find_optimal_path(g, source, target, tau)
            assert got.nodes == want[1]
            assert Fraction(got.cost) == want[0]
            assert Fraction(got.objective) == want[2]
        assert cyclic > 100

    def test_layered_1000_node_dag_with_binding_tau(self):
        rng = random.Random(4025)
        g, arcs, ids = layered_dag(rng)
        assert len(g.nodes) == 1000 and len(g.edges) == 3900
        source, target = ids[0][0], ids[-1][7]
        free = layered_best(arcs, ids, source, target, None)
        need = {source: 0}
        for a, b, _, c in arcs:  # listed layer by layer, so need[a] is final
            if a in need:
                need[b] = min(need.get(b, need[a] + c), need[a] + c)
        least = need[target]
        cap = (least + free[2]) // 2
        want = layered_best(arcs, ids, source, target, cap)
        assert want[0] > free[0]  # the cap binds

        got = find_optimal_path(g, source, target, tau=float(cap))
        assert got.nodes == want[1]
        assert Fraction(got.cost) == Fraction(want[0], 4)
        assert got.objective == float(want[2])
        assert find_optimal_path(g, source, target).nodes == free[1]
        with pytest.raises(NoFeasiblePath):
            find_optimal_path(g, source, target, tau=least - 0.5)


class TestEnumeratePaths:
    def test_demo_has_seven_paths(self, five_node_graph):
        paths = enumerate_paths(five_node_graph, "v1", "v5")
        assert len(paths) == 7
        assert len({p.nodes for p in paths}) == 7
        for p in paths:
            assert p.nodes[0] == "v1" and p.nodes[-1] == "v5"
            for a, b in zip(p.nodes, p.nodes[1:]):
                assert five_node_graph.edge(a, b) is not None

    def test_reverse_direction_is_empty(self, five_node_graph):
        assert enumerate_paths(five_node_graph, "v5", "v1") == []

    def test_source_equals_target(self, five_node_graph):
        paths = enumerate_paths(five_node_graph, "v2", "v2")
        assert [p.nodes for p in paths] == [("v2",)]
        assert paths[0].cost == 0.0

    def test_unknown_node(self, five_node_graph):
        with pytest.raises(UnknownNode):
            enumerate_paths(five_node_graph, "zz", "v1")

    def test_deterministic_order(self, five_node_graph):
        a = [p.nodes for p in enumerate_paths(five_node_graph, "v1", "v5")]
        b = [p.nodes for p in enumerate_paths(five_node_graph, "v1", "v5")]
        assert a == b

    def test_sums_match_recomputation(self):
        rng = random.Random(8)
        for _ in range(20):
            g = random_dag(rng, max_nodes=6)
            ids = g.ids
            for p in enumerate_paths(g, ids[0], ids[-1]):
                pairs = list(zip(p.nodes, p.nodes[1:]))
                assert p.cost == pytest.approx(sum(g.edge(a, b).weight for a, b in pairs), abs=1e-9)
                assert p.objective == pytest.approx(
                    sum(g.edge(a, b).objective_cost for a, b in pairs), abs=1e-9
                )
