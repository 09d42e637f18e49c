"""Constrained path search against a brute-force enumeration oracle."""

import heapq
import math
import random
from fractions import Fraction

import pytest

from skillsgraph import DependencyEdge, SkillNode, SkillsGraph, build_graph, enumerate_paths, find_optimal_path
from skillsgraph.errors import CycleDetected, InvalidQuery, NoFeasiblePath, UnknownNode
from skillsgraph.exact import integer_sum_to_float
from skillsgraph.graph import validate_dag
from skillsgraph.paths import Path, _edges_into, _scaled
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


# -- reference search ----------------------------------------------------------
#
# The label-setting search as it was before the topological bounds: need
# comes from a reverse Dijkstra, the cap from a Fraction, and a later label
# at a node is kept whenever it consumes less than every earlier one there,
# however slack the cap. find_optimal_path must give the same Path, or the
# same NoFeasiblePath, on every query.

def reference_least_consumption(graph, scaled, target):
    into = {}
    for e, _, consumption in scaled:
        into.setdefault(graph.dst[e], []).append((graph.src[e], consumption))
    need = {target: 0}
    heap = [(0, target)]
    while heap:
        used, node = heapq.heappop(heap)
        if used > need[node]:
            continue
        for src, consumption in into.get(node, ()):
            total = used + consumption
            if src not in need or total < need[src]:
                need[src] = total
                heapq.heappush(heap, (total, src))
    return need


def reference_search(graph, source, target, tau):
    start, goal = graph.index[source], graph.index[target]
    scaled, wden, cden = _scaled(graph, _edges_into(graph, goal))
    ids, src, dst = graph.ids, graph.src, graph.dst
    succ = {}
    for e, weight, consumption in scaled:
        succ.setdefault(src[e], []).append((dst[e], ids[dst[e]], weight, consumption))
    if tau is None:
        cap, need = None, None
    else:
        cap = math.floor(Fraction(tau) * cden)
        need = reference_least_consumption(graph, scaled, goal)
    kept = {}
    heap = [(0, (source,), 0, start)]
    while heap:
        cost, nodes, used, node = heapq.heappop(heap)
        if node in kept and (cap is None or used >= kept[node]):
            continue
        if node == goal:
            return Path(nodes, integer_sum_to_float(cost, wden), integer_sum_to_float(used, cden))
        kept[node] = used
        for nxt, nxt_id, weight, consumption in succ.get(node, ()):
            total = used + consumption
            if cap is not None and total + need[nxt] > cap:
                continue
            if nxt in kept and (cap is None or total >= kept[nxt]):
                continue
            heapq.heappush(heap, (cost + weight, nodes + (nxt_id,), total, nxt))
    within = "" if tau is None else f" with consumption <= {tau}"
    raise NoFeasiblePath(f"no path from {source!r} to {target!r}{within}")


def outcome(search, graph, source, target, tau):
    """The Path a search returns, or its NoFeasiblePath message."""
    try:
        return search(graph, source, target, tau)
    except NoFeasiblePath as exc:
        return str(exc)


def shuffled_dag(rng, **choices):
    """random_dag's graph with its nodes and edges listed in shuffled order,
    so that Kahn's algorithm, not the listing, sets the topological rank."""
    g = random_dag(rng, **choices)
    nodes, edges = list(g.nodes), list(g.edges)
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return build_graph(nodes, edges)


def consumption_range(graph, source, target):
    """Least and largest exact consumption over the paths source -> target."""
    sums = [
        sum((Fraction(graph.edge(a, b).objective_cost) for a, b in zip(p.nodes, p.nodes[1:])), Fraction(0))
        for p in enumerate_paths(graph, source, target)
    ]
    return (min(sums), max(sums)) if sums else None


def taus_around(values):
    """For each exact value: its nearest float, the floats either side of
    that, a quarter below and above, and the whole numbers either side."""
    taus = set()
    for value in values:
        near = float(value)
        taus.update({near, math.nextafter(near, -math.inf), math.nextafter(near, math.inf)})
        taus.update({near - 0.25, near + 0.25, math.floor(value), math.ceil(value)})
    return sorted(tau for tau in taus if tau >= 0)


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

    @pytest.mark.parametrize(
        "tau", [-1.0, float("nan"), float("-inf"), pytest.param(10**400, id="10**400"), "2", True]
    )
    def test_bad_tau(self, five_node_graph, tau):
        with pytest.raises(InvalidQuery, match="tau must be finite and >= 0"):
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


class TestBoundsAndClosing:
    def test_shuffled_dags_match_reference_around_each_bound(self):
        # tau between, at, just below and just above each query's least and
        # largest consumption; 0.1 makes sums that no float holds exactly
        rng = random.Random(3101)
        kinds, kahn = set(), 0
        for _ in range(60):
            g = shuffled_dag(rng, objective_choices=[0.0, 0.1, 0.5, 1.0, 2.0])
            kahn += not isinstance(g.rank, range)
            for source in g.ids:
                for target in g.ids:
                    if source == target:
                        continue
                    bounds = consumption_range(g, source, target)
                    between = [float((3 * bounds[0] + bounds[1]) / 4), float(sum(bounds) / 2)] if bounds else []
                    for tau in [None] + between + taus_around(bounds or ()):
                        got = outcome(find_optimal_path, g, source, target, tau)
                        assert got == outcome(reference_search, g, source, target, tau)
                        slack = tau is None or (bounds is not None and tau >= bounds[1])
                        kinds.add((type(got).__name__, slack))
        # found and not found, each under a slack and a binding tau; a slack
        # tau misses only where there is no path at all
        assert kinds == {("Path", True), ("Path", False), ("str", True), ("str", False)}
        assert kahn > 30

    def test_equal_cost_ties_match_reference(self):
        rng = random.Random(3102)
        for _ in range(60):
            g = shuffled_dag(rng, weight_choices=[1.0], objective_choices=[0.0, 1.0])
            source, target = rng.sample(g.ids, 2)
            for tau in (None, 0, 1, 2.0, 3, 100):
                assert outcome(find_optimal_path, g, source, target, tau) == outcome(
                    reference_search, g, source, target, tau
                )

    def test_closing_keeps_a_dearer_label_that_consumes_less(self):
        # (a, b, d) reaches d first, at cost 2 using 1; (a, c, d) follows at
        # cost 3 using 0. From d, t costs 5 directly and 2 through e, which
        # uses 1. Under tau = 1 the first label must leave d open, since only
        # the second can afford e; under tau = 2 it closes d and wins.
        g = build_graph(
            [SkillNode(x, x) for x in "abcdet"],
            [
                DependencyEdge("a", "b", 1.0, 1.0),
                DependencyEdge("a", "c", 2.0, 0.0),
                DependencyEdge("b", "d", 1.0, 0.0),
                DependencyEdge("c", "d", 1.0, 0.0),
                DependencyEdge("d", "t", 5.0, 0.0),
                DependencyEdge("d", "e", 1.0, 1.0),
                DependencyEdge("e", "t", 1.0, 0.0),
            ],
        )
        want = {0: ("a", "c", "d", "t"), 1: ("a", "c", "d", "e", "t"), 2: ("a", "b", "d", "e", "t")}
        for tau, nodes in want.items():
            assert find_optimal_path(g, "a", "t", tau).nodes == nodes
            assert find_optimal_path(g, "a", "t", float(tau)) == reference_search(g, "a", "t", float(tau))

    def test_unreachable_source(self):
        g = build_graph(
            [SkillNode(x, x) for x in "abcd"],
            [DependencyEdge("a", "b", 1.0, 1.0), DependencyEdge("c", "d", 1.0, 1.0)],
        )
        # a has an edge, but none on to d; b has no out-edge at all
        for source in ("a", "b"):
            for tau in (None, 0.0, 5.0):
                with pytest.raises(NoFeasiblePath) as got:
                    find_optimal_path(g, source, "d", tau)
                assert str(got.value) == outcome(reference_search, g, source, "d", tau)

    def test_slack_tau_pushes_each_relevant_edge_at_most_once(self, monkeypatch):
        rng = random.Random(4025)
        g, arcs, ids = layered_dag(rng)
        source, target = ids[0][0], ids[-1][7]
        most = {source: 0}
        for a, b, _, c in arcs:  # listed layer by layer, so most[a] is final
            if a in most:
                most[b] = max(most.get(b, most[a] + c), most[a] + c)
        tau = float(most[target])
        pushes = []
        push = heapq.heappush
        monkeypatch.setattr(heapq, "heappush", lambda heap, item: (pushes.append(item), push(heap, item)))

        got = find_optimal_path(g, source, target, tau)
        closing = len(pushes)
        relevant = _edges_into(g, g.index[target])
        scaled, _, _ = _scaled(g, relevant)
        pushes.clear()
        reference_least_consumption(g, scaled, g.index[target])
        bound = len(pushes)
        pushes.clear()
        want = reference_search(g, source, target, tau)
        assert got == want == find_optimal_path(g, source, target)
        assert closing <= len(relevant) < len(pushes) - bound


class TestGraphWithACycle:
    def test_every_query_raises_the_witness_of_validate_dag(self):
        # only the unchecked constructor builds a cycle; x -> t avoids it,
        # yet every query on the graph refuses it, before any search
        g = SkillsGraph(
            [SkillNode(x, x) for x in "xabct"],
            [
                DependencyEdge("x", "t", 1.0, 1.0),
                DependencyEdge("x", "a", 1.0, 0.0),
                DependencyEdge("a", "b", 1.0, 0.0),
                DependencyEdge("b", "c", 1.0, 0.0),
                DependencyEdge("c", "a", 1.0, 0.0),
                DependencyEdge("c", "t", 1.0, 0.0),
            ],
        )
        with pytest.raises(CycleDetected) as want:
            validate_dag(g)
        assert want.value.cycle == ("a", "b", "c")
        assert str(want.value) == "graph contains a cycle: a -> b -> c"
        queries = [
            lambda: g.rank,
            lambda: enumerate_paths(g, "x", "t"),
            lambda: enumerate_paths(g, "a", "t"),
        ] + [
            lambda source=source, target=target, tau=tau: find_optimal_path(g, source, target, tau)
            for source, target in (("x", "t"), ("a", "t"), ("x", "x"))
            for tau in (None, 0.0, 1.0, 100.0)
        ]
        for query in queries:
            with pytest.raises(CycleDetected) as got:
                query()
            assert (str(got.value), got.value.cycle) == (str(want.value), want.value.cycle)


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
