"""Plan scoring, weight updates, and the iterative re-optimization loop."""

import hashlib
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillsgraph import (
    DependencyEdge,
    FeedbackConfig,
    MetricsReport,
    SkillNode,
    build_graph,
    execute_plan,
    find_optimal_path,
    load_graph,
    run_feedback_cycle,
    update_weights,
)
from skillsgraph.allocate import AllocationPlan, allocate_fractional, select_knapsack
from skillsgraph.errors import (
    EmptyPlan,
    MetricOutOfRange,
    MetricsExhausted,
    MetricsFormatError,
    MissingOutcome,
    ToolError,
    UnknownEdge,
)
from skillsgraph.feedback import (
    CycleHistory,
    CycleSnapshot,
    history_digest,
    load_metrics,
    metrics_from_dict,
    save_history,
    snapshot_to_dict,
)
from skillsgraph.graph import SkillsGraph, graph_to_dict, weighted_centrality

CASE_STUDY = Path(__file__).resolve().parents[1] / "scenarios" / "case_study"


def chain_graph(weights=(1.0, 1.0)):
    nodes = [SkillNode(f"n{i}", f"N{i}", 1.0, 1.0) for i in range(len(weights) + 1)]
    edges = [DependencyEdge(f"n{i}", f"n{i+1}", w) for i, w in enumerate(weights)]
    return build_graph(nodes, edges)


class TestExecutePlan:
    def test_ratio(self):
        metrics = MetricsReport(action_outcomes={"a": 0.9, "b": 0.8, "c": 0.2, "d": 0.7})
        report = execute_plan(["a", "b", "c", "d"], metrics)
        assert report.success_rate == 0.75

    def test_all_above_threshold(self):
        metrics = MetricsReport(action_outcomes={"a": 0.6, "b": 0.9})
        assert execute_plan(["a", "b"], metrics).success_rate == 1.0

    def test_empty_plan(self):
        with pytest.raises(EmptyPlan):
            execute_plan([], MetricsReport())

    def test_missing_outcome(self):
        with pytest.raises(MissingOutcome):
            execute_plan(["a", "b"], MetricsReport(action_outcomes={"a": 1.0}))

    def test_order_invariant(self):
        metrics = MetricsReport(action_outcomes={"a": 0.9, "b": 0.1, "c": 0.5})
        forward = execute_plan(["a", "b", "c"], metrics).success_rate
        backward = execute_plan(["c", "b", "a"], metrics).success_rate
        assert forward == backward

    def test_custom_threshold(self):
        metrics = MetricsReport(action_outcomes={"a": 0.9, "b": 0.8})
        assert execute_plan(["a", "b"], metrics, threshold=0.85).success_rate == 0.5


class TestUpdateWeights:
    def config(self, eta=0.5, **kw):
        return FeedbackConfig(learning_rate=eta, **kw)

    def test_declared_rule(self):
        g = chain_graph([1.0])
        out = update_weights(g, MetricsReport(edge_metrics={("n0", "n1"): 2.0}), self.config())
        assert out.edge("n0", "n1").weight == 1.5

    def test_fixed_point(self):
        g = chain_graph([0.7])
        out = update_weights(g, MetricsReport(edge_metrics={("n0", "n1"): 0.7}), self.config())
        assert out.edge("n0", "n1").weight == 0.7

    def test_clamp_to_floor(self):
        g = chain_graph([0.02])
        out = update_weights(
            g, MetricsReport(edge_metrics={("n0", "n1"): 0.0}), self.config(eta=1.0)
        )
        assert out.edge("n0", "n1").weight == 0.01

    def test_unmetered_edges_unchanged(self):
        g = chain_graph([1.0, 3.0])
        out = update_weights(g, MetricsReport(edge_metrics={("n0", "n1"): 0.5}), self.config())
        assert out.edge("n1", "n2").weight == 3.0

    def test_input_graph_untouched(self):
        g = chain_graph([1.0])
        before = g.edge("n0", "n1").weight
        update_weights(g, MetricsReport(edge_metrics={("n0", "n1"): 0.2}), self.config())
        assert g.edge("n0", "n1").weight == before

    def test_unknown_edge(self):
        g = chain_graph([1.0])
        with pytest.raises(UnknownEdge):
            update_weights(g, MetricsReport(edge_metrics={("n1", "n0"): 0.5}), self.config())

    def test_metric_above_w_max_rejected(self):
        g = chain_graph([1.0])
        with pytest.raises(MetricOutOfRange):
            update_weights(g, MetricsReport(edge_metrics={("n0", "n1"): 10.5}), self.config())

    def test_negative_metric_rejected(self):
        g = chain_graph([1.0])
        with pytest.raises(MetricOutOfRange):
            update_weights(g, MetricsReport(edge_metrics={("n0", "n1"): -0.1}), self.config())

    @given(
        st.floats(min_value=0.05, max_value=9.0),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_weights_stay_in_bounds(self, w0, m, eta):
        g = chain_graph([w0])
        config = FeedbackConfig(learning_rate=eta)
        for _ in range(5):
            g = update_weights(g, MetricsReport(edge_metrics={("n0", "n1"): m}), config)
            assert config.w_min <= g.edge("n0", "n1").weight <= config.w_max


class TestConfigValidation:
    @pytest.mark.parametrize("eta", [0.0, -0.5, 1.5])
    def test_bad_learning_rate(self, eta):
        with pytest.raises(MetricOutOfRange):
            FeedbackConfig(learning_rate=eta)

    def test_bad_bounds(self):
        with pytest.raises(MetricOutOfRange):
            FeedbackConfig(learning_rate=0.5, w_min=2.0, w_max=1.0)

    def test_negative_iterations(self):
        with pytest.raises(MetricOutOfRange):
            FeedbackConfig(learning_rate=0.5, iterations=-1)


class TestFeedbackCycle:
    def test_geometric_decay_over_20_iterations(self):
        w0, m, eta = 3.0, 0.5, 0.3
        g = chain_graph([w0])
        config = FeedbackConfig(learning_rate=eta, iterations=20)
        stream = [MetricsReport(edge_metrics={("n0", "n1"): m})] * 20
        history = run_feedback_cycle(g, stream, config, budget=1.0)
        initial_gap = abs(w0 - m)
        for k, snap in enumerate(history.snapshots):
            want = (1 - eta) ** k * initial_gap
            got = abs(snap.weights[("n0", "n1")] - m)
            assert got == pytest.approx(want, rel=1e-9)

    def test_zero_iterations_initial_snapshot_only(self):
        g = chain_graph([2.0])
        config = FeedbackConfig(learning_rate=0.5, iterations=0)
        history = run_feedback_cycle(g, [], config, budget=1.0)
        assert len(history.snapshots) == 1
        assert history.snapshots[0].weights == {("n0", "n1"): 2.0}
        assert history.final_graph == g

    @pytest.mark.parametrize("iterations", [1, 3, 7])
    def test_history_length(self, iterations):
        g = chain_graph([1.0])
        config = FeedbackConfig(learning_rate=0.5, iterations=iterations)
        stream = [MetricsReport(edge_metrics={("n0", "n1"): 0.8})] * iterations
        history = run_feedback_cycle(g, stream, config, budget=1.0)
        assert len(history.snapshots) == iterations + 1
        assert [s.iteration for s in history.snapshots] == list(range(iterations + 1))

    def test_dry_stream(self):
        g = chain_graph([1.0])
        config = FeedbackConfig(learning_rate=0.5, iterations=3)
        with pytest.raises(MetricsExhausted):
            run_feedback_cycle(g, [MetricsReport()], config, budget=1.0)

    def test_snapshots_carry_reoptimized_state(self):
        g = build_graph(
            [SkillNode("a", "A", 2.0, 1.0, capacity=1.0), SkillNode("b", "B", 1.0, 1.0, capacity=1.0)],
            [DependencyEdge("a", "b", 1.0)],
        )
        config = FeedbackConfig(learning_rate=1.0, iterations=1)
        stream = [MetricsReport(edge_metrics={("a", "b"): 4.0})]
        history = run_feedback_cycle(g, stream, config, budget=1.5)
        first, last = history.snapshots
        assert first.centrality == {"a": 1.0, "b": 0.0}
        assert last.weights[("a", "b")] == 4.0
        assert last.allocation.allocation == {"a": 1.0, "b": 0.5}
        assert last.allocation.objective == 2.5


class TestMetricsFiles:
    def test_round_trip(self, tmp_path):
        payload = {
            "iterations": [
                {"edge_metrics": {"n0->n1": 0.8}, "action_outcomes": {"n0": 0.9}},
                {"edge_metrics": {"n0->n1": 2.5}},
            ]
        }
        p = tmp_path / "m.json"
        p.write_text(json.dumps(payload))
        reports = load_metrics(p)
        assert len(reports) == 2
        assert reports[0].edge_metrics == {("n0", "n1"): 0.8}
        assert reports[0].action_outcomes == {"n0": 0.9}
        assert reports[1].edge_metrics == {("n0", "n1"): 2.5}

    @pytest.mark.parametrize(
        "payload",
        [
            {"iterations": [{"edge_metrics": {"n0n1": 0.8}}]},
            {"iterations": [{"edge_metrics": {"n0->n1": -0.2}}]},
            {"iterations": [{"edge_metrics": {"n0->n1": "high"}}]},
            {"iterations": [{"action_outcomes": {"a": 1.5}}]},
            {"iterations": [{"oops": {}}]},
            {"rounds": []},
            [],
        ],
    )
    def test_malformed_rejected(self, payload):
        with pytest.raises(MetricsFormatError):
            metrics_from_dict(payload)

    def test_history_jsonl(self, tmp_path):
        g = chain_graph([1.0])
        config = FeedbackConfig(learning_rate=0.5, iterations=2)
        stream = [MetricsReport(edge_metrics={("n0", "n1"): 0.5})] * 2
        history = run_feedback_cycle(g, stream, config, budget=1.0)
        out = tmp_path / "history.jsonl"
        save_history(history, out)
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        parsed = [json.loads(line) for line in lines]
        assert [row["iteration"] for row in parsed] == [0, 1, 2]
        assert parsed[1]["weights"] == {"n0->n1": 0.75}
        assert parsed[0] == snapshot_to_dict(history.snapshots[0])


class TestIntegerBounds:
    def test_clamped_weights_are_floats(self):
        # eta 1 moves each weight onto its metric; 0.5 is clamped to w_min = 1
        g = chain_graph([2.0, 3.0])
        config = FeedbackConfig(learning_rate=1, w_min=1, w_max=10, iterations=5)
        stream = [MetricsReport(edge_metrics={("n0", "n1"): 0.5, ("n1", "n2"): 10})] * 5
        history = run_feedback_cycle(g, stream, config, budget=1.0)
        assert (config.learning_rate, config.w_min, config.w_max) == (1.0, 1.0, 10.0)
        assert all(type(v) is float for v in (config.learning_rate, config.w_min, config.w_max))
        for snap in history.snapshots[1:]:
            assert snap.weights == {("n0", "n1"): 1.0, ("n1", "n2"): 10.0}
            assert all(type(w) is float for w in snap.weights.values())
        assert all(type(e.weight) is float for e in history.final_graph.edges)
        assert '"n0->n1": 1.0' in history.snapshots[-1].line


# -- the per-round graph rebuild, kept as the oracle of the array rounds --------


def reference_update_weights(graph, metrics, config):
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
    return SkillsGraph(graph.nodes, new_edges)


def reference_snapshot(iteration, graph, budget):
    return CycleSnapshot(
        iteration=iteration,
        weights={(e.src, e.dst): e.weight for e in graph.edges},
        centrality=weighted_centrality(graph),
        allocation=allocate_fractional(graph, budget),
    )


def reference_run_feedback_cycle(graph, metrics_stream, config, budget):
    snapshots = [reference_snapshot(0, graph, budget)]
    stream = iter(metrics_stream)
    current = graph
    for k in range(1, config.iterations + 1):
        try:
            metrics = next(stream)
        except StopIteration:
            raise MetricsExhausted(f"iteration {k} of {config.iterations} has no metrics report") from None
        current = reference_update_weights(current, metrics, config)
        snapshots.append(reference_snapshot(k, current, budget))
    return CycleHistory(snapshots=tuple(snapshots), final_graph=current)


def reference_history_bytes(history) -> bytes:
    lines = [json.dumps(snapshot_to_dict(snap), sort_keys=True) + "\n" for snap in history.snapshots]
    return "".join(lines).encode("utf-8")


def random_feedback_case(seed):
    """A small random DAG, config, budget and metrics stream. Weights start on
    both sides of [w_min, w_max] and metrics include 0, w_min / 2 and w_max,
    so rounds clamp at both bounds. Some cases plant an unknown edge, an
    out-of-range metric or both in one round, or end the stream early."""
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    nodes = [
        SkillNode(f"n{i}", "", rng.choice([0.0, 0.5, 1.0, 2.25]), rng.choice([0.5, 1.0]),
                  rng.choice([None, 0.5, 1.0, 2.5]))
        for i in range(n)
    ]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    w_min = rng.choice([0.01, 0.2, 1.0, rng.uniform(0.001, 2.0)])
    w_max = w_min + rng.choice([0.0, 0.5, 3.0, 10.0, rng.uniform(0.0, 20.0)])
    config = FeedbackConfig(
        learning_rate=rng.choice([1.0, 0.5, 0.3, rng.uniform(1e-3, 1.0)]),
        w_min=w_min,
        w_max=w_max,
        iterations=rng.choice([0, 1, 2, 3, 5, 8]),
    )
    edges = [
        DependencyEdge(f"n{i}", f"n{j}",
                       rng.choice([1e-3, w_min, w_max, 3 * w_max, rng.uniform(1e-3, 2 * w_max)]),
                       rng.choice([0.0, 1.0]))
        for i, j in rng.sample(pairs, 0 if rng.random() < 0.05 else rng.randint(1, len(pairs)))
    ]
    graph = build_graph(nodes, edges)

    keys = [(e.src, e.dst) for e in edges]
    stream = []
    for _ in range(config.iterations):
        observed = rng.sample(keys, rng.randint(0, len(keys)))
        items = [(k, rng.choice([0.0, w_min / 2, w_max, rng.uniform(0.0, w_max)])) for k in observed]
        stream.append(items)
    if stream and rng.random() < 0.3:
        items = stream[rng.randrange(len(stream))]
        faults = rng.sample(
            [(("n0", "zz"), 0.5), (("n1", "n0"), 0.5), (keys[0] if keys else ("a", "b"), -0.25),
             (("n0", "n1"), w_max * 1.5 + 1), (("x", "y"), math.nan)],
            rng.randint(1, 2),
        )
        for fault in faults:
            items.insert(rng.randint(0, len(items)), fault)
    reports = [MetricsReport(edge_metrics=dict(items)) for items in stream]
    if reports and rng.random() < 0.15:
        reports = reports[: rng.randrange(len(reports))]
    budget = -1.0 if rng.random() < 0.05 else rng.choice([0.0, 1.0, 2.5, 100.0])
    return graph, reports, config, budget


def outcome(fn, *args):
    try:
        return fn(*args)
    except ToolError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(200))
def test_cycle_matches_per_round_rebuild(seed, tmp_path):
    graph, reports, config, budget = random_feedback_case(seed)
    got = outcome(run_feedback_cycle, graph, reports, config, budget)
    want = outcome(reference_run_feedback_cycle, graph, reports, config, budget)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.snapshots == want.snapshots
    assert got.final_graph == want.final_graph
    assert [e.weight for e in got.final_graph.edges] == [e.weight for e in want.final_graph.edges]
    save_history(got, tmp_path / "history.jsonl")
    assert (tmp_path / "history.jsonl").read_bytes() == reference_history_bytes(want)


def test_oracle_cases_reach_every_branch():
    """The seeded cases above clamp at both bounds and hit every error."""
    seen = set()
    for seed in range(200):
        graph, reports, config, budget = random_feedback_case(seed)
        result = outcome(reference_run_feedback_cycle, graph, reports, config, budget)
        if isinstance(result, tuple):
            seen.add(result[0].__name__)
            continue
        seen.add("ok")
        if config.iterations == 0:
            seen.add("zero iterations")
        if any(not r.edge_metrics for r in reports[: config.iterations]):
            seen.add("empty round")
        for snap in result.snapshots[1:]:
            seen.update(
                "clamp " + ("w_min" if w == config.w_min else "w_max")
                for w in snap.weights.values() if w in (config.w_min, config.w_max)
            )
    assert seen >= {
        "ok", "zero iterations", "empty round", "clamp w_min", "clamp w_max",
        "UnknownEdge", "MetricOutOfRange", "MetricsExhausted", "EmptyGraph", "NegativeBudget",
    }


@pytest.mark.parametrize("seed", range(40))
def test_update_weights_matches_reference(seed):
    graph, reports, config, _ = random_feedback_case(seed)
    current = graph
    for report in reports:
        got = outcome(update_weights, current, report, config)
        want = outcome(reference_update_weights, current, report, config)
        assert got == want
        if isinstance(want, tuple):
            break
        assert [e.weight for e in got.edges] == [e.weight for e in want.edges]
        current = want


def test_updated_graph_text_matches_reference():
    """== cannot tell an int weight from the equal float; the JSON text of
    the updated graph can. Every other edge starts with an int weight, and a
    weight a round does not observe keeps its type."""
    kept_ints = 0
    for seed in range(60):
        graph, reports, config, _ = random_feedback_case(seed)
        graph = with_int_weights(graph)
        for report in reports:
            got = outcome(update_weights, graph, report, config)
            want = outcome(reference_update_weights, graph, report, config)
            if isinstance(want, tuple):
                assert got == want
                continue
            assert json.dumps(graph_to_dict(got)) == json.dumps(graph_to_dict(want))
            kept_ints += int in set(map(type, got.weights))
    assert kept_ints > 0


def test_graph_consumers_build_no_view():
    """Allocation, path search, the feedback loop and the JSON writer read
    the graph's columns: none builds the nodes or edges view of its input,
    of update_weights' graph or of the cycle's final graph."""
    graph = load_graph(CASE_STUDY / "graph.json")
    reports = load_metrics(CASE_STUDY / "metrics.json")
    select_knapsack(graph, 9.0)
    allocate_fractional(graph, 10.0)
    find_optimal_path(graph, "v1", "v5", tau=2.0)
    updated = update_weights(graph, reports[0], FeedbackConfig(0.5))
    final = run_feedback_cycle(graph, reports, FeedbackConfig(0.5, iterations=2), 10.0).final_graph
    assert final is not graph and updated is not graph
    for g in (graph, updated, final):
        graph_to_dict(g)
    for g in (graph, updated, final):
        assert "nodes" not in vars(g) and "edges" not in vars(g)


# -- snapshot texts: the cycle's layout against each snapshot's own dict ------

# ids whose sorted order is not their node order ("v10" < "v2"), that json
# escapes, or that hold one half of "->"
ODD_IDS = [
    "v10", "v2", "v1", 'say "hi"', "back\\slash", "tab\tnul\x00\x1f", "Zoë", "学生", "😀",
    "end-", ">start", "",
]


def relabel(graph, reports, names):
    """The graph and metrics with node ids renamed; unknown ids stay."""
    def rename(nid):
        return names.get(nid, nid)

    nodes = [SkillNode(rename(n.id), n.label, n.effectiveness, n.cost, n.capacity) for n in graph.nodes]
    edges = [DependencyEdge(rename(e.src), rename(e.dst), e.weight, e.objective_cost) for e in graph.edges]
    reports = [
        MetricsReport(edge_metrics={(rename(a), rename(b)): v for (a, b), v in r.edge_metrics.items()})
        for r in reports
    ]
    return build_graph(nodes, edges), reports


def assert_texts_match_dicts(history, path):
    for snap in history.snapshots:
        as_dict = snapshot_to_dict(snap)
        assert snap.line == json.dumps(as_dict, sort_keys=True)
    save_history(history, path)
    assert path.read_bytes() == reference_history_bytes(history)
    assert history_digest(history) == hashlib.sha256(path.read_bytes()).hexdigest()


def with_int_weights(graph):
    """The graph with every other edge's weight rounded up to an int, which
    snapshot 0 writes as an int and a later snapshot as a float."""
    edges = [
        DependencyEdge(e.src, e.dst, math.ceil(e.weight) if i % 2 == 0 else e.weight, e.objective_cost)
        for i, e in enumerate(graph.edges)
    ]
    return build_graph(graph.nodes, edges)


@pytest.mark.parametrize("variant", ["plain_ids", "odd_ids", "int_weights"])
@pytest.mark.parametrize("seed", range(200))
def test_snapshot_texts_match_their_dicts(seed, variant, tmp_path):
    graph, reports, config, budget = random_feedback_case(seed)
    if variant == "odd_ids":
        names = dict(zip(graph.ids, random.Random(seed).sample(ODD_IDS, len(graph.nodes))))
        graph, reports = relabel(graph, reports, names)
    elif variant == "int_weights":
        graph = with_int_weights(graph)
    history = outcome(run_feedback_cycle, graph, reports, config, budget)
    if not isinstance(history, tuple):
        assert_texts_match_dicts(history, tmp_path / "history.jsonl")


def test_int_weights_keep_their_text_until_observed(tmp_path):
    """Snapshot 0 holds the graph's own int weights; from round 1 on every
    weight comes from the float array, observed or not."""
    graph = build_graph(
        [SkillNode("a", "", 1.0, 1.0), SkillNode("b", "", 1.0, 1.0), SkillNode("c", "", 1.0, 1.0)],
        [DependencyEdge("a", "b", 2), DependencyEdge("b", "c", 3)],
    )
    stream = [MetricsReport(edge_metrics={("b", "c"): 1.0})]
    history = run_feedback_cycle(graph, stream, FeedbackConfig(0.5, iterations=1), 1.0)
    assert_texts_match_dicts(history, tmp_path / "history.jsonl")
    first, second = history.snapshots
    assert '"weights": {"a->b": 2, "b->c": 3}' in first.line
    assert '"weights": {"a->b": 2.0, "b->c": 2.0}' in second.line


def test_repeated_edge_keys_encode_their_dicts(tmp_path):
    """A graph built without build_graph can give two edges one "src->dst";
    its snapshots still read as their dicts, which keep one of the two."""
    nodes = [SkillNode(nid, "", 1.0, 1.0) for nid in ("a->b", "c", "a", "b->c")]
    graph = SkillsGraph(nodes, [DependencyEdge("a->b", "c", 1.0), DependencyEdge("a", "b->c", 2.0)])
    stream = [MetricsReport(edge_metrics={("a->b", "c"): 4.0})]
    history = run_feedback_cycle(graph, stream, FeedbackConfig(0.5, iterations=1), 1.0)
    assert_texts_match_dicts(history, tmp_path / "history.jsonl")
    assert all(snap.line.count('"a->b->c"') == 1 for snap in history.snapshots)


def test_snapshot_texts_of_a_long_cycle(tmp_path):
    """v1..v12 in node order, so sorted keys interleave (v1, v10, v11, v12,
    v2, ...); each round observes a different third of the edges."""
    nodes = [SkillNode(f"v{i}", "", 1.0 + i % 3, 1.0, None if i % 2 else 1.5) for i in range(1, 13)]
    edges = [DependencyEdge(f"v{i}", f"v{j}", 0.5 + (i * j) % 7) for i in range(1, 13) for j in range(i + 1, 13)]
    graph = build_graph(nodes, edges)
    rng = random.Random(7)
    keys = [(e.src, e.dst) for e in edges]
    stream = [
        MetricsReport(edge_metrics={k: rng.choice([0.0, 10.0, rng.uniform(0, 10)]) for k in keys[r % 3 :: 3]})
        for r in range(30)
    ]
    config = FeedbackConfig(0.4, iterations=30)
    history = run_feedback_cycle(graph, stream, config, budget=4.0)
    assert history.snapshots == reference_run_feedback_cycle(graph, stream, config, 4.0).snapshots
    assert_texts_match_dicts(history, tmp_path / "history.jsonl")


def test_hand_built_snapshots_encode_their_dicts(tmp_path):
    plan = AllocationPlan(allocation={"v2": 1, "v10": 0.5, "é": math.inf}, objective=2, budget=1.5)
    snapshots = (
        CycleSnapshot(0, {("v2", "v10"): 1, ("a", 'q"'): 0.5}, {"v2": math.nan, "v10": 0.25}, plan),
        CycleSnapshot(4, {}, {}, plan),
    )
    history = CycleHistory(snapshots=snapshots, final_graph=chain_graph())
    assert_texts_match_dicts(history, tmp_path / "history.jsonl")
    assert '"v2": NaN' in snapshots[0].line
    assert snapshots[1].line.endswith('"weights": {}}')


# -- metrics files: the bulk round check against the per-metric loop ----------


def reference_metrics_from_dict(data):
    """The one-metric-at-a-time loader, kept as the oracle of the bulk check."""
    def parse_key(text):
        parts = text.split("->")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise MetricsFormatError(f"bad edge key {text!r}, expected 'src->dst'")
        return (parts[0], parts[1])

    def number(value, what):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise MetricsFormatError(f"{what} must be a number, got {value!r}")

    def unit(value, what):
        number(value, what)
        if not (0.0 <= value <= 1.0) or not math.isfinite(value):
            raise MetricsFormatError(f"{what} must be in [0, 1], got {value!r}")
        return float(value)

    def nonnegative(value, what):
        number(value, what)
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite or value < 0.0:
            raise MetricsFormatError(f"{what} must be finite and >= 0, got {value!r}")
        return float(value)

    if not isinstance(data, dict) or "iterations" not in data:
        raise MetricsFormatError("metrics file must be an object with an 'iterations' array")
    rounds = data["iterations"]
    if not isinstance(rounds, list):
        raise MetricsFormatError("'iterations' must be an array")
    reports = []
    for i, raw in enumerate(rounds):
        if not isinstance(raw, dict):
            raise MetricsFormatError(f"iterations[{i}] must be an object")
        unknown = set(raw) - {"edge_metrics", "action_outcomes"}
        if unknown:
            raise MetricsFormatError(f"iterations[{i}]: unknown keys {sorted(unknown)}")
        for key in ("edge_metrics", "action_outcomes"):
            if not isinstance(raw.get(key, {}), dict):
                raise MetricsFormatError(f"iterations[{i}].{key} must be an object")
        edge_metrics = {
            parse_key(k): nonnegative(v, f"iterations[{i}].edge_metrics[{k!r}]")
            for k, v in raw.get("edge_metrics", {}).items()
        }
        outcomes = {
            k: unit(v, f"iterations[{i}].action_outcomes[{k!r}]")
            for k, v in raw.get("action_outcomes", {}).items()
        }
        reports.append(MetricsReport(edge_metrics=edge_metrics, action_outcomes=outcomes))
    return reports


BAD_KEYS = ["ab", "a->b->c", "->b", "a->", "->", "", "a-> ->b"]
BAD_VALUES = [True, False, "0.5", None, [1.0], -0.5, -1, math.nan, math.inf, -math.inf, 10**400, -(10**400)]


def random_metrics_text(seed) -> str:
    """A metrics file of plain rounds (ints, floats, -0.0, ids with one half
    of "->"), with 0-3 bad keys or values planted anywhere in it."""
    rng = random.Random(seed)
    ids = ["v1", "v2", "v10", "a-", ">b", "Zoë"]
    rounds = []
    for _ in range(rng.randint(0, 4)):
        pairs = rng.sample([(a, b) for a in ids for b in ids if a != b], rng.randint(0, 12))
        metrics = {
            f"{a}->{b}": rng.choice([0, 3, 2**60 + 1, 0.0, -0.0, 0.25, rng.uniform(0, 20), 1e300])
            for a, b in pairs
        }
        rounds.append({"edge_metrics": metrics, "action_outcomes": {"v1": rng.choice([0, 0.5, 1])}})
    for _ in range(rng.randint(0, 3) if rounds else 0):
        target = rng.choice(rounds)
        items = list(target["edge_metrics"].items())
        if rng.random() < 0.4:
            bad = (rng.choice(BAD_KEYS), 1.0)
        else:
            bad = (f"v1->x{rng.random()}", rng.choice(BAD_VALUES))
        items.insert(rng.randint(0, len(items)), bad)
        target["edge_metrics"] = dict(items)
    return json.dumps({"iterations": rounds})


def loaded(fn, arg):
    try:
        return repr(fn(arg))  # repr shows key order, value types and -0.0
    except ToolError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(300))
def test_metrics_bulk_check_matches_per_metric_loop(seed, tmp_path):
    text = random_metrics_text(seed)
    path = tmp_path / "metrics.json"
    path.write_text(text)
    assert loaded(load_metrics, path) == loaded(reference_metrics_from_dict, json.loads(text))


def test_metrics_cases_reach_every_branch():
    seen = set()
    for seed in range(300):
        result = loaded(reference_metrics_from_dict, json.loads(random_metrics_text(seed)))
        seen.add("ok" if isinstance(result, str) else result[1].split(" must ")[-1].split(",")[0][:20])
    assert {"ok", "be a number", "be finite and >= 0"} <= seen
    assert any(s.startswith("bad edge key") for s in seen)


def test_metrics_error_names_the_first_bad_item():
    # a bad value before a bad key, in one round: the value is reported
    data = {"iterations": [{"edge_metrics": {"a->b": 1.0, "c->d": True, "ab": 1.0}}]}
    with pytest.raises(MetricsFormatError, match=r"edge_metrics\['c->d'\] must be a number"):
        metrics_from_dict(data)
    data = {"iterations": [{"edge_metrics": {"a->b": 1, "x": 2.0, "c->d": -1.0}}]}
    with pytest.raises(MetricsFormatError, match="bad edge key 'x'"):
        metrics_from_dict(data)
