"""Acceptance gate. One test per shipped guarantee; `pytest -v` gives one
pass/fail line each. Every numeric check here runs against an oracle computed
inside this file (enumeration, direct formulas, closed forms), never against
the implementation's own arithmetic.
"""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from skillsgraph import (
    DependencyEdge,
    FeedbackConfig,
    GridSpec,
    SkillNode,
    TreeParams,
    accuracy,
    allocate_fractional,
    build_graph,
    build_transition_matrix,
    entropy,
    feature_importance,
    find_optimal_path,
    fit_tree,
    generate_cohort,
    gini,
    grid_search_cv,
    information_gain,
    planted_profile,
    select_knapsack,
    stationary_distribution,
    summarize,
    update_weights,
    validate_dag,
    weighted_centrality,
)
from skillsgraph.cli import main
from skillsgraph.cohort import feature_columns
from skillsgraph.graph import load_graph
from skillsgraph.paths import enumerate_paths
from skillsgraph.prepare import PreparedDataset, PreprocessStats, preprocess, stratified_split

from conftest import demo_graph, random_dag

CASE_STUDY = Path(__file__).resolve().parents[1] / "scenarios" / "case_study"


def test_criterion_01_case_study_order_and_centrality():
    graph = load_graph(CASE_STUDY / "graph.json")
    assert validate_dag(graph) == ["v1", "v2", "v3", "v4", "v5"]

    got = weighted_centrality(graph)
    want = {"v1": 3 / 9, "v2": 3 / 9, "v3": 2 / 9, "v4": 1 / 9, "v5": 0.0}
    for node, share in want.items():
        assert got[node] == pytest.approx(share, abs=1e-12)

    rng = random.Random(101)
    for _ in range(100):
        weights = {pair: rng.uniform(0.05, 5.0) for pair in
                   [(e.src, e.dst) for e in graph.edges]}
        scores = weighted_centrality(demo_graph(weights=weights))
        assert math.fsum(scores.values()) == pytest.approx(1.0, abs=1e-12)


def test_criterion_02_knapsack_equals_subset_enumeration():
    rng = random.Random(202)
    for _ in range(200):
        n = rng.randint(1, 12)
        nodes = [
            SkillNode(
                f"n{i:02d}",
                f"item {i}",
                effectiveness=rng.randint(0, 60) / 4.0,
                cost=round(rng.uniform(0.01, 3.0), 2),
            )
            for i in range(n)
        ]
        graph = build_graph(nodes, [])
        budget = round(rng.uniform(0.0, sum(node.cost for node in nodes)), 2)

        cents = [round(node.cost * 100) for node in nodes]
        budget_cents = round(budget * 100)
        best = (Fraction(-1), 0, ())
        for mask in range(1 << n):
            picked = [i for i in range(n) if mask >> i & 1]
            if sum(cents[i] for i in picked) > budget_cents:
                continue
            value = sum((Fraction(nodes[i].effectiveness) for i in picked), Fraction(0))
            ids = tuple(nodes[i].id for i in picked)
            key = (value, -len(picked), tuple(-ord(c) for c in ",".join(ids)))
            if key > (best[0], -best[1], tuple(-ord(c) for c in ",".join(best[2]))):
                best = (value, len(picked), ids)

        selection = select_knapsack(graph, budget)
        assert selection.chosen == best[2]
        assert selection.objective == float(best[0])


def _grid_plans(capacity_cents, budget_cents):
    """All 0.01-grid feasible allocations as tuples of cents."""
    def rec(i, left):
        if i == len(capacity_cents):
            yield ()
            return
        top = left if capacity_cents[i] is None else min(capacity_cents[i], left)
        for take in range(top + 1):
            for rest in rec(i + 1, left - take):
                yield (take,) + rest
    return rec(0, budget_cents)


def test_criterion_03_fractional_grid_dominance_and_monotonicity():
    rng = random.Random(303)
    for _ in range(8):
        n = rng.randint(1, 5)
        nodes = [
            SkillNode(
                f"n{i}",
                f"item {i}",
                effectiveness=rng.randint(0, 8) / 2.0,
                cost=1.0,
                capacity=rng.choice([None, round(rng.uniform(0.01, 0.06), 2)]),
            )
            for i in range(n)
        ]
        graph = build_graph(nodes, [])
        budget = round(rng.uniform(0.01, 0.12), 2)
        plan = allocate_fractional(graph, budget)

        caps = [None if node.capacity is None else round(node.capacity * 100) for node in nodes]
        best_grid = max(
            math.fsum(nodes[i].effectiveness * cents / 100.0 for i, cents in enumerate(alloc))
            for alloc in _grid_plans(caps, round(budget * 100))
        )
        assert plan.objective >= best_grid - 1e-9

    for _ in range(100):
        n = rng.randint(1, 6)
        nodes = [
            SkillNode(
                f"n{i}",
                "",
                effectiveness=rng.uniform(0.0, 5.0),
                cost=1.0,
                capacity=rng.choice([None, rng.uniform(0.1, 4.0)]),
            )
            for i in range(n)
        ]
        graph = build_graph(nodes, [])
        low = rng.uniform(0.0, 5.0)
        high = low + rng.uniform(0.0, 5.0)
        assert (
            allocate_fractional(graph, high).objective
            >= allocate_fractional(graph, low).objective - 1e-12
        )


def test_criterion_04_paths_match_enumeration_and_fixture():
    graph = load_graph(CASE_STUDY / "graph.json")
    found = find_optimal_path(graph, "v1", "v5", tau=2.0)
    assert found.nodes == ("v1", "v2", "v5")
    assert found.cost == 2.0

    rng = random.Random(404)
    checked = 0
    while checked < 100:
        graph = random_dag(rng)
        ids = [node.id for node in graph.nodes]
        source, target = rng.choice(ids), rng.choice(ids)
        tau = rng.choice([None, 0.0, 1.0, 2.5, 6.0])
        candidates = enumerate_paths(graph, source, target)

        def exact(path):
            pairs = list(zip(path.nodes, path.nodes[1:]))
            cost = sum((Fraction(graph.edge(a, b).weight) for a, b in pairs), Fraction(0))
            spent = sum((Fraction(graph.edge(a, b).objective_cost) for a, b in pairs), Fraction(0))
            return cost, spent

        feasible = []
        for path in candidates:
            cost, spent = exact(path)
            if tau is None or spent <= Fraction(tau):
                feasible.append((cost, path.nodes, spent))
        if not feasible:
            continue
        checked += 1
        want_cost, want_nodes, want_spent = min(feasible)
        found = find_optimal_path(graph, source, target, tau)
        assert found.nodes == want_nodes
        assert found.cost == float(want_cost)
        assert found.objective == float(want_spent)


def test_criterion_05_markov_rows_stationary_and_hand_case():
    rng = np.random.default_rng(505)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        counts = rng.integers(0, 30, (k, k))
        counts[np.where(counts.sum(axis=1) == 0), 0] = 1
        states = [f"s{i}" for i in range(k)]
        tm = build_transition_matrix(states, counts.tolist())
        assert np.max(np.abs(tm.matrix.sum(axis=1) - 1.0)) <= 1e-12

        pi = stationary_distribution(tm)
        vec = np.array([pi[s] for s in states])
        assert np.max(np.abs(vec @ tm.matrix - vec)) <= 1e-9

    tm = build_transition_matrix(["novice", "proficient"], [[9, 1], [5, 5]])
    assert tm.matrix.tolist() == [[0.9, 0.1], [0.5, 0.5]]
    pi = stationary_distribution(tm)
    assert pi["novice"] == pytest.approx(5 / 6, abs=1e-9)
    assert pi["proficient"] == pytest.approx(1 / 6, abs=1e-9)


def _tiny_dataset(X, y):
    X = np.asarray(X, dtype=float)
    names = tuple(f"f{j}" for j in range(X.shape[1]))
    return PreparedDataset(
        X=X,
        y=np.asarray(y, dtype=int),
        feature_names=names,
        stats=PreprocessStats(columns=(), feature_names=names),
    )


def _planted_prepared(n, seed):
    columns, labels = feature_columns(generate_cohort(n, seed, planted_profile()))
    return preprocess(columns, labels)


def test_criterion_06_tree_formulas_structure_xor_and_planted_accuracy():
    rng = random.Random(606)
    for _ in range(1000):
        k = rng.randint(1, 5)
        counts = [rng.randint(0, 40) for _ in range(k)]
        if sum(counts) == 0:
            counts[0] = 1
        total = sum(counts)
        direct_h = -sum((c / total) * math.log2(c / total) for c in counts if c)
        direct_g = 1.0 - sum((c / total) ** 2 for c in counts)
        assert entropy(counts) == pytest.approx(direct_h, abs=1e-10)
        assert gini(counts) == pytest.approx(direct_g, abs=1e-10)

        left = [rng.randint(0, c) for c in counts]
        right = [c - l for c, l in zip(counts, left)]
        if sum(left) and sum(right):
            share = sum(left) / total
            direct_ig = direct_h - share * (
                -sum((c / sum(left)) * math.log2(c / sum(left)) for c in left if c)
            ) - (1 - share) * (
                -sum((c / sum(right)) * math.log2(c / sum(right)) for c in right if c)
            )
            assert information_gain(counts, [left, right]) == pytest.approx(direct_ig, abs=1e-10)

    np_rng = np.random.default_rng(616)
    for _ in range(10):
        n = int(np_rng.integers(10, 60))
        data = _tiny_dataset(np_rng.random((n, 3)).round(2), np_rng.integers(0, 2, n))
        params = TreeParams(
            max_depth=int(np_rng.integers(1, 6)),
            min_samples_leaf=int(np_rng.integers(1, 4)),
            criterion="entropy",
        )
        model = fit_tree(data, params)
        assert model.depth <= params.max_depth
        for node in model.nodes:
            if node.kind == "leaf":
                assert sum(node.class_counts) >= params.min_samples_leaf

    xor = _tiny_dataset([[0, 0], [0, 1], [1, 0], [1, 1]], [0, 1, 1, 0])
    model = fit_tree(xor, TreeParams(max_depth=2, min_samples_leaf=1, criterion="entropy"))
    assert accuracy(model, xor) == 1.0

    data = _planted_prepared(386, seed=42)
    result = grid_search_cv(
        data, GridSpec(tuple(range(3, 16)), tuple(range(1, 11))), folds=5, seed=42
    )
    assert result.test_accuracy >= 0.90
    # regression fixture: the exact winning config and score are pinned
    assert result.best_params == TreeParams(max_depth=3, min_samples_leaf=10, criterion="entropy")
    assert result.test_accuracy == 0.9310344827586207


def test_criterion_07_importance_normalization_and_planted_ranking():
    np_rng = np.random.default_rng(707)
    for _ in range(20):
        n = int(np_rng.integers(8, 50))
        data = _tiny_dataset(np_rng.random((n, 3)).round(2), np_rng.integers(0, 2, n))
        model = fit_tree(data, TreeParams(max_depth=5, min_samples_leaf=2, criterion="gini"))
        importances = feature_importance(model)
        assert all(v >= 0.0 for v in importances.values())
        total = sum(importances.values())
        assert total == 0.0 or total == pytest.approx(1.0, abs=1e-9)

    wins = 0
    for seed in range(10):
        data = _planted_prepared(800, seed)
        train, _ = stratified_split(data, 0.7, seed=seed)
        model = fit_tree(train, TreeParams(max_depth=10, min_samples_leaf=4, criterion="entropy"))
        by_source = {}
        for name, value in feature_importance(model).items():
            by_source[name.split("=")[0]] = by_source.get(name.split("=")[0], 0.0) + value
        noisiest = max(
            by_source.get(k, 0.0)
            for k in ("gender", "ethnicity", "region", "research_projects")
        )
        if by_source["mentoring_sessions"] > noisiest and by_source["education_level"] > noisiest:
            wins += 1
    assert wins >= 9


def test_criterion_08_cohort_calibration_at_10000():
    report = summarize(generate_cohort(10000, seed=1))
    education_targets = {
        "phd": 17 / 380,
        "masters": 229 / 380,
        "undergraduate": 122 / 380,
        "high_school": 12 / 380,
    }
    for level, target in education_targets.items():
        assert abs(report.proportions["education_level"][level] - target) <= 0.02
    ethnicity_targets = {
        "african_american": 0.3632,
        "hispanic": 0.2368,
        "asian": 0.2105,
        "other": 0.1895,
    }
    for group, target in ethnicity_targets.items():
        assert abs(report.proportions["ethnicity"][group] - target) <= 0.02
    assert abs(report.employment_rate - 0.8263) <= 0.02
    assert abs(report.engaged_employment_rate - 0.85) <= 0.03


def test_criterion_09_feedback_bounds_and_geometric_decay():
    from skillsgraph.feedback import MetricsReport

    rng = random.Random(909)
    config = FeedbackConfig(learning_rate=0.35, w_min=0.01, w_max=10.0, iterations=1)
    for _ in range(50):
        w0 = rng.uniform(0.01, 10.0)
        graph = build_graph(
            [SkillNode("a", "", 1.0, 1.0), SkillNode("b", "", 1.0, 1.0)],
            [DependencyEdge("a", "b", w0, 0.0)],
        )
        for _ in range(rng.randint(1, 8)):
            metric = rng.uniform(0.0, config.w_max)
            graph = update_weights(
                graph, MetricsReport(edge_metrics={("a", "b"): metric}, action_outcomes={}), config
            )
            assert config.w_min <= graph.edge("a", "b").weight <= config.w_max

    eta, w0, target = 0.3, 3.0, 0.5
    config = FeedbackConfig(learning_rate=eta, iterations=1)
    graph = build_graph(
        [SkillNode("a", "", 1.0, 1.0), SkillNode("b", "", 1.0, 1.0)],
        [DependencyEdge("a", "b", w0, 0.0)],
    )
    report = MetricsReport(edge_metrics={("a", "b"): target}, action_outcomes={})
    for k in range(1, 21):
        graph = update_weights(graph, report, config)
        want = target + (1 - eta) ** k * (w0 - target)
        assert graph.edge("a", "b").weight == pytest.approx(want, rel=1e-9)


def criterion_10_invocations(cohort_csv) -> list:
    return [
        ["validate", "--graph", str(CASE_STUDY / "graph.json")],
        ["centrality", "--graph", str(CASE_STUDY / "graph.json")],
        ["allocate", "--graph", str(CASE_STUDY / "graph.json"), "--budget", "10.0"],
        ["allocate", "--graph", str(CASE_STUDY / "graph.json"), "--budget", "9.0",
         "--mode", "select"],
        ["path", "--graph", str(CASE_STUDY / "graph.json"), "--from", "v1", "--to", "v5",
         "--tau", "2.0"],
        ["feedback", "--graph", str(CASE_STUDY / "graph.json"),
         "--metrics", str(CASE_STUDY / "metrics.json"), "--eta", "0.5", "--budget", "10.0"],
        ["markov", "--counts", str(CASE_STUDY / "transitions.csv"), "--iters", "3"],
        ["cohort", "gen", "--n", "60", "--seed", "5", "--out", str(cohort_csv)],
        ["cohort", "summarize", "--data", str(cohort_csv)],
    ]


def test_criterion_10_cli_byte_identical_reruns(capsys, tmp_path):
    cohort_csv = tmp_path / "cohort.csv"
    for argv in criterion_10_invocations(cohort_csv):
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], f"non-deterministic output for {argv}"

    reports = []
    for name in ("run_a", "run_b"):
        assert main(["run", str(CASE_STUDY / "scenario.json"), "--out", str(tmp_path / name)]) == 0
        capsys.readouterr()
        report = json.loads((tmp_path / name / "report.json").read_text())
        report.pop("timings")
        reports.append(report)
    assert reports[0] == reports[1]


def canonical(text: str) -> str:
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_criterion_10_cli_output_is_canonical(capsys, tmp_path):
    """stdout and every .json artifact are json.dumps(indent=2, sort_keys=True)
    plus a newline, run prints report.json byte for byte, and every
    history.jsonl line is json.dumps(sort_keys=True)."""
    cohort_csv = tmp_path / "cohort.csv"
    model_dir, run_dir = tmp_path / "model", tmp_path / "run"
    feedback_history = tmp_path / "feedback.jsonl"
    invocations = criterion_10_invocations(cohort_csv) + [
        ["train", "--data", str(cohort_csv), "--seed", "3", "--grid-depth", "2:4",
         "--grid-leaf", "1:2", "--folds", "3", "--out", str(model_dir)],
        ["predict", "--model", str(model_dir / "model.json"), "--data", str(cohort_csv)],
        ["feedback", "--graph", str(CASE_STUDY / "graph.json"),
         "--metrics", str(CASE_STUDY / "metrics.json"), "--eta", "0.5", "--budget", "10.0",
         "--out", str(feedback_history)],
        ["run", str(CASE_STUDY / "scenario.json"), "--out", str(run_dir)],
    ]
    for argv in invocations:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        assert out == canonical(out), f"stdout of {argv} is not canonical"
    assert out.encode("utf-8") == (run_dir / "report.json").read_bytes()

    artifacts = sorted(model_dir.glob("*.json")) + sorted(run_dir.glob("*.json"))
    assert {p.name for p in artifacts} >= {"model.json", "report.json", "final_graph.json", "paths.json"}
    for path in artifacts:
        text = path.read_text(encoding="utf-8")
        assert text == canonical(text), f"{path.name} is not canonical"

    # history lines are the compact form: json.dumps(line, sort_keys=True)
    for path in (feedback_history, run_dir / "history.jsonl"):
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        for line in lines:
            assert line == json.dumps(json.loads(line), sort_keys=True), f"{path.name}: {line[:60]}"
