"""The benchmark's oracles against brute force on small random instances.

    python3 -m pytest bench/test_oracles.py

Paths are checked against every path skillsgraph.enumerate_paths lists, the
knapsack DP against every subset, and the tree walk, preprocessing replay and
feedback replay against plain per-row or per-step versions.
"""

import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracles  # noqa: E402
import run  # noqa: E402
from skillsgraph import DependencyEdge, SkillNode, build_graph, enumerate_paths  # noqa: E402
from skillsgraph.prepare import CATEGORICAL, NUMERIC, RawColumn, apply_stats, preprocess, stats_to_dict  # noqa: E402


def random_dag(rng: random.Random):
    """Forward edges over v1..vn; weights and consumptions on coarse grids so
    that equal costs, and so lexicographic tie-breaks, are common."""
    n = rng.randint(2, 8)
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < 0.5:
                edges.append((f"v{i}", f"v{j}", rng.choice([0.25, 0.5, 1.0, 1.5]), rng.choice([0.0, 0.5, 1.0, 2.0])))
    return n, edges


def brute_best(graph, out, source, target, tau):
    best = None
    for p in enumerate_paths(graph, source, target):
        cost, used = oracles.path_sums(out, p.nodes)
        if tau is not None and used > Fraction(tau):
            continue
        if best is None or (cost, p.nodes) < best[:2]:
            best = (cost, p.nodes, used)
    return None if best is None else (best[0], best[2], best[1])


@pytest.mark.parametrize("seed", range(300))
def test_best_path_matches_enumeration(seed):
    rng = random.Random(seed)
    n, edges = random_dag(rng)
    graph = build_graph(
        [SkillNode(f"v{i}") for i in range(1, n + 1)],
        [DependencyEdge(a, b, w, c) for a, b, w, c in edges],
    )
    out = oracles.successors(edges)
    for i in range(1, n + 1):
        out.setdefault(f"v{i}", [])
    order = oracles.topological_order(out)
    source, target = "v1", f"v{n}"
    for tau in (None, 0.0, 0.5, 1.0, 2.5, 100.0):
        assert oracles.best_path(out, order, source, target, tau) == brute_best(graph, out, source, target, tau)
    paths = enumerate_paths(graph, source, target)
    least = oracles.min_consumption(out, order, source, target)
    assert least == (min(oracles.path_sums(out, p.nodes)[1] for p in paths) if paths else None)


@pytest.mark.parametrize("seed", range(200))
def test_knapsack_matches_subsets(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 9)
    costs = [rng.randint(0, 12) for _ in range(n)]
    values = [rng.randint(0, 20) for _ in range(n)]
    capacity = rng.randint(0, 30)
    best = max(
        sum(values[i] for i in subset)
        for r in range(n + 1)
        for subset in itertools.combinations(range(n), r)
        if sum(costs[i] for i in subset) <= capacity
    )
    assert oracles.knapsack_optimum(costs, values, capacity) == best


def test_exact_integers_and_cents():
    ints, den = oracles.exact_integers([0.25, 1.5, 3.0])
    assert (ints, den) == ([1, 6, 12], 4)
    assert oracles.cents(71.0) == 7100 and oracles.cents(0.29) == 29
    with pytest.raises(ValueError):
        oracles.cents(0.125)


def test_replay_feedback_clamps_each_step():
    rounds = [{("a", "b"): 3.0, ("b", "c"): 0.0}, {("a", "b"): 3.0}]
    final = oracles.replay_feedback({("a", "b"): 1.0, ("b", "c"): 0.02}, rounds, 0.5, 0.01, 2.5)
    # a->b: 1 -> 2 -> 2.5 (clamped from 2.5); b->c: 0.02 -> 0.01 (clamped from 0.01)
    assert final == {("a", "b"): 2.5, ("b", "c"): 0.01}


@pytest.mark.parametrize("seed", range(50))
def test_walk_tree_matches_row_walk(seed):
    rng = np.random.default_rng(seed)
    nodes = []

    def grow(depth):
        index = len(nodes)
        nodes.append(None)
        if depth < 4 and rng.random() < 0.7:
            feature, threshold = int(rng.integers(0, 3)), float(rng.random())
            left, right = grow(depth + 1), grow(depth + 1)
            nodes[index] = {"kind": "split", "feature": feature, "threshold": threshold,
                            "left": left, "right": right, "prediction": 0}
        else:
            nodes[index] = {"kind": "leaf", "feature": None, "threshold": None,
                            "left": None, "right": None, "prediction": int(rng.integers(0, 2))}
        return index

    grow(0)
    X = rng.random((200, 3))
    splits = [n for n in nodes if n["kind"] == "split"]
    if splits:
        X[:5, splits[0]["feature"]] = splits[0]["threshold"]  # a value on the threshold goes left

    def row_walk(x):
        node = nodes[0]
        while node["kind"] == "split":
            node = nodes[node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]]
        return node["prediction"]

    assert oracles.walk_tree(nodes, X).tolist() == [row_walk(x) for x in X]


def test_transform_rows_matches_fitted_preprocessing():
    rng = random.Random(7)
    n = 60
    columns = {
        "colour": [rng.choice(["red", "blue", None]) for _ in range(n)],
        "size": [None if rng.random() < 0.1 else rng.uniform(0, 100) for _ in range(n)],
    }
    raw = [
        RawColumn("colour", CATEGORICAL, tuple(columns["colour"])),
        RawColumn("size", NUMERIC, tuple(columns["size"])),
    ]
    fitted = preprocess(raw, [0] * n, fit_rows=range(n // 2)).stats
    new = {
        "colour": [rng.choice(["red", "blue", None]) for _ in range(n)],
        "size": [None if rng.random() < 0.1 else rng.uniform(-50, 150) for _ in range(n)],
    }
    expected = apply_stats(
        [RawColumn("colour", CATEGORICAL, tuple(new["colour"])), RawColumn("size", NUMERIC, tuple(new["size"]))],
        fitted,
    )
    assert np.array_equal(oracles.transform_rows(stats_to_dict(fitted), new), expected)


def test_best_config_tie_break():
    rows = [
        {"max_depth": 4, "min_samples_leaf": 2, "criterion": "gini", "mean_acc": 0.9},
        {"max_depth": 3, "min_samples_leaf": 1, "criterion": "gini", "mean_acc": 0.9},
        {"max_depth": 3, "min_samples_leaf": 2, "criterion": "gini", "mean_acc": 0.9},
        {"max_depth": 3, "min_samples_leaf": 2, "criterion": "entropy", "mean_acc": 0.9},
        {"max_depth": 5, "min_samples_leaf": 1, "criterion": "gini", "mean_acc": 0.8},
    ]
    assert oracles.best_config(rows) == rows[3]


@pytest.mark.parametrize("n", [40, 41, 57, 100, 250, 1000])
def test_tail_leaves_ten_ops_beyond(n):
    times = list(range(n))
    random.Random(n).shuffle(times)
    value = run.tail(times)
    assert sum(1 for t in times if t > value) >= 10
    # one whole percentile higher would leave fewer than ten beyond it
    percentile = math.floor(100 * (n - 10) / n)
    assert n - math.ceil((percentile + 1) * n / 100) < 10
