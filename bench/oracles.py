"""Independent reference answers the benchmark checks the program against.

None of these functions calls into skillsgraph. They work on plain data read
from the generated files and follow the method's definitions directly: exact
rational sums, dynamic programs in topological order, the weight-update
formula, and a walk of the saved tree. bench/test_oracles.py holds them to
brute force on small random instances.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

import numpy as np

# -- graphs -------------------------------------------------------------------
#
# A graph here is a list of edge tuples (src, dst, weight, consumption) with
# float weights and consumptions, as read from the graph JSON.


def successors(edges) -> dict:
    out: dict = {}
    for src, dst, weight, consumption in edges:
        out.setdefault(src, []).append((dst, Fraction(weight), Fraction(consumption)))
        out.setdefault(dst, [])
    return out


def topological_order(out: dict) -> list:
    """Kahn's algorithm over the successor map; any valid order will do."""
    indegree = {node: 0 for node in out}
    for arcs in out.values():
        for dst, _, _ in arcs:
            indegree[dst] += 1
    queue = deque(node for node, d in indegree.items() if d == 0)
    order = []
    while queue:
        node = queue.popleft()
        order.append(node)
        for dst, _, _ in out[node]:
            indegree[dst] -= 1
            if indegree[dst] == 0:
                queue.append(dst)
    if len(order) != len(out):
        raise ValueError("graph has a cycle")
    return order


def reachable_from(out: dict, source) -> set:
    seen, stack = {source}, [source]
    while stack:
        for dst, _, _ in out[stack.pop()]:
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return seen


def reaching(out: dict, target) -> set:
    """Nodes with a path to target, target included."""
    back: dict = {node: [] for node in out}
    for node, arcs in out.items():
        for dst, _, _ in arcs:
            back[dst].append(node)
    seen, stack = {target}, [target]
    while stack:
        for src in back[stack.pop()]:
            if src not in seen:
                seen.add(src)
                stack.append(src)
    return seen


def best_path(out: dict, order: list, source, target, tau=None):
    """Cheapest source-target path, consumption capped at tau when given.

    Returns (cost, consumption, nodes) with exact Fraction sums, or None when
    no path is feasible. A DP over (node, exact consumption) in topological
    order keeps, per state, the least (cost, node tuple); ties on cost thus go
    to the lexicographically smallest node sequence, and a state's best prefix
    stays best after any common extension, so the DP is exact.
    """
    relevant = reachable_from(out, source) & reaching(out, target)
    if source not in relevant:
        return None
    cap = None if tau is None else Fraction(tau)
    # states[node]: key -> (cost, nodes, consumption); the key is the exact
    # consumption when capped, a single slot when not
    states = {source: {0: (Fraction(0), (source,), Fraction(0))}}
    for node in order:
        if node not in states or node == target:
            continue
        for cost, nodes, used in states.pop(node).values():
            for dst, weight, consumption in out[node]:
                total = used + consumption
                if dst not in relevant or (cap is not None and total > cap):
                    continue
                bucket = states.setdefault(dst, {})
                key = 0 if cap is None else total
                kept = bucket.get(key)
                if kept is None or (cost + weight, nodes + (dst,)) < kept[:2]:
                    bucket[key] = (cost + weight, nodes + (dst,), total)
    finals = states.get(target)
    if not finals:
        return None
    cost, nodes, used = min(finals.values(), key=lambda s: s[:2])
    return cost, used, nodes


def min_consumption(out: dict, order: list, source, target):
    """Least total consumption over source-target paths, exact."""
    best = {source: Fraction(0)}
    for node in order:
        if node not in best:
            continue
        for dst, _, consumption in out[node]:
            total = best[node] + consumption
            if dst not in best or total < best[dst]:
                best[dst] = total
    return best.get(target)


def path_sums(out: dict, nodes) -> tuple:
    """Exact (cost, consumption) along nodes; raises if a hop is no edge."""
    cost = used = Fraction(0)
    for a, b in zip(nodes, nodes[1:]):
        arc = next((arc for arc in out.get(a, ()) if arc[0] == b), None)
        if arc is None:
            raise ValueError(f"{a!r} -> {b!r} is not an edge")
        cost += arc[1]
        used += arc[2]
    return cost, used


# -- knapsack -------------------------------------------------------------------


def cents(value: float) -> int:
    """Two-decimal amount as integer cents; finer precision is an error."""
    scaled = Fraction(repr(value)) * 100
    if scaled.denominator != 1:
        raise ValueError(f"{value!r} has more than two decimals")
    return int(scaled)


def exact_integers(values) -> tuple[list[int], int]:
    """Floats as integers over their least common denominator."""
    fractions = [Fraction(v) for v in values]
    denominator = math.lcm(*(f.denominator for f in fractions)) if fractions else 1
    return [int(f * denominator) for f in fractions], denominator


def knapsack_optimum(costs: list[int], values: list[int], capacity: int) -> int:
    """Best total value of a subset whose cost fits capacity (numpy DP)."""
    if sum(abs(v) for v in values) >= 2**62:
        raise OverflowError("values too large for the int64 table")
    best = np.zeros(capacity + 1, dtype=np.int64)
    for cost, value in zip(costs, values):
        if cost > capacity or value <= 0:
            continue
        taken = best[: capacity + 1 - cost] + value  # a copy: each item used once
        np.maximum(best[cost:], taken, out=best[cost:])
    return int(best[capacity])


# -- feedback -------------------------------------------------------------------


def replay_feedback(weights: dict, rounds: list, eta: float, w_min: float, w_max: float) -> dict:
    """Apply w' = clamp(w + eta * (m - w), w_min, w_max) for each round."""
    weights = dict(weights)
    for observed in rounds:
        for key, m in observed.items():
            w = weights[key] + eta * (m - weights[key])
            weights[key] = min(max(w, w_min), w_max)
    return weights


# -- learner --------------------------------------------------------------------


def transform_rows(stats: dict, columns: dict) -> np.ndarray:
    """Replay the saved preprocessing on raw columns (name -> list, None missing).

    Numeric: impute the median, clip to the fences, min-max scale, clip to
    [0, 1]. Categorical: impute the mode, one-hot over the fitted categories.
    """
    blocks = []
    for col in stats["columns"]:
        raw = columns[col["name"]]
        if col["kind"] == "numeric":
            arr = np.array([col["median"] if v is None else v for v in raw], dtype=float)
            arr = np.clip(arr, col["lower_fence"], col["upper_fence"])
            span = col["maximum"] - col["minimum"]
            arr = np.zeros_like(arr) if span == 0 else (arr - col["minimum"]) / span
            blocks.append(np.clip(arr, 0.0, 1.0)[:, None])
        else:
            values = np.array([col["mode"] if v is None else v for v in raw], dtype=object)
            categories = np.array(col["categories"], dtype=object)
            blocks.append((values[:, None] == categories[None, :]).astype(float))
    return np.hstack(blocks)


def walk_tree(nodes: list, X: np.ndarray) -> np.ndarray:
    """Predictions of a saved tree: go left iff x[feature] <= threshold."""
    split = np.array([n["kind"] == "split" for n in nodes])
    feature = np.array([n["feature"] if n["kind"] == "split" else 0 for n in nodes])
    threshold = np.array([n["threshold"] if n["kind"] == "split" else 0.0 for n in nodes])
    left = np.array([n["left"] if n["kind"] == "split" else i for i, n in enumerate(nodes)])
    right = np.array([n["right"] if n["kind"] == "split" else i for i, n in enumerate(nodes)])
    prediction = np.array([n["prediction"] for n in nodes])
    at = np.zeros(len(X), dtype=int)
    rows = np.arange(len(X))
    for _ in range(len(nodes)):  # a path visits each node at most once
        if not split[at].any():
            break
        go_left = X[rows, feature[at]] <= threshold[at]
        at = np.where(split[at], np.where(go_left, left[at], right[at]), at)
    return prediction[at]


def best_config(rows: list[dict]) -> dict:
    """The documented pick: highest mean accuracy, then shallower, then
    larger leaf minimum, then criterion name ascending."""
    return min(
        rows,
        key=lambda r: (-r["mean_acc"], r["max_depth"], -r["min_samples_leaf"], r["criterion"]),
    )
