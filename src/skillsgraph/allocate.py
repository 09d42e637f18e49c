"""Budgeted resource allocation over graph nodes.

Two modes. select: 0/1 knapsack over node costs maximizing total
effectiveness, solved exactly by dynamic programming on costs quantized to
cents. fractional: a divisible budget poured greedily into the most
effective nodes first, up to each node's capacity, which is exact for a
linear objective with box constraints. Both read the graph's node columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import (
    CostPrecisionError,
    CostResolutionExceeded,
    FloatRangeExceeded,
    NegativeBudget,
)
from .exact import integer_sum_to_float, quantize_hundredths, scale_to_integers
from .graph import UNBOUNDED, SkillsGraph, finite_number

DEFAULT_MAX_CELLS = 10_000_000


@dataclass(frozen=True)
class NodeSelection:
    """Result of select mode: a set of funded nodes."""

    chosen: tuple[str, ...]  # in graph node order
    objective: float
    budget: float


@dataclass(frozen=True)
class AllocationPlan:
    """Result of fractional mode: per-node resource amounts."""

    allocation: dict  # node id -> amount, graph node order, zero entries kept
    objective: float
    budget: float


def _check_budget(budget: float) -> None:
    if not finite_number(budget) or budget < 0:
        raise NegativeBudget(f"budget must be finite and >= 0, got {budget!r}")


def select_knapsack(
    graph: SkillsGraph, budget: float, max_cells: int = DEFAULT_MAX_CELLS
) -> NodeSelection:
    """Exact 0/1 knapsack: maximize total effectiveness within the budget.

    Costs and budget are quantized to cents; finer precision is rejected, not
    rounded. Ties on the objective prefer fewer nodes, then the
    lexicographically smallest id set. Effectiveness sums are compared in
    exact arithmetic so ties are well-defined.

    Cost: with n nodes and cap budget cents (capped at the total cost), time
    is O(n * cap) spent in numpy row operations, one per node, and memory is
    one byte per table cell plus one row of keys.
    """
    _check_budget(budget)
    try:
        cost_units = quantize_hundredths(graph.costs, "cost")
        (budget_units,) = quantize_hundredths([budget], "budget")
    except ValueError as exc:
        raise CostPrecisionError(str(exc)) from None

    ids = graph.ids
    n = len(ids)
    cap = min(budget_units, sum(cost_units))
    cells = (n + 1) * (cap + 1)
    if cells > max_cells:
        raise CostResolutionExceeded(
            f"knapsack table needs {cells} cells (> {max_cells}); "
            "coarsen costs or lower the budget"
        )

    values, denom = scale_to_integers(graph.effectiveness)
    # process in ascending id order so the greedy reconstruction below yields
    # the lexicographically smallest optimal id set
    order = sorted(range(n), key=ids.__getitem__)

    # One key per (objective, count): key = objective * (n + 1) - count. As
    # 0 <= count <= n, a larger key means a larger objective, then fewer
    # nodes. int64 holds every key when the total fits; otherwise exact
    # Python ints in an object array run the same row operations.
    dtype = np.int64 if (sum(values) + 1) * (n + 1) < 2**62 else object
    # suffix DP: after step i, best[w] is the largest key over items order[i:]
    # within w cents; take[i, w] says item order[i] is in such an optimum
    best = np.zeros(cap + 1, dtype=dtype)
    take = np.zeros((n, cap + 1), dtype=bool)
    for i in range(n - 1, -1, -1):
        item = order[i]
        c = cost_units[item]
        if c > cap:  # never fits; its take row stays all False
            continue
        cand = best[: cap + 1 - c] + (values[item] * (n + 1) - 1)
        bits = take[i, c:]
        np.greater_equal(cand, best[c:], out=bits)
        np.copyto(best[c:], cand, where=bits)

    # include an item iff doing so still reaches the optimal (objective, count);
    # visiting ids in ascending order makes the surviving set lex-smallest
    chosen = []
    w = cap
    for i in range(n):
        if take[i, w]:
            item = order[i]
            chosen.append(item)
            w -= cost_units[item]

    total = (int(best[cap]) + n) // (n + 1)
    return NodeSelection(
        chosen=tuple(ids[i] for i in sorted(chosen)),
        objective=integer_sum_to_float(total, denom),
        budget=budget,
    )


def allocate_fractional(graph: SkillsGraph, budget: float) -> AllocationPlan:
    """Pour a divisible budget greedily by descending effectiveness.

    Exact for the linear objective: fill the most effective node to capacity,
    then the next, until the budget runs out. Ties go to the smaller node id;
    unbounded capacity means the node could absorb the whole budget. Nodes
    with zero effectiveness receive nothing. FloatRangeExceeded where the
    objective is beyond the float range.
    """
    _check_budget(budget)
    ids, effectiveness, capacities = graph.ids, graph.effectiveness, graph.capacities
    amounts = [0.0] * len(ids)
    remaining = budget
    for i in sorted(range(len(ids)), key=lambda i: (-effectiveness[i], ids[i])):
        if remaining <= 0 or effectiveness[i] <= 0:
            break
        room = float(remaining if capacities[i] is UNBOUNDED else min(capacities[i], remaining))
        if room > 0:
            amounts[i] = room
            remaining -= room
    # every term is >= 0, so a term or a partial sum beyond the float range
    # puts the sum there too
    try:
        objective = math.fsum(map(mul, effectiveness, amounts))
    except OverflowError:
        objective = math.inf
    if objective == math.inf:
        raise FloatRangeExceeded("the allocation's objective is beyond the float range")
    return AllocationPlan(allocation=dict(zip(ids, amounts)), objective=objective, budget=budget)


def plan_to_dict(plan) -> dict:
    """JSON form of either allocation result; inapplicable fields are absent."""
    if isinstance(plan, NodeSelection):
        return {
            "mode": "select",
            "budget": plan.budget,
            "chosen": list(plan.chosen),
            "objective": plan.objective,
        }
    if isinstance(plan, AllocationPlan):
        return {
            "mode": "fractional",
            "budget": plan.budget,
            "allocation": dict(plan.allocation),
            "objective": plan.objective,
        }
    raise TypeError(f"not an allocation result: {plan!r}")
