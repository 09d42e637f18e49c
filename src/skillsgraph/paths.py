"""Shortest and resource-constrained paths through the dependency graph.

Path cost is the sum of edge weights; each edge also consumes objective_cost,
and a query may cap the total consumption at tau. One exact best-first search
answers both kinds of query (Irnich & Desaulniers 2005): labels leave a heap
in (cost, node sequence) order, so ties on cost go to the lexicographically
smallest node sequence, and the first label to reach the target is the
answer. A constrained query keeps a label only while its consumption is
strictly below that of every earlier label at its node, since a pricier
prefix that consumes less can still win later; without tau the first label
at each node wins, which is Dijkstra.

All comparisons happen on exact integer renditions of the float inputs (see
exact.py), so optima and ties are well-defined and reproducible.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InvalidQuery, NoFeasiblePath, UnknownNode
from .exact import integer_sum_to_float, scale_to_integers
from .graph import SkillsGraph, validate_dag


@dataclass(frozen=True)
class Path:
    nodes: tuple[str, ...]
    cost: float
    objective: float


def path_to_dict(path: Path) -> dict:
    return {"nodes": list(path.nodes), "cost": path.cost, "objective": path.objective}


def _check_endpoints(graph: SkillsGraph, source: str, target: str) -> None:
    for nid in (source, target):
        if nid not in graph.index:
            raise UnknownNode(f"unknown node {nid!r}")


def _scaled(graph: SkillsGraph, edges: Sequence[int]) -> tuple[list, int, int]:
    """(edge, integer weight, integer consumption) triples for the edges at
    the given positions, plus both denominators.

    Any common denominator yields the same correctly rounded sums, so a query
    scales only the edges it can use.
    """
    weights, wden = scale_to_integers(map(graph.weights.__getitem__, edges))
    consumption, cden = scale_to_integers(map(graph.consumption.__getitem__, edges))
    return list(zip(edges, weights, consumption)), wden, cden


def _edges_into(graph: SkillsGraph, target: int) -> list[int]:
    """Every edge on some path to target: the in-edges of its ancestors."""
    src, start, order = graph.src, graph.in_start, graph.in_order
    seen, stack, edges = {target}, [target], []
    while stack:
        node = stack.pop()
        for e in order[start[node]:start[node + 1]]:
            edges.append(e)
            if src[e] not in seen:
                seen.add(src[e])
                stack.append(src[e])
    return edges


def _least_consumption(graph: SkillsGraph, scaled: list, target: int) -> dict:
    """Reverse Dijkstra: least exact consumption from each node to target."""
    into: dict[int, list] = {}
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


def _search(graph: SkillsGraph, source: str, target: str, tau: float | None) -> Path:
    """Least (cost, node sequence) path with consumption <= tau, exact.

    Nodes are searched by position; a label carries its node sequence as ids,
    which the heap compares, so ties go to the smallest sequence of ids.
    """
    start, goal = graph.index[source], graph.index[target]
    scaled, wden, cden = _scaled(graph, _edges_into(graph, goal))
    # edges out of each node that lead on to target; others are never tried
    ids, src, dst = graph.ids, graph.src, graph.dst
    succ: dict[int, list] = {}
    for e, weight, consumption in scaled:
        succ.setdefault(src[e], []).append((dst[e], ids[dst[e]], weight, consumption))

    if tau is None:
        cap, need = None, None
    else:
        # consumption is an integer count of 1/cden units, so <= tau is <= cap
        cap = math.floor(Fraction(tau) * cden)
        need = _least_consumption(graph, scaled, goal)

    # kept[node]: consumption of the last label kept there; labels pop in
    # (cost, nodes) order, so a later one survives only by consuming less
    kept: dict[int, int] = {}
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


def find_optimal_path(
    graph: SkillsGraph, source: str, target: str, tau: float | None = None
) -> Path:
    """Cheapest path by total weight, optionally capping objective consumption.

    Among equal-cost feasible paths the lexicographically smallest node
    sequence is returned. tau=None means unconstrained.
    """
    _check_endpoints(graph, source, target)
    if tau is not None and (not math.isfinite(tau) or tau < 0):
        raise InvalidQuery(f"tau must be finite and >= 0, got {tau!r}")
    if source == target:
        return Path(nodes=(source,), cost=0.0, objective=0.0)

    return _search(graph, source, target, tau)


def enumerate_paths(graph: SkillsGraph, source: str, target: str) -> list[Path]:
    """Every simple path source -> target, depth-first in edge insertion order.

    Requires an acyclic graph; raises CycleDetected otherwise.
    """
    _check_endpoints(graph, source, target)
    validate_dag(graph)
    scaled, wden, cden = _scaled(graph, range(len(graph.src)))
    goal, ids, dst = graph.index[target], graph.ids, graph.dst
    start, order = graph.out_start, graph.out_order

    results: list[Path] = []

    def walk(path: tuple[str, ...], node: int, cost: int, obj: int) -> None:
        if node == goal:
            results.append(
                Path(path, integer_sum_to_float(cost, wden), integer_sum_to_float(obj, cden))
            )
            return
        for e in order[start[node]:start[node + 1]]:
            _, weight, consumption = scaled[e]
            walk(path + (ids[dst[e]],), dst[e], cost + weight, obj + consumption)

    walk((source,), graph.index[source], 0, 0)
    return results
