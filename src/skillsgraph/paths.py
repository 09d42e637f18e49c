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
        if not graph.has_node(nid):
            raise UnknownNode(f"unknown node {nid!r}")


def _scaled(edges) -> tuple[list, int, int]:
    """(edge, integer weight, integer consumption) triples, plus both denominators.

    Any common denominator yields the same correctly rounded sums, so a query
    scales only the edges it can use.
    """
    weights, wden = scale_to_integers([e.weight for e in edges])
    consumption, cden = scale_to_integers([e.objective_cost for e in edges])
    return list(zip(edges, weights, consumption)), wden, cden


def _edges_into(graph: SkillsGraph, target: str) -> list:
    """Every edge on some path to target: the in-edges of its ancestors."""
    seen, stack, edges = {target}, [target], []
    while stack:
        for edge in graph.in_edges(stack.pop()):
            edges.append(edge)
            if edge.src not in seen:
                seen.add(edge.src)
                stack.append(edge.src)
    return edges


def _least_consumption(scaled: list, target: str) -> dict:
    """Reverse Dijkstra: least exact consumption from each node to target."""
    into: dict[str, list] = {}
    for edge, _, consumption in scaled:
        into.setdefault(edge.dst, []).append((edge.src, consumption))
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
    """Least (cost, node sequence) path with consumption <= tau, exact."""
    scaled, wden, cden = _scaled(_edges_into(graph, target))
    # edges out of each node that lead on to target; others are never tried
    succ: dict[str, list] = {}
    for edge, weight, consumption in scaled:
        succ.setdefault(edge.src, []).append((edge.dst, weight, consumption))

    if tau is None:
        cap, need = None, None
    else:
        # consumption is an integer count of 1/cden units, so <= tau is <= cap
        cap = math.floor(Fraction(tau) * cden)
        need = _least_consumption(scaled, target)

    # kept[node]: consumption of the last label kept there; labels pop in
    # (cost, nodes) order, so a later one survives only by consuming less
    kept: dict[str, int] = {}
    heap = [(0, (source,), 0)]
    while heap:
        cost, nodes, used = heapq.heappop(heap)
        node = nodes[-1]
        if node in kept and (cap is None or used >= kept[node]):
            continue
        if node == target:
            return Path(nodes, integer_sum_to_float(cost, wden), integer_sum_to_float(used, cden))
        kept[node] = used
        for dst, weight, consumption in succ.get(node, ()):
            total = used + consumption
            if cap is not None and total + need[dst] > cap:
                continue
            if dst in kept and (cap is None or total >= kept[dst]):
                continue
            heapq.heappush(heap, (cost + weight, nodes + (dst,), total))
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
    scaled, wden, cden = _scaled(graph.edges)
    sums = {edge: (weight, consumption) for edge, weight, consumption in scaled}

    results: list[Path] = []

    def walk(path: tuple[str, ...], cost: int, obj: int) -> None:
        node = path[-1]
        if node == target:
            results.append(
                Path(path, integer_sum_to_float(cost, wden), integer_sum_to_float(obj, cden))
            )
            return
        for edge in graph.out_edges(node):
            weight, consumption = sums[edge]
            walk(path + (edge.dst,), cost + weight, obj + consumption)

    walk((source,), 0, 0)
    return results
