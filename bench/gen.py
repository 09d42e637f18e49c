"""Seeded input generators for the three benchmark workloads.

Every generator takes the workload seed and a directory, writes the files the
program will read, and returns what the benchmark needs to drive the
operations. Nothing here calls into skillsgraph: the inputs are built from the
file formats alone, so a change to the program cannot change its inputs.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

import oracles

# -- route: one layered DAG of narrow tracks, constrained path queries ---------
#
# ROUTE_SOURCES first-layer skills each open ROUTE_TRACKS parallel tracks. A
# track is ROUTE_DEPTH layers deep and ROUTE_WIDTH nodes wide, with every node
# feeding both nodes of the next layer. A query from a source explores all of
# its tracks today, so its cost is a sum over many independent tracks: that
# keeps the per-query cost steady from seed to seed, where a single narrow
# track varies by about 40% (coefficient of variation) between seeds.

ROUTE_SOURCES = 8
ROUTE_TRACKS = 32
ROUTE_DEPTH = 12
ROUTE_WIDTH = 2
ROUTE_TARGET_DEPTHS = (3, 6, 9, 12)


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _route_edge(rng: random.Random, src: str, dst: str) -> dict:
    # consumption 0.5 or 1.0; the heavier step is about one unit cheaper, so
    # cost and consumption trade off and Pareto fronts stay wide
    units = rng.randint(1, 2)
    return {
        "from": src,
        "to": dst,
        "weight": (3 - units) + rng.randint(0, 15) / 16,
        "objective_cost": units / 2,
    }


def route_inputs(seed: int, work: Path) -> dict:
    """Write graph.json; return its path and one round of queries.

    Each query is {"from", "to", "tau", "binding"}. A binding tau lies below
    the consumption of the unconstrained optimum yet admits a path; a slack
    tau equals the target depth, the most any path to it can consume.
    """
    rng = random.Random(seed)
    nodes, edges, picks = [], [], []
    for s in range(ROUTE_SOURCES):
        root = f"r{s}"
        nodes.append({"id": root, "label": f"program {s}", "effectiveness": 1.0, "cost": 1.0})
        tracks = []
        for t in range(ROUTE_TRACKS):
            prev, layers = [root], []
            for depth in range(1, ROUTE_DEPTH + 1):
                layer = [f"r{s}t{t:02d}d{depth:02d}{'ab'[i]}" for i in range(ROUTE_WIDTH)]
                for nid in layer:
                    nodes.append({"id": nid, "label": f"skill {nid}", "effectiveness": 1.0, "cost": 1.0})
                for a in prev:
                    for b in layer:
                        edges.append(_route_edge(rng, a, b))
                layers.append(layer)
                prev = layer
            tracks.append(layers)
        for j, depth in enumerate(ROUTE_TARGET_DEPTHS):
            first = rng.randrange(ROUTE_TRACKS)
            # candidate targets at this depth, the drawn one first
            candidates = [
                node
                for k in range(ROUTE_TRACKS)
                for node in tracks[(first + k) % ROUTE_TRACKS][depth - 1]
            ]
            picks.append((root, depth, (s + j) % 2 == 0, candidates))

    out = oracles.successors((e["from"], e["to"], e["weight"], e["objective_cost"]) for e in edges)
    order = oracles.topological_order(out)
    queries = []
    for root, depth, binding, candidates in picks:
        for target in candidates:
            if not binding:
                tau = float(depth)
                break
            least = oracles.min_consumption(out, order, root, target)
            _, unconstrained, _ = oracles.best_path(out, order, root, target)
            if least < unconstrained:
                # values sit on a 0.5 grid: this is >= least and < unconstrained
                tau = math.floor(least + unconstrained) / 2
                break
        else:
            raise RuntimeError(f"no target at depth {depth} below {root} can bind tau")
        queries.append({"from": root, "to": target, "tau": tau, "binding": binding})
    path = work / "route_graph.json"
    _write_json(path, {"nodes": nodes, "edges": edges})
    return {"graph": path, "queries": queries}


# -- plan: a wide, shallow DAG run as a full scenario ---------------------------

PLAN_LAYERS = (70, 70, 70, 70)
PLAN_OUT_DEGREE = 3
PLAN_BUDGET = 71.0  # 7,100 cents; (280 + 1) * 7,101 = 2.0M knapsack cells
PLAN_ROUNDS = 30
PLAN_QUERIES = 8
PLAN_ACTIONS = 10
PLAN_ETA = 0.3
PLAN_W_MIN = 0.01
PLAN_W_MAX = 10.0


def plan_inputs(seed: int, work: Path) -> dict:
    """Write scenario.json, graph.json and metrics.json; return their paths."""
    rng = random.Random(seed)
    layers = [[f"k{layer}{i:03d}" for i in range(width)] for layer, width in enumerate(PLAN_LAYERS)]
    nodes = [
        {
            "id": nid,
            "label": f"capacity {nid}",
            "effectiveness": rng.randint(1, 512) / 64,
            "cost": rng.randint(20, 400) / 100,
            "capacity": rng.randint(1, 40) / 4,
        }
        for layer in layers
        for nid in layer
    ]
    edges = []
    for depth, layer in enumerate(layers[:-1]):
        later = [nid for deeper in layers[depth + 1:depth + 3] for nid in deeper]
        for src in layer:
            for dst in sorted(rng.sample(later, PLAN_OUT_DEGREE)):
                edges.append({
                    "from": src,
                    "to": dst,
                    "weight": rng.randint(1, 400) / 100,
                    "objective_cost": rng.randint(0, 8) / 4,
                })

    succ = {n["id"]: [] for n in nodes}
    for e in edges:
        succ[e["from"]].append(e["to"])
    queries = []
    for src in rng.sample(layers[0], PLAN_QUERIES):
        seen, stack = set(), [src]
        while stack:
            for nxt in succ[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        queries.append({"from": src, "to": rng.choice(sorted(seen & set(layers[-1])))})

    actions = sorted(rng.sample([n["id"] for n in nodes], PLAN_ACTIONS))
    rounds = []
    for _ in range(PLAN_ROUNDS):
        observed = rng.sample(edges, len(edges) // 3)
        rounds.append({
            "edge_metrics": {f"{e['from']}->{e['to']}": rng.randint(0, 1000) / 100 for e in observed},
            "action_outcomes": {a: rng.randint(0, 100) / 100 for a in actions},
        })

    _write_json(work / "plan_graph.json", {"nodes": nodes, "edges": edges})
    _write_json(work / "plan_metrics.json", {"iterations": rounds})
    scenario = {
        "graph": "plan_graph.json",
        "budget": PLAN_BUDGET,
        "allocation_mode": "select",
        "paths": queries,
        "actions": actions,
        "feedback": {
            "metrics": "plan_metrics.json",
            "eta": PLAN_ETA,
            "iterations": PLAN_ROUNDS,
            "w_min": PLAN_W_MIN,
            "w_max": PLAN_W_MAX,
        },
        "seed": seed,
    }
    _write_json(work / "plan_scenario.json", scenario)
    return {
        "scenario": work / "plan_scenario.json",
        "graph": work / "plan_graph.json",
        "metrics": work / "plan_metrics.json",
    }


# -- learn: planted cohorts for train and predict --------------------------------

LEARN_TRAIN_ROWS = 386
LEARN_SCORE_ROWS = 20_000
LEARN_GRID_DEPTH = "2:4"
LEARN_GRID_LEAF = "1:2"
LEARN_CRITERIA = "gini,entropy"
LEARN_FOLDS = 3

COHORT_HEADER = [
    "student_id", "gender", "ethnicity", "education_level", "region",
    "mentoring_sessions", "workshop_hours", "research_projects", "employed",
]
_EDUCATION = (("phd", 0.15, 0.09), ("masters", 0.35, 0.045),
              ("undergraduate", 0.35, -0.045), ("high_school", 0.15, -0.09))
_ETHNICITIES = ("african_american", "hispanic", "asian", "other")
_REGIONS = ("india", "africa", "europe", "usa")


def _cohort_rows(rng: random.Random, n: int, prefix: str) -> list[list[str]]:
    """Planted signal: engagement drives employment, education shifts it."""
    rows = []
    for i in range(n):
        u, acc = rng.random(), 0.0
        for education, share, shift in _EDUCATION:
            acc += share
            if u < acc:
                break
        engaged = rng.random() < 0.5
        mentoring = rng.randint(11, 20) if engaged else rng.randint(0, 9)
        workshop = round(rng.uniform(1.0, 40.0), 1) if engaged else 0.0
        p = (0.91 if engaged else 0.09) + shift + 0.004 * (mentoring - 10)
        employed = 1 if rng.random() < p else 0
        rows.append([
            f"{prefix}{i + 1:05d}",
            rng.choice("MF"),
            rng.choice(_ETHNICITIES),
            education,
            rng.choice(_REGIONS),
            "" if rng.random() < 0.03 else str(mentoring),  # a few missing values
            "" if rng.random() < 0.03 else str(workshop),
            str(rng.randint(0, 5)),
            str(employed),
        ])
    return rows


def _write_cohort(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COHORT_HEADER)
        writer.writerows(rows)


def learn_inputs(seed: int, work: Path) -> dict:
    """Write the training and scoring cohort CSVs; return their paths."""
    rng = random.Random(seed)
    train, score = work / "learn_train.csv", work / "learn_score.csv"
    _write_cohort(train, _cohort_rows(rng, LEARN_TRAIN_ROWS, "T"))
    _write_cohort(score, _cohort_rows(rng, LEARN_SCORE_ROWS, "P"))
    return {"train": train, "score": score}
