"""The three workloads: how each op calls the program, and how it is checked.

A workload object generates its inputs in __init__, offers setup() (one pass
of the program's loaders over those inputs), ops() (one round of operations),
run(op) (the timed call through public entry points), check(op, result)
(raises CheckFailed on a wrong answer) and counts() (per-layer counts from
the inputs and the checked outputs). Ops look functions up through their module at call
time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

from skillsgraph import allocate as sg_allocate
from skillsgraph import cli as sg_cli
from skillsgraph import cohort as sg_cohort
from skillsgraph import feedback as sg_feedback
from skillsgraph import graph as sg_graph
from skillsgraph import paths as sg_paths
from skillsgraph import scenario as sg_scenario

import gen
import oracles


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _graph_arcs(graph_json: dict) -> dict:
    return oracles.successors(
        (e["from"], e["to"], e["weight"], e.get("objective_cost", 0.0)) for e in graph_json["edges"]
    )


def _cli(argv: list) -> tuple[int, str]:
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = sg_cli.main([str(a) for a in argv])
    return code, captured.getvalue()


def _check_path(out: dict, nodes: list, source: str, target: str, cost: float, used: float):
    """A real source-target path whose reported sums are its exact edge sums."""
    require(nodes[0] == source and nodes[-1] == target, f"path {nodes} does not join {source} to {target}")
    try:
        exact_cost, exact_used = oracles.path_sums(out, nodes)
    except ValueError as exc:
        raise CheckFailed(f"path {nodes}: {exc}") from None
    require(cost == float(exact_cost), f"path cost {cost!r} is not its edge sum {float(exact_cost)!r}")
    require(used == float(exact_used), f"path consumption {used!r} is not its edge sum {float(exact_used)!r}")
    return exact_cost, exact_used


# -- route ------------------------------------------------------------------------


class Route:
    """find_optimal_path(graph, source, target, tau) on one loaded DAG."""

    def __init__(self, seed: int, work: Path):
        self.inputs = gen.route_inputs(seed, work)
        self.out = _graph_arcs(_read_json(self.inputs["graph"]))
        order = oracles.topological_order(self.out)
        self.expected = []
        self.reachable, self.relevant = [], []
        for q in self.inputs["queries"]:
            found = oracles.best_path(self.out, order, q["from"], q["to"], q["tau"])
            if not q["binding"]:
                free = oracles.best_path(self.out, order, q["from"], q["to"])
                if found != free:
                    raise RuntimeError(f"slack tau {q['tau']} binds on {q}")
            self.expected.append(found)
            forward = oracles.reachable_from(self.out, q["from"])
            self.reachable.append(len(forward))
            self.relevant.append(len(forward & oracles.reaching(self.out, q["to"])))
        self.graph = None

    def setup(self) -> None:
        self.graph = sg_graph.load_graph(self.inputs["graph"])

    def ops(self) -> list:
        return list(range(len(self.inputs["queries"])))

    def run(self, op):
        q = self.inputs["queries"][op]
        return sg_paths.find_optimal_path(self.graph, q["from"], q["to"], q["tau"])

    def check(self, op, path) -> None:
        q = self.inputs["queries"][op]
        nodes = list(path.nodes)
        _, used = _check_path(self.out, nodes, q["from"], q["to"], path.cost, path.objective)
        require(used <= Fraction(q["tau"]), f"consumption {path.objective} exceeds tau {q['tau']}")
        cost, _, best = self.expected[op]
        # equal to the DP optimum, which is the lexicographically smallest
        # path of least cost; on a slack query that is the unconstrained one
        require(path.cost == float(cost), f"{q}: cost {path.cost!r}, optimum {float(cost)!r}")
        require(tuple(nodes) == best, f"{q}: path {nodes}, expected {list(best)}")

    def counts(self) -> dict:
        n = len(self.reachable)
        return {
            "paths.reachable_nodes": sum(self.reachable) / n,
            "paths.relevant_nodes": sum(self.relevant) / n,
        }


# -- plan -------------------------------------------------------------------------

PLAN_ARTIFACTS = ("allocation.json", "centrality.json", "final_graph.json", "history.jsonl", "paths.json")


class Plan:
    """skillsgraph run <scenario> --out <dir>, in-process through cli.main."""

    def __init__(self, seed: int, work: Path):
        self.inputs = gen.plan_inputs(seed, work)
        self.outdir = work / "plan_out"
        scenario = _read_json(self.inputs["scenario"])
        graph_json = _read_json(self.inputs["graph"])
        self.scenario = scenario
        self.out = _graph_arcs(graph_json)
        order = oracles.topological_order(self.out)
        self.node_ids = [n["id"] for n in graph_json["nodes"]]
        self.cost_cents = {n["id"]: oracles.cents(n["cost"]) for n in graph_json["nodes"]}
        self.value = {n["id"]: Fraction(n["effectiveness"]) for n in graph_json["nodes"]}
        self.budget_cents = oracles.cents(scenario["budget"])
        self.capacity = min(self.budget_cents, sum(self.cost_cents.values()))
        values, denominator = oracles.exact_integers(n["effectiveness"] for n in graph_json["nodes"])
        optimum = oracles.knapsack_optimum(
            [self.cost_cents[nid] for nid in self.node_ids], values, self.capacity
        )
        self.knapsack_best = Fraction(optimum, denominator)
        self.shortest = [
            oracles.best_path(self.out, order, q["from"], q["to"])[0] for q in scenario["paths"]
        ]
        fb = scenario["feedback"]
        rounds = [
            {tuple(k.split("->")): v for k, v in r["edge_metrics"].items()}
            for r in _read_json(self.inputs["metrics"])["iterations"][: fb["iterations"]]
        ]
        start = {(e["from"], e["to"]): e["weight"] for e in graph_json["edges"]}
        self.final_weights = oracles.replay_feedback(start, rounds, fb["eta"], fb["w_min"], fb["w_max"])
        forward = [oracles.reachable_from(self.out, q["from"]) for q in scenario["paths"]]
        self.reachable = [len(f) for f in forward]
        self.relevant = [len(f & oracles.reaching(self.out, q["to"])) for f, q in zip(forward, scenario["paths"])]
        self.first = None
        self.artifact_bytes = 0

    def setup(self) -> None:
        sg_scenario.load_scenario(self.inputs["scenario"])
        sg_graph.load_graph(self.inputs["graph"])
        sg_feedback.load_metrics(self.inputs["metrics"])

    def ops(self) -> list:
        return ["run"]

    def run(self, op):
        return _cli(["run", self.inputs["scenario"], "--out", self.outdir])

    def check(self, op, result) -> None:
        code, stdout = result
        require(code == 0, f"run exited {code}: {stdout[:200]}")
        blobs = {name: (self.outdir / name).read_bytes() for name in PLAN_ARTIFACTS}
        report = json.loads((self.outdir / "report.json").read_bytes())
        printed = json.loads(stdout)
        report.pop("timings")
        printed.pop("timings")
        require(printed == report, "stdout and report.json differ outside timings")
        self.artifact_bytes = sum(len(b) for b in blobs.values()) + (self.outdir / "report.json").stat().st_size

        allocation = json.loads(blobs["allocation.json"])
        chosen = allocation["chosen"]
        require(len(set(chosen)) == len(chosen) and set(chosen) <= set(self.node_ids), "bad chosen set")
        spent = sum(self.cost_cents[nid] for nid in chosen)
        require(spent <= self.budget_cents, f"chosen set costs {spent} cents > budget {self.budget_cents}")
        gained = sum(self.value[nid] for nid in chosen)
        require(gained == self.knapsack_best, f"chosen value {gained} != DP optimum {self.knapsack_best}")
        require(allocation["objective"] == float(self.knapsack_best), "objective is not the DP optimum")

        for query, entry, best in zip(self.scenario["paths"], json.loads(blobs["paths.json"]), self.shortest):
            p = entry["path"]
            cost, _ = _check_path(self.out, p["nodes"], query["from"], query["to"], p["cost"], p["objective"])
            require(cost == best, f"{query}: cost {float(cost)!r}, shortest {float(best)!r}")

        final = json.loads(blobs["final_graph.json"])
        for e in final["edges"]:
            expected = self.final_weights[(e["from"], e["to"])]
            require(e["weight"] == expected, f"weight {e['from']}->{e['to']} {e['weight']!r} != replay {expected!r}")

        centrality = json.loads(blobs["centrality.json"])
        require(all(v >= 0 for v in centrality.values()), "negative centrality")
        require(abs(math.fsum(centrality.values()) - 1.0) <= 1e-9, "centrality does not sum to 1")

        lines = blobs["history.jsonl"].count(b"\n")
        rounds = self.scenario["feedback"]["iterations"]
        require(lines == rounds + 1, f"history has {lines} lines, expected {rounds + 1}")

        digest = {name: hashlib.sha256(b).hexdigest() for name, b in blobs.items()}
        if self.first is None:
            self.first = (digest, report)
        require(digest == self.first[0], "artifacts differ from the first op's")
        require(report == self.first[1], "report differs from the first op's outside timings")

    def knapsack_peak_mb(self) -> float:
        """tracemalloc peak of one select_knapsack call on the scenario."""
        graph = sg_graph.load_graph(self.inputs["graph"])
        tracemalloc.start()
        try:
            sg_allocate.select_knapsack(graph, self.scenario["budget"])
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def counts(self) -> dict:
        n = len(self.reachable)
        return {
            "allocate.knapsack_cells": (len(self.node_ids) + 1) * (self.capacity + 1),
            "allocate.select_knapsack_peak_mb": self.knapsack_peak_mb(),
            "paths.reachable_nodes": sum(self.reachable) / n,
            "paths.relevant_nodes": sum(self.relevant) / n,
            "feedback.rounds": self.scenario["feedback"]["iterations"],
            "scenario.artifact_bytes": self.artifact_bytes,
        }


# -- learn ------------------------------------------------------------------------


def _grid(text: str) -> list:
    lo, _, hi = text.partition(":")
    return list(range(int(lo), int(hi or lo) + 1))


class Learn:
    """skillsgraph train, then skillsgraph predict with the saved model."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.inputs = gen.learn_inputs(seed, work)
        self.model_dir = work / "learn_model"
        self.configs = {
            (d, m, c)
            for d in _grid(gen.LEARN_GRID_DEPTH)
            for m in _grid(gen.LEARN_GRID_LEAF)
            for c in gen.LEARN_CRITERIA.split(",")
        }
        with open(self.inputs["score"], encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        self.ids = [r["student_id"] for r in rows]
        self.labels = [int(r["employed"]) for r in rows]
        self.columns = {
            name: [r[name] for r in rows] for name in ("gender", "ethnicity", "education_level", "region")
        }
        for name in ("mentoring_sessions", "workshop_hours", "research_projects"):
            self.columns[name] = [float(r[name]) if r[name] != "" else None for r in rows]
        majority = max(sum(self.labels), len(self.labels) - sum(self.labels))
        self.majority_rate = majority / len(self.labels)
        self.first = None
        self.model_nodes = 0

    def setup(self) -> None:
        sg_cohort.load_cohort_csv(self.inputs["train"])
        sg_cohort.load_cohort_csv(self.inputs["score"])

    def ops(self) -> list:
        return ["train+predict"]

    def run(self, op):
        train = _cli([
            "train", "--data", self.inputs["train"], "--seed", self.seed,
            "--grid-depth", gen.LEARN_GRID_DEPTH, "--grid-leaf", gen.LEARN_GRID_LEAF,
            "--criteria", gen.LEARN_CRITERIA, "--folds", gen.LEARN_FOLDS, "--out", self.model_dir,
        ])
        predict = _cli(["predict", "--model", self.model_dir / "model.json", "--data", self.inputs["score"]])
        return train, predict

    def check(self, op, result) -> None:
        (train_code, train_out), (predict_code, predict_out) = result
        require(train_code == 0, f"train exited {train_code}: {train_out[:200]}")
        require(predict_code == 0, f"predict exited {predict_code}: {predict_out[:200]}")
        trained = json.loads(train_out)
        model_bytes = (self.model_dir / "model.json").read_bytes()
        cv_bytes = (self.model_dir / "cv_results.csv").read_bytes()
        model = json.loads(model_bytes)
        self.model_nodes = len(model["nodes"])

        rows = list(csv.DictReader(io.StringIO(cv_bytes.decode("utf-8"))))
        for r in rows:
            r["max_depth"], r["min_samples_leaf"] = int(r["max_depth"]), int(r["min_samples_leaf"])
            r["mean_acc"] = float(r["mean_acc"])
        seen = {(r["max_depth"], r["min_samples_leaf"], r["criterion"]) for r in rows}
        require(len(rows) == len(self.configs) and seen == self.configs, "cv_results.csv is not one row per config")
        best = oracles.best_config(rows)
        picked = {k: best[k] for k in ("max_depth", "min_samples_leaf", "criterion")}
        require(model["params"] == picked, f"model params {model['params']} != best config {picked}")
        require(trained["best_params"] == picked, "train output names another config")

        predicted = json.loads(predict_out)
        X = oracles.transform_rows(model["preprocessing"], self.columns)
        walked = oracles.walk_tree(model["nodes"], X)
        require([p["student_id"] for p in predicted["predictions"]] == self.ids, "prediction rows out of order")
        labels = [p["prediction"] for p in predicted["predictions"]]
        require(labels == walked.tolist(), "predict disagrees with a walk of model.json")
        correct = sum(1 for p, y in zip(labels, self.labels) if p == y)
        require(predicted["accuracy"] == correct / len(labels), "reported accuracy is not the walk's")
        require(predicted["accuracy"] > self.majority_rate,
                f"accuracy {predicted['accuracy']} does not beat the majority rate {self.majority_rate}")

        digest = (hashlib.sha256(model_bytes).hexdigest(), hashlib.sha256(cv_bytes).hexdigest())
        if self.first is None:
            self.first = digest
        require(digest == self.first, "model or cv table differs from the first op's")

    def counts(self) -> dict:
        return {
            "cohort.rows": gen.LEARN_TRAIN_ROWS + gen.LEARN_SCORE_ROWS,
            "search.cv_fits": len(self.configs) * gen.LEARN_FOLDS + 1,
            "tree.model_nodes": self.model_nodes,
        }


WORKLOADS = {"route": Route, "plan": Plan, "learn": Learn}
