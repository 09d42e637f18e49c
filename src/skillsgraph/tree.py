"""Binary decision tree induction from first principles.

Impurity is entropy (base 2) or gini. Candidate thresholds sit halfway
between consecutive distinct sorted feature values; a split is admissible only
if both children keep at least min_samples_leaf rows. Recursion stops on
purity, the depth cap, or no admissible split. When every admissible split
has zero information gain but the node is impure and depth remains, the node
still splits on the lowest-index feature at its smallest admissible threshold:
parity problems (XOR) have flat first-level gains and are otherwise
unreachable. Equal gains break toward the lowest feature index, then the
smallest threshold. Fitting is deterministic: same data, same tree.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    BadParams,
    EmptyCounts,
    EmptyTrainingSet,
    MissingFeature,
    ModelFormatError,
    PartitionMismatch,
    open_text,
)
from .prepare import PreparedDataset

CRITERIA = ("entropy", "gini")


# -- impurity -------------------------------------------------------------------


def _check_counts(counts: Sequence[int]) -> list[int]:
    counts = list(counts)
    if any(c < 0 for c in counts):
        raise PartitionMismatch(f"counts must be >= 0, got {counts}")
    if sum(counts) == 0:
        raise EmptyCounts("count vector has no members")
    return counts


def entropy(counts: Sequence[int]) -> float:
    """Shannon entropy in bits of the class distribution given by counts."""
    counts = _check_counts(counts)
    total = sum(counts)
    return -math.fsum(
        (c / total) * math.log2(c / total) for c in counts if c > 0
    )


def gini(counts: Sequence[int]) -> float:
    """Gini impurity 1 - sum p^2 of the class distribution given by counts."""
    counts = _check_counts(counts)
    total = sum(counts)
    return 1.0 - math.fsum((c / total) ** 2 for c in counts)


def information_gain(
    parent: Sequence[int], children: Sequence[Sequence[int]], criterion: str = "entropy"
) -> float:
    """Impurity of the parent minus the size-weighted impurity of the children.

    The children must partition the parent exactly (componentwise sums match).
    """
    if criterion not in CRITERIA:
        raise BadParams(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    parent = _check_counts(parent)
    if not children:
        raise PartitionMismatch("no children supplied")
    sums = [0] * len(parent)
    for child in children:
        if len(child) != len(parent):
            raise PartitionMismatch("child count vector length differs from parent")
        for k, c in enumerate(child):
            sums[k] += c
    if sums != parent:
        raise PartitionMismatch(f"children sum to {sums}, parent is {parent}")
    measure = entropy if criterion == "entropy" else gini
    total = sum(parent)
    weighted = math.fsum(
        (sum(child) / total) * measure(child) for child in children if sum(child) > 0
    )
    return measure(parent) - weighted


def _impurity_rows(counts: np.ndarray, sizes: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity of each row of a (m, K) count matrix; sizes are the row sums."""
    p = counts / sizes[:, None]
    if criterion == "entropy":
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0, p * np.log2(p), 0.0)
        return -terms.sum(axis=1)
    return 1.0 - (p * p).sum(axis=1)


# -- model ----------------------------------------------------------------------


@dataclass(frozen=True)
class TreeParams:
    max_depth: int
    min_samples_leaf: int = 1
    criterion: str = "entropy"

    def __post_init__(self):
        if not isinstance(self.max_depth, int) or self.max_depth < 0:
            raise BadParams(f"max_depth must be an int >= 0, got {self.max_depth!r}")
        if not isinstance(self.min_samples_leaf, int) or self.min_samples_leaf < 1:
            raise BadParams(f"min_samples_leaf must be an int >= 1, got {self.min_samples_leaf!r}")
        if self.criterion not in CRITERIA:
            raise BadParams(f"criterion must be one of {CRITERIA}, got {self.criterion!r}")


@dataclass(frozen=True)
class TreeNode:
    kind: str  # "split" | "leaf"
    feature: int | None
    threshold: float | None
    left: int | None
    right: int | None
    class_counts: tuple[int, ...]
    prediction: int  # majority class label, ties to the lowest label


@dataclass(frozen=True)
class DecisionTree:
    nodes: tuple[TreeNode, ...]  # preorder, root at 0
    params: TreeParams
    feature_names: tuple[str, ...]
    classes: tuple[int, ...]
    depth: int


def _majority(counts: np.ndarray, classes: tuple[int, ...]) -> int:
    best = int(np.argmax(counts))  # argmax takes the first max: lowest label wins ties
    return classes[best]


def _best_split(X, codes, rows, n_classes, min_leaf, criterion):
    """Best admissible (gain, feature, threshold) plus the fallback split.

    The fallback is the first admissible (feature, threshold) in scan order,
    used when the best gain is exactly zero.
    """
    n = len(rows)
    parent_counts = np.bincount(codes[rows], minlength=n_classes).astype(float)
    parent_imp = float(_impurity_rows(parent_counts[None, :], np.array([float(n)]), criterion)[0])

    best = None
    fallback = None
    for j in range(X.shape[1]):
        col = X[rows, j]
        order = np.argsort(col, kind="stable")
        sv = col[order]
        sy = codes[rows][order]
        change = np.nonzero(sv[1:] != sv[:-1])[0]
        if change.size == 0:
            continue
        left_sizes = change + 1
        admissible = (left_sizes >= min_leaf) & ((n - left_sizes) >= min_leaf)
        if not np.any(admissible):
            continue
        idx = change[admissible]
        thresholds = (sv[idx] + sv[idx + 1]) / 2.0
        if fallback is None:
            fallback = (j, float(thresholds[0]))

        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), sy] = 1.0
        prefix = np.cumsum(onehot, axis=0)
        left_counts = prefix[idx]
        right_counts = prefix[-1] - left_counts
        lsz = (idx + 1).astype(float)
        rsz = float(n) - lsz
        gains = (
            parent_imp
            - (lsz / n) * _impurity_rows(left_counts, lsz, criterion)
            - (rsz / n) * _impurity_rows(right_counts, rsz, criterion)
        )
        k = int(np.argmax(gains))  # first max: smallest threshold wins ties
        if best is None or gains[k] > best[0]:  # strict: lowest feature wins ties
            best = (float(gains[k]), j, float(thresholds[k]))
    return best, fallback


def fit_tree(data: PreparedDataset, params: TreeParams) -> DecisionTree:
    """Grow a tree on the prepared dataset. Deterministic, no randomness."""
    if len(data) == 0:
        raise EmptyTrainingSet("cannot fit a tree on zero rows")
    classes = tuple(sorted(set(int(v) for v in data.y)))
    code_of = {c: k for k, c in enumerate(classes)}
    codes = np.array([code_of[int(v)] for v in data.y], dtype=int)
    X = data.X
    n_classes = len(classes)

    nodes: list[TreeNode] = []
    max_depth_seen = 0

    def grow(rows: np.ndarray, depth: int) -> int:
        nonlocal max_depth_seen
        max_depth_seen = max(max_depth_seen, depth)
        counts = np.bincount(codes[rows], minlength=n_classes)
        here = len(nodes)
        nodes.append(None)  # reserve preorder slot

        pure = int(np.count_nonzero(counts)) <= 1
        split = None
        if not pure and depth < params.max_depth:
            best, fallback = _best_split(
                X, codes, rows, n_classes, params.min_samples_leaf, params.criterion
            )
            if best is not None:
                gain, j, thr = best
                if gain <= 0.0:
                    j, thr = fallback  # zero-gain fallback keeps parity splits alive
                split = (j, thr)

        if split is None:
            nodes[here] = TreeNode(
                kind="leaf",
                feature=None,
                threshold=None,
                left=None,
                right=None,
                class_counts=tuple(int(c) for c in counts),
                prediction=_majority(counts, classes),
            )
            return here

        j, thr = split
        mask = X[rows, j] <= thr
        left = grow(rows[mask], depth + 1)
        right = grow(rows[~mask], depth + 1)
        nodes[here] = TreeNode(
            kind="split",
            feature=j,
            threshold=thr,
            left=left,
            right=right,
            class_counts=tuple(int(c) for c in counts),
            prediction=_majority(counts, classes),
        )
        return here

    grow(np.arange(len(data)), 0)
    return DecisionTree(
        nodes=tuple(nodes),
        params=params,
        feature_names=data.feature_names,
        classes=classes,
        depth=max_depth_seen,
    )


def predict(tree: DecisionTree, row) -> int:
    """Classify one row: a sequence in feature order, or a mapping by name."""
    if isinstance(row, Mapping):
        def value_of(feature: int) -> float:
            name = tree.feature_names[feature]
            if name not in row:
                raise MissingFeature(f"row lacks feature {name!r}")
            return row[name]
    else:
        def value_of(feature: int) -> float:
            if feature >= len(row):
                raise MissingFeature(f"row lacks feature {tree.feature_names[feature]!r}")
            return row[feature]

    node = tree.nodes[0]
    while node.kind == "split":
        value = value_of(node.feature)
        if value is None or (isinstance(value, float) and math.isnan(value)):
            raise MissingFeature(f"row lacks feature {tree.feature_names[node.feature]!r}")
        node = tree.nodes[node.left if value <= node.threshold else node.right]
    return node.prediction


def predict_many(tree: DecisionTree, X) -> list[int]:
    X = np.asarray(X, dtype=float)
    out = []
    for i in range(len(X)):
        node = tree.nodes[0]
        while node.kind == "split":
            node = tree.nodes[node.left if X[i, node.feature] <= node.threshold else node.right]
        out.append(node.prediction)
    return out


def accuracy(tree: DecisionTree, data: PreparedDataset) -> float:
    return float(np.mean(np.asarray(predict_many(tree, data.X)) == data.y))


def feature_importance(tree: DecisionTree, train: PreparedDataset | None = None) -> dict:
    """Impurity-decrease importance per feature, normalized to sum to 1.

    Each split contributes (node rows / total rows) * its impurity decrease,
    measured with the tree's own training criterion. An all-leaf tree scores
    every feature zero. Fitted trees carry their per-node training counts, so
    train is only cross-checked against the root when given.
    """
    totals = {name: 0.0 for name in tree.feature_names}
    root_rows = sum(tree.nodes[0].class_counts)
    if train is not None and len(train) != root_rows:
        raise PartitionMismatch(
            f"training split has {len(train)} rows, the tree was fit on {root_rows}"
        )
    criterion = tree.params.criterion

    def imp(counts: tuple[int, ...]) -> float:
        arr = np.array(counts, dtype=float)
        return float(_impurity_rows(arr[None, :], np.array([arr.sum()]), criterion)[0])

    for node in tree.nodes:
        if node.kind != "split":
            continue
        n = sum(node.class_counts)
        left = tree.nodes[node.left]
        right = tree.nodes[node.right]
        nl, nr = sum(left.class_counts), sum(right.class_counts)
        decrease = imp(node.class_counts) - (nl / n) * imp(left.class_counts) - (nr / n) * imp(right.class_counts)
        totals[tree.feature_names[node.feature]] += (n / root_rows) * decrease

    grand = math.fsum(totals.values())
    if grand > 0:
        totals = {name: v / grand for name, v in totals.items()}
    return totals


# -- serialization ----------------------------------------------------------------


def tree_to_dict(tree: DecisionTree) -> dict:
    return {
        "nodes": [
            {
                "kind": n.kind,
                "feature": n.feature,
                "threshold": n.threshold,
                "left": n.left,
                "right": n.right,
                "class_counts": list(n.class_counts),
                "prediction": n.prediction,
            }
            for n in tree.nodes
        ],
        "params": {
            "max_depth": tree.params.max_depth,
            "min_samples_leaf": tree.params.min_samples_leaf,
            "criterion": tree.params.criterion,
        },
        "feature_names": list(tree.feature_names),
        "classes": list(tree.classes),
        "depth": tree.depth,
    }


def tree_from_dict(data: Mapping) -> DecisionTree:
    try:
        params = TreeParams(
            max_depth=data["params"]["max_depth"],
            min_samples_leaf=data["params"]["min_samples_leaf"],
            criterion=data["params"]["criterion"],
        )
        nodes = tuple(
            TreeNode(
                kind=raw["kind"],
                feature=raw["feature"],
                threshold=raw["threshold"],
                left=raw["left"],
                right=raw["right"],
                class_counts=tuple(raw["class_counts"]),
                prediction=raw["prediction"],
            )
            for raw in data["nodes"]
        )
        tree = DecisionTree(
            nodes=nodes,
            params=params,
            feature_names=tuple(data["feature_names"]),
            classes=tuple(data["classes"]),
            depth=data["depth"],
        )
    except (KeyError, TypeError, BadParams) as exc:
        raise ModelFormatError(f"malformed model: {exc}") from None

    if not tree.nodes:
        raise ModelFormatError("malformed model: empty node list")
    for i, node in enumerate(tree.nodes):
        if node.kind == "leaf":
            continue
        if node.kind != "split":
            raise ModelFormatError(f"malformed model: node {i} has kind {node.kind!r}")
        if node.feature is None or not 0 <= node.feature < len(tree.feature_names):
            raise ModelFormatError(f"malformed model: node {i} splits on feature {node.feature!r}")
        for child in (node.left, node.right):
            if not isinstance(child, int) or not 0 <= child < len(tree.nodes):
                raise ModelFormatError(f"malformed model: node {i} points at child {child!r}")
    return tree


def save_tree(tree: DecisionTree, path, extra: Mapping | None = None) -> None:
    payload = tree_to_dict(tree)
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_tree(path) -> DecisionTree:
    with open_text(path, ModelFormatError) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"{path}: invalid JSON: {exc.msg}") from None
    return tree_from_dict(data)
