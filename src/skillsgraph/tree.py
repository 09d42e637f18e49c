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

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    BadParams,
    EmptyCounts,
    EmptyTrainingSet,
    MissingFeature,
    ModelFormatError,
    PartitionMismatch,
    load_json,
)
from .graph import finite_number
from .jsonio import write_json
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

    One stable argsort sorts every column and one (n, F, K) prefix holds the
    class counts left of each cut, so every admissible (feature, threshold)
    is scored at once. Candidates are listed feature-major with thresholds
    ascending, so the first argmax breaks ties toward the lowest feature, then
    the smallest threshold. The fallback is the first admissible candidate,
    used when the best gain is exactly zero.
    """
    n = len(rows)
    y = codes[rows]
    parent_counts = np.bincount(y, minlength=n_classes).astype(float)
    parent_imp = float(_impurity_rows(parent_counts[None, :], np.array([float(n)]), criterion)[0])

    sub = X[rows]
    order = np.argsort(sub, axis=0, kind="stable")
    sv = np.take_along_axis(sub, order, axis=0)
    # cut i of a column falls between sorted rows i and i+1: a candidate when
    # the values differ there and both sides keep min_leaf rows
    left_sizes = np.arange(1, n)
    sized = (left_sizes >= min_leaf) & ((n - left_sizes) >= min_leaf)
    feature, cut = np.nonzero(((sv[1:] != sv[:-1]) & sized[:, None]).T)
    if feature.size == 0:
        return None, None
    thresholds = (sv[cut, feature] + sv[cut + 1, feature]) / 2.0

    onehot = np.zeros(sub.shape + (n_classes,))
    onehot[np.arange(n)[:, None], np.arange(sub.shape[1]), y[order]] = 1.0
    prefix = np.cumsum(onehot, axis=0)
    left_counts = prefix[cut, feature]
    right_counts = prefix[-1, feature] - left_counts
    lsz = (cut + 1).astype(float)
    rsz = float(n) - lsz
    gains = (
        parent_imp
        - (lsz / n) * _impurity_rows(left_counts, lsz, criterion)
        - (rsz / n) * _impurity_rows(right_counts, rsz, criterion)
    )
    k = int(np.argmax(gains))  # first max: lowest feature, then smallest threshold
    best = (float(gains[k]), int(feature[k]), float(thresholds[k]))
    return best, (int(feature[0]), float(thresholds[0]))


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


class _NodeArrays(NamedTuple):
    """tree.nodes as parallel arrays; a leaf has feature -1 and itself as children."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    prediction: np.ndarray  # object dtype: the nodes' own prediction values


def _node_arrays(tree: DecisionTree) -> _NodeArrays:
    n = len(tree.nodes)
    arrays = _NodeArrays(
        feature=np.full(n, -1, dtype=np.intp),
        threshold=np.full(n, np.nan),
        left=np.arange(n),
        right=np.arange(n),
        prediction=np.empty(n, dtype=object),
    )
    for i, node in enumerate(tree.nodes):
        arrays.prediction[i] = node.prediction
        if node.kind == "split":
            arrays.feature[i], arrays.threshold[i] = node.feature, node.threshold
            arrays.left[i], arrays.right[i] = node.left, node.right
    return arrays


def _descend(arrays: _NodeArrays, X: np.ndarray, max_depth: int | None = None) -> np.ndarray:
    """Node each row of X reaches, moving all rows down one level per step.

    With max_depth the walk stops there: a split node at depth max_depth then
    stands in for the leaf a max_depth fit puts there, as both predict the
    majority of the same counts. Children lie after their parent in preorder,
    so the walk ends within len(nodes) steps.
    """
    node = np.zeros(len(X), dtype=np.intp)
    live = np.flatnonzero(arrays.feature[node] >= 0)
    depth = 0
    while live.size and (max_depth is None or depth < max_depth):
        at = node[live]
        goes_left = X[live, arrays.feature[at]] <= arrays.threshold[at]
        node[live] = np.where(goes_left, arrays.left[at], arrays.right[at])
        live = live[arrays.feature[node[live]] >= 0]
        depth += 1
    return node


def _predict_rows(arrays: _NodeArrays, X, max_depth: int | None = None) -> list:
    X = np.asarray(X, dtype=float)
    return arrays.prediction[_descend(arrays, X, max_depth)].tolist()


def _score(arrays: _NodeArrays, data: PreparedDataset, max_depth: int | None = None) -> float:
    """Accuracy on data of the tree cut off at max_depth (whole when None)."""
    return float(np.mean(np.asarray(_predict_rows(arrays, data.X, max_depth)) == data.y))


def predict_many(tree: DecisionTree, X) -> list:
    return _predict_rows(_node_arrays(tree), X)


def accuracy(tree: DecisionTree, data: PreparedDataset) -> float:
    return _score(_node_arrays(tree), data)


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
        if not _is_index(node.prediction):
            raise ModelFormatError(f"malformed model: node {i} predicts {node.prediction!r}")
        if node.kind == "leaf":
            continue
        if node.kind != "split":
            raise ModelFormatError(f"malformed model: node {i} has kind {node.kind!r}")
        if not _is_index(node.feature) or not 0 <= node.feature < len(tree.feature_names):
            raise ModelFormatError(f"malformed model: node {i} splits on feature {node.feature!r}")
        if not finite_number(node.threshold):
            raise ModelFormatError(f"malformed model: node {i} has threshold {node.threshold!r}")
        # children after their parent: every walk down the tree then ends
        for child in (node.left, node.right):
            if not _is_index(child) or not i < child < len(tree.nodes):
                raise ModelFormatError(f"malformed model: node {i} points at child {child!r}")
    return tree


def _is_index(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def save_tree(tree: DecisionTree, path, extra: Mapping | None = None) -> None:
    payload = tree_to_dict(tree)
    if extra:
        payload.update(extra)
    write_json(path, payload)


def load_tree(path) -> DecisionTree:
    return tree_from_dict(load_json(path, ModelFormatError))
