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

fit_trees grows several trees on one dataset in a single preorder
recursion. At a node that several trees hold, the rows are sorted, the
admissible cuts listed and the class counts on each side taken once; the
gain is computed once per criterion, and each tree picks from the cuts its
own leaf minimum admits. Trees that pick the same split grow its children
together. A larger leaf minimum only drops cuts from the list, keeping
their order, so each tree is the one it would be if grown alone. fit_tree
is fit_trees with one params.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
from .prepare import PreparedDataset, PreprocessStats, stats_from_dict, stats_to_dict

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


class _NodeArrays(NamedTuple):
    """tree.nodes as parallel arrays; a leaf has feature -1 and itself as children."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    prediction: np.ndarray  # object dtype: the nodes' own prediction values


@dataclass(frozen=True)
class DecisionTree:
    nodes: tuple[TreeNode, ...]  # preorder, root at 0
    params: TreeParams
    feature_names: tuple[str, ...]
    classes: tuple[int, ...]
    depth: int

    @cached_property
    def _arrays(self) -> _NodeArrays:
        """The nodes as the parallel arrays _descend walks, built on first use."""
        n = len(self.nodes)
        arrays = _NodeArrays(
            feature=np.full(n, -1, dtype=np.intp),
            threshold=np.full(n, np.nan),
            left=np.arange(n),
            right=np.arange(n),
            prediction=np.empty(n, dtype=object),
        )
        for i, node in enumerate(self.nodes):
            arrays.prediction[i] = node.prediction
            if node.kind == "split":
                arrays.feature[i], arrays.threshold[i] = node.feature, node.threshold
                arrays.left[i], arrays.right[i] = node.left, node.right
        return arrays


def _majority(counts: np.ndarray, classes: tuple[int, ...]) -> int:
    best = int(np.argmax(counts))  # argmax takes the first max: lowest label wins ties
    return classes[best]


def _best_splits(X, codes, rows, n_classes, choices):
    """Best admissible (gain, feature, threshold) plus the fallback split, for
    each (min_leaf, criterion) in choices: (None, None) where none is admissible.

    One argsort sorts every column and one (n, F, K) prefix holds the class
    counts left of each cut; cuts fall only between distinct values, so the
    order of tied rows changes no count. Every (feature, threshold) admissible
    at the smallest min_leaf is scored at once, once per criterion. Candidates
    are listed feature-major with thresholds ascending; a larger min_leaf only
    drops some of them, keeping that order. So the first argmax over a
    choice's own candidates breaks ties toward the lowest feature, then the
    smallest threshold, and its fallback, used when the best gain is exactly
    zero, is its first candidate.
    """
    n = len(rows)
    y = codes[rows]
    sub = X[rows]
    order = np.argsort(sub, axis=0)
    sv = sub[order, np.arange(sub.shape[1])]
    # cut i of a column falls between sorted rows i and i+1: a candidate when
    # the values differ there and both sides keep min_leaf rows
    least = min(min_leaf for min_leaf, _ in choices)
    left_sizes = np.arange(1, n)
    sized = (left_sizes >= least) & ((n - left_sizes) >= least)
    feature, cut = np.nonzero(((sv[1:] != sv[:-1]) & sized[:, None]).T)
    if feature.size == 0:
        return [(None, None)] * len(choices)
    thresholds = (sv[cut, feature] + sv[cut + 1, feature]) / 2.0

    onehot = np.zeros(sub.shape + (n_classes,))
    onehot[np.arange(n)[:, None], np.arange(sub.shape[1]), y[order]] = 1.0
    prefix = np.cumsum(onehot, axis=0)
    left_counts = prefix[cut, feature]
    lsz = (cut + 1).astype(float)
    rsz = float(n) - lsz
    # the node's counts (the last prefix row), then each candidate's left and
    # right side, in one count matrix: one impurity pass per criterion
    m = len(cut)
    counts = np.concatenate([prefix[-1, :1], left_counts, prefix[-1, feature] - left_counts])
    sizes = np.concatenate([[float(n)], lsz, rsz])

    gains = {}
    for criterion in {criterion for _, criterion in choices}:
        impurity = _impurity_rows(counts, sizes, criterion)
        gains[criterion] = impurity[0] - (lsz / n) * impurity[1 : m + 1] - (rsz / n) * impurity[m + 1 :]

    picks = []
    admitted = {}  # min_leaf -> the indices of its candidates
    for min_leaf, criterion in choices:
        if min_leaf not in admitted:
            admitted[min_leaf] = np.flatnonzero((lsz >= min_leaf) & (rsz >= min_leaf))
        own = admitted[min_leaf]
        if own.size == 0:
            picks.append((None, None))
            continue
        k = own[int(np.argmax(gains[criterion][own]))]  # first max: lowest feature, then smallest threshold
        first = own[0]
        picks.append(
            (
                (float(gains[criterion][k]), int(feature[k]), float(thresholds[k])),
                (int(feature[first]), float(thresholds[first])),
            )
        )
    return picks


def fit_trees(data: PreparedDataset, params_list: Sequence[TreeParams]) -> list[DecisionTree]:
    """Grow one tree per params on the prepared dataset, all in one recursion.

    The trees that hold a node share its sort and class counts (_best_splits);
    each takes its own split from them, and the trees that take the same one
    grow its children together. Each tree equals a fit of it alone.
    Deterministic, no randomness.
    """
    if len(data) == 0:
        raise EmptyTrainingSet("cannot fit a tree on zero rows")
    classes = tuple(sorted(set(int(v) for v in data.y)))
    code_of = {c: k for k, c in enumerate(classes)}
    codes = np.array([code_of[int(v)] for v in data.y], dtype=int)
    X = data.X
    n_classes = len(classes)

    nodes: list[list[TreeNode]] = [[] for _ in params_list]
    depths = [0] * len(params_list)

    def grow(rows: np.ndarray, depth: int, group: list[int]) -> None:
        """Add the node of these rows, and the nodes below it, to each tree of group."""
        counts = np.bincount(codes[rows], minlength=n_classes)
        class_counts = tuple(counts.tolist())
        prediction = _majority(counts, classes)
        here = {}
        for t in group:
            depths[t] = max(depths[t], depth)
            here[t] = len(nodes[t])
            nodes[t].append(None)  # reserve preorder slot

        # (feature, threshold) -> the trees that split on it, with the
        # threshold each one keeps
        splits: dict[tuple[int, float], list[tuple[int, float]]] = {}
        if int(np.count_nonzero(counts)) > 1:
            active = [t for t in group if depth < params_list[t].max_depth]
            choices = [(params_list[t].min_samples_leaf, params_list[t].criterion) for t in active]
            picks = _best_splits(X, codes, rows, n_classes, choices) if active else []
            for t, (best, fallback) in zip(active, picks):
                if best is not None:
                    gain, j, thr = best
                    if gain <= 0.0:
                        j, thr = fallback  # zero-gain fallback keeps parity splits alive
                    splits.setdefault((j, thr), []).append((t, thr))

        leaf = TreeNode(
            kind="leaf",
            feature=None,
            threshold=None,
            left=None,
            right=None,
            class_counts=class_counts,
            prediction=prediction,
        )
        for t in group:
            nodes[t][here[t]] = leaf  # until a split below replaces it

        for (j, thr), taken in splits.items():
            mask = X[rows, j] <= thr
            sub = [t for t, _ in taken]
            grow(rows[mask], depth + 1, sub)
            right = {t: len(nodes[t]) for t in sub}
            grow(rows[~mask], depth + 1, sub)
            for t, own_thr in taken:
                nodes[t][here[t]] = TreeNode(
                    kind="split",
                    feature=j,
                    threshold=own_thr,
                    left=here[t] + 1,  # preorder: the left child follows its parent
                    right=right[t],
                    class_counts=class_counts,
                    prediction=prediction,
                )

    grow(np.arange(len(data)), 0, list(range(len(params_list))))
    return [
        DecisionTree(
            nodes=tuple(nodes[t]),
            params=params,
            feature_names=data.feature_names,
            classes=classes,
            depth=depths[t],
        )
        for t, params in enumerate(params_list)
    ]


def fit_tree(data: PreparedDataset, params: TreeParams) -> DecisionTree:
    """Grow a tree on the prepared dataset. Deterministic, no randomness."""
    return fit_trees(data, [params])[0]


def predict(tree: DecisionTree, row) -> int:
    """Classify one row: a sequence in feature order, or a mapping by name.

    The row becomes one float vector, NaN where it lacks a feature or holds
    None, and goes through predict_many.
    """
    if isinstance(row, Mapping):
        values = [row.get(name) for name in tree.feature_names]
    else:
        values = list(row[: len(tree.feature_names)])
        values += [None] * (len(tree.feature_names) - len(values))
    vector = np.array([np.nan if v is None else v for v in values], dtype=float)
    return predict_many(tree, vector[None, :])[0]


def _descend(tree: DecisionTree, X: np.ndarray, max_depth: int | None = None, stops=None):
    """Prediction for each row of X, moving all rows down one level per step.

    A NaN read on a row's path is a MissingFeature. With max_depth the walk
    stops there: a split node at depth max_depth then stands in for the leaf
    a max_depth fit puts there, as both predict the majority of the same
    counts. Children lie after their parent in preorder, so the walk ends
    within len(nodes) steps.

    With stops, a sequence of depths (None for the whole tree), the one walk
    goes as deep as the deepest of them and returns, in their order, the
    predictions of the tree cut off at each.
    """
    depths = [max_depth] if stops is None else list(stops)
    last = None if None in depths else max(depths, default=0)
    arrays = tree._arrays
    node = np.zeros(len(X), dtype=np.intp)
    live = np.flatnonzero(arrays.feature[node] >= 0)
    cut = {}
    depth = 0
    while live.size and (last is None or depth < last):
        if depth in depths:
            cut[depth] = arrays.prediction[node]
        at = node[live]
        values = X[live, arrays.feature[at]]
        missing = np.isnan(values)
        if missing.any():
            first = int(np.argmax(missing))
            name = tree.feature_names[arrays.feature[at[first]]]
            raise MissingFeature(f"row {live[first]} lacks feature {name!r}")
        node[live] = np.where(values <= arrays.threshold[at], arrays.left[at], arrays.right[at])
        live = live[arrays.feature[node[live]] >= 0]
        depth += 1
    end = arrays.prediction[node]
    predictions = [cut.get(d, end) for d in depths]
    return predictions if stops is not None else predictions[0]


def _score(tree: DecisionTree, data: PreparedDataset, max_depth: int | None = None) -> float:
    """Accuracy on data of the tree cut off at max_depth (whole when None)."""
    return _scores(tree, data, [max_depth])[0]


def _scores(tree: DecisionTree, data: PreparedDataset, depths) -> list[float]:
    """_score at each of depths, from one walk of data down the tree."""
    return [float(np.mean(p == data.y)) for p in _descend(tree, data.X, stops=depths)]


def predict_many(tree: DecisionTree, X) -> list:
    """Classify each row of X, a matrix in feature order; NaN counts as missing."""
    return _descend(tree, np.asarray(X, dtype=float)).tolist()


def accuracy(tree: DecisionTree, data: PreparedDataset) -> float:
    return _score(tree, data)


def feature_importance(tree: DecisionTree) -> dict:
    """Impurity-decrease importance per feature, normalized to sum to 1.

    Each split contributes (node rows / total rows) * its impurity decrease,
    measured with the tree's own training criterion, from the per-node
    training counts the tree carries. An all-leaf tree scores every feature
    zero.
    """
    totals = {name: 0.0 for name in tree.feature_names}
    root_rows = sum(tree.nodes[0].class_counts)
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


def save_model(path, tree: DecisionTree, stats: PreprocessStats) -> None:
    """Write model.json: the tree, and the preprocessing that makes its features."""
    write_json(path, {**tree_to_dict(tree), "preprocessing": stats_to_dict(stats)})


def load_model(path) -> tuple[DecisionTree, PreprocessStats]:
    """Read a model.json that save_model wrote. Its preprocessing section must
    be there, and make exactly the features the tree names."""
    payload = load_json(path, ModelFormatError)
    tree = tree_from_dict(payload)
    if "preprocessing" not in payload:
        raise ModelFormatError(f"{path}: model lacks the preprocessing section")
    stats = stats_from_dict(payload["preprocessing"])
    if stats.feature_names != tree.feature_names:
        raise ModelFormatError(
            f"{path}: the tree names the features {list(tree.feature_names)}, "
            f"its preprocessing makes {list(stats.feature_names)}"
        )
    return tree, stats
