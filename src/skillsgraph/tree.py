"""Binary decision tree induction from first principles.

Impurity is entropy (base 2) or gini. Candidate thresholds sit halfway
between consecutive distinct sorted feature values; a split is admissible only
if both children keep at least min_samples_leaf rows. Growth stops on
purity, the depth cap, or no admissible split. When every admissible split
has zero information gain but the node is impure and depth remains, the node
still splits on the lowest-index feature at its smallest admissible threshold:
parity problems (XOR) have flat first-level gains and are otherwise
unreachable. Equal gains break toward the lowest feature index, then the
smallest threshold. Fitting is deterministic: same data, same tree.

fit_trees grows several trees on one dataset in a single preorder pass.
At a node that several trees hold, the rows are sorted, the admissible cuts
listed and the class counts on each side taken once; the gain is computed
once per criterion, and each tree picks from the cuts its own leaf minimum
admits. Trees that pick the same split grow its children together. A larger
leaf minimum only drops cuts from the list, keeping their order, so each
tree is the one it would be if grown alone. fit_tree is fit_trees with one
params. The nodes to grow wait on an explicit stack, not in Python
recursion, so a tree of any depth fits.

A tree is its nodes as preorder columns, the root at 0 and a left child
right after its parent (DecisionTree): feature (-1 at a leaf), threshold
(NaN at a leaf), left and right (-1 at a leaf), prediction, and the
training class counts as one (nodes x classes) int64 array. Growth appends
to the columns, prediction walks them, model.json is written from them and
read into them, and feature_importance sums over their split rows.
DecisionTree.nodes, a tuple of TreeNode, is a view built on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

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
    """One node of the DecisionTree.nodes view."""

    kind: str  # "split" | "leaf"
    feature: int | None
    threshold: float | None
    left: int | None
    right: int | None
    class_counts: tuple[int, ...]
    prediction: int  # majority class label, ties to the lowest label


@dataclass(frozen=True, eq=False)
class DecisionTree:
    """A fitted tree as preorder columns, one entry per node, root at 0."""

    feature: np.ndarray  # intp, -1 at a leaf
    threshold: np.ndarray  # float64, NaN at a leaf
    left: np.ndarray  # intp, -1 at a leaf
    right: np.ndarray  # intp, -1 at a leaf
    prediction: np.ndarray  # object: the int each node predicts
    counts: np.ndarray  # (nodes, classes) int64 training class counts
    params: TreeParams
    feature_names: tuple[str, ...]
    classes: tuple[int, ...]
    depth: int

    @cached_property
    def nodes(self) -> tuple[TreeNode, ...]:
        """The nodes as TreeNode objects, built on first use."""
        return tuple(TreeNode(**{**node, "class_counts": tuple(node["class_counts"])}) for node in _node_dicts(self))


# each column of a DecisionTree, and its dtype
_COLUMNS = {"feature": np.intp, "threshold": float, "left": np.intp, "right": np.intp,
            "prediction": object, "counts": np.int64}
_LEAF = {"feature": -1, "threshold": math.nan, "left": -1, "right": -1}


def _tree(columns: dict, params: TreeParams, feature_names, classes, depth) -> DecisionTree:
    """A DecisionTree from a list per column of its nodes in preorder."""
    arrays = {name: np.array(columns[name], dtype=dtype) for name, dtype in _COLUMNS.items()}
    return DecisionTree(
        **arrays, params=params, feature_names=tuple(feature_names), classes=tuple(classes), depth=depth
    )


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
    """Grow one tree per params on the prepared dataset, all in one pass.

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

    columns = [{name: [] for name in _COLUMNS} for _ in params_list]
    depths = [0] * len(params_list)
    # the nodes still to grow: their rows, depth, and the trees that hold
    # them, each with the node whose right child it is (None for a root or a
    # left child). A left child is pushed last, so its subtree is taken
    # before its right sibling: each tree's nodes come in preorder.
    stack = [(np.arange(len(data)), 0, [(t, None) for t in range(len(params_list))])]
    while stack:
        rows, depth, holders = stack.pop()
        counts = np.bincount(codes[rows], minlength=n_classes)
        leaf = {**_LEAF, "prediction": _majority(counts, classes), "counts": counts}
        here = {}
        for t, parent in holders:
            tree = columns[t]
            here[t] = len(tree["feature"])
            if parent is not None:
                tree["right"][parent] = here[t]
            for name, value in leaf.items():  # a leaf, until a split below makes it one
                tree[name].append(value)
            depths[t] = max(depths[t], depth)

        # (feature, threshold) -> the trees that split on it, with the
        # threshold each one keeps
        splits: dict[tuple[int, float], list[tuple[int, float]]] = {}
        if int(np.count_nonzero(counts)) > 1:
            active = [t for t, _ in holders if depth < params_list[t].max_depth]
            choices = [(params_list[t].min_samples_leaf, params_list[t].criterion) for t in active]
            picks = _best_splits(X, codes, rows, n_classes, choices) if active else []
            for t, (best, fallback) in zip(active, picks):
                if best is not None:
                    gain, j, thr = best
                    if gain <= 0.0:
                        j, thr = fallback  # zero-gain fallback keeps parity splits alive
                    splits.setdefault((j, thr), []).append((t, thr))

        for (j, thr), taken in splits.items():
            for t, own_thr in taken:
                tree = columns[t]
                tree["feature"][here[t]] = j
                tree["threshold"][here[t]] = own_thr
                tree["left"][here[t]] = here[t] + 1  # the right child sets "right" when it is taken
            mask = X[rows, j] <= thr
            stack.append((rows[~mask], depth + 1, [(t, here[t]) for t, _ in taken]))
            stack.append((rows[mask], depth + 1, [(t, None) for t, _ in taken]))

    return [
        _tree(columns[t], params, data.feature_names, classes, depths[t])
        for t, params in enumerate(params_list)
    ]


def fit_tree(data: PreparedDataset, params: TreeParams) -> DecisionTree:
    """Grow a tree on the prepared dataset. Deterministic, no randomness."""
    return fit_trees(data, [params])[0]


def _descend(tree: DecisionTree, X: np.ndarray, max_depth: int | None = None, stops=None):
    """Prediction for each row of X, moving all rows down one level per step.

    A NaN read on a row's path is a MissingFeature. With max_depth the walk
    stops there: a split node at depth max_depth then stands in for the leaf
    a max_depth fit puts there, as both predict the majority of the same
    counts. Children lie after their parent in preorder, so the walk ends
    within len(tree.feature) steps.

    With stops, a sequence of depths (None for the whole tree), the one walk
    goes as deep as the deepest of them and returns, in their order, the
    predictions of the tree cut off at each.
    """
    depths = [max_depth] if stops is None else list(stops)
    last = None if None in depths else max(depths, default=0)
    node = np.zeros(len(X), dtype=np.intp)
    live = np.flatnonzero(tree.feature[node] >= 0)
    cut = {}
    depth = 0
    while live.size and (last is None or depth < last):
        if depth in depths:
            cut[depth] = tree.prediction[node]
        at = node[live]
        values = X[live, tree.feature[at]]
        missing = np.isnan(values)
        if missing.any():
            first = int(np.argmax(missing))
            name = tree.feature_names[tree.feature[at[first]]]
            raise MissingFeature(f"row {live[first]} lacks feature {name!r}")
        node[live] = np.where(values <= tree.threshold[at], tree.left[at], tree.right[at])
        live = live[tree.feature[node[live]] >= 0]
        depth += 1
    end = tree.prediction[node]
    predictions = [cut.get(d, end) for d in depths]
    return predictions if stops is not None else predictions[0]


def _score(tree: DecisionTree, data: PreparedDataset, max_depth: int | None = None) -> float:
    """Accuracy on data of the tree cut off at max_depth (whole when None)."""
    return _scores(tree, data, [max_depth])[0]


def _scores(tree: DecisionTree, data: PreparedDataset, depths) -> list[float]:
    """_score at each of depths, from one walk of data down the tree."""
    return [float(np.mean(p == data.y)) for p in _descend(tree, data.X, stops=depths)]


def predict_many(tree: DecisionTree, X) -> list:
    """Classify each row of X, a matrix in feature order; NaN counts as missing.
    Rows narrower than the features (a flat X has no columns) raise
    MissingFeature for the first one they lack; extra columns are ignored."""
    X = np.asarray(X, dtype=float)
    width = X.shape[1] if X.ndim > 1 else 0
    if len(X) and width < len(tree.feature_names):
        raise MissingFeature(f"row 0 lacks feature {tree.feature_names[width]!r}")
    return _descend(tree, X).tolist()


def accuracy(tree: DecisionTree, data: PreparedDataset) -> float:
    return _score(tree, data)


def feature_importance(tree: DecisionTree) -> dict:
    """Impurity-decrease importance per feature, normalized to sum to 1.

    Each split contributes (node rows / total rows) * its impurity decrease,
    measured with the tree's own training criterion, from the per-node
    training counts the tree carries, summed over the split nodes in
    preorder. An all-leaf tree scores every feature zero.
    """
    totals = {name: 0.0 for name in tree.feature_names}
    sizes = tree.counts.sum(axis=1).tolist()
    impurity = _impurity_rows(tree.counts.astype(float), np.array(sizes, dtype=float), tree.params.criterion).tolist()
    split = np.flatnonzero(tree.feature >= 0)
    rows = (split, tree.feature[split], tree.left[split], tree.right[split])
    for i, j, left, right in zip(*(column.tolist() for column in rows)):
        n = sizes[i]
        decrease = impurity[i] - (sizes[left] / n) * impurity[left] - (sizes[right] / n) * impurity[right]
        totals[tree.feature_names[j]] += (n / sizes[0]) * decrease

    grand = math.fsum(totals.values())
    if grand > 0:
        totals = {name: v / grand for name, v in totals.items()}
    return totals


# -- serialization ----------------------------------------------------------------


def _node_dicts(tree: DecisionTree):
    """Each node, in preorder, as the dict model.json holds for it."""
    columns = (tree.feature, tree.threshold, tree.left, tree.right, tree.counts, tree.prediction)
    for feature, threshold, left, right, counts, prediction in zip(*(column.tolist() for column in columns)):
        split = feature >= 0
        yield {
            "kind": "split" if split else "leaf",
            "feature": feature if split else None,
            "threshold": threshold if split else None,
            "left": left if split else None,
            "right": right if split else None,
            "class_counts": counts,
            "prediction": prediction,
        }


def tree_to_dict(tree: DecisionTree) -> dict:
    return {
        "nodes": list(_node_dicts(tree)),
        "params": {
            "max_depth": tree.params.max_depth,
            "min_samples_leaf": tree.params.min_samples_leaf,
            "criterion": tree.params.criterion,
        },
        "feature_names": list(tree.feature_names),
        "classes": list(tree.classes),
        "depth": tree.depth,
    }


_INT64_MAX = 2**63 - 1


def tree_from_dict(data: Mapping) -> DecisionTree:
    """The tree a model.json object describes, its nodes checked one by one
    as they fill the columns; a ModelFormatError names the first fault."""
    try:
        params = TreeParams(
            max_depth=data["params"]["max_depth"],
            min_samples_leaf=data["params"]["min_samples_leaf"],
            criterion=data["params"]["criterion"],
        )
        raw_nodes = list(data["nodes"])
        feature_names = tuple(data["feature_names"])
        classes = tuple(data["classes"])
        depth = data["depth"]
        if not raw_nodes:
            raise ModelFormatError("malformed model: empty node list")
        columns = {name: [] for name in _COLUMNS}
        for i, raw in enumerate(raw_nodes):
            kind, feature, threshold, left, right, counts, prediction = (
                raw[key] for key in ("kind", "feature", "threshold", "left", "right", "class_counts", "prediction")
            )
            if not _is_index(prediction):
                raise ModelFormatError(f"malformed model: node {i} predicts {prediction!r}")
            if not (
                isinstance(counts, list)
                and len(counts) == len(classes)
                and all(_is_index(c) and 0 <= c <= _INT64_MAX for c in counts)
            ):
                raise ModelFormatError(
                    f"malformed model: node {i} has class_counts {counts!r}, "
                    f"not a list of {len(classes)} integers from 0 to 2**63 - 1"
                )
            if kind == "leaf":
                feature, threshold, left, right = _LEAF.values()
            elif kind != "split":
                raise ModelFormatError(f"malformed model: node {i} has kind {kind!r}")
            elif not _is_index(feature) or not 0 <= feature < len(feature_names):
                raise ModelFormatError(f"malformed model: node {i} splits on feature {feature!r}")
            elif not finite_number(threshold):
                raise ModelFormatError(f"malformed model: node {i} has threshold {threshold!r}")
            else:
                # children after their parent: every walk down the tree then ends
                for child in (left, right):
                    if not _is_index(child) or not i < child < len(raw_nodes):
                        raise ModelFormatError(f"malformed model: node {i} points at child {child!r}")
            for name, value in zip(_COLUMNS, (feature, threshold, left, right, prediction, counts)):
                columns[name].append(value)
    except (KeyError, TypeError, BadParams) as exc:
        raise ModelFormatError(f"malformed model: {exc}") from None
    return _tree(columns, params, feature_names, classes, depth)


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
