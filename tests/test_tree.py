"""Impurity math, tree induction, prediction, and importance.

The impurity oracle re-evaluates the formulas directly (independent of the
module's vectorized code paths) over random count vectors.
"""

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillsgraph import (
    DecisionTree,
    PreparedDataset,
    TreeParams,
    accuracy,
    entropy,
    feature_importance,
    fit_tree,
    gini,
    information_gain,
)
from skillsgraph.errors import (
    BadParams,
    EmptyCounts,
    EmptyTrainingSet,
    MissingFeature,
    ModelFormatError,
    PartitionMismatch,
)
from skillsgraph.cohort import feature_columns, generate_cohort, planted_profile
from skillsgraph.prepare import NUMERIC, PreprocessStats, RawColumn, preprocess
from skillsgraph.tree import (
    _best_splits,
    _descend,
    _impurity_rows,
    _score,
    _scores,
    fit_trees,
    load_model,
    predict_many,
    save_model,
    tree_from_dict,
    tree_to_dict,
)


def direct_entropy(counts):
    total = sum(counts)
    return -sum((c / total) * math.log2(c / total) for c in counts if c)


def direct_gini(counts):
    total = sum(counts)
    return 1.0 - sum((c / total) ** 2 for c in counts)


def dataset(X, y, names=None):
    X = np.asarray(X, dtype=float)
    names = tuple(names or [f"f{j}" for j in range(X.shape[1])])
    stats = PreprocessStats(columns=(), feature_names=names)
    return PreparedDataset(X=X, y=np.asarray(y, dtype=int), feature_names=names, stats=stats)


XOR = dataset([[0, 0], [0, 1], [1, 0], [1, 1]], [0, 1, 1, 0])


class TestImpurity:
    @pytest.mark.parametrize(
        "counts,want",
        [((2, 2), 1.0), ((4, 0), 0.0), ((1, 1, 1, 1), 2.0)],
    )
    def test_entropy_fixtures(self, counts, want):
        assert entropy(counts) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize(
        "counts,want",
        [((2, 2), 0.5), ((7, 0), 0.0), ((1, 3), 0.375)],
    )
    def test_gini_fixtures(self, counts, want):
        assert gini(counts) == pytest.approx(want, abs=1e-12)

    def test_1000_random_vectors_match_direct_formulas(self):
        rng = random.Random(314)
        for _ in range(1000):
            k = rng.randint(1, 6)
            counts = [rng.randint(0, 50) for _ in range(k)]
            if sum(counts) == 0:
                counts[rng.randrange(k)] = 1
            assert entropy(counts) == pytest.approx(direct_entropy(counts), abs=1e-10)
            assert gini(counts) == pytest.approx(direct_gini(counts), abs=1e-10)

    def test_bounds_and_purity(self):
        rng = random.Random(600)
        for _ in range(200):
            k = rng.randint(1, 5)
            counts = [rng.randint(0, 30) for _ in range(k)]
            if sum(counts) == 0:
                counts[0] = 1
            h, g = entropy(counts), gini(counts)
            assert -1e-12 <= h <= math.log2(k) + 1e-12
            assert -1e-12 <= g <= 1 - 1 / k + 1e-12
            pure = sum(1 for c in counts if c) == 1
            assert (h == 0.0) == pure
            assert (g == 0.0) == pure

    def test_empty_counts(self):
        with pytest.raises(EmptyCounts):
            entropy((0, 0))
        with pytest.raises(EmptyCounts):
            gini(())

    def test_negative_counts(self):
        with pytest.raises(PartitionMismatch):
            entropy((-1, 2))


class TestInformationGain:
    def test_perfect_split(self):
        assert information_gain((2, 2), [(2, 0), (0, 2)]) == pytest.approx(1.0, abs=1e-12)

    def test_proportional_children_zero_gain(self):
        assert information_gain((4, 2), [(2, 1), (2, 1)]) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        got = information_gain((3, 1), [(2, 0), (1, 1)])
        assert got == pytest.approx(0.8112781244591328 - 0.5, abs=1e-4)

    def test_gini_criterion(self):
        got = information_gain((2, 2), [(2, 0), (0, 2)], criterion="gini")
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_partition_mismatch(self):
        with pytest.raises(PartitionMismatch):
            information_gain((3, 1), [(2, 0), (0, 2)])

    def test_unknown_criterion(self):
        with pytest.raises(BadParams):
            information_gain((2, 2), [(2, 0), (0, 2)], criterion="chi2")

    def test_nonnegative_over_random_partitions(self):
        rng = random.Random(42)
        for _ in range(300):
            k = rng.randint(2, 4)
            left = [rng.randint(0, 20) for _ in range(k)]
            right = [rng.randint(0, 20) for _ in range(k)]
            parent = [a + b for a, b in zip(left, right)]
            if sum(parent) == 0 or sum(left) == 0 or sum(right) == 0:
                continue
            for criterion in ("entropy", "gini"):
                assert information_gain(parent, [left, right], criterion) >= -1e-12

    def test_log_base_rescales_without_changing_argmax(self):
        # candidate splits ranked by bits-gain; the nats-gain of the winner
        # must be within float noise of the nats maximum
        rng = random.Random(52)
        ln2 = math.log(2.0)
        for _ in range(100):
            parent = [rng.randint(1, 15), rng.randint(1, 15)]
            candidates = []
            for _ in range(5):
                l0 = rng.randint(0, parent[0])
                l1 = rng.randint(0, parent[1])
                left, right = [l0, l1], [parent[0] - l0, parent[1] - l1]
                if sum(left) == 0 or sum(right) == 0:
                    continue
                candidates.append(information_gain(parent, [left, right]))
            if not candidates:
                continue
            nats = [g * ln2 for g in candidates]
            assert nats[candidates.index(max(candidates))] == pytest.approx(max(nats), abs=1e-12)


class TestFitTree:
    def test_xor_perfect_at_depth_two(self):
        params = TreeParams(max_depth=2, min_samples_leaf=1, criterion="entropy")
        model = fit_tree(XOR, params)
        assert model.depth == 2
        assert accuracy(model, XOR) == 1.0
        assert predict_many(model, [[0.0, 1.0], [1.0, 1.0]]) == [1, 0]

    def test_single_class_single_leaf(self):
        data = dataset([[0.1], [0.5], [0.9]], [1, 1, 1])
        model = fit_tree(data, TreeParams(max_depth=5, min_samples_leaf=1, criterion="gini"))
        assert len(model.nodes) == 1
        assert model.nodes[0].kind == "leaf"
        assert model.nodes[0].prediction == 1
        assert model.depth == 0

    def test_max_depth_zero_majority_leaf(self):
        data = dataset([[0.0], [1.0], [0.5]], [0, 1, 1])
        model = fit_tree(data, TreeParams(max_depth=0, min_samples_leaf=1, criterion="entropy"))
        assert len(model.nodes) == 1
        assert model.nodes[0].prediction == 1

    def test_majority_tie_predicts_class_zero(self):
        data = dataset([[0.0], [1.0]], [1, 0])
        model = fit_tree(data, TreeParams(max_depth=0, min_samples_leaf=1, criterion="entropy"))
        assert model.nodes[0].prediction == 0

    def test_min_samples_leaf_blocks_split(self):
        data = dataset([[0.0], [0.2], [0.8], [1.0]], [0, 0, 1, 1])
        model = fit_tree(data, TreeParams(max_depth=4, min_samples_leaf=3, criterion="entropy"))
        # any split would leave a child below three rows
        assert len(model.nodes) == 1

    def test_empty_training_set(self):
        data = dataset(np.zeros((0, 2)), [])
        with pytest.raises(EmptyTrainingSet):
            fit_tree(data, TreeParams(max_depth=2, min_samples_leaf=1, criterion="entropy"))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_depth": -1, "min_samples_leaf": 1, "criterion": "entropy"},
            {"max_depth": 2, "min_samples_leaf": 0, "criterion": "entropy"},
            {"max_depth": 2, "min_samples_leaf": 1, "criterion": "twoing"},
            {"max_depth": 2.5, "min_samples_leaf": 1, "criterion": "gini"},
        ],
    )
    def test_bad_params(self, kwargs):
        with pytest.raises(BadParams):
            TreeParams(**kwargs)

    def _structure_ok(self, model, params, n_rows):
        leaf_depths = []

        def walk(idx, depth):
            node = model.nodes[idx]
            if node.kind == "leaf":
                leaf_depths.append(depth)
                assert sum(node.class_counts) >= params.min_samples_leaf
            else:
                left, right = model.nodes[node.left], model.nodes[node.right]
                assert sum(left.class_counts) + sum(right.class_counts) == sum(node.class_counts)
                walk(node.left, depth + 1)
                walk(node.right, depth + 1)

        walk(0, 0)
        assert max(leaf_depths) <= params.max_depth
        assert max(leaf_depths) == model.depth
        assert sum(model.nodes[0].class_counts) == n_rows

    def test_structural_invariants_random_data(self):
        rng = np.random.default_rng(77)
        for trial in range(30):
            n = int(rng.integers(5, 60))
            d = int(rng.integers(1, 5))
            X = rng.random((n, d)).round(2)
            y = rng.integers(0, 2, n)
            data = dataset(X, y)
            params = TreeParams(
                max_depth=int(rng.integers(1, 6)),
                min_samples_leaf=int(rng.integers(1, 5)),
                criterion=("entropy", "gini")[trial % 2],
            )
            self._structure_ok(fit_tree(data, params), params, n)

    def test_deterministic_fit(self):
        rng = np.random.default_rng(5)
        X = rng.random((40, 3))
        y = rng.integers(0, 2, 40)
        data = dataset(X, y)
        params = TreeParams(max_depth=6, min_samples_leaf=2, criterion="entropy")
        assert tree_to_dict(fit_tree(data, params)) == tree_to_dict(fit_tree(data, params))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_training_rows_route_to_counted_leaves(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        X = rng.random((n, 2)).round(1)
        y = rng.integers(0, 2, n)
        data = dataset(X, y)
        model = fit_tree(data, TreeParams(max_depth=4, min_samples_leaf=1, criterion="gini"))
        # every training row lands on a leaf whose majority matches prediction
        predict_many(model, X)  # must not raise
        assert 0.0 <= accuracy(model, data) <= 1.0


def reference_best_split(X, codes, rows, n_classes, min_leaf, criterion):
    """One argsort and one prefix per feature, features scanned in order."""
    n = len(rows)
    parent_counts = np.bincount(codes[rows], minlength=n_classes).astype(float)
    parent_imp = float(_impurity_rows(parent_counts[None, :], np.array([float(n)]), criterion)[0])
    best = fallback = None
    for j in range(X.shape[1]):
        col = X[rows, j]
        order = np.argsort(col, kind="stable")
        sv, sy = col[order], codes[rows][order]
        change = np.nonzero(sv[1:] != sv[:-1])[0]
        admissible = ((change + 1) >= min_leaf) & ((n - change - 1) >= min_leaf)
        idx = change[admissible]
        if idx.size == 0:
            continue
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
        k = int(np.argmax(gains))
        if best is None or gains[k] > best[0]:
            best = (float(gains[k]), j, float(thresholds[k]))
    return best, fallback


class TestBestSplit:
    def test_matches_per_feature_scan(self):
        rng = np.random.default_rng(31)
        for trial in range(300):
            n = int(rng.integers(2, 80))
            d = int(rng.integers(1, 8))
            k = int(rng.integers(2, 12))
            X = rng.random((n, d)).round(int(rng.integers(0, 3)))  # rounding forces ties
            codes = rng.integers(0, k, n)
            rows = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
            min_leaf = int(rng.integers(1, 6))
            criterion = ("entropy", "gini")[trial % 2]
            got = _best_splits(X, codes, rows, k, [(min_leaf, criterion)])
            assert got == [reference_best_split(X, codes, rows, k, min_leaf, criterion)]

    def test_no_admissible_split(self):
        X = np.array([[0.5, 1.0], [0.5, 1.0], [0.5, 1.0]])
        assert _best_splits(X, np.array([0, 1, 0]), np.arange(3), 2, [(1, "gini")]) == [(None, None)]

    def test_several_choices_match_one_scan_each(self):
        rng = np.random.default_rng(32)
        for trial in range(200):
            n = int(rng.integers(2, 60))
            k = int(rng.integers(2, 6))
            X = rng.random((n, int(rng.integers(1, 5)))).round(int(rng.integers(0, 3)))
            codes = rng.integers(0, k, n)
            rows = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
            choices = [
                (int(rng.integers(1, 8)), ("entropy", "gini")[int(rng.integers(0, 2))])
                for _ in range(int(rng.integers(1, 6)))
            ]
            got = _best_splits(X, codes, rows, k, choices)
            assert got == [reference_best_split(X, codes, rows, k, m, c) for m, c in choices]


def reference_fit_tree(data, params):
    """One tree grown alone, each node's split from reference_best_split."""
    classes = tuple(sorted(set(int(v) for v in data.y)))
    codes = np.array([classes.index(int(v)) for v in data.y], dtype=int)
    nodes = []
    deepest = 0

    def grow(rows, depth):
        nonlocal deepest
        deepest = max(deepest, depth)
        counts = np.bincount(codes[rows], minlength=len(classes))
        here = len(nodes)
        nodes.append(None)
        node = dict(kind="leaf", feature=None, threshold=None, left=None, right=None,
                    class_counts=[int(c) for c in counts], prediction=classes[int(np.argmax(counts))])
        if np.count_nonzero(counts) > 1 and depth < params.max_depth:
            best, fallback = reference_best_split(
                data.X, codes, rows, len(classes), params.min_samples_leaf, params.criterion
            )
            if best is not None:
                j, thr = best[1:] if best[0] > 0.0 else fallback
                mask = data.X[rows, j] <= thr
                left = grow(rows[mask], depth + 1)
                right = grow(rows[~mask], depth + 1)
                node.update(kind="split", feature=j, threshold=thr, left=left, right=right)
        nodes[here] = node
        return here

    grow(np.arange(len(data)), 0)
    return {
        "nodes": nodes,
        "params": {"max_depth": params.max_depth, "min_samples_leaf": params.min_samples_leaf,
                   "criterion": params.criterion},
        "feature_names": list(data.feature_names),
        "classes": list(classes),
        "depth": deepest,
    }


class TestFitTrees:
    """fit_trees grows many trees in one recursion; each must equal its own fit."""

    @staticmethod
    def random_case(rng):
        n = int(rng.integers(1, 70))
        X = rng.random((n, int(rng.integers(1, 5)))).round(int(rng.integers(0, 3)))  # ties
        labels = rng.choice([-4, 0, 2, 5, 9, 30], size=int(rng.integers(1, 5)), replace=False)
        y = labels[rng.integers(0, len(labels), n)]
        params = [
            TreeParams(
                max_depth=int(rng.integers(0, 6)),
                min_samples_leaf=int(rng.integers(1, n // 2 + 3)),  # some admit no split
                criterion=("entropy", "gini")[int(rng.integers(0, 2))],
            )
            for _ in range(int(rng.integers(1, 7)))
        ]
        params += params[: int(rng.integers(0, 3))]  # repeated params
        return dataset(X, y), params

    def test_each_tree_equals_its_own_fit(self):
        rng = np.random.default_rng(61)
        for _ in range(250):
            data, params = self.random_case(rng)
            got = [tree_to_dict(tree) for tree in fit_trees(data, params)]
            assert got == [tree_to_dict(fit_tree(data, p)) for p in params]
            assert got == [reference_fit_tree(data, p) for p in params]

    def test_one_row_and_depth_zero(self):
        one = dataset([[0.3, 0.7]], [5])
        params = [TreeParams(0), TreeParams(3, 1, "gini"), TreeParams(3, 2)]
        for tree in fit_trees(one, params):
            assert [n.kind for n in tree.nodes] == ["leaf"] and tree.nodes[0].prediction == 5
        trees = fit_trees(XOR, [TreeParams(0), TreeParams(2), TreeParams(2, 3)])
        assert [len(tree.nodes) for tree in trees] == [1, 7, 1]
        assert [tree.depth for tree in trees] == [0, 2, 0]

    def test_no_params_no_trees(self):
        assert fit_trees(XOR, []) == []

    def test_scores_at_many_depths_match_one_walk_each(self):
        rng = np.random.default_rng(62)
        for _ in range(60):
            data, params = self.random_case(rng)
            Z = rng.random((int(rng.integers(1, 40)), data.X.shape[1])).round(1)
            held = dataset(Z, rng.choice(np.unique(data.y), len(Z)))
            for tree in fit_trees(data, params):
                # every depth from 0 to past the tree's own, in any order
                depths = [int(d) for d in rng.permutation(tree.depth + 3)] + [None, 0]
                assert _scores(tree, held, depths) == [_score(tree, held, d) for d in depths]


class TestDeepTrees:
    """Growth holds no Python frame per level, so a tree may be of any depth."""

    @staticmethod
    def chain(n):
        # labels alternate along one feature: each split peels one row off
        return dataset(np.arange(n, dtype=float)[:, None], np.arange(n) % 2)

    @pytest.mark.parametrize("criterion", ["entropy", "gini"])
    def test_chain_deeper_than_the_recursion_limit(self, criterion):
        data = self.chain(3000)
        model = fit_tree(data, TreeParams(100000, 1, criterion))
        assert model.depth == 2999 > sys.getrecursionlimit()
        assert accuracy(model, data) == 1.0

    @pytest.mark.parametrize("criterion", ["entropy", "gini"])
    def test_chain_equals_the_recursive_reference(self, criterion):
        data = self.chain(300)  # shallow enough for reference_fit_tree's recursion
        params = TreeParams(100000, 1, criterion)
        assert [tree_to_dict(tree) for tree in fit_trees(data, [params])] == [reference_fit_tree(data, params)]


class TestTruncation:
    @pytest.mark.parametrize("criterion", ["entropy", "gini"])
    @pytest.mark.parametrize("min_leaf", [1, 3, 7])
    def test_deep_tree_cut_at_depth_predicts_like_shallow_fit(self, criterion, min_leaf):
        rng = np.random.default_rng(min_leaf)
        X = rng.random((300, 4)).round(2)
        y = ((X[:, 0] + X[:, 1] * X[:, 2] + 0.3 * rng.standard_normal(300)) > 0.8).astype(int)
        data = dataset(X, y)
        deep = fit_tree(data, TreeParams(max_depth=10, min_samples_leaf=min_leaf, criterion=criterion))
        Z = rng.random((500, 4)).round(2)
        for depth in range(11):
            shallow = fit_tree(data, TreeParams(max_depth=depth, min_samples_leaf=min_leaf, criterion=criterion))
            assert _descend(deep, Z, depth).tolist() == predict_many(shallow, Z)


class TestPredict:
    def setup_method(self):
        self.model = fit_tree(XOR, TreeParams(max_depth=2, min_samples_leaf=1, criterion="entropy"))

    def test_rows_in_feature_order(self):
        assert predict_many(self.model, [[0.0, 0.0], [1.0, 0.0]]) == [0, 1]

    def test_nan_feature(self):
        with pytest.raises(MissingFeature):
            predict_many(self.model, [[0.0, float("nan")]])

    def test_predict_many_matches_predict(self):
        rows = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        assert predict_many(self.model, rows) == [predict_many(self.model, [r])[0] for r in rows]

    def test_predict_many_matches_predict_on_random_trees(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            X = rng.random((80, 3)).round(1)
            y = rng.integers(0, 3, 80)
            model = fit_tree(dataset(X, y), TreeParams(max_depth=int(rng.integers(0, 7)), min_samples_leaf=1))
            Z = rng.random((50, 3)).round(1)
            assert predict_many(model, Z) == [predict_many(model, [row])[0] for row in Z]
            # with missing cells, the two calls agree row by row: same class, or both raise
            Z[rng.random(Z.shape) < 0.1] = np.nan
            for row in Z:
                try:
                    want = predict_many(model, [row])[0]
                except MissingFeature:
                    with pytest.raises(MissingFeature):
                        predict_many(model, [row])
                else:
                    assert predict_many(model, [row]) == [want]

    def test_nan_on_the_path_is_missing_in_every_walk(self):
        with pytest.raises(MissingFeature, match="row 1 lacks feature 'f1'"):
            predict_many(self.model, [[0.0, 1.0], [0.0, float("nan")]])
        data = dataset([[1.0, 0.0], [float("nan"), 1.0]], [1, 1])
        with pytest.raises(MissingFeature, match="row 1 lacks feature 'f0'"):
            accuracy(self.model, data)

    def test_feature_off_the_path_may_be_missing(self):
        data = dataset([[0.0, 0.9], [0.2, 0.4], [0.8, 0.1], [1.0, 0.7]], [0, 0, 1, 1])
        model = fit_tree(data, TreeParams(max_depth=1, min_samples_leaf=1, criterion="entropy"))
        assert {node.feature for node in model.nodes if node.kind == "split"} == {0}
        assert predict_many(model, [[0.1, float("nan")]]) == [0]
        assert predict_many(model, [[0.9, float("nan")]]) == [1]

    def test_predict_many_no_rows(self):
        assert predict_many(self.model, []) == []
        assert predict_many(self.model, np.empty((0, 1))) == []

    @pytest.mark.parametrize(
        "X,lacks",
        [([[0.0]], "f1"), ([[1.0], [0.0]], "f1"), ([[]], "f0"), ([0.0, 1.0], "f0"), ([[float("nan")]], "f1")],
    )
    def test_short_rows_name_the_first_missing_feature(self, X, lacks):
        with pytest.raises(MissingFeature, match=f"^row 0 lacks feature '{lacks}'$"):
            predict_many(self.model, X)

    def test_short_rows_are_missing_whatever_path_they_take(self):
        data = dataset([[0.0, 0.9], [0.2, 0.4], [0.8, 0.1], [1.0, 0.7]], [0, 0, 1, 1], names=("a", "b"))
        model = fit_tree(data, TreeParams(max_depth=1, min_samples_leaf=1, criterion="entropy"))
        leaf = fit_tree(data, TreeParams(max_depth=0, min_samples_leaf=1, criterion="entropy"))
        assert {node.feature for node in model.nodes if node.kind == "split"} == {0}
        for tree in (model, leaf):
            with pytest.raises(MissingFeature, match="^row 0 lacks feature 'b'$"):
                predict_many(tree, [[0.1]])

    def test_extra_columns_are_ignored(self):
        assert predict_many(self.model, [[0.0, 1.0, 7.0], [1.0, 1.0, float("nan")]]) == [1, 0]


def reference_feature_importance(tree):
    """feature_importance walking the TreeNode view, one node at a time."""
    totals = {name: 0.0 for name in tree.feature_names}
    root_rows = sum(tree.nodes[0].class_counts)
    criterion = tree.params.criterion

    def imp(counts):
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


class TestImportance:
    def test_equals_the_node_walk_on_random_trees(self):
        rng = np.random.default_rng(61)
        criteria = set()
        for _ in range(150):
            data, params = TestFitTrees.random_case(rng)
            for tree in fit_trees(data, params):
                assert feature_importance(tree) == reference_feature_importance(tree)  # bit for bit
                criteria.add(tree.params.criterion)
        assert criteria == {"entropy", "gini"}

    @pytest.mark.parametrize("criterion", ["entropy", "gini"])
    def test_equals_the_node_walk_on_a_loaded_model(self, tmp_path, criterion):
        prepared = preprocess(*feature_columns(generate_cohort(300, seed=4, profile=planted_profile())))
        model = fit_tree(prepared, TreeParams(max_depth=8, min_samples_leaf=2, criterion=criterion))
        save_model(tmp_path / "model.json", model, prepared.stats)
        loaded, _ = load_model(tmp_path / "model.json")
        assert len(loaded.feature) > 20
        assert feature_importance(loaded) == reference_feature_importance(loaded) == feature_importance(model)

    def test_single_leaf_all_zero(self):
        data = dataset([[0.3], [0.4]], [1, 1])
        model = fit_tree(data, TreeParams(max_depth=3, min_samples_leaf=1, criterion="entropy"))
        imp = feature_importance(model)
        assert imp == {"f0": 0.0}

    def test_single_split_full_credit(self):
        data = dataset([[0.0, 0.9], [0.2, 0.4], [0.8, 0.1], [1.0, 0.7]], [0, 0, 1, 1])
        model = fit_tree(data, TreeParams(max_depth=1, min_samples_leaf=1, criterion="entropy"))
        imp = feature_importance(model)
        assert imp["f0"] == pytest.approx(1.0, abs=1e-12)
        assert imp["f1"] == 0.0

    def test_nonnegative_and_normalized(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(8, 60))
            X = rng.random((n, 3)).round(2)
            y = rng.integers(0, 2, n)
            model = fit_tree(dataset(X, y), TreeParams(max_depth=5, min_samples_leaf=2, criterion="gini"))
            imp = feature_importance(model)
            values = list(imp.values())
            assert all(v >= 0 for v in values)
            total = sum(values)
            assert total == pytest.approx(1.0, abs=1e-9) or total == 0.0

    def test_hand_computed_two_level_tree(self):
        # root: f0 <= 0.35 peels off three zeros (gain 0.3, weight 8/8);
        # depth 1: f1 <= 0.5 purifies the rest (gain 0.32, weight 5/8);
        # contributions 0.3 and 0.2 normalize to 0.6 / 0.4
        X = [
            [0.0, 0.0], [0.1, 1.0], [0.2, 0.0],
            [0.8, 1.0], [0.9, 1.0], [1.0, 1.0],
            [0.5, 0.0], [0.5, 1.0],
        ]
        y = [0, 0, 0, 1, 1, 1, 0, 1]
        model = fit_tree(dataset(X, y), TreeParams(max_depth=2, min_samples_leaf=1, criterion="gini"))
        imp = feature_importance(model)
        assert imp["f0"] == pytest.approx(0.6, abs=1e-9)
        assert imp["f1"] == pytest.approx(0.4, abs=1e-9)


# XOR through preprocess, so the model has the stats that make its features
XOR_PREPARED = preprocess(
    [RawColumn("f0", NUMERIC, (0, 0, 1, 1)), RawColumn("f1", NUMERIC, (0, 1, 0, 1))], [0, 1, 1, 0]
)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = fit_tree(XOR_PREPARED, TreeParams(max_depth=2, min_samples_leaf=1, criterion="entropy"))
        p = tmp_path / "model.json"
        save_model(p, model, XOR_PREPARED.stats)
        loaded, stats = load_model(p)
        assert tree_to_dict(loaded) == tree_to_dict(model)
        assert stats == XOR_PREPARED.stats
        rows = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        assert predict_many(loaded, rows) == predict_many(model, rows)

    def test_byte_stable_save(self, tmp_path):
        model = fit_tree(XOR_PREPARED, TreeParams(max_depth=2, min_samples_leaf=1, criterion="entropy"))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(a, model, XOR_PREPARED.stats)
        save_model(b, model, XOR_PREPARED.stats)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("nodes"),
            lambda d: d["nodes"][0].update(kind="branch"),
            lambda d: d.update(params={"max_depth": 2}),
            lambda d: d["nodes"][0].update(left=0),
            lambda d: d["nodes"][0].update(right=0),
            lambda d: d["nodes"][1].update(kind="split", feature=0, threshold=0.5, left=0, right=2),
            lambda d: d["nodes"][0].update(left=True),
            lambda d: d["nodes"][0].update(threshold="0.5"),
            lambda d: d["nodes"][0].update(threshold=None),
            lambda d: d["nodes"][0].update(threshold=float("nan")),
            lambda d: d["nodes"][0].update(threshold=10**400),
            lambda d: d["nodes"][0].update(feature=True),
            lambda d: d["nodes"][0].update(feature=0.0),
        ],
    )
    def test_malformed_rejected(self, mutate):
        model = fit_tree(XOR, TreeParams(max_depth=2, min_samples_leaf=1, criterion="entropy"))
        payload = tree_to_dict(model)
        mutate(payload)
        with pytest.raises(ModelFormatError):
            tree_from_dict(payload)
