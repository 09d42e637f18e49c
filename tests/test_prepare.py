"""Preprocessing (impute, winsorize, scale, one-hot) and stratified splitting.

reference_transform_categorical one-hot encodes row by row, as
_transform_categorical did before it encoded by lookup; the two must give
the same matrix and the same warnings in the same order.
"""

import random
import warnings

import numpy as np
import pytest

from skillsgraph import RawColumn, apply_stats, preprocess, stratified_folds, stratified_split
from skillsgraph.errors import AllMissingColumn, DegenerateSplit, EmptyFitSet, PartitionMismatch
from skillsgraph.prepare import (
    CATEGORICAL,
    NUMERIC,
    CategoricalStats,
    _transform_categorical,
    stats_from_dict,
    stats_to_dict,
)


def num(name, values):
    return RawColumn(name, NUMERIC, tuple(values))


def cat(name, values):
    return RawColumn(name, CATEGORICAL, tuple(values))


class TestNumericPipeline:
    def test_min_max_scaling(self):
        data = preprocess([num("x", [0.0, 5.0, 10.0])], [0, 0, 1])
        assert data.X[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_median_imputation(self):
        data = preprocess([num("x", [1.0, 2.0, 3.0, None])], [0, 0, 1, 1])
        # missing filled with 2.0 then scaled over [1, 3]
        assert data.X[3, 0] == 0.5

    def test_winsorize_clamps_outlier(self):
        values = [10.0, 12.0, 14.0, 16.0, 1000.0]
        data = preprocess([num("x", values)], [0] * 5)
        # q1=12, q3=16, iqr=4 -> upper fence 22; the outlier lands at the max
        assert data.X[4, 0] == 1.0
        assert data.X[0, 0] == 0.0
        stats = data.stats.columns[0][2]
        assert stats.upper_fence == 22.0
        assert stats.maximum == 22.0

    def test_constant_column_scales_to_zero(self):
        data = preprocess([num("x", [3.0, 3.0, 3.0])], [0, 1, 0])
        assert data.X[:, 0].tolist() == [0.0, 0.0, 0.0]

    def test_fit_rows_only_shape_statistics(self):
        data = preprocess([num("x", [0.0, 10.0, 20.0, 100.0])], [0, 0, 1, 1], fit_rows=[0, 1, 2])
        # 100.0 is outside the fit range; it is fence-clipped then clipped to 1
        assert data.X[3, 0] == 1.0
        assert data.X[2, 0] == 1.0

    def test_all_missing_column(self):
        with pytest.raises(AllMissingColumn) as exc:
            preprocess([num("age", [None, None])], [0, 1])
        assert "age" in str(exc.value)

    def test_empty_fit_set(self):
        with pytest.raises(EmptyFitSet):
            preprocess([num("x", [1.0, 2.0])], [0, 1], fit_rows=[])


class TestCategoricalPipeline:
    def test_one_hot_layout(self):
        data = preprocess([cat("eth", ["a", "b", "c", "d", "a"])], [0, 1, 0, 1, 0])
        assert data.feature_names == ("eth=a", "eth=b", "eth=c", "eth=d")
        assert data.X.shape == (5, 4)
        assert (data.X.sum(axis=1) == 1.0).all()
        assert data.X[0].tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_mode_imputation_tie_breaks_lexicographically(self):
        data = preprocess([cat("c", ["b", "b", "a", "a", None])], [0, 0, 1, 1, 0])
        # a and b tie at two apiece; the lexicographically smaller mode wins
        assert data.X[4].tolist() == [1.0, 0.0]

    def test_unseen_category_warns_and_zeroes(self):
        fitted = preprocess([cat("c", ["a", "b", "a"])], [0, 1, 0], fit_rows=[0, 1, 2])
        with pytest.warns(UserWarning, match="not seen at fit time"):
            row = apply_stats([cat("c", ["z"])], fitted.stats)
        assert row.tolist() == [[0.0, 0.0]]

    def test_mixed_columns_preserve_order(self):
        data = preprocess(
            [cat("g", ["m", "f"]), num("x", [0.0, 2.0]), num("y", [1.0, 3.0])],
            [0, 1],
        )
        assert data.feature_names == ("g=f", "g=m", "x", "y")


def reference_transform_categorical(name, values, stats):
    """One row at a time: impute the mode, then set that category's column."""
    col_index = {c: j for j, c in enumerate(stats.categories)}
    out = np.zeros((len(values), len(stats.categories)))
    for i, v in enumerate(values):
        v = stats.mode if v is None else v
        j = col_index.get(v)
        if j is None:
            warnings.warn(
                f"column {name!r}: category {v!r} not seen at fit time, encoding as all zeros"
            )
        else:
            out[i, j] = 1.0
    return [f"{name}={c}" for c in stats.categories], out


def test_lookup_one_hot_matches_the_row_loop():
    rng = random.Random(77)
    for _ in range(200):
        categories = tuple(sorted(rng.sample("abcdefg", rng.randint(0, 5))))
        mode = rng.choice(categories + ("z",))  # a mode may be unseen too
        pool = list(categories) + [None, "x", "y", "z"]
        values = tuple(rng.choice(pool) for _ in range(rng.randint(0, 40)))
        stats = CategoricalStats(mode=mode, categories=categories)
        results = []
        for transform in (_transform_categorical, reference_transform_categorical):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                names, X = transform("c", values, stats)
            results.append((names, X, [str(w.message) for w in caught]))
        (names, X, messages), (want_names, want_X, want_messages) = results
        assert names == want_names
        assert X.shape == want_X.shape and np.array_equal(X, want_X)
        assert messages == want_messages


class TestApplyStats:
    def test_matches_fit_transform(self):
        cols = [num("x", [0.0, 5.0, 10.0]), cat("c", ["a", "b", "a"])]
        fitted = preprocess(cols, [0, 1, 0])
        again = apply_stats(cols, fitted.stats)
        assert np.array_equal(again, fitted.X)

    def test_missing_column_rejected(self):
        fitted = preprocess([num("x", [0.0, 1.0])], [0, 1])
        with pytest.raises(PartitionMismatch):
            apply_stats([num("y", [0.0, 1.0])], fitted.stats)

    def test_idempotent_on_prepared_data(self):
        # spread-out data: fences are loose, min/max are attained, so the
        # second pass must be the identity
        values = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.5, 8.0, 10.0]
        first = preprocess([num("x", values)], [0] * 9)
        second = preprocess([num("x", first.X[:, 0].tolist())], [0] * 9)
        assert np.abs(second.X - first.X).max() <= 1e-12

    def test_stats_round_trip(self):
        cols = [num("x", [0.0, 5.0, None]), cat("c", ["a", None, "b"])]
        fitted = preprocess(cols, [0, 1, 0])
        rebuilt = stats_from_dict(stats_to_dict(fitted.stats))
        assert rebuilt == fitted.stats
        assert np.array_equal(apply_stats(cols, rebuilt), fitted.X)


def toy_dataset(class_sizes, n_features=2, seed=0):
    rng = np.random.default_rng(seed)
    n = sum(class_sizes)
    cols = [num(f"f{j}", rng.random(n).tolist()) for j in range(n_features)]
    labels = [c for c, size in enumerate(class_sizes) for _ in range(size)]
    return preprocess(cols, labels)


class TestStratifiedSplit:
    def test_quota_fixture(self):
        data = toy_dataset([5, 5])
        train, test = stratified_split(data, 0.7, seed=0)
        assert len(train.y) == 7 and len(test.y) == 3
        # largest remainder on (3.5, 3.5) with total 7: class 0 rounds up first
        assert (train.y == 0).sum() == 4 and (train.y == 1).sum() == 3
        assert (test.y == 0).sum() == 1 and (test.y == 1).sum() == 2

    def test_partition_is_exact(self):
        data = toy_dataset([12, 8, 5])
        train, test = stratified_split(data, 0.6, seed=3)
        assert len(train.y) + len(test.y) == 25
        merged = np.vstack([train.X, test.X])
        assert {tuple(r) for r in merged} == {tuple(r) for r in data.X}

    def test_seed_determinism(self):
        data = toy_dataset([10, 10])
        a = stratified_split(data, 0.7, seed=5)
        b = stratified_split(data, 0.7, seed=5)
        assert np.array_equal(a[0].X, b[0].X) and np.array_equal(a[1].X, b[1].X)
        c = stratified_split(data, 0.7, seed=6)
        assert not np.array_equal(a[0].X, c[0].X)

    def test_single_row_class_goes_to_train(self):
        data = toy_dataset([6, 1])
        train, test = stratified_split(data, 0.7, seed=1)
        assert (train.y == 1).sum() == 1
        assert (test.y == 1).sum() == 0

    def test_degenerate_split_empty_test(self):
        data = toy_dataset([1])
        with pytest.raises(DegenerateSplit):
            stratified_split(data, 0.7, seed=0)

    def test_degenerate_split_empty_train(self):
        data = toy_dataset([2])
        with pytest.raises(DegenerateSplit):
            stratified_split(data, 0.01, seed=0)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
    def test_bad_fraction(self, fraction):
        data = toy_dataset([5, 5])
        with pytest.raises(DegenerateSplit):
            stratified_split(data, fraction, seed=0)


class TestStratifiedFolds:
    def test_fold_sizes_balanced(self):
        y = np.array([0] * 11 + [1] * 7)
        folds = stratified_folds(y, 5, seed=2)
        assert len(folds) == 5
        all_rows = np.concatenate(folds)
        assert sorted(all_rows.tolist()) == list(range(18))
        for fold in folds:
            cls0 = (y[fold] == 0).sum()
            assert cls0 in (2, 3)  # 11 rows over 5 folds

    def test_fold_class_quotas(self):
        y = np.array([0] * 10 + [1] * 5)
        folds = stratified_folds(y, 5, seed=0)
        for fold in folds:
            assert (y[fold] == 0).sum() == 2
            assert (y[fold] == 1).sum() == 1

    def test_seed_changes_assignment(self):
        y = np.array([0, 1] * 10)
        a = stratified_folds(y, 5, seed=0)
        b = stratified_folds(y, 5, seed=1)
        assert any(not np.array_equal(x, z) for x, z in zip(a, b))
