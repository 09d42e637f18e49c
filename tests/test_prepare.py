"""Preprocessing (impute, winsorize, scale, one-hot) and stratified splitting.

reference_transform_categorical one-hot encodes row by row, as
_transform_categorical did before it encoded by lookup; the two must give
the same matrix and the same warnings in the same order.

reference_preprocess and reference_apply_stats are the list-based pipeline
that preprocess and apply_stats replaced: each numeric cell converted on its
own, only rows outside the fit set clipped into [0, 1], and a transform loop
of its own in each function. On columns without NaN or a repeated name, the
two must give the same bytes, stats, names, warnings and errors.
"""

import math
import random
import warnings
from collections import Counter

import numpy as np
import pytest

from skillsgraph import RawColumn, apply_stats, preprocess, stratified_folds, stratified_split
from skillsgraph.errors import AllMissingColumn, DegenerateSplit, EmptyFitSet, ModelFormatError, PartitionMismatch
from skillsgraph.prepare import (
    CATEGORICAL,
    NUMERIC,
    CategoricalStats,
    NumericStats,
    PreparedDataset,
    PreprocessStats,
    _features,
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

    def test_nan_is_imputed_like_none(self):
        with_none = preprocess([num("x", [1, 2.0, 3.0, None])], [0, 0, 1, 1])
        with_nan = preprocess([num("x", [1, 2.0, 3.0, math.nan])], [0, 0, 1, 1])
        assert with_nan.X.tobytes() == with_none.X.tobytes()
        assert with_nan.stats == with_none.stats
        assert stats_from_dict(stats_to_dict(with_nan.stats)) == with_nan.stats
        new_rows = apply_stats([num("x", [math.nan, 9.0])], with_nan.stats)
        assert new_rows.tolist() == apply_stats([num("x", [None, 9.0])], with_nan.stats).tolist() == [[0.5], [1.0]]

    def test_fit_rows_scale_into_the_unit_interval_before_any_clip(self):
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randint(2, 40)
            values = [
                rng.choice([None, rng.uniform(-1e300, 1e300), rng.uniform(-1, 1), 1.0 + rng.randint(0, 5) * 2.0**-52])
                for _ in range(n)
            ]
            values[0] = rng.uniform(-1, 1)
            fit_rows = sorted({0} | {rng.randrange(n) for _ in range(n // 2)})
            data = preprocess([num("x", values)], [0] * n, fit_rows=fit_rows)
            stats = data.stats.columns[0][2]
            fit = np.array([stats.median if values[i] is None else values[i] for i in fit_rows])
            fenced = np.clip(fit, stats.lower_fence, stats.upper_fence)
            span = stats.maximum - stats.minimum
            scaled = np.zeros(len(fit)) if span == 0 else (fenced - stats.minimum) / span
            assert ((scaled >= 0.0) & (scaled <= 1.0)).all()
            assert data.X[fit_rows, 0].tobytes() == scaled.tobytes()

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


def module_transform_categorical(name, values, stats):
    return _features(name, CATEGORICAL, stats), _transform_categorical(name, values, stats)


def test_lookup_one_hot_matches_the_row_loop():
    rng = random.Random(77)
    for _ in range(200):
        categories = tuple(sorted(rng.sample("abcdefg", rng.randint(0, 5))))
        mode = rng.choice(categories + ("z",))  # a mode may be unseen too
        pool = list(categories) + [None, "x", "y", "z"]
        values = tuple(rng.choice(pool) for _ in range(rng.randint(0, 40)))
        stats = CategoricalStats(mode=mode, categories=categories)
        results = []
        for transform in (module_transform_categorical, reference_transform_categorical):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                names, X = transform("c", values, stats)
            results.append((names, X, [str(w.message) for w in caught]))
        (names, X, messages), (want_names, want_X, want_messages) = results
        assert names == want_names
        assert X.shape == want_X.shape and np.array_equal(X, want_X)
        assert messages == want_messages


def reference_fit_numeric(values, fit_rows):
    fit_values = [values[i] for i in fit_rows if values[i] is not None]
    if not fit_values:
        raise AllMissingColumn("numeric column has no non-missing fit values")
    median = float(np.median(np.array(fit_values, dtype=float)))
    imputed = np.array([values[i] if values[i] is not None else median for i in fit_rows], dtype=float)
    q1, q3 = np.quantile(imputed, 0.25), np.quantile(imputed, 0.75)
    iqr = q3 - q1
    lower, upper = float(q1 - 1.5 * iqr), float(q3 + 1.5 * iqr)
    clipped = np.clip(imputed, lower, upper)
    return NumericStats(median, lower, upper, float(clipped.min()), float(clipped.max()))


def reference_transform_numeric(values, stats, fit_mask):
    arr = np.array([v if v is not None else stats.median for v in values], dtype=float)
    arr = np.clip(arr, stats.lower_fence, stats.upper_fence)
    span = stats.maximum - stats.minimum
    scaled = np.zeros_like(arr) if span == 0 else (arr - stats.minimum) / span
    scaled[~fit_mask] = np.clip(scaled[~fit_mask], 0.0, 1.0)
    return scaled


def reference_fit_categorical(values, fit_rows):
    fit_values = [values[i] for i in fit_rows if values[i] is not None]
    if not fit_values:
        raise AllMissingColumn("categorical column has no non-missing fit values")
    freq = {}
    for v in fit_values:
        freq[v] = freq.get(v, 0) + 1
    top = max(freq.values())
    return CategoricalStats(mode=min(v for v, c in freq.items() if c == top), categories=tuple(sorted(freq)))


def reference_preprocess(columns, labels, fit_rows=None):
    """Fit and transform column by column, by position."""
    if not columns:
        raise PartitionMismatch("no columns to preprocess")
    n = len(columns[0].values)
    for col in columns:
        if len(col.values) != n:
            raise PartitionMismatch(f"column {col.name!r} has {len(col.values)} rows, expected {n}")
    if len(labels) != n:
        raise PartitionMismatch(f"got {len(labels)} labels for {n} rows")
    fit_rows = list(range(n)) if fit_rows is None else sorted(set(fit_rows))
    if not fit_rows:
        raise EmptyFitSet("fit set is empty")
    if fit_rows[0] < 0 or fit_rows[-1] >= n:
        raise PartitionMismatch("fit row index out of range")
    fit_mask = np.zeros(n, dtype=bool)
    fit_mask[fit_rows] = True
    fitted, names, blocks = [], [], []
    for col in columns:
        if col.kind not in (NUMERIC, CATEGORICAL):
            raise PartitionMismatch(f"column {col.name!r}: unknown kind {col.kind!r}")
        fit = reference_fit_numeric if col.kind == NUMERIC else reference_fit_categorical
        try:
            stats = fit(col.values, fit_rows)
        except AllMissingColumn:
            raise AllMissingColumn(f"column {col.name!r} is all-missing in the fit rows") from None
        if col.kind == NUMERIC:
            names.append(col.name)
            blocks.append(reference_transform_numeric(col.values, stats, fit_mask)[:, None])
        else:
            block_names, block = reference_transform_categorical(col.name, col.values, stats)
            names.extend(block_names)
            blocks.append(block)
        fitted.append((col.name, col.kind, stats))
    stats = PreprocessStats(columns=tuple(fitted), feature_names=tuple(names))
    return PreparedDataset(np.hstack(blocks), np.asarray(labels, dtype=int), tuple(names), stats)


def reference_apply_stats(columns, stats):
    """Look each fitted column up by name; nothing is a fit row."""
    by_name = {col.name: col for col in columns}
    n = len(columns[0].values) if columns else 0
    fit_mask = np.zeros(n, dtype=bool)
    blocks = []
    for name, kind, fitted in stats.columns:
        col = by_name.get(name)
        if col is None:
            raise PartitionMismatch(f"missing column {name!r}")
        if kind == NUMERIC:
            blocks.append(reference_transform_numeric(col.values, fitted, fit_mask)[:, None])
        else:
            blocks.append(reference_transform_categorical(name, col.values, fitted)[1])
    return np.hstack(blocks)


def random_numeric(rng, n):
    style = rng.choice(["ints", "floats", "mixed", "constant", "outliers", "close", "huge"] * 4 + ["missing"])
    if style == "missing":
        return [None] * n
    if style == "constant":
        v = rng.choice([0, 3, 2.5, -7.25])
        return [None if rng.random() < 0.2 else v for _ in range(n)]
    draw = {
        "ints": lambda: rng.randint(-5, 40),
        "floats": lambda: rng.uniform(-10.0, 10.0),
        "mixed": lambda: rng.choice([rng.randint(0, 9), round(rng.uniform(0, 9), 1)]),
        "outliers": lambda: rng.choice([rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(-1e6, 1e6)]),
        # neighbouring floats, where a rounding that is not monotone would show
        "close": lambda: 1.0 + rng.randint(0, 6) * 2.0 ** -52,
        "huge": lambda: rng.choice([rng.randint(0, 2**70), rng.uniform(-1e300, 1e300), 2**53 + 1]),
    }[style]
    missing = rng.choice([0.0, 0.1, 0.3, 0.9])
    return [None if rng.random() < missing else draw() for _ in range(n)]


def random_categorical(rng, n):
    pool = rng.sample(["a", "b", "c", "d", "e"], rng.randint(1, 4))
    missing = rng.choice([0.0, 0.2, 0.7] * 4 + [1.0])
    return [None if rng.random() < missing else rng.choice(pool) for _ in range(n)]


def random_case(rng):
    """Columns, labels and fit rows, now and then one of them malformed."""
    n = rng.choice([0, 1, 2, 3, 5, 8, 13, 30, 30, 30])
    columns = []
    for j in range(rng.randint(0, 4) if rng.random() < 0.02 else rng.randint(1, 4)):
        kind = rng.choice([NUMERIC, NUMERIC, CATEGORICAL, CATEGORICAL] + (["ordinal"] if rng.random() < 0.03 else []))
        values = random_numeric(rng, n) if kind == NUMERIC else random_categorical(rng, n)
        if rng.random() < 0.01:
            values.append(values[-1] if values else None)
        columns.append(RawColumn(f"c{j}", kind, tuple(values)))
    labels = [rng.randint(0, 1) for _ in range(n + (rng.random() < 0.02))]
    fit_rows = None
    if rng.random() < 0.6:
        fit_rows = [rng.randrange(n) for _ in range(rng.randint(n // 3, n))] if n else []
        if rng.random() < 0.03:
            fit_rows.append(rng.choice([-1, n]))
    return columns, labels, fit_rows


def _outcome(call):
    """(result, warning messages); an exception stands as its (class, message)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except Exception as exc:  # the comparison covers every error either side raises
            result = type(exc), str(exc)
    return result, [str(w.message) for w in caught]


def assert_same_dataset(got, want):
    assert got.X.shape == want.X.shape and got.X.dtype == want.X.dtype
    assert got.X.tobytes() == want.X.tobytes()
    assert got.y.tobytes() == want.y.tobytes()
    assert got.feature_names == want.feature_names
    assert got.stats == want.stats


def test_pipeline_matches_the_list_based_reference():
    rng = random.Random(2026)
    kinds = Counter()
    for _ in range(2000):
        columns, labels, fit_rows = random_case(rng)
        got = _outcome(lambda: preprocess(columns, labels, fit_rows))
        want = _outcome(lambda: reference_preprocess(columns, labels, fit_rows))
        if not isinstance(want[0], PreparedDataset):
            # the reference warned for the columns it encoded before failing;
            # preprocess fits every column before it encodes any
            assert got[0] == want[0]
            kinds[want[0][0].__name__] += 1
            continue
        assert isinstance(got[0], PreparedDataset), got
        assert_same_dataset(got[0], want[0])
        assert got[1] == want[1]
        kinds["fitted"] += 1
        kinds["warned"] += bool(want[1])

        # new rows: other values, columns in another order, some category
        # unseen at fit time, now and then an extra or a missing column
        m = rng.choice([0, 1, 4, 20])
        new = [
            RawColumn(col.name, col.kind, tuple(
                random_numeric(rng, m) if col.kind == NUMERIC
                else [rng.choice([None, "a", "b", "z", "new"]) for _ in range(m)]
            ))
            for col in columns
        ]
        rng.shuffle(new)
        if rng.random() < 0.1:
            new.pop()
        if rng.random() < 0.1:
            new.append(RawColumn("extra", NUMERIC, (1.0,) * m))
        stats = want[0].stats
        got = _outcome(lambda: apply_stats(new, stats))
        want = _outcome(lambda: reference_apply_stats(new, stats))
        if isinstance(want[0], np.ndarray):
            assert got[0].shape == want[0].shape and got[0].tobytes() == want[0].tobytes()
            assert got[1] == want[1]
            kinds["applied"] += 1
        else:
            assert got == want
            kinds["apply " + want[0][0].__name__] += 1
    assert kinds["fitted"] >= 1000 and kinds["warned"] and kinds["applied"] and kinds["apply PartitionMismatch"]
    assert kinds["AllMissingColumn"] and kinds["EmptyFitSet"] and kinds["PartitionMismatch"]


class TestApplyStats:
    def test_matches_fit_transform(self):
        cols = [num("x", [0.0, 5.0, 10.0]), cat("c", ["a", "b", "a"])]
        fitted = preprocess(cols, [0, 1, 0])
        again = apply_stats(cols, fitted.stats)
        assert np.array_equal(again, fitted.X)

    def test_repeated_column_name_rejected(self):
        twice = [num("x", [0.0, 1.0, 2.0]), num("x", [5.0, 9.0, 7.0])]
        with pytest.raises(PartitionMismatch, match="column 'x' appears more than once"):
            preprocess(twice, [0, 1, 0])
        fitted = preprocess([num("x", [0.0, 1.0, 2.0])], [0, 1, 0])
        with pytest.raises(PartitionMismatch, match="column 'x' appears more than once"):
            apply_stats(twice, fitted.stats)

    def test_columns_of_unequal_length_rejected(self):
        fitted = preprocess([num("x", [0.0, 1.0]), cat("c", ["a", "b"])], [0, 1])
        with pytest.raises(PartitionMismatch, match="column 'c' has 1 rows, expected 2"):
            apply_stats([num("x", [0.0, 1.0]), cat("c", ["a"])], fitted.stats)

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

    def test_numeric_fit_applied_to_categorical_column_rejected(self):
        fitted = preprocess([num("g", [0.0, 1.0, 2.0])], [0, 1, 0])
        with pytest.raises(PartitionMismatch, match="column 'g' is categorical, but was fitted as numeric"):
            apply_stats([cat("g", ["a", "b", "a"])], fitted.stats)

    def test_categorical_fit_applied_to_numeric_column_rejected(self):
        fitted = preprocess([cat("g", ["a", "b", "a"])], [0, 1, 0])
        with pytest.raises(PartitionMismatch, match="column 'g' is numeric, but was fitted as categorical"):
            apply_stats([num("g", [0.0, 1.0, 2.0])], fitted.stats)

    def test_stats_without_columns_rejected(self):
        with pytest.raises(ModelFormatError, match="'columns' list is empty"):
            stats_from_dict({"columns": [], "feature_names": []})

    @pytest.mark.parametrize(
        "names",
        [["x", "c=a"], ["x", "c=a", "c=b", "c=c"], ["c=a", "c=b", "x"], ["x", "c=a", "c=B"], []],
    )
    def test_feature_names_other_than_the_columns_make_rejected(self, names):
        fitted = preprocess([num("x", [0.0, 5.0, None]), cat("c", ["a", None, "b"])], [0, 1, 0])
        payload = stats_to_dict(fitted.stats)
        assert payload["feature_names"] == ["x", "c=a", "c=b"]
        payload["feature_names"] = names
        with pytest.raises(ModelFormatError, match="are not the features"):
            stats_from_dict(payload)


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
