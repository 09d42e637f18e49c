"""Grid search and cross-validation wiring.

The recomputation oracle rebuilds every fold score from the public split,
fold, fit, and accuracy primitives and demands exact agreement with the
cv table, so the config loop cannot silently shuffle folds or configs.
reference_grid_search_cv fits every config on every fold from scratch, as
grid_search_cv did before it shared one fit across the grid's depths.
"""

import math

import numpy as np
import pytest

from skillsgraph import (
    GridSearchResult,
    GridSpec,
    PreparedDataset,
    TreeParams,
    grid_search_cv,
)
from skillsgraph.errors import InsufficientSamples
from skillsgraph.prepare import PreprocessStats, stratified_folds, stratified_split
from skillsgraph import search
from skillsgraph.search import CVRow, save_cv_table
from skillsgraph.tree import accuracy, fit_tree, fit_trees, tree_to_dict


def dataset(X, y):
    X = np.asarray(X, dtype=float)
    names = tuple(f"f{j}" for j in range(X.shape[1]))
    stats = PreprocessStats(columns=(), feature_names=names)
    return PreparedDataset(X=X, y=np.asarray(y, dtype=int), feature_names=names, stats=stats)


def separable(n_per_class=20):
    xs = np.linspace(0.0, 0.4, n_per_class)
    X = np.concatenate([xs, xs + 0.6])[:, None]
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return dataset(X, y)


def noisy(seed=3, n=60):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 2)).round(2)
    y = ((X[:, 0] + 0.2 * rng.standard_normal(n)) > 0.5).astype(int)
    return dataset(X, y)


def reference_grid_search_cv(data, grid, folds=5, seed=0, train_fraction=0.7):
    """One fit per (config, fold), each at the config's own depth."""
    train, test = stratified_split(data, train_fraction=train_fraction, seed=seed)
    fold_indices = stratified_folds(train.y, folds, seed=seed)
    fold_sets = [set(f.tolist()) for f in fold_indices]
    cv_table = []
    for config_id, params in enumerate(grid.configs()):
        scores = []
        for k in range(folds):
            fit_rows = np.array([i for i in range(len(train)) if i not in fold_sets[k]], dtype=int)
            model = fit_tree(train.subset(fit_rows), params)
            scores.append(accuracy(model, train.subset(fold_indices[k])))
        scores = np.array(scores)
        cv_table.append(CVRow(config_id, params, float(scores.mean()), float(scores.std())))
    best = min(
        cv_table,
        key=lambda row: (
            -row.mean_accuracy,
            row.params.max_depth,
            -row.params.min_samples_leaf,
            row.params.criterion,
        ),
    )
    model = fit_tree(train, best.params)
    return GridSearchResult(
        best_params=best.params,
        cv_table=tuple(cv_table),
        test_accuracy=accuracy(model, test),
        model=model,
        train_size=len(train),
        test_size=len(test),
    )


class TestSharedDepthFits:
    @pytest.mark.parametrize("trial", range(12))
    def test_matches_one_fit_per_config(self, trial):
        rng = np.random.default_rng(100 + trial)
        n = int(rng.integers(45, 140))
        classes = 2 + trial % 2
        X = rng.random((n, int(rng.integers(1, 5)))).round(int(rng.integers(1, 3)))  # ties
        y = (X.sum(axis=1) * classes / X.shape[1] + 0.4 * rng.standard_normal(n)).astype(int)
        y = np.clip(y, 0, classes - 1)
        y[:classes * 4] = np.repeat(np.arange(classes), 4)  # every class fills every fold
        depths = [(0, 5, 2), (3,), (6, 1, 4, 0), (2, 7)][trial % 4]
        leaves = [(1,), (1, 4, 2), (3, 1), (5, 2, 9)][trial % 4]
        criteria = [("entropy", "gini"), ("gini",), ("gini", "entropy")][trial % 3]
        grid = GridSpec(max_depths=depths, min_samples_leaves=leaves, criteria=criteria)
        data = dataset(X, y)
        got = grid_search_cv(data, grid, folds=3, seed=trial)
        want = reference_grid_search_cv(data, grid, folds=3, seed=trial)
        assert got.cv_table == want.cv_table
        assert got.best_params == want.best_params
        assert tree_to_dict(got.model) == tree_to_dict(want.model)
        assert got.test_accuracy == want.test_accuracy
        assert (got.train_size, got.test_size) == (want.train_size, want.test_size)

    def test_one_fit_per_leaf_criterion_and_fold_plus_the_refit(self, monkeypatch):
        # the trees grown: the params handed to fit_trees, then the refit's
        fits = []
        calls = []

        def counting_fit_trees(data, params_list):
            calls.append(len(data))
            fits.extend(params_list)
            return fit_trees(data, params_list)

        def counting_fit(data, params):
            fits.append(params)
            return fit_tree(data, params)

        monkeypatch.setattr(search, "fit_trees", counting_fit_trees)
        monkeypatch.setattr(search, "fit_tree", counting_fit)
        grid = GridSpec(max_depths=(3, 1, 2), min_samples_leaves=(1, 2, 4), criteria=("entropy", "gini"))
        result = grid_search_cv(noisy(seed=2, n=90), grid, folds=4, seed=1)
        assert len(calls) == 4  # one fit_trees call per fold
        assert len(fits) == 3 * 2 * 4 + 1
        assert all(params.max_depth == 3 for params in fits[:-1])
        assert fits[-1] == result.best_params


class TestGridSpec:
    def test_enumeration_order(self):
        grid = GridSpec(max_depths=(1, 2), min_samples_leaves=(1, 3), criteria=("entropy", "gini"))
        got = [(p.max_depth, p.min_samples_leaf, p.criterion) for p in grid.configs()]
        assert got == [
            (1, 1, "entropy"), (1, 1, "gini"),
            (1, 3, "entropy"), (1, 3, "gini"),
            (2, 1, "entropy"), (2, 1, "gini"),
            (2, 3, "entropy"), (2, 3, "gini"),
        ]

    def test_config_ids_follow_enumeration(self):
        grid = GridSpec(max_depths=(2, 4), min_samples_leaves=(1,), criteria=("gini",))
        result = grid_search_cv(noisy(), grid, folds=3, seed=0)
        assert [row.config_id for row in result.cv_table] == [0, 1]
        assert [row.params for row in result.cv_table] == grid.configs()


class TestGridSearch:
    def test_single_config(self):
        grid = GridSpec(max_depths=(3,), min_samples_leaves=(2,), criteria=("gini",))
        result = grid_search_cv(noisy(), grid, folds=3, seed=1)
        assert result.best_params == TreeParams(max_depth=3, min_samples_leaf=2, criterion="gini")
        assert len(result.cv_table) == 1

    def test_best_params_in_cv_table(self):
        grid = GridSpec(max_depths=(1, 2, 3), min_samples_leaves=(1, 2))
        result = grid_search_cv(noisy(), grid, folds=3, seed=2)
        assert result.best_params in [row.params for row in result.cv_table]
        for row in result.cv_table:
            assert 0.0 <= row.mean_accuracy <= 1.0
            assert row.std_accuracy >= 0.0

    def test_tie_break_prefers_simplest(self):
        # perfectly separable: every config scores 1.0, so the winner must be
        # the smallest depth, then the largest leaf floor, then "entropy"
        grid = GridSpec(max_depths=(2, 1), min_samples_leaves=(1, 2), criteria=("gini", "entropy"))
        result = grid_search_cv(separable(), grid, folds=5, seed=0)
        assert all(row.mean_accuracy == 1.0 for row in result.cv_table)
        assert result.best_params == TreeParams(max_depth=1, min_samples_leaf=2, criterion="entropy")
        assert result.test_accuracy == 1.0

    def test_cv_scores_match_recomputation(self):
        data = noisy(seed=9, n=80)
        grid = GridSpec(max_depths=(1, 3), min_samples_leaves=(1, 4))
        folds, seed = 3, 5
        result = grid_search_cv(data, grid, folds=folds, seed=seed)

        train, test = stratified_split(data, train_fraction=0.7, seed=seed)
        fold_indices = stratified_folds(train.y, folds, seed=seed)
        for row in result.cv_table:
            scores = []
            for k in range(folds):
                held = set(fold_indices[k].tolist())
                fit_rows = np.array([i for i in range(len(train)) if i not in held], dtype=int)
                model = fit_tree(train.subset(fit_rows), row.params)
                scores.append(accuracy(model, train.subset(fold_indices[k])))
            mean = math.fsum(scores) / folds
            std = math.sqrt(math.fsum((s - mean) ** 2 for s in scores) / folds)
            assert row.mean_accuracy == pytest.approx(mean, abs=1e-12)
            assert row.std_accuracy == pytest.approx(std, abs=1e-12)

        refit = fit_tree(train, result.best_params)
        assert tree_to_dict(result.model) == tree_to_dict(refit)
        assert result.test_accuracy == accuracy(refit, test)
        assert result.train_size == len(train)
        assert result.test_size == len(test)

    def test_seed_determinism(self):
        data = noisy(seed=11)
        grid = GridSpec(max_depths=(2, 3), min_samples_leaves=(1, 2))
        a = grid_search_cv(data, grid, folds=3, seed=7)
        b = grid_search_cv(data, grid, folds=3, seed=7)
        assert a.cv_table == b.cv_table
        assert a.best_params == b.best_params
        assert a.test_accuracy == b.test_accuracy
        assert tree_to_dict(a.model) == tree_to_dict(b.model)

    def test_seed_changes_folds(self):
        data = noisy(seed=11)
        grid = GridSpec(max_depths=(2,), min_samples_leaves=(1,), criteria=("entropy",))
        a = grid_search_cv(data, grid, folds=3, seed=0)
        b = grid_search_cv(data, grid, folds=3, seed=1)
        # same config, different partitions: scores should generally move
        assert (a.cv_table[0].mean_accuracy, a.test_accuracy) != (
            b.cv_table[0].mean_accuracy,
            b.test_accuracy,
        )

    def test_insufficient_samples(self):
        X = np.linspace(0, 1, 40)[:, None]
        y = np.array([0] * 36 + [1] * 4)
        with pytest.raises(InsufficientSamples):
            grid_search_cv(dataset(X, y), GridSpec((2,), (1,)), folds=5, seed=0)


class TestCVTable:
    def test_golden_bytes(self, tmp_path):
        rows = [
            CVRow(
                config_id=0,
                params=TreeParams(max_depth=3, min_samples_leaf=1, criterion="entropy"),
                mean_accuracy=0.9310344827586207,
                std_accuracy=0.03,
            ),
            CVRow(
                config_id=1,
                params=TreeParams(max_depth=3, min_samples_leaf=1, criterion="gini"),
                mean_accuracy=0.9,
                std_accuracy=0.0,
            ),
        ]
        path = tmp_path / "cv.csv"
        save_cv_table(rows, path)
        assert path.read_bytes() == (
            b"config_id,max_depth,min_samples_leaf,criterion,mean_acc,std_acc\n"
            b"0,3,1,entropy,0.9310344827586207,0.03\n"
            b"1,3,1,gini,0.9,0.0\n"
        )

    def test_round_trips_through_result(self, tmp_path):
        result = grid_search_cv(noisy(), GridSpec((2,), (1, 2)), folds=3, seed=4)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_cv_table(result.cv_table, a)
        save_cv_table(result.cv_table, b)
        assert a.read_bytes() == b.read_bytes()
        header, *lines = a.read_text().splitlines()
        assert header == "config_id,max_depth,min_samples_leaf,criterion,mean_acc,std_acc"
        assert len(lines) == len(result.cv_table)
