"""Hyperparameter grid search with stratified cross-validation.

The dataset is split 70/30 (stratified, seeded), every grid configuration is
scored by mean accuracy over stratified folds of the training split, the best
configuration is refit on the full training split, and that single model is
scored once on the held-out test split. Ties on mean accuracy prefer the
shallower tree, then the larger leaf minimum, then the criterion name in
ascending order: the least complex model that achieves the score.

Depths share their fits. A node's split does not depend on max_depth beyond
the depth < max_depth gate, so a depth-d tree predicts exactly like the
deepest tree of the same (min_samples_leaf, criterion) cut off at depth d.
Each fold therefore grows one tree per (min_samples_leaf, criterion), at the
grid's largest depth, and scores it at every grid depth it serves in one
walk that reports each depth on the way down. The trees of a fold grow
together in one fit_trees call: a node the trees share is sorted and
counted once, and each tree takes its own split from those counts. A search
grows leaves x criteria x folds trees in folds fit_trees calls, then makes
one fit_tree refit; the scores, and so the cv table, equal those of one fit
per configuration.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientSamples
from .prepare import PreparedDataset, stratified_folds, stratified_split
from .tree import DecisionTree, TreeParams, _scores, accuracy, fit_tree, fit_trees

TRAIN_FRACTION = 0.7  # the share of rows in the train side of the 70/30 split


@dataclass(frozen=True)
class GridSpec:
    max_depths: tuple[int, ...]
    min_samples_leaves: tuple[int, ...]
    criteria: tuple[str, ...] = ("entropy", "gini")

    def configs(self) -> list[TreeParams]:
        return [
            TreeParams(max_depth=d, min_samples_leaf=m, criterion=c)
            for d in self.max_depths
            for m in self.min_samples_leaves
            for c in self.criteria
        ]


@dataclass(frozen=True)
class CVRow:
    config_id: int
    params: TreeParams
    mean_accuracy: float
    std_accuracy: float


@dataclass(frozen=True)
class GridSearchResult:
    best_params: TreeParams
    cv_table: tuple[CVRow, ...]
    test_accuracy: float
    model: DecisionTree
    train_size: int
    test_size: int


def grid_search_cv(
    data: PreparedDataset,
    grid: GridSpec,
    folds: int = 5,
    seed: int = 0,
) -> GridSearchResult:
    train, test = stratified_split(data, train_fraction=TRAIN_FRACTION, seed=seed)

    class_sizes = np.bincount(train.y.astype(int))
    present = class_sizes[class_sizes > 0]
    if len(present) and present.min() < folds:
        raise InsufficientSamples(
            f"smallest class has {int(present.min())} training rows, need >= {folds} for {folds}-fold CV"
        )

    fold_indices = stratified_folds(train.y, folds, seed=seed)
    all_rows = np.arange(len(train))
    fold_parts = [
        (train.subset(all_rows[~np.isin(all_rows, held)]), train.subset(held))
        for held in fold_indices
    ]

    configs = grid.configs()
    deepest = max((params.max_depth for params in configs), default=0)
    shares: dict[tuple[int, str], list[int]] = {}
    for config_id, params in enumerate(configs):
        shares.setdefault((params.min_samples_leaf, params.criterion), []).append(config_id)
    shared = [
        TreeParams(max_depth=deepest, min_samples_leaf=leaf, criterion=criterion) for leaf, criterion in shares
    ]

    # per fold, one tree per (leaf minimum, criterion), all grown together,
    # each scored at every grid depth it serves in one walk
    scores: list[list[float]] = [[] for _ in configs]
    for fit_part, held_part in fold_parts:
        for tree, config_ids in zip(fit_trees(fit_part, shared), shares.values()):
            depths = [configs[config_id].max_depth for config_id in config_ids]
            for config_id, score in zip(config_ids, _scores(tree, held_part, depths)):
                scores[config_id].append(score)

    cv_table: list[CVRow] = []
    for config_id, params in enumerate(configs):
        fold_scores = np.array(scores[config_id])
        cv_table.append(
            CVRow(
                config_id=config_id,
                params=params,
                mean_accuracy=float(fold_scores.mean()),
                std_accuracy=float(fold_scores.std()),
            )
        )

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


def save_cv_table(rows: Sequence[CVRow], path) -> None:
    """CSV report: config_id,max_depth,min_samples_leaf,criterion,mean_acc,std_acc."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["config_id", "max_depth", "min_samples_leaf", "criterion", "mean_acc", "std_acc"])
        for row in rows:
            writer.writerow(
                [
                    row.config_id,
                    row.params.max_depth,
                    row.params.min_samples_leaf,
                    row.params.criterion,
                    repr(row.mean_accuracy),
                    repr(row.std_accuracy),
                ]
            )
