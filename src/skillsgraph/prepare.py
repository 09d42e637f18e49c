"""Tabular preprocessing and stratified splitting for the tree learner.

Numeric columns: median imputation, winsorizing to the Tukey fences
[Q1 - 1.5 IQR, Q3 + 1.5 IQR], then min-max scaling to [0, 1]. Categorical
columns: mode imputation (ties to the lexicographically smallest value) and
one-hot encoding. Every statistic is fitted on the designated fit rows only;
other rows are transformed with those statistics, clipped into [0, 1], and a
category never seen at fit time encodes to all zeros with a warning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    AllMissingColumn,
    DegenerateSplit,
    EmptyFitSet,
    ModelFormatError,
    PartitionMismatch,
)
from .graph import finite_number

NUMERIC = "numeric"
CATEGORICAL = "categorical"


@dataclass(frozen=True)
class RawColumn:
    name: str
    kind: str  # NUMERIC or CATEGORICAL
    values: tuple  # float | str | None per row, None = missing


@dataclass(frozen=True)
class NumericStats:
    median: float
    lower_fence: float
    upper_fence: float
    minimum: float
    maximum: float


@dataclass(frozen=True)
class CategoricalStats:
    mode: str
    categories: tuple[str, ...]  # sorted


@dataclass(frozen=True)
class PreprocessStats:
    """Fitted per-column statistics, enough to replay the transform."""

    columns: tuple  # (name, kind, NumericStats | CategoricalStats) per input column
    feature_names: tuple[str, ...]


@dataclass(frozen=True)
class PreparedDataset:
    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]
    stats: PreprocessStats

    def __len__(self) -> int:
        return len(self.y)

    def subset(self, indices) -> "PreparedDataset":
        idx = np.asarray(indices, dtype=int)
        return PreparedDataset(self.X[idx], self.y[idx], self.feature_names, self.stats)


def _fit_numeric(values, fit_rows) -> NumericStats:
    fit_values = [values[i] for i in fit_rows if values[i] is not None]
    if not fit_values:
        raise AllMissingColumn("numeric column has no non-missing fit values")
    arr = np.array(fit_values, dtype=float)
    median = float(np.median(arr))
    # fences fitted after imputation: imputing the median cannot move quartiles
    # outward, but recompute on the imputed vector to keep the pipeline literal
    imputed = np.array(
        [values[i] if values[i] is not None else median for i in fit_rows], dtype=float
    )
    q1, q3 = np.quantile(imputed, 0.25), np.quantile(imputed, 0.75)
    iqr = q3 - q1
    lower, upper = float(q1 - 1.5 * iqr), float(q3 + 1.5 * iqr)
    clipped = np.clip(imputed, lower, upper)
    return NumericStats(
        median=median,
        lower_fence=lower,
        upper_fence=upper,
        minimum=float(clipped.min()),
        maximum=float(clipped.max()),
    )


def _transform_numeric(values, stats: NumericStats, fit_mask) -> np.ndarray:
    arr = np.array(
        [v if v is not None else stats.median for v in values], dtype=float
    )
    arr = np.clip(arr, stats.lower_fence, stats.upper_fence)
    span = stats.maximum - stats.minimum
    if span == 0:
        scaled = np.zeros_like(arr)
    else:
        scaled = (arr - stats.minimum) / span
    # rows outside the fit set may still fall outside [0, 1]; clip them
    scaled[~fit_mask] = np.clip(scaled[~fit_mask], 0.0, 1.0)
    return scaled


def _fit_categorical(values, fit_rows) -> CategoricalStats:
    fit_values = [values[i] for i in fit_rows if values[i] is not None]
    if not fit_values:
        raise AllMissingColumn("categorical column has no non-missing fit values")
    freq: dict[str, int] = {}
    for v in fit_values:
        freq[v] = freq.get(v, 0) + 1
    top = max(freq.values())
    mode = min(v for v, c in freq.items() if c == top)
    return CategoricalStats(mode=mode, categories=tuple(sorted(freq)))


def _transform_categorical(
    name: str, values, stats: CategoricalStats
) -> tuple[list[str], np.ndarray]:
    col_index = {c: j for j, c in enumerate(stats.categories)}
    # each distinct value is looked up once; missing reads as the mode and
    # a category unseen at fit time as -1
    code_of = {v: col_index.get(stats.mode if v is None else v, -1) for v in set(values)}
    codes = np.fromiter(map(code_of.__getitem__, values), dtype=np.intp, count=len(values))
    out = np.zeros((len(values), len(stats.categories)))
    rows = np.flatnonzero(codes >= 0)
    out[rows, codes[rows]] = 1.0
    for i in np.flatnonzero(codes < 0):
        v = stats.mode if values[i] is None else values[i]
        warnings.warn(
            f"column {name!r}: category {v!r} not seen at fit time, encoding as all zeros"
        )
    return [f"{name}={c}" for c in stats.categories], out


def preprocess(
    columns: Sequence[RawColumn],
    labels: Sequence[int],
    fit_rows: Sequence[int] | None = None,
) -> PreparedDataset:
    """Fit on fit_rows (default: all rows) and transform every row."""
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
    if fit_rows and (fit_rows[0] < 0 or fit_rows[-1] >= n):
        raise PartitionMismatch("fit row index out of range")
    fit_mask = np.zeros(n, dtype=bool)
    fit_mask[fit_rows] = True

    fitted = []
    names: list[str] = []
    blocks: list[np.ndarray] = []
    for col in columns:
        if col.kind == NUMERIC:
            try:
                stats = _fit_numeric(col.values, fit_rows)
            except AllMissingColumn:
                raise AllMissingColumn(f"column {col.name!r} is all-missing in the fit rows") from None
            names.append(col.name)
            blocks.append(_transform_numeric(col.values, stats, fit_mask)[:, None])
        elif col.kind == CATEGORICAL:
            try:
                stats = _fit_categorical(col.values, fit_rows)
            except AllMissingColumn:
                raise AllMissingColumn(f"column {col.name!r} is all-missing in the fit rows") from None
            block_names, block = _transform_categorical(col.name, col.values, stats)
            names.extend(block_names)
            blocks.append(block)
        else:
            raise PartitionMismatch(f"column {col.name!r}: unknown kind {col.kind!r}")
        fitted.append((col.name, col.kind, stats))

    stats = PreprocessStats(columns=tuple(fitted), feature_names=tuple(names))
    return PreparedDataset(
        X=np.hstack(blocks),
        y=np.asarray(labels, dtype=int),
        feature_names=tuple(names),
        stats=stats,
    )


def apply_stats(columns: Sequence[RawColumn], stats: PreprocessStats) -> np.ndarray:
    """Transform new raw rows with previously fitted statistics."""
    by_name = {col.name: col for col in columns}
    n = len(columns[0].values) if columns else 0
    fit_mask = np.zeros(n, dtype=bool)  # nothing here was a fit row
    blocks = []
    for name, kind, fitted in stats.columns:
        col = by_name.get(name)
        if col is None:
            raise PartitionMismatch(f"missing column {name!r}")
        if kind == NUMERIC:
            blocks.append(_transform_numeric(col.values, fitted, fit_mask)[:, None])
        else:
            _, block = _transform_categorical(name, col.values, fitted)
            blocks.append(block)
    return np.hstack(blocks)


def stats_to_dict(stats: PreprocessStats) -> dict:
    columns = []
    for name, kind, fitted in stats.columns:
        if kind == NUMERIC:
            columns.append(
                {
                    "name": name,
                    "kind": kind,
                    "median": fitted.median,
                    "lower_fence": fitted.lower_fence,
                    "upper_fence": fitted.upper_fence,
                    "minimum": fitted.minimum,
                    "maximum": fitted.maximum,
                }
            )
        else:
            columns.append(
                {"name": name, "kind": kind, "mode": fitted.mode, "categories": list(fitted.categories)}
            )
    return {"columns": columns, "feature_names": list(stats.feature_names)}


_NUMERIC_FIELDS = ("median", "lower_fence", "upper_fence", "minimum", "maximum")


def _malformed(reason: str) -> ModelFormatError:
    return ModelFormatError(f"malformed preprocessing stats: {reason}")


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _column_stats(raw) -> tuple:
    """(name, kind, stats) of one column entry of a stats dict."""
    if not isinstance(raw, dict):
        raise _malformed(f"column entry {raw!r} is not an object")
    name, kind = raw.get("name"), raw.get("kind")
    if not isinstance(name, str):
        raise _malformed(f"column name {name!r} is not a string")
    if kind == NUMERIC:
        for key in _NUMERIC_FIELDS:
            if not finite_number(raw.get(key)):
                raise _malformed(f"column {name!r}: {key} must be a finite number, got {raw.get(key)!r}")
        return name, kind, NumericStats(**{key: raw[key] for key in _NUMERIC_FIELDS})
    if kind == CATEGORICAL:
        mode, categories = raw.get("mode"), raw.get("categories")
        if not isinstance(mode, str):
            raise _malformed(f"column {name!r}: mode must be a string, got {mode!r}")
        if not _is_str_list(categories):
            raise _malformed(f"column {name!r}: categories must be a list of strings, got {categories!r}")
        return name, kind, CategoricalStats(mode=mode, categories=tuple(categories))
    raise _malformed(f"column {name!r}: kind must be {NUMERIC!r} or {CATEGORICAL!r}, got {kind!r}")


def stats_from_dict(data) -> PreprocessStats:
    """Rebuild fitted statistics from stats_to_dict's layout, checking every field's type."""
    if not isinstance(data, dict) or not isinstance(data.get("columns"), list):
        raise _malformed("expected an object with a 'columns' list")
    if not _is_str_list(data.get("feature_names")):
        raise _malformed("feature_names must be a list of strings")
    return PreprocessStats(
        columns=tuple(_column_stats(raw) for raw in data["columns"]),
        feature_names=tuple(data["feature_names"]),
    )


def _largest_remainder(ideals: list[Fraction], total: int) -> list[int]:
    """Integer quotas summing to total; ties go to the earliest entry."""
    floors = [int(q) for q in ideals]
    leftover = total - sum(floors)
    order = sorted(range(len(ideals)), key=lambda i: (-(ideals[i] - floors[i]), i))
    for i in order[:leftover]:
        floors[i] += 1
    return floors


def stratified_split(
    data: PreparedDataset, train_fraction: float = 0.7, seed: int = 0
) -> tuple[PreparedDataset, PreparedDataset]:
    """Class-proportional train/test split.

    Per-class train quotas come from largest-remainder apportionment of
    train_fraction * class_size (classes processed in label order); rows are
    shuffled by the seeded generator before the quota cut. A class with a
    single row always lands in train. Raises DegenerateSplit if either side
    ends up empty.
    """
    if not (0.0 < train_fraction < 1.0):
        raise DegenerateSplit(f"train_fraction must be in (0, 1), got {train_fraction!r}")
    n = len(data)
    if n == 0:
        raise DegenerateSplit("cannot split an empty dataset")

    labels = sorted(set(int(v) for v in data.y))
    class_rows = {c: [] for c in labels}
    perm = np.random.default_rng(seed).permutation(n)
    for i in perm:
        class_rows[int(data.y[i])].append(int(i))

    # repr() recovers the decimal the caller wrote (0.7 -> 7/10), not the
    # slightly-off binary float, so quota arithmetic is exact
    frac = Fraction(repr(float(train_fraction)))
    sizes = [len(class_rows[c]) for c in labels]
    quotas = _largest_remainder([frac * s for s in sizes], int(frac * n))
    train_idx: list[int] = []
    test_idx: list[int] = []
    for c, quota, size in zip(labels, quotas, sizes):
        if size == 1:
            quota = 1
        train_idx.extend(class_rows[c][:quota])
        test_idx.extend(class_rows[c][quota:])

    if not train_idx or not test_idx:
        raise DegenerateSplit(
            f"split left {len(train_idx)} train and {len(test_idx)} test rows"
        )
    return data.subset(sorted(train_idx)), data.subset(sorted(test_idx))


def stratified_folds(y: np.ndarray, folds: int, seed: int = 0) -> list[np.ndarray]:
    """Partition row indices into stratified folds, same apportionment style.

    Each class's shuffled rows are dealt n_c // folds per fold, with the
    n_c % folds leftovers going to the earliest folds.
    """
    n = len(y)
    labels = sorted(set(int(v) for v in y))
    class_rows = {c: [] for c in labels}
    perm = np.random.default_rng(seed).permutation(n)
    for i in perm:
        class_rows[int(y[i])].append(int(i))

    assigned: list[list[int]] = [[] for _ in range(folds)]
    for c in labels:
        rows = class_rows[c]
        base, extra = divmod(len(rows), folds)
        start = 0
        for k in range(folds):
            take = base + (1 if k < extra else 0)
            assigned[k].extend(rows[start:start + take])
            start += take
    return [np.array(sorted(fold), dtype=int) for fold in assigned]
