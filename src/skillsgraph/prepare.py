"""Tabular preprocessing and stratified splitting for the tree learner.

A numeric column holds ints or floats, None or NaN for missing, and is
converted once to a float array. It gets median imputation, winsorizing to
the Tukey fences [Q1 - 1.5 IQR, Q3 + 1.5 IQR], then min-max scaling to
[0, 1]. A categorical column gets mode imputation (ties to the
lexicographically smallest value) and one-hot encoding. Every statistic is
fitted on the designated fit rows only. preprocess and apply_stats then
transform every row alike: scaled values are clipped into [0, 1], a no-op on
fit rows since IEEE subtraction and division are monotone, and a category
never seen at fit time encodes to all zeros with a warning.
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
    values: tuple  # int | float | str | None per row; None, or NaN in a numeric column, = missing


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


def _fit_numeric(name: str, values: np.ndarray, fit_rows) -> NumericStats:
    fit = values[fit_rows]
    missing = np.isnan(fit)
    if missing.all():
        raise AllMissingColumn(f"column {name!r} is all-missing in the fit rows")
    median = float(np.median(fit[~missing]))
    # fences fitted after imputation: imputing the median cannot move quartiles
    # outward, but recompute on the imputed vector to keep the pipeline literal
    imputed = np.where(missing, median, fit)
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


def _transform_numeric(values: np.ndarray, stats: NumericStats) -> np.ndarray:
    arr = np.where(np.isnan(values), stats.median, values)
    arr = np.clip(arr, stats.lower_fence, stats.upper_fence)
    span = stats.maximum - stats.minimum
    scaled = np.zeros_like(arr) if span == 0 else (arr - stats.minimum) / span
    # A fit row's value, imputed and fenced as at fit time, lies between the
    # fitted minimum and maximum. IEEE subtraction and division round
    # monotonically, so it scales into [0, 1] already and this clip changes
    # only rows outside the fit set.
    return np.clip(scaled, 0.0, 1.0)


def _fit_categorical(name: str, values, fit_rows) -> CategoricalStats:
    fit_values = [values[i] for i in fit_rows if values[i] is not None]
    if not fit_values:
        raise AllMissingColumn(f"column {name!r} is all-missing in the fit rows")
    freq: dict[str, int] = {}
    for v in fit_values:
        freq[v] = freq.get(v, 0) + 1
    top = max(freq.values())
    mode = min(v for v, c in freq.items() if c == top)
    return CategoricalStats(mode=mode, categories=tuple(sorted(freq)))


def _transform_categorical(name: str, values, stats: CategoricalStats) -> np.ndarray:
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
    return out


def _features(name: str, kind: str, stats) -> list[str]:
    """The feature names one fitted column encodes to, in matrix order."""
    return [name] if kind == NUMERIC else [f"{name}={c}" for c in stats.categories]


def _by_name(columns: Sequence[RawColumn]) -> dict:
    """Each column's values under its name. A name may appear once, and every
    column has as many rows as the first."""
    values = {}
    for col in columns:
        if col.name in values:
            raise PartitionMismatch(f"column {col.name!r} appears more than once")
        n = len(columns[0].values)
        if len(col.values) != n:
            raise PartitionMismatch(f"column {col.name!r} has {len(col.values)} rows, expected {n}")
        values[col.name] = col.values
    return values


def _encode(values: dict, fitted) -> tuple[tuple[str, ...], np.ndarray]:
    """Feature names and matrix of columns (name -> values) under fitted (name, kind, stats)."""
    names: list[str] = []
    blocks: list[np.ndarray] = []
    for name, kind, stats in fitted:
        if name not in values:
            raise PartitionMismatch(f"missing column {name!r}")
        names.extend(_features(name, kind, stats))
        if kind == NUMERIC:
            blocks.append(_transform_numeric(np.asarray(values[name], dtype=float), stats)[:, None])
        else:
            blocks.append(_transform_categorical(name, values[name], stats))
    return tuple(names), np.hstack(blocks)


def preprocess(
    columns: Sequence[RawColumn],
    labels: Sequence[int],
    fit_rows: Sequence[int] | None = None,
) -> PreparedDataset:
    """Fit on fit_rows (default: all rows) and transform every row."""
    if not columns:
        raise PartitionMismatch("no columns to preprocess")
    values = _by_name(columns)
    n = len(columns[0].values)
    if len(labels) != n:
        raise PartitionMismatch(f"got {len(labels)} labels for {n} rows")

    fit_rows = list(range(n)) if fit_rows is None else sorted(set(fit_rows))
    if not fit_rows:
        raise EmptyFitSet("fit set is empty")
    if fit_rows[0] < 0 or fit_rows[-1] >= n:
        raise PartitionMismatch("fit row index out of range")

    fitted = []
    for col in columns:
        if col.kind == NUMERIC:
            values[col.name] = np.asarray(col.values, dtype=float)
            fit = _fit_numeric
        elif col.kind == CATEGORICAL:
            fit = _fit_categorical
        else:
            raise PartitionMismatch(f"column {col.name!r}: unknown kind {col.kind!r}")
        fitted.append((col.name, col.kind, fit(col.name, values[col.name], fit_rows)))

    names, X = _encode(values, fitted)
    stats = PreprocessStats(columns=tuple(fitted), feature_names=names)
    return PreparedDataset(X, np.asarray(labels, dtype=int), names, stats)


def apply_stats(columns: Sequence[RawColumn], stats: PreprocessStats) -> np.ndarray:
    """Transform new raw rows with previously fitted statistics. A column
    must be of the kind it was fitted as."""
    values = _by_name(columns)
    fitted_kind = {name: kind for name, kind, _ in stats.columns}
    for col in columns:
        if fitted_kind.get(col.name, col.kind) != col.kind:
            raise PartitionMismatch(
                f"column {col.name!r} is {col.kind}, but was fitted as {fitted_kind[col.name]}"
            )
    return _encode(values, stats.columns)[1]


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
    """Rebuild fitted statistics from stats_to_dict's layout, checking every
    field's type, and that feature_names are the features the columns make."""
    if not isinstance(data, dict) or not isinstance(data.get("columns"), list):
        raise _malformed("expected an object with a 'columns' list")
    if not data["columns"]:
        raise _malformed("the 'columns' list is empty")
    if not _is_str_list(data.get("feature_names")):
        raise _malformed("feature_names must be a list of strings")
    columns = tuple(_column_stats(raw) for raw in data["columns"])
    made = [feature for column in columns for feature in _features(*column)]
    if data["feature_names"] != made:
        raise _malformed(f"feature_names {data['feature_names']} are not the features {made} its columns make")
    return PreprocessStats(columns=columns, feature_names=tuple(made))


def _largest_remainder(ideals: list[Fraction], total: int) -> list[int]:
    """Integer quotas summing to total; ties go to the earliest entry."""
    floors = [int(q) for q in ideals]
    leftover = total - sum(floors)
    order = sorted(range(len(ideals)), key=lambda i: (-(ideals[i] - floors[i]), i))
    for i in order[:leftover]:
        floors[i] += 1
    return floors


def _class_rows(y, seed: int) -> list[list[int]]:
    """Row indices of each class in label order, each in the order of one
    seeded permutation of all rows."""
    class_rows: dict[int, list[int]] = {c: [] for c in sorted(set(int(v) for v in y))}
    for i in np.random.default_rng(seed).permutation(len(y)):
        class_rows[int(y[i])].append(int(i))
    return list(class_rows.values())


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

    class_rows = _class_rows(data.y, seed)

    # repr() recovers the decimal the caller wrote (0.7 -> 7/10), not the
    # slightly-off binary float, so quota arithmetic is exact
    frac = Fraction(repr(float(train_fraction)))
    quotas = _largest_remainder([frac * len(rows) for rows in class_rows], int(frac * n))
    train_idx: list[int] = []
    test_idx: list[int] = []
    for rows, quota in zip(class_rows, quotas):
        if len(rows) == 1:
            quota = 1
        train_idx.extend(rows[:quota])
        test_idx.extend(rows[quota:])

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
    assigned: list[list[int]] = [[] for _ in range(folds)]
    for rows in _class_rows(y, seed):
        base, extra = divmod(len(rows), folds)
        start = 0
        for k in range(folds):
            take = base + (1 if k < extra else 0)
            assigned[k].extend(rows[start:start + take])
            start += take
    return [np.array(sorted(fold), dtype=int) for fold in assigned]
