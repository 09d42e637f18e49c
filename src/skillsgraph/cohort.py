"""Synthetic participant cohorts and CSV ingestion.

Records describe capacity-building participants: demographics, program
engagement (mentoring sessions, workshop hours), research output, and the
binary employment outcome. The generator is calibrated against published
cohort statistics through a CohortProfile; a profile fully determines the
sampling scheme and a seed fully determines the draw, so equal
(n, seed, profile) yield byte-identical CSVs.

The base outcome mechanism is a two-group mixture: engaged members find
employment with probability p_engaged, everyone else with p_other. Profiles
may additionally shift the probability per education level and add a linear
mentoring dose response; both knobs default to zero so the calibrated default
profile stays a pure mixture, while planted_profile() uses them to embed a
recoverable signal for learner evaluation.

A cohort CSV is read straight into columns (a CohortTable), a few thousand
rows at a time, and checked column by column. A file that fails a check is
read again row by row, so the error still names the first bad row and its
column. Count cells (mentoring_sessions, research_projects) must be
integers >= 0 small enough to convert to a float, since the learner works
in floats.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import count, islice
from operator import attrgetter
from typing import Mapping, Sequence

import numpy as np

from .errors import DuplicateStudentId, InputError, InvalidProfile, SchemaViolation, load_json, open_text
from .graph import finite_number
from .prepare import CATEGORICAL, NUMERIC, RawColumn

GENDERS = ("M", "F")
ETHNICITIES = ("african_american", "hispanic", "asian", "other")
EDUCATION_LEVELS = ("phd", "masters", "undergraduate", "high_school")
REGIONS = ("india", "africa", "europe", "usa")

CSV_HEADER = (
    "student_id,gender,ethnicity,education_level,region,"
    "mentoring_sessions,workshop_hours,research_projects,employed"
)


@dataclass(frozen=True)
class CohortRecord:
    student_id: str
    gender: str
    ethnicity: str
    education_level: str
    region: str
    mentoring_sessions: int | None  # None = missing
    workshop_hours: float | None  # None = missing
    research_projects: int
    employed: int


@dataclass(frozen=True)
class CohortProfile:
    education: Mapping[str, float]  # level -> proportion
    male_given_education: Mapping[str, float]  # level -> P(gender = M | level)
    ethnicity: Mapping[str, float]  # group -> proportion
    engaged_fraction: float
    p_engaged: float
    p_other: float
    education_employment_shift: Mapping[str, float] = field(
        default_factory=lambda: {level: 0.0 for level in EDUCATION_LEVELS}
    )
    mentoring_dose_slope: float = 0.0


def default_profile() -> CohortProfile:
    """Profile calibrated to the published cohort statistics.

    Education and gender-by-education proportions come from the 380-person
    cohort breakdown, ethnicity from its distribution table, and the outcome
    mixture solves q * p_engaged + (1 - q) * p_other = 0.8263 with q = 0.70
    and p_engaged = 0.85.
    """
    q, p_engaged, overall = 0.70, 0.85, 0.8263
    return CohortProfile(
        education={
            "phd": 17 / 380,
            "masters": 229 / 380,
            "undergraduate": 122 / 380,
            "high_school": 12 / 380,
        },
        male_given_education={
            "phd": 11 / 17,
            "masters": 110 / 229,
            "undergraduate": 48 / 122,
            "high_school": 2 / 12,
        },
        ethnicity={
            "african_american": 0.3632,
            "hispanic": 0.2368,
            "asian": 0.2105,
            "other": 0.1895,
        },
        engaged_fraction=q,
        p_engaged=p_engaged,
        p_other=(overall - q * p_engaged) / (1.0 - q),
    )


def planted_profile() -> CohortProfile:
    """Profile with a deliberately recoverable outcome signal.

    Engagement separates the outcome sharply, education shifts it per level,
    and mentoring adds a mild dose response, so a learner should recover
    engagement and education as the drivers while demographics stay noise.
    """
    base = default_profile()
    return CohortProfile(
        education={"phd": 0.15, "masters": 0.35, "undergraduate": 0.35, "high_school": 0.15},
        male_given_education=dict(base.male_given_education),
        ethnicity=dict(base.ethnicity),
        engaged_fraction=0.5,
        p_engaged=0.91,
        p_other=0.09,
        education_employment_shift={
            "phd": 0.09,
            "masters": 0.045,
            "undergraduate": -0.045,
            "high_school": -0.09,
        },
        mentoring_dose_slope=0.004,
    )


def _check_distribution(name: str, mapping: Mapping[str, float], keys: tuple[str, ...]):
    if set(mapping) != set(keys):
        raise InvalidProfile(f"{name} must have exactly the keys {list(keys)}")
    values = [mapping[k] for k in keys]
    if any(not math.isfinite(v) or v < 0 for v in values):
        raise InvalidProfile(f"{name} proportions must be finite and >= 0")
    if abs(math.fsum(values) - 1.0) > 1e-9:
        raise InvalidProfile(f"{name} proportions must sum to 1, got {math.fsum(values)!r}")


def validate_profile(profile: CohortProfile) -> None:
    _check_distribution("education", profile.education, EDUCATION_LEVELS)
    _check_distribution("ethnicity", profile.ethnicity, ETHNICITIES)
    if set(profile.male_given_education) != set(EDUCATION_LEVELS):
        raise InvalidProfile(f"male_given_education must cover {list(EDUCATION_LEVELS)}")
    for level, p in profile.male_given_education.items():
        if not (0.0 <= p <= 1.0):
            raise InvalidProfile(f"male_given_education[{level!r}] must be in [0, 1], got {p!r}")
    for name, p in (
        ("engaged_fraction", profile.engaged_fraction),
        ("p_engaged", profile.p_engaged),
        ("p_other", profile.p_other),
    ):
        if not (isinstance(p, (int, float)) and 0.0 <= p <= 1.0):
            raise InvalidProfile(f"{name} must be in [0, 1], got {p!r}")
    if set(profile.education_employment_shift) != set(EDUCATION_LEVELS):
        raise InvalidProfile(f"education_employment_shift must cover {list(EDUCATION_LEVELS)}")
    for level, s in profile.education_employment_shift.items():
        if not math.isfinite(s):
            raise InvalidProfile(f"education_employment_shift[{level!r}] must be finite")
    if not math.isfinite(profile.mentoring_dose_slope):
        raise InvalidProfile("mentoring_dose_slope must be finite")


def _draw(rng, items: tuple[str, ...], probs: Sequence[float]) -> str:
    u = rng.random()
    acc = 0.0
    for item, p in zip(items, probs):
        acc += p
        if u < acc:
            return item
    return items[-1]  # u landed in the last bin's rounding slack


def generate_cohort(n: int, seed: int, profile: CohortProfile | None = None) -> list[CohortRecord]:
    """Draw n records; one fixed draw sequence per record, reproducible by seed."""
    if n < 0:
        raise InvalidProfile(f"n must be >= 0, got {n!r}")
    profile = default_profile() if profile is None else profile
    validate_profile(profile)

    rng = np.random.default_rng(seed)
    edu_probs = [profile.education[level] for level in EDUCATION_LEVELS]
    eth_probs = [profile.ethnicity[group] for group in ETHNICITIES]
    region_probs = [1.0 / len(REGIONS)] * len(REGIONS)

    records = []
    for i in range(n):
        education = _draw(rng, EDUCATION_LEVELS, edu_probs)
        gender = "M" if rng.random() < profile.male_given_education[education] else "F"
        ethnicity = _draw(rng, ETHNICITIES, eth_probs)
        region = _draw(rng, REGIONS, region_probs)
        engaged = rng.random() < profile.engaged_fraction
        if engaged:
            mentoring = 11 + int(rng.integers(0, 10))  # 11..20, disjoint from the rest
            workshop = round(float(rng.uniform(1.0, 40.0)), 1)
        else:
            mentoring = int(rng.integers(0, 10))  # 0..9
            workshop = 0.0
        research = int(rng.integers(0, 6))
        p = profile.p_engaged if engaged else profile.p_other
        p += profile.education_employment_shift[education]
        p += profile.mentoring_dose_slope * (mentoring - 10)
        p = min(max(p, 0.0), 1.0)
        employed = 1 if rng.random() < p else 0
        records.append(
            CohortRecord(
                student_id=f"S{i + 1:05d}",
                gender=gender,
                ethnicity=ethnicity,
                education_level=education,
                region=region,
                mentoring_sessions=mentoring,
                workshop_hours=workshop,
                research_projects=research,
                employed=employed,
            )
        )
    return records


# -- summaries -------------------------------------------------------------------


@dataclass(frozen=True)
class MarginalReport:
    n: int
    counts: dict  # field -> {value: count}
    proportions: dict  # field -> {value: share}
    employment_rate: float | None
    engaged_employment_rate: float | None  # workshop > 0 and mentoring >= cohort median
    engaged_count: int


def summarize(records: Sequence[CohortRecord]) -> MarginalReport:
    fields = {
        "gender": GENDERS,
        "ethnicity": ETHNICITIES,
        "education_level": EDUCATION_LEVELS,
        "region": REGIONS,
    }
    counts = {}
    proportions = {}
    n = len(records)
    for field_name, vocabulary in fields.items():
        tally = {value: 0 for value in vocabulary}
        for r in records:
            tally[getattr(r, field_name)] = tally.get(getattr(r, field_name), 0) + 1
        counts[field_name] = tally
        proportions[field_name] = {
            value: (c / n if n else 0.0) for value, c in tally.items()
        }

    employment = sum(r.employed for r in records) / n if n else None

    mentoring_values = [r.mentoring_sessions for r in records if r.mentoring_sessions is not None]
    engaged_rate = None
    engaged_count = 0
    if mentoring_values:
        median = float(np.median(mentoring_values))
        engaged = [
            r
            for r in records
            if r.workshop_hours is not None
            and r.workshop_hours > 0
            and r.mentoring_sessions is not None
            and r.mentoring_sessions >= median
        ]
        engaged_count = len(engaged)
        if engaged:
            engaged_rate = sum(r.employed for r in engaged) / len(engaged)

    return MarginalReport(
        n=n,
        counts=counts,
        proportions=proportions,
        employment_rate=employment,
        engaged_employment_rate=engaged_rate,
        engaged_count=engaged_count,
    )


def report_to_dict(report: MarginalReport) -> dict:
    return {
        "n": report.n,
        "counts": report.counts,
        "proportions": report.proportions,
        "employment_rate": report.employment_rate,
        "engaged_employment_rate": report.engaged_employment_rate,
        "engaged_count": report.engaged_count,
    }


# -- CSV -------------------------------------------------------------------------


def write_cohort_csv(records: Sequence[CohortRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(
                ",".join(
                    [
                        r.student_id,
                        r.gender,
                        r.ethnicity,
                        r.education_level,
                        r.region,
                        "" if r.mentoring_sessions is None else str(r.mentoring_sessions),
                        "" if r.workshop_hours is None else str(r.workshop_hours),
                        str(r.research_projects),
                        str(r.employed),
                    ]
                )
                + "\n"
            )


def _parse_int(raw: str, lineno: int, column: str, minimum: int = 0) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise SchemaViolation(lineno, column, f"not an integer: {raw!r}") from None
    if value < minimum:
        raise SchemaViolation(lineno, column, f"must be >= {minimum}, got {value}")
    return value


def _parse_count(raw: str, lineno: int, column: str) -> int:
    """A count cell: an integer >= 0 small enough for the learner's floats."""
    value = _parse_int(raw, lineno, column)
    if not finite_number(value):
        raise SchemaViolation(
            lineno, column, f"must fit a float, got an integer of {len(str(value))} digits"
        )
    return value


_COLUMNS = tuple(CSV_HEADER.split(","))
_VOCABULARIES = {
    "gender": GENDERS,
    "ethnicity": ETHNICITIES,
    "education_level": EDUCATION_LEVELS,
    "region": REGIONS,
}
_CHUNK_ROWS = 4096  # rows held as strings at once while the columns fill


@dataclass(frozen=True)
class CohortTable:
    """A cohort read into columns: one tuple per CSV column, in CSV order.

    Categorical cells are the vocabulary's own strings; None is a missing
    mentoring or workshop value.
    """

    student_id: tuple[str, ...]
    gender: tuple[str, ...]
    ethnicity: tuple[str, ...]
    education_level: tuple[str, ...]
    region: tuple[str, ...]
    mentoring_sessions: tuple[int | None, ...]
    workshop_hours: tuple[float | None, ...]
    research_projects: tuple[int, ...]
    employed: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.student_id)

    @classmethod
    def from_records(cls, records: Sequence[CohortRecord]) -> "CohortTable":
        rows = map(attrgetter(*_COLUMNS), records)
        return cls(*(zip(*rows) if records else [()] * len(_COLUMNS)))

    def records(self) -> list[CohortRecord]:
        return list(map(CohortRecord, *(getattr(self, name) for name in _COLUMNS)))


@contextmanager
def _cohort_rows(path):
    """The CSV reader of a cohort file, positioned after its checked header."""
    with open_text(path, InputError, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file, expected header {CSV_HEADER!r}") from None
        except csv.Error as exc:  # a header cell beyond the csv field limit
            raise InputError(f"{path}: line 1: {exc}") from None
        if tuple(header) != _COLUMNS:
            raise InputError(f"{path}: header must be exactly {CSV_HEADER!r}")
        yield reader


def _numbered(reader):
    """(line number, row) from line 2 on; a row the csv module refuses, such
    as one with a cell beyond its field limit, is a SchemaViolation."""
    for lineno in count(2):
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise SchemaViolation(lineno, "", str(exc)) from None
        yield lineno, row


def _first_error(path) -> None:
    """Check a cohort file row by row and raise its first error.

    The columnar loader's bulk checks only tell that some cell is bad; this
    finds the first one, so an error names the same line and column however
    the file was read.
    """
    width = len(_COLUMNS)
    with _cohort_rows(path) as reader:
        seen_ids = set()
        for lineno, row in _numbered(reader):
            if len(row) != width:
                raise SchemaViolation(lineno, "", f"expected {width} fields, got {len(row)}")
            values = dict(zip(_COLUMNS, row))

            student_id = values["student_id"]
            if not student_id:
                raise SchemaViolation(lineno, "student_id", "must not be empty")
            if student_id in seen_ids:
                raise DuplicateStudentId(f"line {lineno}: duplicate student_id {student_id!r}")
            seen_ids.add(student_id)

            for column, vocabulary in _VOCABULARIES.items():
                if values[column] not in vocabulary:
                    raise SchemaViolation(
                        lineno, column, f"{values[column]!r} not in {list(vocabulary)}"
                    )

            if values["mentoring_sessions"] != "":
                _parse_count(values["mentoring_sessions"], lineno, "mentoring_sessions")
            if values["workshop_hours"] != "":
                try:
                    workshop = float(values["workshop_hours"])
                except ValueError:
                    raise SchemaViolation(
                        lineno, "workshop_hours", f"not a number: {values['workshop_hours']!r}"
                    ) from None
                if not math.isfinite(workshop) or workshop < 0:
                    raise SchemaViolation(lineno, "workshop_hours", f"must be >= 0, got {workshop}")

            _parse_count(values["research_projects"], lineno, "research_projects")
            employed = _parse_int(values["employed"], lineno, "employed")
            if employed not in (0, 1):
                raise SchemaViolation(lineno, "employed", f"must be 0 or 1, got {employed}")


def _read_columns(path) -> CohortTable | None:
    """Read a cohort file into columns; None if any cell fails a check.

    The conversions are int() and float() themselves, so a cell passes here
    exactly when it passes _first_error.
    """
    width = len(_COLUMNS)
    lookups = {name: {v: v for v in vocabulary} for name, vocabulary in _VOCABULARIES.items()}
    columns = {name: [] for name in _COLUMNS}
    with _cohort_rows(path) as reader:
        try:
            while chunk := list(islice(reader, _CHUNK_ROWS)):
                if any(len(row) != width for row in chunk):
                    return None
                cells = dict(zip(_COLUMNS, zip(*chunk)))
                del chunk
                columns["student_id"].extend(cells["student_id"])
                for name, lookup in lookups.items():
                    columns[name].extend(map(lookup.__getitem__, cells[name]))
                columns["mentoring_sessions"].extend(
                    [int(v) if v else None for v in cells["mentoring_sessions"]]
                )
                columns["workshop_hours"].extend(
                    [float(v) if v else None for v in cells["workshop_hours"]]
                )
                columns["research_projects"].extend(map(int, cells["research_projects"]))
                columns["employed"].extend(map(int, cells["employed"]))
                del cells
        # an unknown category, a cell that int() or float() refuses, bytes
        # that are not UTF-8, or a row the csv module cannot split
        except (KeyError, ValueError, csv.Error):
            return None

    ids = columns["student_id"]
    counts = [v for v in columns["mentoring_sessions"] if v is not None]
    counts += columns["research_projects"]
    if (
        len(set(ids)) != len(ids)
        or "" in ids
        or min(counts, default=0) < 0
        or not finite_number(max(counts, default=0))
        or not all(0.0 <= h < math.inf for h in columns["workshop_hours"] if h is not None)
        or not set(columns["employed"]) <= {0, 1}
    ):
        return None
    return CohortTable(**{name: tuple(values) for name, values in columns.items()})


def load_cohort_table(path) -> CohortTable:
    """Read and validate a cohort CSV into columns; empty fields are missing values.

    Rows are read in chunks and checked in bulk. A file that fails any check
    is read again row by row, so the error raised is the first in the file,
    with its line and column.
    """
    table = _read_columns(path)
    if table is None:
        _first_error(path)
        raise RuntimeError(f"{path}: a bulk check failed but no row did")
    return table


def load_cohort_csv(path) -> list[CohortRecord]:
    """Parse and validate a cohort CSV into records; empty fields are missing values."""
    return load_cohort_table(path).records()


def feature_columns(table: CohortTable) -> tuple[list[RawColumn], list[int]]:
    """Learner view of a cohort: feature columns plus the employment labels."""
    mentoring = tuple(None if v is None else float(v) for v in table.mentoring_sessions)
    columns = [
        RawColumn("gender", CATEGORICAL, table.gender),
        RawColumn("ethnicity", CATEGORICAL, table.ethnicity),
        RawColumn("education_level", CATEGORICAL, table.education_level),
        RawColumn("region", CATEGORICAL, table.region),
        RawColumn("mentoring_sessions", NUMERIC, mentoring),
        RawColumn("workshop_hours", NUMERIC, table.workshop_hours),
        RawColumn("research_projects", NUMERIC, tuple(map(float, table.research_projects))),
    ]
    return columns, list(table.employed)


# -- profile files ----------------------------------------------------------------


def profile_to_dict(profile: CohortProfile) -> dict:
    return {
        "education": dict(profile.education),
        "male_given_education": dict(profile.male_given_education),
        "ethnicity": dict(profile.ethnicity),
        "engaged_fraction": profile.engaged_fraction,
        "p_engaged": profile.p_engaged,
        "p_other": profile.p_other,
        "education_employment_shift": dict(profile.education_employment_shift),
        "mentoring_dose_slope": profile.mentoring_dose_slope,
    }


def profile_from_dict(data: Mapping) -> CohortProfile:
    """A profile from a JSON object, missing keys taken from the default. A
    value of the wrong type is an InputError; ranges are validate_profile's."""
    if not isinstance(data, Mapping):
        raise InputError("profile must be a JSON object")
    merged = profile_to_dict(default_profile())
    unknown = set(data) - set(merged)
    if unknown:
        raise InputError(f"profile: unknown keys {sorted(unknown)}")
    for key, value in data.items():
        if not isinstance(merged[key], Mapping):
            numbers = {key: value}
        elif isinstance(value, Mapping):
            numbers = {f"{key}[{k!r}]": v for k, v in value.items()}
        else:
            raise InputError(f"profile: {key} must be a JSON object, got {value!r}")
        for name, number in numbers.items():
            if not finite_number(number):
                raise InputError(f"profile: {name} must be a finite number, got {number!r}")
    merged.update(data)
    profile = CohortProfile(**merged)
    validate_profile(profile)
    return profile


def load_profile(path) -> CohortProfile:
    return profile_from_dict(load_json(path, InputError))
