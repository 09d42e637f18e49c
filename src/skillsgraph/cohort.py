"""Synthetic participant cohorts and CSV ingestion.

A cohort describes capacity-building participants: demographics, program
engagement (mentoring sessions, workshop hours), research output, and the
binary employment outcome. It has one shape from generator to CSV to
learner: a CohortTable, one tuple per CSV column. The generator is
calibrated against published cohort statistics through a CohortProfile; a
profile fully determines the sampling scheme and a seed fully determines the
draw, so equal (n, seed, profile) yield byte-identical CSVs. It draws at most
MAX_COHORT_ROWS rows.

The base outcome mechanism is a two-group mixture: engaged members find
employment with probability p_engaged, everyone else with p_other. Profiles
may additionally shift the probability per education level and add a linear
mentoring dose response; both knobs default to zero so the calibrated default
profile stays a pure mixture, while planted_profile() uses them to embed a
recoverable signal for learner evaluation.

A cohort CSV takes one of two read paths, which give the same table and the
same errors. A plain file (the exact header line, then lines of exactly 8
commas with no '"' or NUL, a carriage return only in a CRLF line end, none
longer than the csv field limit) is split at commas a few thousand rows at
a time, straight into columns. In each such chunk a numeric column converts
and checks each distinct cell once, with the row-wise rule for its column,
and every cell is then looked up in that small table of values. Any other
file, and a plain file that fails a check, is read by the csv module row by
row, so quoted cells load and an error names the first bad row and its
column. Count cells (mentoring_sessions, research_projects) must be
integers >= 0 small enough to convert to a float, since the learner works
in floats. The writer quotes a cell only where the csv module needs it,
except that if any student_id holds a carriage return every cell of the
file is quoted (a missing value is then ""). Either way a file the loader
accepts loads to the same table after it is written back.
"""

from __future__ import annotations

import csv
import math
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import count, islice, repeat
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
_COLUMNS = tuple(CSV_HEADER.split(","))
# each vocabulary maps its values to themselves, so a lookup both checks a
# cell and gives the vocabulary's own string
_VOCABULARIES = {
    name: {value: value for value in vocabulary}
    for name, vocabulary in (
        ("gender", GENDERS),
        ("ethnicity", ETHNICITIES),
        ("education_level", EDUCATION_LEVELS),
        ("region", REGIONS),
    )
}
MAX_COHORT_ROWS = 1_000_000  # generate_cohort holds the whole table, about 0.2 KB a row


@dataclass(frozen=True)
class CohortTable:
    """A cohort as columns: one tuple per CSV column, in CSV order.

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


def check_draw(n: int, profile: CohortProfile) -> None:
    """Refuse a draw of n rows from profile, before any row is drawn."""
    if n < 0:
        raise InvalidProfile(f"n must be >= 0, got {n!r}")
    if n > MAX_COHORT_ROWS:
        raise InvalidProfile(f"n must be at most MAX_COHORT_ROWS = {MAX_COHORT_ROWS}, got {n!r}")
    validate_profile(profile)


def generate_cohort(n: int, seed: int, profile: CohortProfile | None = None) -> CohortTable:
    """Draw n rows; one fixed draw sequence per row, reproducible by seed."""
    profile = default_profile() if profile is None else profile
    check_draw(n, profile)

    rng = np.random.default_rng(seed)
    edu_probs = [profile.education[level] for level in EDUCATION_LEVELS]
    eth_probs = [profile.ethnicity[group] for group in ETHNICITIES]
    region_probs = [1.0 / len(REGIONS)] * len(REGIONS)

    columns = [[] for _ in _COLUMNS]
    ids, genders, ethnicities, educations, regions, mentorings, workshops, researches, outcomes = columns
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
        ids.append(f"S{i + 1:05d}")
        genders.append(gender)
        ethnicities.append(ethnicity)
        educations.append(education)
        regions.append(region)
        mentorings.append(mentoring)
        workshops.append(workshop)
        researches.append(research)
        outcomes.append(employed)
    del ids, genders, ethnicities, educations, regions, mentorings, workshops, researches, outcomes
    # each list is freed as soon as its tuple exists
    return CohortTable(*(tuple(columns.pop(0)) for _ in _COLUMNS))


# -- summaries -------------------------------------------------------------------


@dataclass(frozen=True)
class MarginalReport:
    n: int
    counts: dict  # field -> {value: count}
    proportions: dict  # field -> {value: share}
    employment_rate: float | None
    engaged_employment_rate: float | None  # workshop > 0 and mentoring >= cohort median
    engaged_count: int


def summarize(table: CohortTable) -> MarginalReport:
    n = len(table)
    counts = {
        name: {**dict.fromkeys(vocabulary, 0), **Counter(getattr(table, name))}
        for name, vocabulary in _VOCABULARIES.items()
    }
    proportions = {
        name: {value: (c / n if n else 0.0) for value, c in tally.items()}
        for name, tally in counts.items()
    }

    employment = sum(table.employed) / n if n else None

    mentoring_values = [v for v in table.mentoring_sessions if v is not None]
    engaged_rate = None
    engaged_count = 0
    if mentoring_values:
        median = float(np.median(mentoring_values))
        engaged = [
            employed
            for mentoring, workshop, employed in zip(
                table.mentoring_sessions, table.workshop_hours, table.employed
            )
            if workshop is not None and workshop > 0 and mentoring is not None and mentoring >= median
        ]
        engaged_count = len(engaged)
        if engaged:
            engaged_rate = sum(engaged) / len(engaged)

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


def write_cohort_csv(table: CohortTable, path) -> None:
    """Write a cohort as CSV, quoting only the cells that need it; None is an
    empty field. If any student_id holds a carriage return, every cell is
    quoted and None is written as ""."""
    # The csv writer quotes a cell for a lone "\r" only when the line
    # terminator holds one, and an unquoted "\r" ends the row when read.
    has_cr = any("\r" in student_id for student_id in table.student_id)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL if has_cr else csv.QUOTE_MINIMAL)
        writer.writerow(_COLUMNS)
        writer.writerows(zip(*(getattr(table, name) for name in _COLUMNS)))


_SHOWN = 32  # characters of a cell that an error message repeats
_FLOAT_DIGITS = len(str(int(sys.float_info.max)))  # 309: an integer of more overflows a float


def _shown(value) -> str:
    """A cell (shown by repr) or a number for an error message. Past _SHOWN
    characters only its start shows, with its length, so one bad cell makes
    one short line."""
    text = str(value)
    show = repr if isinstance(value, str) else str
    if len(text) <= _SHOWN:
        return show(value)
    return f"{show(text[:_SHOWN])}... ({len(text)} characters)"


def _parse_int(raw: str, lineno: int, column: str, minimum: int = 0) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise SchemaViolation(lineno, column, f"not an integer: {_shown(raw)}") from None
    if value < minimum:
        raise SchemaViolation(lineno, column, f"must be >= {minimum}, got {_shown(value)}")
    return value


def _parse_count(raw: str, lineno: int, column: str) -> int:
    """A count cell: an integer >= 0 small enough for the learner's floats.

    A cell of ASCII digits alone is read from its digits after any leading
    zeros, without int() on the cell, which refuses more than 4,300 digits:
    so such a cell of any length gets its value or its digit count.
    """
    digits = raw.strip()
    if not (digits.isascii() and digits.isdigit()):
        digits = str(_parse_int(raw, lineno, column))
    digits = digits.lstrip("0") or "0"
    if len(digits) > _FLOAT_DIGITS or not finite_number(value := int(digits)):
        raise SchemaViolation(lineno, column, f"must fit a float, got an integer of {len(digits)} digits")
    return value


_CHUNK_ROWS = 4096  # rows held as strings at once while the columns fill


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


def _read_rows(path) -> CohortTable:
    """Read a cohort file through the csv module, checking one row at a time.

    This reads any file the csv module can, quoted cells and CRLF line ends
    included, and raises the file's first error with its line and column.
    Files the plain split refuses come here, so a table and an error read
    the same whichever way the file went.
    """
    width = len(_COLUMNS)
    columns = [[] for _ in _COLUMNS]
    with _cohort_rows(path) as reader:
        seen_ids = set()
        for lineno, row in _numbered(reader):
            if len(row) != width:
                raise SchemaViolation(lineno, "", f"expected {width} fields, got {len(row)}")
            student_id, mentoring, workshop, research, employed = row[0], *row[5:]

            if not student_id:
                raise SchemaViolation(lineno, "student_id", "must not be empty")
            if student_id in seen_ids:
                raise DuplicateStudentId(f"line {lineno}: duplicate student_id {_shown(student_id)}")
            seen_ids.add(student_id)

            categories = []
            for (column, vocabulary), value in zip(_VOCABULARIES.items(), row[1:5]):
                if value not in vocabulary:
                    raise SchemaViolation(lineno, column, f"{_shown(value)} not in {list(vocabulary)}")
                categories.append(vocabulary[value])

            if mentoring == "":
                mentoring = None
            else:
                mentoring = _parse_count(mentoring, lineno, "mentoring_sessions")
            if workshop == "":
                workshop = None
            else:
                try:
                    workshop = float(workshop)
                except ValueError:
                    raise SchemaViolation(lineno, "workshop_hours", f"not a number: {_shown(workshop)}") from None
                if not math.isfinite(workshop) or workshop < 0:
                    raise SchemaViolation(lineno, "workshop_hours", f"must be >= 0, got {workshop}")

            research = _parse_count(research, lineno, "research_projects")
            try:
                employed = _parse_int(employed, lineno, "employed")
            except SchemaViolation:
                digits = employed.strip()
                if not (digits.isascii() and digits.isdigit()):
                    raise
                # an integer of more digits than int() reads: 0 or 1 only if zeros lead
                employed = int(digits[-1]) if digits.lstrip("0") in ("", "1") else employed
            if employed not in (0, 1):
                raise SchemaViolation(lineno, "employed", f"must be 0 or 1, got {_shown(employed)}")

            values = (student_id, *categories, mentoring, workshop, research, employed)
            for cells, value in zip(columns, values):
                cells.append(value)
    # each list is freed as soon as its tuple exists
    return CohortTable(*(tuple(columns.pop(0)) for _ in _COLUMNS))


def _counts_ok(values) -> bool:
    """Integers >= 0 small enough for the learner's floats, as _parse_count requires."""
    return min(values) >= 0 and finite_number(max(values))


def _hours_ok(values) -> bool:
    """Floats that are finite and >= 0, as _read_rows requires of workshop_hours."""
    return not any(map(math.isnan, values)) and min(values) >= 0.0 and max(values) < math.inf


def _labels_ok(values) -> bool:
    """0 or 1, as _read_rows requires of employed."""
    return {0, 1}.issuperset(values)


# each numeric column: the conversion of a cell, whether an empty cell is a
# missing value (None), and the check that every converted value must pass
_NUMERIC_CELLS = {
    "mentoring_sessions": (int, True, _counts_ok),
    "workshop_hours": (float, True, _hours_ok),
    "research_projects": (int, False, _counts_ok),
    "employed": (int, False, _labels_ok),
}


def _cell_values(cells, convert, optional, valid) -> dict | None:
    """Each distinct cell of a column mapped to its value; None if a value
    fails valid. ValueError where convert refuses a cell.

    Each distinct cell is converted once, by map() in C, and the check runs
    over the distinct values with builtins: a column of few distinct values
    costs about one lookup per cell, and one whose cells are all distinct
    one conversion and one table entry per cell.
    """
    distinct = set(cells)
    if optional:
        distinct.discard("")
    values = dict(zip(distinct, map(convert, distinct)))
    if values and not valid(values.values()):
        return None
    if optional:
        values[""] = None
    return values


def _read_plain(path) -> CohortTable | None:
    """Read a plain cohort file into columns; None if the file is not plain
    or any cell fails a check.

    A file is plain when its first line is CSV_HEADER and each line after it
    holds exactly 8 commas, no '"' or NUL, a carriage return only as part of
    a CRLF line end, and no more characters than csv.field_size_limit(). The
    csv module splits such a line at its commas and at its line end and
    nowhere else, so splitting a chunk of lines at commas and newlines, CRLF
    read as LF, gives the cells it would, row after row. In each chunk a
    numeric column converts each distinct cell once, with int() or float()
    themselves, and checks each distinct value against _read_rows's rule for
    that column; every cell is then looked up in that small table. So a cell
    passes here exactly when it passes _read_rows.
    """
    width = len(_COLUMNS)
    limit = csv.field_size_limit()
    columns = {name: [] for name in _COLUMNS}
    with open_text(path, InputError, newline="") as fh:
        try:
            if fh.readline() not in (CSV_HEADER + "\n", CSV_HEADER + "\r\n"):
                return None
            while lines := list(islice(fh, _CHUNK_ROWS)):
                rows = len(lines)
                if set(map(str.count, lines, repeat(","))) != {width - 1} or max(map(len, lines)) > limit:
                    return None
                text = "".join(lines)
                del lines
                if '"' in text or "\0" in text:
                    return None
                if "\r" in text:
                    # a lone CR ends a row for the csv module, or sits in a cell
                    if text.count("\r") != text.count("\r\n"):
                        return None
                    text = text.replace("\r\n", "\n")
                cells = text.replace("\n", ",").split(",")
                del text, cells[rows * width :]  # the empty cell after a final newline
                column = dict(zip(_COLUMNS, (cells[k::width] for k in range(width))))
                del cells
                columns["student_id"].extend(column["student_id"])
                for name, vocabulary in _VOCABULARIES.items():
                    columns[name].extend(map(vocabulary.__getitem__, column[name]))
                for name, rule in _NUMERIC_CELLS.items():
                    values = _cell_values(column[name], *rule)
                    if values is None:
                        return None
                    columns[name].extend(map(values.__getitem__, column[name]))
                del column
        # an unknown category, a cell that int() or float() refuses, or bytes
        # that are not UTF-8
        except (KeyError, ValueError):
            return None

    ids = columns["student_id"]
    if len(set(ids)) != len(ids) or "" in ids:
        return None
    del ids
    return CohortTable(**{name: tuple(columns.pop(name)) for name in _COLUMNS})


def load_cohort_csv(path) -> CohortTable:
    """Read and validate a cohort CSV into columns; empty fields are missing values.

    A plain file is split at commas in chunks of rows, and each chunk's
    numeric columns are converted and checked once per distinct cell. Any
    other file, or one that fails a check, is read by the csv module row
    by row, so quoted cells load and the error raised is the first in the
    file, with its line and column.
    """
    table = _read_plain(path)
    return _read_rows(path) if table is None else table


def feature_columns(table: CohortTable) -> tuple[list[RawColumn], list[int]]:
    """Learner view of a cohort: feature columns plus the employment labels."""
    columns = [
        RawColumn("gender", CATEGORICAL, table.gender),
        RawColumn("ethnicity", CATEGORICAL, table.ethnicity),
        RawColumn("education_level", CATEGORICAL, table.education_level),
        RawColumn("region", CATEGORICAL, table.region),
        RawColumn("mentoring_sessions", NUMERIC, table.mentoring_sessions),
        RawColumn("workshop_hours", NUMERIC, table.workshop_hours),
        RawColumn("research_projects", NUMERIC, table.research_projects),
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
