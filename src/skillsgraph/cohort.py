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
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import DuplicateStudentId, InputError, InvalidProfile, SchemaViolation, open_text
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


def load_cohort_csv(path) -> list[CohortRecord]:
    """Parse and validate a cohort CSV; empty fields are missing values."""
    expected = CSV_HEADER.split(",")
    with open_text(path, InputError, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file, expected header {CSV_HEADER!r}") from None
        if header != expected:
            raise InputError(f"{path}: header must be exactly {CSV_HEADER!r}")

        records = []
        seen_ids = set()
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(expected):
                raise SchemaViolation(lineno, "", f"expected {len(expected)} fields, got {len(row)}")
            values = dict(zip(expected, row))

            student_id = values["student_id"]
            if not student_id:
                raise SchemaViolation(lineno, "student_id", "must not be empty")
            if student_id in seen_ids:
                raise DuplicateStudentId(f"line {lineno}: duplicate student_id {student_id!r}")
            seen_ids.add(student_id)

            for column, vocabulary in (
                ("gender", GENDERS),
                ("ethnicity", ETHNICITIES),
                ("education_level", EDUCATION_LEVELS),
                ("region", REGIONS),
            ):
                if values[column] not in vocabulary:
                    raise SchemaViolation(
                        lineno, column, f"{values[column]!r} not in {list(vocabulary)}"
                    )

            mentoring = (
                None
                if values["mentoring_sessions"] == ""
                else _parse_int(values["mentoring_sessions"], lineno, "mentoring_sessions")
            )
            if values["workshop_hours"] == "":
                workshop = None
            else:
                try:
                    workshop = float(values["workshop_hours"])
                except ValueError:
                    raise SchemaViolation(
                        lineno, "workshop_hours", f"not a number: {values['workshop_hours']!r}"
                    ) from None
                if not math.isfinite(workshop) or workshop < 0:
                    raise SchemaViolation(lineno, "workshop_hours", f"must be >= 0, got {workshop}")

            research = _parse_int(values["research_projects"], lineno, "research_projects")
            employed = _parse_int(values["employed"], lineno, "employed")
            if employed not in (0, 1):
                raise SchemaViolation(lineno, "employed", f"must be 0 or 1, got {employed}")

            records.append(
                CohortRecord(
                    student_id=student_id,
                    gender=values["gender"],
                    ethnicity=values["ethnicity"],
                    education_level=values["education_level"],
                    region=values["region"],
                    mentoring_sessions=mentoring,
                    workshop_hours=workshop,
                    research_projects=research,
                    employed=employed,
                )
            )
    return records


def feature_columns(records: Sequence[CohortRecord]) -> tuple[list[RawColumn], list[int]]:
    """Learner view of a cohort: feature columns plus the employment labels."""
    def col(name, kind, getter):
        return RawColumn(name=name, kind=kind, values=tuple(getter(r) for r in records))

    columns = [
        col("gender", CATEGORICAL, lambda r: r.gender),
        col("ethnicity", CATEGORICAL, lambda r: r.ethnicity),
        col("education_level", CATEGORICAL, lambda r: r.education_level),
        col("region", CATEGORICAL, lambda r: r.region),
        col(
            "mentoring_sessions",
            NUMERIC,
            lambda r: None if r.mentoring_sessions is None else float(r.mentoring_sessions),
        ),
        col("workshop_hours", NUMERIC, lambda r: r.workshop_hours),
        col("research_projects", NUMERIC, lambda r: float(r.research_projects)),
    ]
    labels = [r.employed for r in records]
    return columns, labels


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
    if not isinstance(data, Mapping):
        raise InputError("profile must be a JSON object")
    allowed = set(profile_to_dict(default_profile()))
    unknown = set(data) - allowed
    if unknown:
        raise InputError(f"profile: unknown keys {sorted(unknown)}")
    merged = profile_to_dict(default_profile())
    merged.update(data)
    profile = CohortProfile(**merged)
    validate_profile(profile)
    return profile


def load_profile(path) -> CohortProfile:
    with open_text(path, InputError) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON: {exc.msg}") from None
    return profile_from_dict(data)
