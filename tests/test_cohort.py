"""Cohort generation, CSV schema enforcement, and summary statistics.

reference_load_cohort_csv checks and builds one record per row, as
load_cohort_csv did before cohort files were read into columns, with the
check that a count fits a float; the columnar loader must raise the same
first error and give the same records and learner columns.
"""

import csv
import math
import random
import re
import tracemalloc

import pytest

from skillsgraph import (
    CohortProfile,
    CohortRecord,
    default_profile,
    generate_cohort,
    load_cohort_csv,
    planted_profile,
    summarize,
    write_cohort_csv,
)
from skillsgraph import cohort as cohort_module
from skillsgraph.cohort import (
    CSV_HEADER,
    EDUCATION_LEVELS,
    ETHNICITIES,
    GENDERS,
    REGIONS,
    CohortTable,
    feature_columns,
    load_cohort_table,
    load_profile,
    profile_from_dict,
    profile_to_dict,
    report_to_dict,
)
from skillsgraph.errors import (
    DuplicateStudentId,
    InputError,
    InvalidProfile,
    SchemaViolation,
    open_text,
)
from skillsgraph.prepare import CATEGORICAL, NUMERIC, RawColumn


def _reference_parse_int(raw, lineno, column, minimum=0):
    try:
        value = int(raw)
    except ValueError:
        raise SchemaViolation(lineno, column, f"not an integer: {raw!r}") from None
    if value < minimum:
        raise SchemaViolation(lineno, column, f"must be >= {minimum}, got {value}")
    return value


def _reference_parse_count(raw, lineno, column):
    value = _reference_parse_int(raw, lineno, column)
    try:
        float(value)
    except OverflowError:
        raise SchemaViolation(
            lineno, column, f"must fit a float, got an integer of {len(str(value))} digits"
        ) from None
    return value


def reference_load_cohort_csv(path):
    """Row by row: one dict, one check per field and one record per row."""
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
                else _reference_parse_count(values["mentoring_sessions"], lineno, "mentoring_sessions")
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

            research = _reference_parse_count(values["research_projects"], lineno, "research_projects")
            employed = _reference_parse_int(values["employed"], lineno, "employed")
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


def reference_feature_columns(records):
    """The learner's columns built record by record."""
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
    return columns, [r.employed for r in records]


def record(i=1, **over):
    base = dict(
        student_id=f"S{i:05d}",
        gender="F",
        ethnicity="asian",
        education_level="masters",
        region="usa",
        mentoring_sessions=5,
        workshop_hours=2.5,
        research_projects=1,
        employed=1,
    )
    base.update(over)
    return CohortRecord(**base)


def write_lines(path, *rows):
    path.write_text(CSV_HEADER + "\n" + "".join(r + "\n" for r in rows))
    return path


GOOD_ROW = "S00001,M,asian,masters,usa,5,2.5,1,1"


class TestProfiles:
    def test_default_mixture_identity(self):
        p = default_profile()
        got = p.engaged_fraction * p.p_engaged + (1 - p.engaged_fraction) * p.p_other
        assert got == pytest.approx(0.8263, abs=1e-9)

    def test_default_is_valid(self):
        generate_cohort(1, seed=0, profile=default_profile())

    def test_planted_is_valid(self):
        generate_cohort(1, seed=0, profile=planted_profile())

    @pytest.mark.parametrize(
        "patch",
        [
            {"education": {"phd": 0.5, "masters": 0.5, "undergraduate": 0.2, "high_school": -0.2}},
            {"education": {"phd": 1.0}},
            {"ethnicity": {"african_american": 0.5, "hispanic": 0.5, "asian": 0.25, "other": 0.25}},
            {"male_given_education": {level: 1.5 for level in EDUCATION_LEVELS}},
            {"engaged_fraction": 1.2},
            {"p_engaged": -0.1},
            {"p_other": float("nan")},
            {"education_employment_shift": {level: float("inf") for level in EDUCATION_LEVELS}},
            {"mentoring_dose_slope": float("nan")},
        ],
    )
    def test_invalid_profiles_rejected(self, patch):
        base = profile_to_dict(default_profile())
        base.update(patch)
        with pytest.raises(InvalidProfile):
            generate_cohort(1, seed=0, profile=CohortProfile(**base))

    def test_dict_round_trip(self):
        p = planted_profile()
        assert profile_from_dict(profile_to_dict(p)) == p

    def test_partial_dict_merges_onto_default(self):
        p = profile_from_dict({"engaged_fraction": 0.5, "p_other": 0.6})
        assert p.engaged_fraction == 0.5
        assert p.education == default_profile().education

    def test_unknown_key_rejected(self):
        with pytest.raises(InputError, match="unknown keys"):
            profile_from_dict({"p_engagedd": 0.8})

    def test_load_profile_file(self, tmp_path):
        import json

        path = tmp_path / "profile.json"
        path.write_text(json.dumps(profile_to_dict(planted_profile())))
        assert load_profile(path) == planted_profile()

    @pytest.mark.parametrize(
        "patch, key",
        [
            ({"mentoring_dose_slope": "x"}, "mentoring_dose_slope"),
            ({"mentoring_dose_slope": None}, "mentoring_dose_slope"),
            ({"engaged_fraction": True}, "engaged_fraction"),
            ({"p_other": 10**400}, "p_other"),
            ({"p_engaged": float("nan")}, "p_engaged"),
            ({"education": None}, "education"),
            ({"education": [0.25] * 4}, "education"),
            ({"education": {"phd": "x", "masters": 1, "undergraduate": 0, "high_school": 0}}, "education['phd']"),
            ({"education": {"phd": None, "masters": 1, "undergraduate": 0, "high_school": 0}}, "education['phd']"),
            ({"male_given_education": {level: "x" for level in EDUCATION_LEVELS}}, "male_given_education['phd']"),
            ({"education_employment_shift": {"phd": False}}, "education_employment_shift['phd']"),
        ],
    )
    def test_profile_value_types_are_input_errors(self, patch, key):
        with pytest.raises(InputError, match=re.escape(f"profile: {key} must be")):
            profile_from_dict(patch)

    def test_profile_ranges_stay_invalid_profile(self):
        with pytest.raises(InvalidProfile):
            profile_from_dict({"engaged_fraction": 1.5})
        with pytest.raises(InvalidProfile):
            profile_from_dict({"education": {"phd": 1}})

    def test_load_profile_bad_json(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text("{not json")
        with pytest.raises(InputError, match="invalid JSON"):
            load_profile(path)


class TestGenerate:
    def test_zero_rows(self):
        assert generate_cohort(0, seed=3) == []

    def test_negative_n(self):
        with pytest.raises(InvalidProfile):
            generate_cohort(-1, seed=3)

    def test_reproducible(self):
        assert generate_cohort(50, seed=9) == generate_cohort(50, seed=9)
        assert generate_cohort(50, seed=9) != generate_cohort(50, seed=10)

    def test_engagement_shows_in_workshop_and_mentoring(self):
        for r in generate_cohort(500, seed=21):
            assert (r.workshop_hours > 0) == (r.mentoring_sessions >= 11)
            assert 0 <= r.mentoring_sessions <= 20
            assert 0 <= r.research_projects <= 5

    def test_unique_ids(self):
        records = generate_cohort(300, seed=4)
        assert len({r.student_id for r in records}) == 300

    def test_default_calibration_against_published_marginals(self):
        records = generate_cohort(10000, seed=1)
        report = summarize(records)
        education_target = {
            "phd": 17 / 380,
            "masters": 229 / 380,
            "undergraduate": 122 / 380,
            "high_school": 12 / 380,
        }
        for level, share in education_target.items():
            assert abs(report.proportions["education_level"][level] - share) <= 0.02
        ethnicity_target = {
            "african_american": 0.3632,
            "hispanic": 0.2368,
            "asian": 0.2105,
            "other": 0.1895,
        }
        for group, share in ethnicity_target.items():
            assert abs(report.proportions["ethnicity"][group] - share) <= 0.02
        assert abs(report.employment_rate - 0.8263) <= 0.02
        assert abs(report.engaged_employment_rate - 0.85) <= 0.03


class TestSummarize:
    def test_hand_cohort(self):
        records = [
            record(1, mentoring_sessions=2, workshop_hours=0.0, employed=0),
            record(2, mentoring_sessions=4, workshop_hours=0.0, employed=1, gender="M"),
            record(3, mentoring_sessions=12, workshop_hours=20.0, employed=1),
            record(4, mentoring_sessions=18, workshop_hours=5.5, employed=1, ethnicity="other"),
        ]
        report = summarize(records)
        assert report.n == 4
        assert report.counts["gender"] == {"M": 1, "F": 3}
        assert report.proportions["ethnicity"]["asian"] == 0.75
        assert report.employment_rate == 0.75
        # median mentoring is 8, so the engaged pair is rows 3 and 4
        assert report.engaged_count == 2
        assert report.engaged_employment_rate == 1.0
        for field in report.proportions.values():
            assert math.fsum(field.values()) == pytest.approx(1.0, abs=1e-9)

    def test_empty_cohort(self):
        report = summarize([])
        assert report.n == 0
        assert report.employment_rate is None
        assert report.engaged_employment_rate is None
        assert all(c == 0 for tally in report.counts.values() for c in tally.values())

    def test_report_dict_is_json_ready(self):
        import json

        payload = report_to_dict(summarize(generate_cohort(20, seed=2)))
        json.dumps(payload)
        assert payload["n"] == 20


class TestCsv:
    def test_write_load_round_trip(self, tmp_path):
        records = generate_cohort(200, seed=7)
        path = tmp_path / "cohort.csv"
        write_cohort_csv(records, path)
        assert load_cohort_csv(path) == records

    def test_byte_identical_writes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_cohort_csv(generate_cohort(120, seed=5), a)
        write_cohort_csv(generate_cohort(120, seed=5), b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_markers_round_trip(self, tmp_path):
        records = [record(1, mentoring_sessions=None, workshop_hours=None)]
        path = tmp_path / "cohort.csv"
        write_cohort_csv(records, path)
        loaded = load_cohort_csv(path)
        assert loaded[0].mentoring_sessions is None
        assert loaded[0].workshop_hours is None

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("student_id,gender\nS1,M\n")
        with pytest.raises(InputError, match="header"):
            load_cohort_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InputError, match="empty"):
            load_cohort_csv(path)

    def test_missing_fields_allowed(self, tmp_path):
        path = write_lines(tmp_path / "ok.csv", "S00001,F,other,phd,india,,,0,0")
        loaded = load_cohort_csv(path)
        assert loaded[0].mentoring_sessions is None
        assert loaded[0].workshop_hours is None

    @pytest.mark.parametrize(
        "row,column",
        [
            ("S00001,X,asian,masters,usa,5,2.5,1,1", "gender"),
            ("S00001,M,martian,masters,usa,5,2.5,1,1", "ethnicity"),
            ("S00001,M,asian,postdoc,usa,5,2.5,1,1", "education_level"),
            ("S00001,M,asian,masters,atlantis,5,2.5,1,1", "region"),
            ("S00001,M,asian,masters,usa,-2,2.5,1,1", "mentoring_sessions"),
            ("S00001,M,asian,masters,usa,5,abc,1,1", "workshop_hours"),
            ("S00001,M,asian,masters,usa,5,-1.0,1,1", "workshop_hours"),
            ("S00001,M,asian,masters,usa,5,2.5,1.5,1", "research_projects"),
            ("S00001,M,asian,masters,usa,5,2.5,1,2", "employed"),
            (",M,asian,masters,usa,5,2.5,1,1", "student_id"),
        ],
    )
    def test_schema_violations_name_the_cell(self, tmp_path, row, column):
        path = write_lines(tmp_path / "bad.csv", GOOD_ROW.replace("S00001", "S00000"), row)
        with pytest.raises(SchemaViolation) as err:
            load_cohort_csv(path)
        assert err.value.row == 3
        assert err.value.column == column

    def test_wrong_field_count(self, tmp_path):
        path = write_lines(tmp_path / "bad.csv", "S00001,M,asian,masters,usa,5,2.5,1")
        with pytest.raises(SchemaViolation):
            load_cohort_csv(path)

    def test_duplicate_id(self, tmp_path):
        path = write_lines(tmp_path / "dup.csv", GOOD_ROW, GOOD_ROW)
        with pytest.raises(DuplicateStudentId, match="S00001"):
            load_cohort_csv(path)


class TestFeatureColumns:
    def test_layout_and_labels(self):
        records = [
            record(1, mentoring_sessions=None, employed=0),
            record(2, mentoring_sessions=7, workshop_hours=None, employed=1),
        ]
        columns, labels = feature_columns(CohortTable.from_records(records))
        assert [(c.name, c.kind) for c in columns] == [
            ("gender", CATEGORICAL),
            ("ethnicity", CATEGORICAL),
            ("education_level", CATEGORICAL),
            ("region", CATEGORICAL),
            ("mentoring_sessions", NUMERIC),
            ("workshop_hours", NUMERIC),
            ("research_projects", NUMERIC),
        ]
        assert labels == [0, 1]
        by_name = {c.name: c for c in columns}
        assert by_name["mentoring_sessions"].values == (None, 7.0)
        assert by_name["workshop_hours"].values == (2.5, None)
        assert by_name["research_projects"].values == (1.0, 1.0)


# -- the columnar loader against the row-wise reference ------------------------


def _generated_rows(n, seed):
    """n generated rows as lists of CSV cells, some numeric cells left empty."""
    rng = random.Random(seed)
    rows = []
    for r in generate_cohort(n, seed=seed):
        row = [
            r.student_id, r.gender, r.ethnicity, r.education_level, r.region,
            str(r.mentoring_sessions), str(r.workshop_hours), str(r.research_projects), str(r.employed),
        ]
        for j in (5, 6):
            if rng.random() < 0.05:
                row[j] = ""
        rows.append(row)
    return rows


def _write_rows(path, rows):
    path.write_text(CSV_HEADER + "\n" + "".join(",".join(row) + "\n" for row in rows))
    return path


def _corrupt(rng, rows):
    """Spoil one random cell or row in place, with one of the schema's faults."""
    i = rng.randrange(len(rows))
    row = rows[i]
    kind = rng.randrange(11)
    if kind == 0:  # a value outside the vocabulary
        row[rng.randint(1, 4)] = rng.choice(["X", "Asian", "", " M", "martian"])
    elif kind == 1:  # not a number
        row[rng.randint(5, 8)] = rng.choice(["abc", "1.2.3", "--1", "5x"])
    elif kind == 2:  # a negative number
        row[rng.randint(5, 7)] = rng.choice(["-1", "-3", "-0.5"])
    elif kind == 3:  # hours that are not finite
        row[6] = rng.choice(["nan", "inf", "-inf", "NaN", "1e400"])
    elif kind == 4:  # a fractional count
        row[rng.choice([5, 7, 8])] = rng.choice(["1.5", "2.0", "0.1"])
    elif kind == 5:
        row[8] = rng.choice(["2", "10"])
    elif kind == 6:
        row[0] = ""
    elif kind == 7:
        row[0] = rows[rng.randrange(len(rows))][0]
    elif kind == 8:  # a wrong field count
        rows[i] = row[:-1] if rng.random() < 0.5 else row + ["1"]
    elif kind == 9:
        rows.insert(i, [])  # a blank line
    else:  # an integer too large for a float
        row[rng.choice([5, 7])] = "1" + "0" * rng.randint(309, 450)


def _outcome(load, path):
    try:
        return load(path)
    except InputError as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None)


def assert_same_as_reference(path):
    want = _outcome(reference_load_cohort_csv, path)
    got = _outcome(load_cohort_csv, path)
    assert got == want
    if isinstance(want, list):
        assert feature_columns(load_cohort_table(path)) == reference_feature_columns(want)


class TestColumnarLoader:
    def test_random_corruptions_match_the_row_wise_reference(self, tmp_path, monkeypatch):
        # small chunks, so every file below spans several of them
        monkeypatch.setattr(cohort_module, "_CHUNK_ROWS", 64)
        rng = random.Random(2024)
        base = _generated_rows(400, seed=11)
        failures = 0
        for trial in range(300):
            rows = [list(row) for row in base[: rng.randint(65, 400)]]
            for _ in range(rng.randint(0, 3)):
                _corrupt(rng, rows)
            path = _write_rows(tmp_path / f"c{trial}.csv", rows)
            assert_same_as_reference(path)
            failures += not isinstance(_outcome(load_cohort_csv, path), list)
        assert 100 <= failures < 300  # both outcomes were exercised

    def test_first_chunk_vocabulary_error_beats_a_later_field_count(self, tmp_path):
        rows = _generated_rows(cohort_module._CHUNK_ROWS + 300, seed=5)
        rows[100][3] = "postdoc"
        rows[-50] = rows[-50][:-1]
        path = _write_rows(tmp_path / "c.csv", rows)
        assert_same_as_reference(path)
        with pytest.raises(SchemaViolation) as err:
            load_cohort_table(path)
        assert (err.value.row, err.value.column) == (102, "education_level")

    def test_duplicate_id_across_chunks(self, tmp_path):
        rows = _generated_rows(cohort_module._CHUNK_ROWS + 300, seed=6)
        rows[-1][0] = rows[3][0]
        path = _write_rows(tmp_path / "c.csv", rows)
        assert_same_as_reference(path)
        with pytest.raises(DuplicateStudentId, match=f"line {len(rows) + 1}: duplicate"):
            load_cohort_table(path)

    def test_clean_file_longer_than_one_chunk(self, tmp_path):
        rows = _generated_rows(cohort_module._CHUNK_ROWS + 300, seed=7)
        path = _write_rows(tmp_path / "c.csv", rows)
        assert_same_as_reference(path)
        assert len(load_cohort_table(path)) == len(rows)

    def test_header_only_file_is_an_empty_table(self, tmp_path):
        table = load_cohort_table(write_lines(tmp_path / "c.csv"))
        assert len(table) == 0
        assert table == CohortTable.from_records([])
        columns, labels = feature_columns(table)
        assert labels == [] and all(c.values == () for c in columns)

    def test_categories_are_the_vocabulary_strings(self, tmp_path):
        table = load_cohort_table(write_lines(tmp_path / "c.csv", GOOD_ROW, GOOD_ROW.replace("S00001", "S00002")))
        assert all(v is GENDERS[0] for v in table.gender)
        assert all(v is EDUCATION_LEVELS[1] for v in table.education_level)

    def test_peak_memory_within_the_row_wise_loader(self, tmp_path):
        path = tmp_path / "cohort.csv"
        write_cohort_csv(generate_cohort(20_000, seed=3), path)

        def peak(load):
            tracemalloc.start()
            try:
                load()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        reference = peak(lambda: reference_feature_columns(reference_load_cohort_csv(path)))
        columnar = peak(lambda: feature_columns(load_cohort_table(path)))
        assert columnar <= reference
