"""Cohort generation, CSV schema enforcement, and summary statistics.

reference_load_cohort_csv checks and builds one row at a time, as
load_cohort_csv did before cohort files were read into columns, with the
check that a count fits a float; the columnar loader must raise the same
first error and give the same table and learner columns. Tests build a
table from row tuples with CohortTable(*zip(*rows)).
"""

import csv
import dataclasses
import itertools
import math
import random
import re
import tracemalloc

import pytest

from skillsgraph import (
    CohortProfile,
    CohortTable,
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
    MAX_COHORT_ROWS,
    REGIONS,
    feature_columns,
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


EMPTY = CohortTable(*[()] * len(dataclasses.fields(CohortTable)))


def _reference_rows(path):
    """Row by row: one dict and one check per field, then the row's tuple."""
    expected = CSV_HEADER.split(",")
    with open_text(path, InputError, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file, expected header {CSV_HEADER!r}") from None
        except csv.Error as exc:
            raise InputError(f"{path}: line 1: {exc}") from None
        if header != expected:
            raise InputError(f"{path}: header must be exactly {CSV_HEADER!r}")

        seen_ids = set()
        for lineno in itertools.count(2):
            try:
                row = next(reader)
            except StopIteration:
                return
            except csv.Error as exc:  # a cell beyond the field limit; a NUL before Python 3.11
                raise SchemaViolation(lineno, "", str(exc)) from None
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

            yield (
                student_id,
                values["gender"],
                values["ethnicity"],
                values["education_level"],
                values["region"],
                mentoring,
                workshop,
                research,
                employed,
            )


def reference_load_cohort_csv(path):
    """One tuple per row, checked as it is read, then transposed into a table."""
    rows = list(_reference_rows(path))
    return CohortTable(*zip(*rows)) if rows else EMPTY


def reference_feature_columns(table):
    """The learner's columns built row by row, each cell the loader's own value read at its CSV position."""
    columns = [getattr(table, f.name) for f in dataclasses.fields(table)]

    def col(name, kind, getter):
        return RawColumn(name=name, kind=kind, values=tuple(getter(row) for row in zip(*columns)))

    features = [
        col("gender", CATEGORICAL, lambda r: r[1]),
        col("ethnicity", CATEGORICAL, lambda r: r[2]),
        col("education_level", CATEGORICAL, lambda r: r[3]),
        col("region", CATEGORICAL, lambda r: r[4]),
        col("mentoring_sessions", NUMERIC, lambda r: r[5]),
        col("workshop_hours", NUMERIC, lambda r: r[6]),
        col("research_projects", NUMERIC, lambda r: r[7]),
    ]
    return features, [row[8] for row in zip(*columns)]


def cohort_row(i=1, **over):
    """One cohort row as a tuple in CSV column order."""
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
    return tuple(base.values())


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
        assert generate_cohort(0, seed=3) == EMPTY

    def test_negative_n(self):
        with pytest.raises(InvalidProfile):
            generate_cohort(-1, seed=3)

    def test_n_above_the_cap_is_refused_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a row")

        monkeypatch.setattr(cohort_module, "_draw", no_draw)
        with pytest.raises(InvalidProfile, match=f"MAX_COHORT_ROWS = {MAX_COHORT_ROWS}, got {MAX_COHORT_ROWS + 1}"):
            generate_cohort(MAX_COHORT_ROWS + 1, seed=3)

    def test_reproducible(self):
        assert generate_cohort(50, seed=9) == generate_cohort(50, seed=9)
        assert generate_cohort(50, seed=9) != generate_cohort(50, seed=10)

    def test_engagement_shows_in_workshop_and_mentoring(self):
        table = generate_cohort(500, seed=21)
        for workshop, mentoring, research in zip(
            table.workshop_hours, table.mentoring_sessions, table.research_projects
        ):
            assert (workshop > 0) == (mentoring >= 11)
            assert 0 <= mentoring <= 20
            assert 0 <= research <= 5

    def test_unique_ids(self):
        table = generate_cohort(300, seed=4)
        assert len(set(table.student_id)) == 300

    def test_default_calibration_against_published_marginals(self):
        report = summarize(generate_cohort(10000, seed=1))
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
        rows = [
            cohort_row(1, mentoring_sessions=2, workshop_hours=0.0, employed=0),
            cohort_row(2, mentoring_sessions=4, workshop_hours=0.0, employed=1, gender="M"),
            cohort_row(3, mentoring_sessions=12, workshop_hours=20.0, employed=1),
            cohort_row(4, mentoring_sessions=18, workshop_hours=5.5, employed=1, ethnicity="other"),
        ]
        report = summarize(CohortTable(*zip(*rows)))
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
        report = summarize(EMPTY)
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
        table = generate_cohort(200, seed=7)
        path = tmp_path / "cohort.csv"
        write_cohort_csv(table, path)
        assert load_cohort_csv(path) == table

    @pytest.mark.parametrize("student_id", ["S,1", 'S"1', "S\n1", "S\r1"])
    def test_ids_that_need_quoting_survive_load_write_load(self, tmp_path, student_id):
        quoted = '"' + student_id.replace('"', '""') + '"'
        missing = "S00001,M,asian,masters,usa,,,1,1"
        source = write_lines(tmp_path / "in.csv", GOOD_ROW.replace("S00001", quoted), missing)
        table = load_cohort_csv(source)
        assert table.student_id == (student_id, "S00001")
        assert table.mentoring_sessions[1] is None and table.workshop_hours[1] is None
        write_cohort_csv(table, tmp_path / "out.csv")
        assert load_cohort_csv(tmp_path / "out.csv") == table

    def test_byte_identical_writes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_cohort_csv(generate_cohort(120, seed=5), a)
        write_cohort_csv(generate_cohort(120, seed=5), b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_markers_round_trip(self, tmp_path):
        table = CohortTable(*zip(*[cohort_row(1, mentoring_sessions=None, workshop_hours=None)]))
        path = tmp_path / "cohort.csv"
        write_cohort_csv(table, path)
        loaded = load_cohort_csv(path)
        assert loaded.mentoring_sessions == (None,)
        assert loaded.workshop_hours == (None,)

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
        assert loaded.mentoring_sessions == (None,)
        assert loaded.workshop_hours == (None,)

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
        rows = [
            cohort_row(1, mentoring_sessions=None, employed=0),
            cohort_row(2, mentoring_sessions=7, workshop_hours=None, employed=1),
        ]
        table = CohortTable(*zip(*rows))
        columns, labels = feature_columns(table)
        assert columns[4].values is table.mentoring_sessions and columns[6].values is table.research_projects
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
    table = generate_cohort(n, seed=seed)
    for cells in zip(*(getattr(table, f.name) for f in dataclasses.fields(table))):
        row = list(map(str, cells))
        for j in (5, 6):
            if rng.random() < 0.05:
                row[j] = ""
        rows.append(row)
    return rows


def _write_rows(path, rows):
    path.write_text(CSV_HEADER + "\n" + "".join(",".join(row) + "\n" for row in rows))
    return path


def _corrupt(rng, rows):
    """Spoil one random cell or row in place, with one of the schema's faults,
    or write one in a form only the csv module reads (kinds 11 to 16)."""
    i = rng.randrange(len(rows))
    row = rows[i]
    if len(row) != 9:  # spoilt already
        return
    kind = rng.randrange(17)
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
        row[0] = rng.choice([other for other in rows if other])[0]
    elif kind == 8:  # a wrong field count
        rows[i] = row[:-1] if rng.random() < 0.5 else row + ["1"]
    elif kind == 9:
        rows.insert(i, [])  # a blank line
    elif kind == 10:  # an integer too large for a float
        row[rng.choice([5, 7])] = "1" + "0" * rng.randint(309, 450)
    elif kind == 11:  # a quoted id, maybe holding a comma
        row[0] = f'"{row[0]}{rng.choice(["", ",", ",x", ",S00001"])}"'
    elif kind == 12:  # CRLF line ends, on one row or on every row
        for spoilt in [row] if rng.random() < 0.5 else rows:
            if spoilt:
                spoilt[-1] += "\r"
    elif kind == 13 and i + 1 < len(rows):  # a lone CR ending a row, within one line
        rows[i : i + 2] = [row[:-1] + [row[-1] + "\r" + rows[i + 1][0]] + rows[i + 1][1:]]
    elif kind == 14:  # a NUL byte in a cell
        j = rng.randrange(9)
        row[j] = rng.choice(["", row[j]]) + "\0"
    elif kind == 15:  # a cell beyond the csv field limit
        row[0] += "x" * csv.field_size_limit()
    elif kind == 16 and i + 1 < len(rows):  # 8 fields, then 10: a row's last cell starts the next line
        rows[i], rows[i + 1] = row[:-1], row[-1:] + rows[i + 1]


def _outcome(load, path):
    try:
        return load(path)
    except InputError as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None)


def assert_same_as_reference(path):
    want = _outcome(reference_load_cohort_csv, path)
    got = _outcome(load_cohort_csv, path)
    assert got == want
    if isinstance(want, CohortTable):
        assert feature_columns(load_cohort_csv(path)) == reference_feature_columns(want)


def assert_plain_split_as_reference(path):
    """The plain split reads the file to the reference's table, or gives up
    (None) where the reference raises; load_cohort_csv matches the reference."""
    want = _outcome(reference_load_cohort_csv, path)
    assert cohort_module._read_plain(path) == (want if isinstance(want, CohortTable) else None)
    assert_same_as_reference(path)


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
            if rng.random() < 0.2:  # a last line with no newline
                path.write_bytes(path.read_bytes()[:-1])
            assert_same_as_reference(path)
            failures += not isinstance(_outcome(load_cohort_csv, path), CohortTable)
        assert 100 <= failures < 300  # both outcomes were exercised

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda text: text.replace("T00003,", '"T00003,x",', 1),  # a quoted id with a comma
            lambda text: text.replace("T00004,", '"T00004",', 1),  # a quoted id, no comma
            lambda text: text.replace("\n", "\r\n"),  # CRLF line ends
            lambda text: text.replace("\nT00070,", "\rT00070,", 1),  # a lone CR ends a row
            lambda text: text.replace("T00090,", "T00090\0,", 1),  # a NUL byte
            lambda text: text.replace("T00020,", "T" * csv.field_size_limit() + ",", 1),  # beyond the limit
            lambda text: text[:-1],  # a last line with no newline
            lambda text: text.replace(",1\nT00011,", "\n1,T00011,", 1),  # 8 fields, then 10
            lambda text: '"student_id"' + text[len("student_id") :],  # a quoted header cell
            lambda text: text.replace("\n", " \n", 1),  # a header cell with a trailing space
        ],
        ids=[
            "quoted-comma",
            "quoted",
            "crlf",
            "lone-cr",
            "nul",
            "field-limit",
            "no-final-newline",
            "8-then-10",
            "quoted-header",
            "header-space",
        ],
    )
    def test_csv_module_cases_match_the_reference(self, tmp_path, monkeypatch, spoil):
        monkeypatch.setattr(cohort_module, "_CHUNK_ROWS", 64)
        rows = _generated_rows(150, seed=13)
        for n, row in enumerate(rows, start=1):
            row[0], row[8] = f"T{n:05d}", "1"
        text = _write_rows(tmp_path / "plain.csv", rows).read_text()
        path = tmp_path / "c.csv"
        path.write_bytes(spoil(text).encode())
        assert path.read_bytes() != text.encode()
        assert_same_as_reference(path)

    def test_crlf_file_takes_the_plain_path(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cohort_module, "_CHUNK_ROWS", 64)
        lf = _write_rows(tmp_path / "lf.csv", _generated_rows(150, seed=13))
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        want = load_cohort_csv(lf)

        def no_rows(path):
            raise AssertionError(f"{path} was read through the csv module")

        monkeypatch.setattr(cohort_module, "_read_rows", no_rows)
        assert load_cohort_csv(crlf) == want

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda text: text.replace("\nT00070,", "\rT00070,", 1),  # a lone CR ends a row
            lambda text: text.replace("\n", "\r\n").replace("\r\nT00070,", "\rT00070,", 1),  # the same, in CRLF
            lambda text: text.replace("T00030,", "T000\r30,", 1),  # a CR inside a cell
            lambda text: text.replace("\n", "\r\n").replace("T00030,", "T000\r30,", 1),  # the same, in CRLF
            lambda text: text.replace("T00030,", "T00030\r\n,", 1),  # a CRLF inside a cell
            lambda text: "".join(
                line + ("\r\n" if n % 3 else "\n") for n, line in enumerate(text.split("\n")[:-1])
            ),  # LF and CRLF line ends mixed
            lambda text: text.replace("\n", "\r\n", 1),  # a CRLF header, LF rows
            lambda text: text[:-1] + "\r",  # a final line ending in a bare CR
            lambda text: text.replace("\n", "\r\n")[:-1],  # CRLF, the last line in a bare CR
            lambda text: text.replace("\n", "\r\r\n", 1),  # CR CR LF after the header
        ],
        ids=[
            "lone-cr",
            "lone-cr-in-crlf",
            "cr-in-cell",
            "cr-in-cell-in-crlf",
            "crlf-in-cell",
            "mixed-lf-crlf",
            "crlf-header",
            "final-bare-cr",
            "crlf-final-bare-cr",
            "cr-cr-lf",
        ],
    )
    def test_carriage_returns_match_the_reference(self, tmp_path, monkeypatch, spoil):
        monkeypatch.setattr(cohort_module, "_CHUNK_ROWS", 64)
        rows = _generated_rows(150, seed=13)
        for n, row in enumerate(rows, start=1):
            row[0], row[8] = f"T{n:05d}", "1"
        text = _write_rows(tmp_path / "plain.csv", rows).read_text()
        path = tmp_path / "c.csv"
        path.write_bytes(spoil(text).encode())
        assert b"\r" in path.read_bytes()
        assert_same_as_reference(path)

    def test_first_chunk_vocabulary_error_beats_a_later_field_count(self, tmp_path):
        rows = _generated_rows(cohort_module._CHUNK_ROWS + 300, seed=5)
        rows[100][3] = "postdoc"
        rows[-50] = rows[-50][:-1]
        path = _write_rows(tmp_path / "c.csv", rows)
        assert_same_as_reference(path)
        with pytest.raises(SchemaViolation) as err:
            load_cohort_csv(path)
        assert (err.value.row, err.value.column) == (102, "education_level")

    def test_duplicate_id_across_chunks(self, tmp_path):
        rows = _generated_rows(cohort_module._CHUNK_ROWS + 300, seed=6)
        rows[-1][0] = rows[3][0]
        path = _write_rows(tmp_path / "c.csv", rows)
        assert_same_as_reference(path)
        with pytest.raises(DuplicateStudentId, match=f"line {len(rows) + 1}: duplicate"):
            load_cohort_csv(path)

    def test_clean_file_longer_than_one_chunk(self, tmp_path):
        rows = _generated_rows(cohort_module._CHUNK_ROWS + 300, seed=7)
        path = _write_rows(tmp_path / "c.csv", rows)
        assert_same_as_reference(path)
        assert len(load_cohort_csv(path)) == len(rows)

    def test_all_distinct_hours_across_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cohort_module, "_CHUNK_ROWS", 64)
        rows = _generated_rows(400, seed=17)
        for n, row in enumerate(rows):
            row[6] = repr(n * 0.37 + 0.01)
        path = _write_rows(tmp_path / "c.csv", rows)
        assert_plain_split_as_reference(path)
        assert len(set(load_cohort_csv(path).workshop_hours)) == len(rows)

    @pytest.mark.parametrize(
        "column, bad",
        [
            (5, "x"),
            (5, "-1"),
            (5, "1" + "0" * 400),
            (6, "nan"),
            (6, "-0.5"),
            (6, "1e400"),
            (7, ""),
            (7, "-2"),
            (8, "2"),
            (8, "-1"),
        ],
    )
    def test_first_bad_cell_in_a_later_chunk(self, tmp_path, monkeypatch, column, bad):
        # the bad cell is in the fifth chunk of 64 rows, and its value first appears there
        monkeypatch.setattr(cohort_module, "_CHUNK_ROWS", 64)
        rows = _generated_rows(400, seed=19)
        rows[300][column] = bad
        path = _write_rows(tmp_path / "c.csv", rows)
        assert_plain_split_as_reference(path)
        with pytest.raises(SchemaViolation) as err:
            load_cohort_csv(path)
        assert (err.value.row, err.value.column) == (302, CSV_HEADER.split(",")[column])

    @pytest.mark.parametrize("spelling", ["01", "+1", " 1", "1 ", "1_0", "1.5", "-0", "١"])
    @pytest.mark.parametrize("column", [5, 6, 7, 8])
    def test_spellings_int_and_float_read_apart(self, tmp_path, monkeypatch, column, spelling):
        monkeypatch.setattr(cohort_module, "_CHUNK_ROWS", 64)
        rows = _generated_rows(200, seed=23)
        for row in rows[70:200:40]:
            row[column] = spelling
        path = _write_rows(tmp_path / "c.csv", rows)
        assert_plain_split_as_reference(path)

    def test_header_only_file_is_an_empty_table(self, tmp_path):
        table = load_cohort_csv(write_lines(tmp_path / "c.csv"))
        assert len(table) == 0
        assert table == EMPTY
        columns, labels = feature_columns(table)
        assert labels == [] and all(c.values == () for c in columns)

    def test_categories_are_the_vocabulary_strings(self, tmp_path):
        table = load_cohort_csv(write_lines(tmp_path / "c.csv", GOOD_ROW, GOOD_ROW.replace("S00001", "S00002")))
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
        columnar = peak(lambda: feature_columns(load_cohort_csv(path)))
        assert columnar <= reference


class TestLongCells:
    """A long bad cell gives one short message, whichever reader meets it."""

    @staticmethod
    def errors(tmp_path, cells):
        """The error of the plain file holding cells in its second row, and of
        its fully quoted copy, which the csv module reads."""
        plain = write_lines(tmp_path / "plain.csv", GOOD_ROW.replace("S00001", "S00000"), ",".join(cells))
        quoted = tmp_path / "quoted.csv"
        with open(plain, newline="") as src, open(quoted, "w", newline="") as dst:
            csv.writer(dst, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(csv.reader(src))
        return [_outcome(load_cohort_csv, path) for path in (plain, quoted)]

    @pytest.mark.parametrize("column", [5, 7])
    @pytest.mark.parametrize("digits", [401, 4300, 4301, 5000, 100_000])
    def test_all_digit_count_reports_its_digits(self, tmp_path, column, digits):
        cells = GOOD_ROW.split(",")
        cells[column] = "9" * digits
        name = CSV_HEADER.split(",")[column]
        want = (SchemaViolation, f"row 3, column {name!r}: must fit a float, got an integer of {digits} digits", 3, name)
        assert self.errors(tmp_path, cells) == [want, want]

    def test_leading_zeros_do_not_count(self, tmp_path):
        cells = GOOD_ROW.split(",")
        cells[5] = "0" * 5000 + "7"
        cells[7] = "0" * 4000 + "9" * 400
        name = "research_projects"
        want = (SchemaViolation, f"row 3, column {name!r}: must fit a float, got an integer of 400 digits", 3, name)
        assert self.errors(tmp_path, cells) == [want, want]
        cells[7] = "0" * 5000
        cells[8] = "0" * 5000 + "1"
        table = load_cohort_csv(write_lines(tmp_path / "zeros.csv", ",".join(cells)))
        assert (table.mentoring_sessions, table.research_projects) == ((7,), (0,))
        assert table.employed == (1,)

    @pytest.mark.parametrize(
        "column, cell",
        [
            (1, "M" * 5000),
            (5, "1x" * 3000),
            (5, "-" + "1" * 4000),
            (6, "2.5" * 2000),
            (7, "+" + "1" * 5000),
            (8, "1" * 4000),
            (8, "1" * 5000),
        ],
    )
    def test_other_long_cells_show_a_prefix_and_a_length(self, tmp_path, column, cell):
        cells = GOOD_ROW.split(",")
        cells[column] = cell
        plain, quoted = self.errors(tmp_path, cells)
        assert plain == quoted and plain[0] is SchemaViolation
        assert "\n" not in plain[1] and len(plain[1]) < 200
        assert f"... ({len(cell)} characters)" in plain[1]
        if (column, cell) == (8, "1" * 5000):  # more digits than int() reads, but an integer
            assert plain[1] == "row 3, column 'employed': must be 0 or 1, got " + repr("1" * 32) + "... (5000 characters)"

    def test_long_duplicate_id(self, tmp_path):
        row = GOOD_ROW.replace("S00001", "S" * 5000)
        message = _outcome(load_cohort_csv, write_lines(tmp_path / "c.csv", row, row))[1]
        assert message == "line 3: duplicate student_id " + repr("S" * 32) + "... (5000 characters)"

    def test_short_cells_keep_their_messages(self, tmp_path):
        cells = GOOD_ROW.split(",")
        cells[8] = "2"
        assert self.errors(tmp_path, cells)[0][1] == "row 3, column 'employed': must be 0 or 1, got 2"
        cells[8], cells[5] = "1", "abc"
        assert self.errors(tmp_path, cells)[0][1] == "row 3, column 'mentoring_sessions': not an integer: 'abc'"
