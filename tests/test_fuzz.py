"""Fuzzing the CLI's input files.

Whatever one input file holds (arbitrary bytes, arbitrary JSON, or a valid
file with one value replaced or removed), every command that reads it ends
in exit 0, 1 or 2 without an exception, and a failure prints exactly one
JSON line {"error": {"kind", "message"}}. The other inputs stay valid, so a
change gets as far into the pipeline as it can.
"""

import contextlib
import copy
import csv
import functools
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skillsgraph import generate_cohort, planted_profile, write_cohort_csv
from skillsgraph.cli import main
from skillsgraph.cohort import profile_to_dict

CASE_STUDY = Path(__file__).resolve().parents[1] / "scenarios" / "case_study"

SCENARIO = {
    "graph": "graph.json",
    "budget": 9.0,
    "allocation_mode": "select",
    "paths": [{"from": "v1", "to": "v5"}, {"from": "v1", "to": "v5", "tau": 2.0}],
    "actions": ["v1", "v2", "v5"],
    "feedback": {
        "metrics": "metrics.json", "eta": 0.5, "iterations": 2, "w_min": 0.01, "w_max": 10.0,
    },
    "seed": 7,
}
TRAIN = ["--grid-depth", "2", "--grid-leaf", "1", "--criteria", "gini", "--folds", "2"]

# input file -> the commands that read it; {} is the directory the files are in
COMMANDS = {
    "graph.json": [
        ["validate", "--graph", "{}/graph.json"],
        ["path", "--graph", "{}/graph.json", "--from", "v1", "--to", "v5", "--tau", "2"],
        ["run", "{}/scenario.json", "--out", "{}/out"],
    ],
    "metrics.json": [
        ["feedback", "--graph", "{}/graph.json", "--metrics", "{}/metrics.json",
         "--eta", "0.5", "--budget", "10"],
        ["run", "{}/scenario.json", "--out", "{}/out"],
    ],
    "transitions.csv": [["markov", "--counts", "{}/transitions.csv", "--iters", "3"]],
    "cohort.csv": [
        ["cohort", "summarize", "--data", "{}/cohort.csv"],
        ["train", "--data", "{}/cohort.csv", *TRAIN],
        ["predict", "--model", "{}/model.json", "--data", "{}/cohort.csv"],
    ],
    "model.json": [["predict", "--model", "{}/model.json", "--data", "{}/cohort.csv"]],
    "scenario.json": [["run", "{}/scenario.json", "--out", "{}/out"]],
    "profile.json": [["cohort", "gen", "--n", "5", "--profile", "{}/profile.json"]],
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@functools.cache
def valid_files() -> dict:
    """A valid copy of every input file, as bytes: the case study, a planted
    cohort, a model trained on it, and the planted profile."""
    files = {
        name: (CASE_STUDY / name).read_bytes() for name in ("graph.json", "metrics.json", "transitions.csv")
    }
    files["scenario.json"] = json.dumps(SCENARIO).encode()
    files["profile.json"] = json.dumps(profile_to_dict(planted_profile())).encode()
    with tempfile.TemporaryDirectory() as tmp:
        cohort = Path(tmp) / "cohort.csv"
        write_cohort_csv(generate_cohort(40, seed=5, profile=planted_profile()), cohort)
        code, out, _ = run_cli(["train", "--data", str(cohort), *TRAIN, "--out", tmp])
        assert code == 0, out
        files["cohort.csv"] = cohort.read_bytes()
        files["model.json"] = (Path(tmp) / "model.json").read_bytes()
    return files


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=10),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10,
)
DROP = object()


def locations(doc, here=()):
    """The key path of every value in a parsed JSON document, its root first."""
    yield here
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from locations(value, here + (key,))


def replaced(doc, where, value) -> bytes:
    """doc with the value at key path `where` replaced, or dropped, as JSON."""
    if not where:
        return json.dumps({} if value is DROP else value).encode()
    doc = copy.deepcopy(doc)
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[where[-1]]
    else:
        parent[where[-1]] = value
    return json.dumps(doc).encode()


def json_changes(name):
    def changes():
        doc = json.loads(valid_files()[name])
        where = st.sampled_from(list(locations(doc)))
        return st.builds(replaced, st.just(doc), where, st.just(DROP) | json_values)

    return st.deferred(changes)


def csv_changes(name):
    """The valid CSV with one cell replaced: by any text, or by digits that
    may be too many for a float."""

    def changes():
        rows = list(csv.reader(io.StringIO(valid_files()[name].decode())))
        cells = [(i, j) for i, row in enumerate(rows) for j in range(len(row))]

        def put(cell, text):
            edited = copy.deepcopy(rows)
            edited[cell[0]][cell[1]] = text
            return "".join(",".join(row) + "\n" for row in edited).encode()

        texts = st.text(max_size=12) | st.from_regex(r"-?[0-9]{1,400}", fullmatch=True)
        return st.builds(put, st.sampled_from(cells), texts)

    return st.deferred(changes)


def cases():
    return st.one_of(*(
        st.tuples(
            st.just(name),
            st.binary(max_size=200)
            | json_values.map(lambda v: json.dumps(v).encode())
            | (csv_changes(name) if name.endswith(".csv") else json_changes(name)),
        )
        for name in COMMANDS
    ))


def holds_bool(doc) -> bool:
    if isinstance(doc, dict):
        return any(holds_bool(v) for v in doc.values())
    return doc is True or doc is False


DEEP = b"[" * 100_000 + b"]" * 100_000
NUL_METRICS = {**SCENARIO, "feedback": {**SCENARIO["feedback"], "metrics": "\u0000"}}
WITH_PHD = b'{"phd": "x", "masters": 1, "undergraduate": 0, "high_school": 0}'


# a mutated cohort may hold a category the model was not fit on
@pytest.mark.filterwarnings("ignore:column .* not seen at fit time")
@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(case=cases())
@example(case=("graph.json", DEEP))
@example(case=("metrics.json", DEEP))
@example(case=("scenario.json", DEEP))
@example(case=("model.json", DEEP))
@example(case=("profile.json", DEEP))
@example(case=("scenario.json", json.dumps({"graph": "\u0000", "budget": 1}).encode()))
@example(case=("scenario.json", json.dumps(NUL_METRICS).encode()))
@example(case=("profile.json", b'{"mentoring_dose_slope": "x"}'))
@example(case=("profile.json", b'{"education": ' + WITH_PHD + b"}"))
@example(case=("profile.json", b'{"education": null}'))
@example(case=("profile.json", b'{"male_given_education": ' + WITH_PHD + b"}"))
@example(case=("profile.json", b'{"engaged_fraction": true}'))
@example(case=("transitions.csv", b"novice,proficient\n1" + b"0" * 400 + b",1\n0,1\n"))
def test_any_input_file_ends_in_a_clean_exit(case):
    name, body = case
    with tempfile.TemporaryDirectory() as tmp:
        for fname, data in valid_files().items():
            Path(tmp, fname).write_bytes(data)
        Path(tmp, name).write_bytes(body)
        for argv in COMMANDS[name]:
            code, out, err = run_cli([arg.replace("{}", tmp) for arg in argv])
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err
            if code:
                assert out.endswith("\n") and out.count("\n") == 1, out
                error = json.loads(out)
                assert list(error) == ["error"] and sorted(error["error"]) == ["kind", "message"]
            elif name == "profile.json":
                # a profile's numbers are never bools, however deep
                assert not holds_bool(json.loads(body))
