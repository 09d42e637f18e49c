"""Fuzzing the CLI's input files and flags.

Whatever one input file holds (arbitrary bytes, arbitrary JSON, or a valid
file with one value replaced or removed), every command that reads it ends
in exit 0, 1 or 2 without an exception, and a failure prints exactly one
JSON line {"error": {"kind", "message"}}. The other inputs stay valid, so a
change gets as far into the pipeline as it can.

The same holds for the value of one flag. Each drawn value is either refused
before any work starts or small enough to finish in well under a second: a
value the program would accept and then work on for long (an --n between 50
and MAX_COHORT_ROWS, say) is never drawn.
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
from skillsgraph.cli import MAX_RANGE_VALUES
from skillsgraph.cohort import MAX_COHORT_ROWS, profile_to_dict
from skillsgraph.markov import MAX_ITERATIONS

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
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse ends a usage error here
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(argv, code, out, err):
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    if code:
        assert out.endswith("\n") and out.count("\n") == 1, out
        error = json.loads(out)
        assert list(error) == ["error"] and sorted(error["error"]) == ["kind", "message"]


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
LEAF = {"kind": "leaf", "feature": None, "threshold": None, "left": None, "right": None,
        "class_counts": [1], "prediction": 0}
NO_COLUMNS = json.dumps({
    "nodes": [LEAF], "params": {"max_depth": 0, "min_samples_leaf": 1, "criterion": "gini"},
    "feature_names": [], "classes": [0], "depth": 0, "preprocessing": {"columns": [], "feature_names": []},
}).encode()


# a mutated cohort may hold a category the model was not fit on
@pytest.mark.filterwarnings("ignore:column .* not seen at fit time")
@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(case=cases())
@example(case=("graph.json", DEEP))
@example(case=("metrics.json", DEEP))
@example(case=("scenario.json", DEEP))
@example(case=("model.json", DEEP))
@example(case=("model.json", NO_COLUMNS))
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
            argv = [arg.replace("{}", tmp) for arg in argv]
            code, out, err = run_cli(argv)
            assert_clean_exit(argv, code, out, err)
            if not code and name == "profile.json":
                # a profile's numbers are never bools, however deep
                assert not holds_bool(json.loads(body))


# the text of a number flag: any float's repr, the special values, integers
# of any size, and text that is no number
NOT_A_NUMBER = st.sampled_from(["", "x", "nan", "1e400", "-1e400", "inf", "-inf", "1" + "0" * 5000]) | st.text(
    alphabet=st.characters(blacklist_categories=("Nd",)), max_size=8
)
FLOAT_TEXT = st.floats().map(repr) | st.integers().map(str) | NOT_A_NUMBER
INT_TEXT = st.integers().map(str) | NOT_A_NUMBER
# grid ranges that name a few values, or more than the cap allows
RANGE_TEXT = (
    st.builds("{}:{}".format, st.integers(-3, 6), st.integers(-3, 6))
    | st.builds(lambda lo, extra: f"{lo}:{lo + MAX_RANGE_VALUES + extra}", st.integers(-10, 10), st.integers(0, 10**30))
    | INT_TEXT
)
CRITERIA_TEXT = st.text(max_size=12) | st.lists(st.sampled_from(["gini", "entropy", "GINI", "", " ", "x"])).map(",".join)
GRAPH = ["--graph", "{}/graph.json"]
FEEDBACK = ["feedback", *GRAPH, "--metrics", "{}/metrics.json"]
TRAIN_CSV = ["train", "--data", "{}/cohort.csv", *TRAIN]  # a later flag overrides TRAIN's

# a command that takes one drawn flag value -> the texts to draw, and its
# argv ({v} is the text)
FLAGS = {
    "path --tau": (FLOAT_TEXT, ["path", *GRAPH, "--from", "v1", "--to", "v5", "--tau", "{v}"]),
    "allocate select --budget": (FLOAT_TEXT, ["allocate", *GRAPH, "--budget", "{v}", "--mode", "select"]),
    "allocate fractional --budget": (FLOAT_TEXT, ["allocate", *GRAPH, "--budget", "{v}"]),
    "feedback --budget": (FLOAT_TEXT, [*FEEDBACK, "--eta", "0.5", "--budget", "{v}"]),
    "feedback --eta": (FLOAT_TEXT, [*FEEDBACK, "--eta", "{v}", "--budget", "10"]),
    # feedback stops at the first round without metrics, the third here
    "feedback --iters": (INT_TEXT, [*FEEDBACK, "--eta", "0.5", "--budget", "10", "--iters", "{v}"]),
    # markov makes one matrix product per step, up to its cap
    "markov --iters": (
        st.integers(max_value=50).map(str) | st.integers(min_value=MAX_ITERATIONS + 1).map(str) | NOT_A_NUMBER,
        ["markov", "--counts", "{}/transitions.csv", "--iters", "{v}"],
    ),
    "cohort gen --n": (
        st.integers(max_value=50).map(str) | st.integers(min_value=MAX_COHORT_ROWS + 1).map(str) | NOT_A_NUMBER,
        ["cohort", "gen", "--n", "{v}"],
    ),
    "cohort gen --seed": (INT_TEXT, ["cohort", "gen", "--n", "5", "--seed", "{v}"]),
    "train --seed": (INT_TEXT, [*TRAIN_CSV, "--seed", "{v}"]),
    "train --folds": (INT_TEXT, [*TRAIN_CSV, "--folds", "{v}"]),
    "train --grid-depth": (RANGE_TEXT, [*TRAIN_CSV, "--grid-depth", "{v}"]),
    "train --grid-leaf": (RANGE_TEXT, [*TRAIN_CSV, "--grid-leaf", "{v}"]),
    "train --criteria": (CRITERIA_TEXT, [*TRAIN_CSV, "--criteria", "{v}"]),
}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=st.one_of(*(st.tuples(st.just(name), texts) for name, (texts, _) in FLAGS.items())))
@example(case=("path --tau", "-inf"))
@example(case=("cohort gen --n", str(MAX_COHORT_ROWS + 1)))
@example(case=("train --grid-leaf", f"1:{MAX_RANGE_VALUES + 1}"))
@example(case=("train --folds", "1000000"))
def test_any_flag_value_ends_in_a_clean_exit(case):
    name, text = case
    with tempfile.TemporaryDirectory() as tmp:
        for fname, data in valid_files().items():
            Path(tmp, fname).write_bytes(data)
        argv = [arg.replace("{}", tmp).replace("{v}", text) for arg in FLAGS[name][1]]
        assert_clean_exit(argv, *run_cli(argv))
