"""The layout texts (FloatItems, object_line) against json.dumps(obj,
sort_keys=True), and write_json and the fixed-shape predict writer against
json.dumps(obj, indent=2, sort_keys=True)."""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from skillsgraph.cli import _predictions_text
from skillsgraph.jsonio import FloatItems, object_line, write_json

ODD_TEXT = ['"', "\\", "{", "}", "[", "]", ",", ":", "\n", "\t", "\x00", "\x1f", "é", "ключ", " ", "😀"]
ODD_FLOATS = [-0.0, 0.0, 1e-300, 1e300, 5e-324, math.nan, math.inf, -math.inf, 0.1]
BIG_INTS = [2**64, 2**64 + 1, -(2**70), 10**30]

texts = st.one_of(st.text(max_size=6), st.sampled_from(ODD_TEXT), st.lists(st.sampled_from(ODD_TEXT)).map("".join))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from(BIG_INTS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(ODD_FLOATS),
    texts,
)


def containers(children, keys=texts):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
    )


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def test_write_json_adds_newline(tmp_path):
    payload = {"b": [1, {"c": "é"}], "a": 1.0}
    write_json(tmp_path / "x.json", payload)
    assert (tmp_path / "x.json").read_bytes() == (reference(payload) + "\n").encode("ascii")


# strings that look like the writer's own layout: newlines, commas, runs of
# spaces, and non-ASCII text, next to nested empty containers
LAYOUT_TEXT = ["\n", ",", ", ", ",\n  ", "  ", "    ", "\n    ", "é ,\n", "ключ  ,"]
layout_texts = st.one_of(texts, st.lists(st.sampled_from(LAYOUT_TEXT), max_size=4).map("".join))
layout_documents = st.recursive(
    st.one_of(scalars, layout_texts, st.sampled_from([{}, [], (), {"": {}}, [[]], {"a": [{}]}])),
    lambda children: containers(children, layout_texts),
    max_leaves=30,
)


def line(obj) -> str:
    """The one-line text the layout functions give."""
    return json.dumps(obj, sort_keys=True)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(layout_texts, layout_documents, max_size=5))
def test_object_texts_match_json_dumps(members):
    assert object_line({k: line(v) for k, v in members.items()}) == line(members)


float_values = st.one_of(st.floats(), st.sampled_from(ODD_FLOATS + [1e308, -1e308]))
float_keys = st.one_of(
    st.lists(layout_texts, max_size=8, unique=True),
    st.lists(st.integers(), max_size=8, unique=True),
    st.lists(st.floats(allow_nan=False), max_size=8, unique=True),
)


@settings(max_examples=150, deadline=None)
@given(float_keys, st.data())
def test_float_items_follow_their_assignments(keys, data):
    """After every assignment, the kept items make the text of the dict as
    it now stands, alone and nested in another."""
    values = data.draw(st.lists(float_values, min_size=len(keys), max_size=len(keys)))
    items = FloatItems(keys, values)
    for _ in range(data.draw(st.integers(0, 4))):
        current = dict(zip(keys, values))
        assert items.line() == line(current)
        assert object_line({"d": items.line()}) == line({"d": current})
        if data.draw(st.booleans()):
            values = data.draw(st.lists(float_values, min_size=len(keys), max_size=len(keys)))
            items.assign_all(values)
        else:
            positions = data.draw(st.lists(st.sampled_from(range(len(keys))), unique=True)) if keys else []
            new = data.draw(st.lists(float_values, min_size=len(positions), max_size=len(positions)))
            for position, value in zip(positions, new):
                values[position] = value
            items.assign(positions, new)
    assert items.line() == line(dict(zip(keys, values)))


def test_float_items_spell_non_finite_values_as_json_does():
    keys = ["b", "a", "c", "d", "v10", "v2"]
    values = [math.nan, math.inf, -math.inf, 1e308, 1e308, -0.0]
    items = FloatItems(keys, values)
    assert items.line() == line(dict(zip(keys, values)))
    assert '"a": Infinity, "b": NaN, "c": -Infinity' in items.line()
    items.assign([0, 4], [0.1, math.nan])
    values[0], values[4] = 0.1, math.nan
    assert object_line({"d": items.line()}) == line({"d": dict(zip(keys, values))})


def predictions_reference(accuracy, n, ids, predictions) -> str:
    payload = {
        "n": n,
        "accuracy": accuracy,
        "predictions": [{"student_id": s, "prediction": int(p)} for s, p in zip(ids, predictions)],
    }
    return reference(payload) + "\n"


class TestPredictionsText:
    def test_zero_rows(self):
        assert _predictions_text(None, 0, [], []) == predictions_reference(None, 0, [], [])
        assert '"predictions": []' in _predictions_text(None, 0, [], [])

    def test_odd_ids(self):
        ids = ['say "hi"', "back\\slash", "{}[],:", "two\nlines", "tab\tnul\x00bell\x07", "Zoë", "学生", "😀"]
        predictions = [i % 2 for i in range(len(ids))]
        assert _predictions_text(0.5, len(ids), ids, predictions) == predictions_reference(
            0.5, len(ids), ids, predictions
        )

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(texts, st.integers(min_value=0, max_value=9)), max_size=8), st.floats(0, 1))
    def test_matches_json_dumps(self, rows, accuracy):
        ids = [r[0] for r in rows]
        predictions = [r[1] for r in rows]
        assert _predictions_text(accuracy, len(rows), ids, predictions) == predictions_reference(
            accuracy, len(rows), ids, predictions
        )
