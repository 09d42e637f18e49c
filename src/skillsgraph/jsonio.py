"""JSON text: the one indented format, and one-line layouts for series.

A series of dicts that share their keys, such as the snapshots of a feedback
cycle, is encoded from one layout, one line each: the text of
json.dumps(obj, sort_keys=True). FloatItems keeps a flat dict's item texts
('"key": value') in sorted key order and re-formats only the values that
change, and object_line joins a dict's members, each given as its one-line
text, into the dict's.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from operator import add
from typing import Mapping


def _key(key) -> str:
    """A dict key as json.encoder writes it: quoted, with the same conversions
    (a key that is not a str is cut from json's text of {key: 0})."""
    return encode_basestring_ascii(key) if isinstance(key, str) else json.dumps({key: 0})[1:-4]


def dumps(obj) -> str:
    """The text of every indented document the CLI prints or writes:
    json.dumps(obj, indent=2, sort_keys=True)."""
    return json.dumps(obj, indent=2, sort_keys=True)


def write_json(path, obj) -> None:
    """Write dumps(obj) and a newline to path, as UTF-8."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj) + "\n")


# json's text for the floats whose repr it does not use
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_texts(values: list) -> list:
    """json's text for each float in values: its repr, or NaN, Infinity or
    -Infinity."""
    out = list(map(float.__repr__, values))
    # a NaN or an infinity makes the sum non-finite (so may an overflow)
    if not math.isfinite(sum(values)):
        out = list(map(_NON_FINITE.get, out, out))
    return out


class FloatItems:
    """The item texts of a flat dict whose keys stay fixed while its float
    values change: '"key": value' per key, in json's sorted key order.

    Values are addressed by position in the keys as given. assign()
    re-formats only the items it is handed, and line() joins the kept
    strings into the dict's one-line text. The keys must be distinct, as in a
    dict, and the values floats (an int's text is not its float's).
    """

    __slots__ = ("_order", "_slot", "_prefixes", "_items")

    def __init__(self, keys, values):
        keys = list(keys)
        self._order = sorted(range(len(keys)), key=keys.__getitem__)
        self._slot = [0] * len(keys)
        for slot, position in enumerate(self._order):
            self._slot[position] = slot
        self._prefixes = [_key(keys[i]) + ": " for i in self._order]
        self.assign_all(values)

    def assign_all(self, values) -> None:
        """Set every value, in the keys' order."""
        ordered = list(map(values.__getitem__, self._order))
        self._items = list(map(add, self._prefixes, _float_texts(ordered)))

    def assign(self, positions, values) -> None:
        """Set the value at each position, in the keys' order."""
        items, prefixes, slots = self._items, self._prefixes, self._slot
        for position, text in zip(positions, _float_texts(values)):
            slot = slots[position]
            items[slot] = prefixes[slot] + text

    def line(self) -> str:
        """The dict's one-line text, json.dumps(obj, sort_keys=True)."""
        return "{" + ", ".join(self._items) + "}"


def object_line(members: Mapping) -> str:
    """json.dumps(obj, sort_keys=True) for a dict obj whose every value is
    given as its own one-line text."""
    keys = sorted(members)
    return "{" + ", ".join(_key(key) + ": " + members[key] for key in keys) + "}"
