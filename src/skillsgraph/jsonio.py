"""The one JSON writer: the text of json.dumps(obj, indent=2, sort_keys=True).

With `indent` set, CPython's json module never uses its C encoder, so a
megabyte report costs several times what compact encoding does. This writer
gives the same text at close to the compact cost. It walks dicts, lists and
tuples in Python; a container none of whose values is itself a dict, list or
tuple goes to the C encoder in one call, with separators that carry the
newline and the indentation of its depth. The walk then adds the newlines
after the opening and before the closing bracket. There is one encoder per
depth, built on first use.

Keys, numbers (NaN and the infinities too), strings and errors are the C
encoder's or follow json.encoder's own rules, so the text, or the exception
class, is the one json.dumps gives.

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

_INDENT = "  "


_NESTED = (dict, list, tuple)
# the value types the C encoder takes as they are; a container whose values
# all have one of these exact types is flat without an isinstance scan
_PLAIN = frozenset({str, int, float, bool, type(None)})

# _flat[d] encodes a flat container at depth d, its items one line each
_flat: list = []


def _flat_encoder(depth: int):
    while len(_flat) <= depth:
        item_indent = "\n" + _INDENT * (len(_flat) + 1)
        encoder = json.JSONEncoder(sort_keys=True, separators=("," + item_indent, ": "))
        _flat.append(encoder.encode)
    return _flat[depth]


def _key(key) -> str:
    """A dict key as json.encoder writes it: quoted, with the same conversions."""
    if isinstance(key, str):
        pass
    elif isinstance(key, float):
        key = _flat_encoder(0)(key)
    elif key is True:
        key = "true"
    elif key is False:
        key = "false"
    elif key is None:
        key = "null"
    elif isinstance(key, int):
        key = int.__repr__(key)
    else:
        raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
    return encode_basestring_ascii(key)


def _write(obj, depth: int, write, path: set) -> None:
    if isinstance(obj, dict):
        values, opening, closing = obj.values(), "{", "}"
    elif isinstance(obj, (list, tuple)):
        values, opening, closing = obj, "[", "]"
    else:
        write(_flat_encoder(depth)(obj))
        return
    if not obj:
        write(opening + closing)
        return
    item_indent = "\n" + _INDENT * (depth + 1)
    if set(map(type, values)) <= _PLAIN or not any(isinstance(v, _NESTED) for v in values):
        text = _flat_encoder(depth)(obj)
        write(opening + item_indent + text[1:-1] + "\n" + _INDENT * depth + closing)
        return
    if id(obj) in path:
        raise ValueError("Circular reference detected")
    path.add(id(obj))
    separator = opening + item_indent
    if opening == "{":
        for key, value in sorted(obj.items()):
            write(separator + _key(key) + ": ")
            _write(value, depth + 1, write, path)
            separator = "," + item_indent
    else:
        for value in obj:
            write(separator)
            _write(value, depth + 1, write, path)
            separator = "," + item_indent
    write("\n" + _INDENT * depth + closing)
    path.discard(id(obj))


def dumps(obj) -> str:
    """Exactly json.dumps(obj, indent=2, sort_keys=True)."""
    out: list = []
    _write(obj, 0, out.append, set())
    return "".join(out)


def write_json(path, obj) -> None:
    """Write dumps(obj) and a newline to path, as UTF-8, piece by piece."""
    with open(path, "w", encoding="utf-8") as fh:
        _write(obj, 0, fh.write, set())
        fh.write("\n")


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
