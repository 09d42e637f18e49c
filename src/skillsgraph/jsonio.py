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

A value whose text is already known goes in as Encoded(dumps(value)): the
writer copies that text, indented to the depth it lands at, instead of
encoding the value again. compact() turns dumps text into the one-line text
of json.dumps(obj, sort_keys=True). Both edit only the newlines and the
indentation after them, which is exact: an encoded JSON string never holds a
raw newline, so every newline in the text is the writer's own.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii

_INDENT = "  "


class Encoded:
    """A value's dumps() text, written in place of the value."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


_NESTED = (dict, list, tuple, Encoded)
# the value types the C encoder takes as they are; a container whose values
# all have one of these exact types is flat without an isinstance scan
_PLAIN = frozenset({str, int, float, bool, type(None)})
_LINE_BREAK = re.compile("\n *")

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
    elif isinstance(obj, Encoded):
        write(obj.text.replace("\n", "\n" + _INDENT * depth) if depth else obj.text)
        return
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


def compact(text: str) -> str:
    """json.dumps(obj, sort_keys=True) from the text of dumps(obj): an item's
    comma and line break become ", ", any other line break goes."""
    return _LINE_BREAK.sub("", text.replace(",\n", ", \n"))
