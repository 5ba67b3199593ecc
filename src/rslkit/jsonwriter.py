"""Indented JSON text for `gen json` and the `check --format json` report.

`dump_json(value, ascii)` is the text of `json.dumps(value, indent=2,
ensure_ascii=ascii) + "\\n"`; `check` imports it without `docgen`.
"""

from __future__ import annotations

import sys

try:  # the C escapers, without loading the `json` package and its decoder
    from _json import encode_basestring, encode_basestring_ascii
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring, encode_basestring_ascii


def _write(value, out: list, newline: str, escape) -> None:
    """Appends the indented JSON of `value` to `out`; `newline` is the line break and indent it starts at."""
    if isinstance(value, str):
        out.append(escape(value))
    elif value is None:
        out.append("null")
    elif value is True:  # bool before int: bool is a subclass of int
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if isinstance(item, str):  # most values are strings: one piece, no call
                out.append(f"{sep}{escape(key)}: {escape(item)}")
            else:
                out.append(f"{sep}{escape(key)}: ")
                _write(item, out, inner, escape)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            if isinstance(item, str):
                out.append(sep + escape(item))
            else:
                out.append(sep)
                _write(item, out, inner, escape)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_json(value, ascii: bool = False) -> str:
    """The text of `json.dumps(value, indent=2, ensure_ascii=ascii) + "\\n"`.

    `value` is built of `str`-keyed dicts, lists, strings, ints, bools
    and None; any other value raises `TypeError`. Strings are escaped by
    the C escapers of `json.encoder`, and the trailing newline is the
    last piece of the one join, so the document is never copied.
    """
    out: list = []
    _write(value, out, "\n", encode_basestring_ascii if ascii else encode_basestring)
    out.append("\n")
    return "".join(out)


if sys.version_info >= (3, 13):
    import json

    # From 3.13 `json.dumps` indents in C, about three times as fast as `write_json`;
    # before it, an indent sends `json.dumps` to its pure-Python encoder.
    def dump_json(value, ascii: bool = False) -> str:
        return json.dumps(value, indent=2, ensure_ascii=ascii) + "\n"

else:
    dump_json = write_json
