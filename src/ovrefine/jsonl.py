"""Decoding every input file, a JSONL line or a whole JSON document at a time,
with errors that name the file, and the line where there is one.

A refused input exits 1 with one ``input error:`` line that names ``path:line:``
(or ``path:``, or the option) and the field; its message after that prefix is
under 200 characters. ``brief`` quotes every value and key taken from the file,
as JSON writes it: ``got null``, ``got "0.5"``, ``got true``, ``got NaN``,
``class_scores["chair"]``, ``missing field "label"``, ``unknown config keys:
["n_pro"]``. A message never uses a Python type name, a Python literal such as
``True``, ``None``, ``nan`` or ``inf``, or a single-quoted ``repr``.
"""

from __future__ import annotations

import json
import numbers as _numbers
from typing import Callable, Iterator, TypeVar

T = TypeVar("T")

ARRAY = (list, tuple)


def read_lines(path) -> Iterator[tuple[int, str]]:
    """``(line number, text)`` of each non-blank line of ``path``, numbered from 1.

    A byte that is not UTF-8 stays in its line, for ``parse_line`` to reject.
    """
    # a strict decoder fails on a whole 8 KiB read, which names no line; this
    # one keeps each undecodable byte as a lone surrogate, for its line to find
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                yield lineno, line


def parse_line(path, lineno: int, line: str, parse: Callable[[dict], T]) -> T:
    """``_parse`` of line ``lineno`` of ``path``, ``line``, a JSON object; errors
    are prefixed ``path:line:``."""

    def parse_object(data) -> T:
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, got {brief(data)}")
        return parse(data)

    return _parse(f"{path}:{lineno}", line, parse_object)


def parse_file(path, parse: Callable[[object], T]) -> T:
    """``_parse`` of the whole of ``path``, read as ``read_lines`` reads; errors
    are prefixed ``path:``."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        return _parse(path, fh.read(), parse)


def _parse(where, text: str, parse: Callable[[object], T]) -> T:
    """``parse`` of ``text``, a JSON value in UTF-8: the one place where an input
    error becomes a ``ValueError`` prefixed ``where:``. Text not UTF-8 or JSON, nesting
    past the recursion limit, and a ``KeyError``, ``ValueError``, ``TypeError`` or
    ``OverflowError`` (a number past the float range) from ``parse`` are input errors."""
    try:
        if not text.isascii():
            text.encode("utf-8", "surrogateescape").decode("utf-8")
        return parse(json.loads(text))
    except KeyError as exc:
        raise ValueError(f"{where}: missing field {brief(exc.args[0])}") from None
    except UnicodeDecodeError as exc:
        # the byte and its offset in the text, without the codec's 'utf-8'
        byte = exc.object[exc.start]
        raise ValueError(f"{where}: not UTF-8: byte 0x{byte:02x} at position {exc.start}") from None
    except json.JSONDecodeError as exc:
        # json's message quoted with " in place of ', at a column of a text of one line,
        # as a JSONL line is (json would count its newline as a second line), else at
        # the line and column of a text of several
        message = exc.msg.removesuffix(" at").replace("'", '"')
        if "\n" in text.rstrip():
            at = f"line {exc.lineno} column {exc.colno}"
        elif text[exc.pos :].strip():
            at = f"column {exc.pos + 1}"
        else:
            at = "the end of the line"
        raise ValueError(f"{where}: not JSON: {message} at {at}") from None
    except (ValueError, TypeError, RecursionError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def is_number(value) -> bool:
    """Whether ``value`` is a real number other than a bool: a JSON number, or a numpy
    scalar that a library caller passes, a ``numbers.Real`` (tested last, as it is slow)."""
    kind = type(value)
    return kind is float or kind is int or (kind is not bool and isinstance(value, _numbers.Real))


def number(value, what: str) -> float:
    """``value`` of the field ``what`` as a float, if ``is_number`` takes it and
    it is within the float range.

    ``float`` would also take ``true`` and ``false`` as 1 and 0, and a string
    such as ``"0.9"`` as its number; both are refused, as is an integer past
    the float range, which JSON allows.
    """
    if not is_number(value):
        raise TypeError(f"{what} must be a number, got {brief(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} must be a number within the float range") from None


def numbers(values, what: str) -> list:
    """``values``, the JSON array of the field ``what``, if ``number`` takes
    each of its items; else what ``number`` raises for the first it refuses."""
    # a row of floats, the usual one, is checked at C speed
    if set(map(type, expect(values, ARRAY, what))) - {float}:
        for value in values:
            number(value, what)
    return values


def _written(value) -> str:
    """``value`` as JSON writes it, or the name of its Python type where JSON
    cannot write it, as for a set."""
    try:
        return json.dumps(value)
    except (TypeError, ValueError):
        return type(value).__name__


def _cut(text: str) -> str:
    """``text`` cut to its first 20 characters and its length."""
    return text if len(text) <= 20 else f"{text[:20]}... ({len(text)} characters)"


def brief(value) -> str:
    """``value`` as an error message quotes it: as JSON writes it, cut to its first
    20 characters and its length, as JSON allows a string or an integer of any length;
    an array item by item, each so cut, as many of its first 8 as fit in 60
    characters, and its length if some are left out."""
    if not isinstance(value, ARRAY):
        return _cut(_written(value))
    items = [_cut(_written(item)) for item in value[:8]]
    while len(", ".join(items)) > 60:
        items.pop()
    more = f", ... ({len(value)} items)" if len(items) < len(value) else ""
    return f"[{', '.join(items)}{more}]"


def expect(value, kind, what: str):
    """``value``, if it is the JSON ``kind`` that the field ``what`` needs:
    ``ARRAY`` for an array, a mapping type for an object."""
    if not isinstance(value, kind):
        name = "array" if kind is ARRAY else "object"
        raise ValueError(f"{what} must be a JSON {name}, got {brief(value)}")
    return value
