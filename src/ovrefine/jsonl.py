"""Decoding every input file, a JSONL line or a whole JSON document at a time,
with errors that name the file, and the line where there is one."""

from __future__ import annotations

import json
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
            # a UnicodeDecodeError is a ValueError
            text.encode("utf-8", "surrogateescape").decode("utf-8")
        return parse(json.loads(text))
    except KeyError as exc:
        raise ValueError(f"{where}: missing field {exc}") from None
    except (ValueError, TypeError, RecursionError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def number(value, what: str) -> float:
    """``value`` of the JSON field ``what`` as a float, if it is a JSON number
    within the float range.

    ``float`` would also take ``true`` and ``false`` as 1 and 0, and a string
    such as ``"0.9"`` as its number; both are refused, as is an integer past
    the float range, which JSON allows.
    """
    # exact types: bool subclasses int
    if type(value) not in (int, float):
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


def brief(value, quote: Callable[[object], str] = _written) -> str:
    """``value`` as an error message quotes it: written by ``quote`` and cut to
    its first 20 characters and its length, as JSON allows an integer of any
    length, or, for an array, as its first 8 items, each written and cut so,
    and its length if it has more."""
    if isinstance(value, ARRAY):
        more = f", ... ({len(value)} items)" if len(value) > 8 else ""
        return f"[{', '.join(brief(quote(item), str) for item in value[:8])}{more}]"
    text = quote(value)
    return text if len(text) <= 20 else f"{text[:20]}... ({len(text)} characters)"


def expect(value, kind, what: str):
    """``value``, if it is the JSON ``kind`` that the field ``what`` needs:
    ``ARRAY`` for an array, a mapping type for an object."""
    if not isinstance(value, kind):
        name = "array" if kind is ARRAY else "object"
        raise ValueError(f"{what} must be a JSON {name}, got {brief(value)}")
    return value
