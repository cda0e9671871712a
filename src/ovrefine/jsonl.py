"""Reading line-delimited JSON input files with errors that name the line."""

from __future__ import annotations

import json
from typing import Callable, Iterator, TypeVar

T = TypeVar("T")

ARRAY = (list, tuple)


def read_lines(path) -> Iterator[tuple[int, str]]:
    """``(line number, text)`` of each non-blank line of ``path``, numbered from 1.

    A line that is not UTF-8 raises ``ValueError`` prefixed ``path:line:``.
    """
    # a strict decoder fails on a whole 8 KiB read, which names no line; this
    # one keeps each undecodable byte as a lone surrogate, for its line to find
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
            if line.strip():
                yield lineno, line


def parse_line(path, lineno: int, line: str, parse: Callable[[dict], T]) -> T:
    """``parse`` of line ``lineno`` of ``path``, whose text is ``line``, a JSON object.

    A line that is not a JSON object, that nests too deeply for the decoder,
    or whose object ``parse`` rejects with a ``ValueError``, ``TypeError`` or
    ``KeyError``, raises ``ValueError`` prefixed ``path:line:``.
    """
    try:
        data = json.loads(line)
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, got {type(data).__name__}")
        return parse(data)
    except KeyError as exc:
        raise ValueError(f"{path}:{lineno}: missing field {exc}") from None
    except (ValueError, TypeError, RecursionError) as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None


def read_jsonl(path, parse: Callable[[dict], T]) -> list[T]:
    """``parse`` of each non-blank line of ``path``, checked as ``parse_line`` does."""
    return [parse_line(path, lineno, line, parse) for lineno, line in read_lines(path)]


def number(value, what: str) -> float:
    """``value`` of the JSON field ``what`` as a float, if it is a JSON number.

    ``float`` would also take ``true`` and ``false`` as 1 and 0, and a string
    such as ``"0.9"`` as its number; both are refused.
    """
    # exact types: bool subclasses int
    if type(value) not in (int, float):
        raise TypeError(f"{what} must be a number, got {json.dumps(value)}")
    return float(value)


def expect(value, kind, what: str):
    """``value``, if it is the JSON ``kind`` that the field ``what`` needs:
    ``ARRAY`` for an array, a mapping type for an object."""
    if not isinstance(value, kind):
        name = "array" if kind is ARRAY else "object"
        raise ValueError(f"{what} must be a JSON {name}, got {type(value).__name__}")
    return value
