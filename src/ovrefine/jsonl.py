"""Reading line-delimited JSON input files with errors that name the line."""

from __future__ import annotations

import json
from typing import Callable, TypeVar

T = TypeVar("T")


def read_jsonl(path, parse: Callable[[dict], T]) -> list[T]:
    """``parse`` of each non-blank line of ``path``, each line a JSON object.

    A line that is not a JSON object, that nests too deeply for the decoder,
    or whose object ``parse`` rejects with a ``ValueError``, ``TypeError`` or
    ``KeyError``, raises ``ValueError`` prefixed ``path:line:``.
    """
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
                if not isinstance(data, dict):
                    raise ValueError(f"expected a JSON object, got {type(data).__name__}")
                out.append(parse(data))
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: missing field {exc}") from None
            except (ValueError, TypeError, RecursionError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out
