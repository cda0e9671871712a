"""Reading line-delimited JSON: `read_lines` numbers the lines, and
`parse_line` makes every check of a line's content."""

import pytest

from ovrefine.jsonl import parse_line, read_lines


def test_a_line_that_is_not_utf8_is_read_and_rejected_where_it_is_parsed(tmp_path):
    path = tmp_path / "lines.jsonl"
    path.write_bytes(b"\xff\n\n{}\n")
    lines = list(read_lines(path))
    assert [lineno for lineno, _ in lines] == [1, 3]
    with pytest.raises(ValueError) as err:
        parse_line(path, *lines[0], dict)
    assert str(err.value) == (
        f"{path}:1: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    )
    assert parse_line(path, *lines[1], dict) == {}


def test_a_line_in_utf8_outside_ascii_parses(tmp_path):
    path = tmp_path / "lines.jsonl"
    path.write_text('{"label": "café"}\n', encoding="utf-8")
    ((lineno, line),) = read_lines(path)
    assert parse_line(path, lineno, line, dict) == {"label": "café"}
