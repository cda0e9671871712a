"""Decoding input files: `read_lines` numbers the lines, `parse_line` makes
every check of a line's content, and `parse_file` the same checks of a whole
JSON file."""

import pytest

from ovrefine.jsonl import number, parse_file, parse_line, read_lines


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


def test_a_number_past_the_float_range_names_the_line(tmp_path):
    path = tmp_path / "lines.jsonl"
    with pytest.raises(ValueError) as err:
        parse_line(path, 3, '{"x": 1%s}' % ("0" * 400), lambda data: number(data["x"], "x"))
    assert str(err.value) == f"{path}:3: x must be a number within the float range"


def test_a_line_must_be_an_object_a_file_need_not(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("[1, 2]\n")
    with pytest.raises(ValueError) as err:
        parse_line(path, 1, "[1, 2]", list)
    assert str(err.value) == f"{path}:1: expected a JSON object, got list"
    assert parse_file(path, list) == [1, 2]


@pytest.mark.parametrize(
    "content, parse, message",
    [
        (b'{"a": 1}', lambda data: data["b"], "missing field 'b'"),
        (b'{"a": 1', dict, "Expecting ',' delimiter: line 1 column 8 (char 7)"),
        (b'{"a": "\xff"}', dict,
         "'utf-8' codec can't decode byte 0xff in position 7: invalid start byte"),
        (b'{"a": 1%s}' % (b"0" * 400), lambda data: number(data["a"], "a"),
         "a must be a number within the float range"),
        (b'{"a": true}', lambda data: number(data["a"], "a"), "a must be a number, got true"),
        (b"[" * 5000 + b"]" * 5000, dict, "maximum recursion depth exceeded"),
    ],
    ids=["key", "json", "not-utf-8", "overflow", "type", "recursion"],
)
def test_a_file_error_is_prefixed_with_its_path(tmp_path, content, parse, message):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    with pytest.raises(ValueError) as err:
        parse_file(path, parse)
    assert str(err.value).startswith(f"{path}: {message}")
