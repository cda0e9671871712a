"""Decoding input files: `read_lines` numbers the lines, `parse_line` makes
every check of a line's content, and `parse_file` the same checks of a whole
JSON file."""

import math

import pytest

from ovrefine.jsonl import brief, number, numbers, parse_file, parse_line, read_lines


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
    assert str(err.value) == f"{path}:1: expected a JSON object, got [1, 2]"
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


# one item of each kind that `number` refuses, as `json.loads` gives it
NOT_NUMBERS = {
    "true": True,
    "false": False,
    "string": "0.5",
    "null": None,
    "array": [0.5],
    "object": {"a": 1},
    "int-past-float-range": 10**399,
    "long-string": "a" * 1000,
}


@pytest.mark.parametrize("before", [[], [0.5, 1e-3, 1.0]], ids=["alone", "after-floats"])
@pytest.mark.parametrize("item", NOT_NUMBERS.values(), ids=NOT_NUMBERS)
def test_numbers_refuses_the_first_item_that_number_refuses(before, item):
    with pytest.raises((TypeError, ValueError)) as refused:
        number(item, "x")
    # a second bad item, which would give another message
    with pytest.raises(type(refused.value)) as err:
        numbers([*before, item, "later"], "x")
    message = str(err.value)
    assert message == str(refused.value)
    assert message.startswith("x must be a number")
    assert len(message.partition(", got ")[2]) < 60, message


@pytest.mark.parametrize(
    "row", [[0.5, 1.0, 0.0, -0.0], [0, 1, 1], [math.nan, 0.5], [], [1e-300, 1]],
    ids=["floats", "ints", "nan", "empty", "mixed"],
)
def test_numbers_returns_a_row_of_numbers_itself(row):
    assert numbers(row, "x") is row


@pytest.mark.parametrize(
    "values, written",
    [(0.5, "0.5"), ({"a": 1}, '{"a": 1}'), ("0.5", '"0.5"'), (None, "null"), ({1, 2}, "set")],
    ids=["number", "object", "string", "null", "set"],
)
def test_numbers_needs_an_array(values, written):
    # a value is quoted as JSON writes it, or, where JSON cannot, named by its type
    with pytest.raises(ValueError) as err:
        numbers(values, "x")
    assert str(err.value) == f"x must be a JSON array, got {written}"


def test_brief_quotes_an_array_item_by_item():
    assert brief([0, 0, 0.5, True, None], repr) == "[0, 0, 0.5, True, None]"
    assert brief([1, 2, 3, 4]) == "[1, 2, 3, 4]"
    assert brief([1, 10**399, "a" * 100]) == (
        '[1, 10000000000000000000... (400 characters), "aaaaaaaaaaaaaaaaaaa... (102 characters)]'
    )
    assert brief(list(range(1000))) == "[0, 1, 2, 3, 4, 5, 6, 7, ... (1000 items)]"
    assert brief("a" * 30, str) == "aaaaaaaaaaaaaaaaaaaa... (30 characters)"
