"""Input files of any content give an input error, never a crash.

For arbitrary JSON lines and documents, every loader raises only the errors
that ``cli.main`` reports as input errors (``OSError``, ``ValueError``,
``LookupError``, ``TypeError``), and the message names the file. The command
that reads the file exits 0 or 1, and on 1 prints one ``input error:`` line
and no traceback. That line keeps ``jsonl``'s contract, whether or not the file
is JSON: under 200 characters after the file's prefix, and every value from the
file quoted as JSON writes it, never in a Python spelling.

A config file means the same to every command: all seven refuse it alike,
or none does.

The generated values mix arbitrary JSON with objects that carry the fields
each loader reads, so that they get past the first check and into the
parsing behind it.
"""

import contextlib
import io
import json
import re
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import case_study_scenes
from ovrefine.balancers import load_loss_stream, load_pseudo_labels, proposal_record
from ovrefine.cli import RunConfig, main
from ovrefine.commonsense import load_knowledge_base
from ovrefine.jsonl import parse_line, read_lines
from ovrefine.pipeline import load_scenes, save_scenes

INPUT_ERRORS = (OSError, ValueError, LookupError, TypeError)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
# booleans and numeric strings too: float takes both
NUMBER = (
    st.integers(-3, 3) | st.floats() | st.floats(0.0, 1.0) | st.booleans()
    | st.floats(0.0, 1.0).map(repr)
)
KNOWN_LABELS = ["chair", "sofa", "toilet", "book", "coffee table", ""]
LABEL = st.sampled_from(KNOWN_LABELS) | st.text(max_size=6)
BOX = st.lists(NUMBER, min_size=6, max_size=8)


def fields_of(**shapes):
    """Objects holding some of ``shapes``' keys, each value of its shape or any JSON."""
    return st.fixed_dictionaries({}, optional={key: shape | JSON for key, shape in shapes.items()})


DETECTION = fields_of(
    box=BOX, label=LABEL, score=NUMBER, class_scores=st.dictionaries(LABEL, NUMBER, max_size=3)
)
SCENE = fields_of(
    scene_id=st.text(max_size=4),
    scene_type=st.sampled_from(["living room", "library"]) | st.text(max_size=4),
    description=st.text(max_size=4),
    detections=st.lists(DETECTION, max_size=3),
)
KB = fields_of(
    sizes=st.dictionaries(LABEL, st.lists(NUMBER, min_size=2, max_size=4), max_size=3),
    compat=st.dictionaries(st.text(max_size=6), st.lists(LABEL, max_size=3), max_size=3),
    novel_classes=st.lists(LABEL, max_size=3),
)
PSEUDO_LABELS = fields_of(
    image_id=st.text(max_size=4),
    labels=st.lists(
        fields_of(
            bbox=st.lists(NUMBER, min_size=3, max_size=5),
            label=LABEL,
            confidence=NUMBER,
            sim_pos=NUMBER,
            sim_neg=NUMBER,
        ),
        max_size=3,
    ),
)
LOSSES = st.dictionaries(LABEL, NUMBER, max_size=3)
CONFIG = st.dictionaries(
    st.sampled_from([f.name for f in fields(RunConfig)]) | st.text(max_size=6),
    NUMBER | st.text(max_size=6) | JSON,
    max_size=3,
)
PROPOSALS = fields_of(
    boxes=st.lists(BOX, max_size=3),
    # rows of two, as a matrix needs, or of any length up to three
    class_scores=st.lists(
        st.lists(NUMBER, min_size=2, max_size=2) | st.lists(NUMBER, max_size=3), max_size=3
    ),
    fg_scores=st.lists(NUMBER, max_size=3),
    labels=st.lists(BOX, max_size=2),
)

# nesting past the interpreter's recursion limit is still a JSON document
LIMIT = sys.getrecursionlimit()
DEEP = st.integers(LIMIT, 3 * LIMIT).map(lambda depth: "[" * depth + "]" * depth)


def document(shape):
    # the shape's strings as they are, so that a file in Latin-1 has bytes that are no UTF-8
    written = shape.map(lambda value: json.dumps(value, ensure_ascii=False))
    return st.one_of(written, JSON.map(json.dumps), st.text(max_size=20), DEEP)


def lines(shape):
    return st.lists(document(shape), max_size=4).map(lambda ls: "".join(f"{l}\n" for l in ls))


def encoded(text):
    """``text`` in UTF-8, or in Latin-1, where UTF-8 reads a byte above 0x7f as
    no character or as the start of a longer one."""
    encoding = st.sampled_from(["utf-8", "latin-1"])
    return st.tuples(text, encoding).map(lambda pair: pair[0].encode(pair[1], "replace"))


# brief's mark of a value cut short: a string so cut has no closing quote
CUT = re.compile(r"\.\.\. \(\d+ characters\)")
PYTHON_SPELLING = re.compile(
    r"'|\b(?:True|False|None|nan|inf)\b"
    r"|got (?:int|float|str|list|dict|tuple|bool|NoneType|set|frozenset|bytes)\b"
)


def outside_strings(message):
    """``message`` with the content of each JSON string literal taken out."""
    out, i, quoted = [], 0, False
    while i < len(message):
        char, cut = message[i], CUT.match(message, i)
        if not quoted:
            out.append(char)
            quoted = char == '"'
        elif cut:
            out.append('"')
            quoted, i = False, cut.end() - 1
        elif char == "\\" and not CUT.match(message, i + 1):
            i += 1
        elif char == '"':
            out.append(char)
            quoted = False
        i += 1
    return "".join(out)


def check_message(err, path):
    """The message of the ``input error:`` line ``err`` about ``path`` keeps the contract."""
    message = err.removeprefix("input error: ").rstrip("\n")
    message = re.sub(rf"^{re.escape(str(path))}:(?:\d+:)? ", "", message)
    assert len(message) < 200, message
    assert not PYTHON_SPELLING.search(outside_strings(message)), message


def check(load, argv, text, names_file=False):
    """``load`` (if given) of a file holding ``text``, in UTF-8 unless it is bytes, then
    ``main(argv)`` on that file; with ``names_file``, a refusal of ``main`` must start
    with the file's ``path:``."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "input.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        save_scenes(case_study_scenes(), tmp / "scenes.jsonl")
        try:
            if load is not None:
                load(path)
        except INPUT_ERRORS as exc:
            assert str(exc).startswith(f"{path}:"), str(exc)

        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([arg.format(input=path, dir=tmp) for arg in argv])
        err = stderr.getvalue()
        assert code in (0, 1), err
        if code == 1:
            assert err.startswith("input error: ") and err.count("\n") == 1, err
            if names_file:
                assert err.startswith(f"input error: {path}:"), err
            check_message(err, path)
        return code


REFINE = ["--workers", "1", "--out", "{dir}/out.jsonl"]
BOUNDARY = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@BOUNDARY
@given(encoded(lines(SCENE)))
@example(b'{"scene_id": "s1", "scene_type": "caf\xe9", "detections": []}\n')
def test_scenes_file(data):
    check(load_scenes, ["refine", "--detections", "{input}", *REFINE], data)


@BOUNDARY
@given(document(KB))
def test_knowledge_base_file(text):
    argv = ["refine", "--kb", "{input}", "--detections", "{dir}/scenes.jsonl", *REFINE]
    check(load_knowledge_base, argv, text)


@BOUNDARY
@given(lines(PSEUDO_LABELS))
def test_pseudo_label_file(text):
    check(load_pseudo_labels, ["balance", "--labels", "{input}"], text, names_file=True)


@BOUNDARY
@given(lines(LOSSES))
def test_loss_stream_file(text):
    check(load_loss_stream, ["dbc-sim", "--losses", "{input}"], text, names_file=True)


@BOUNDARY
@given(document(CONFIG))
def test_config_file(text):
    check(RunConfig.load, ["solve-psl", "0.9", "0.5", "1", "--config", "{input}"], text)


BAOL = ["baol", "--proposals", "{input}", "--lambda-baol", "1"]


def load_proposals(path):
    """Each scene's proposal record, parsed line by line as `baol` parses it."""
    return [
        parse_line(path, lineno, line, lambda data: proposal_record(data, index))
        for index, (lineno, line) in enumerate(read_lines(path))
    ]


@BOUNDARY
@given(lines(PROPOSALS))
def test_proposals_file(text):
    check(load_proposals, BAOL, text)


# mostly in range or near it, so that many files are accepted and an
# out-of-range value often hides where nothing downstream would reject it
SCORE = st.floats(0.0, 1.0) | st.floats(-0.5, 1.5) | NUMBER


@st.composite
def scored_scenes(draw):
    """A proposal record of well-formed boxes whose scores lie in or out of [0, 1], or are no numbers."""
    n, n_class = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    row = st.lists(SCORE, min_size=n_class, max_size=n_class)
    return {
        "boxes": [[i, 0, 0, 1, 1, 1, 0] for i in range(n)],
        "class_scores": draw(st.lists(row, min_size=n, max_size=n)),
        "fg_scores": draw(st.lists(SCORE, min_size=n, max_size=n)),
    }


def in_unit_interval(value):
    return type(value) in (int, float) and 0 <= value <= 1


@BOUNDARY
@given(st.lists(scored_scenes(), max_size=3))
def test_baol_accepts_only_scores_in_unit_interval(scenes):
    text = "".join(json.dumps(scene) + "\n" for scene in scenes)
    valid = all(
        in_unit_interval(value)
        for scene in scenes
        for value in [*(v for row in scene["class_scores"] for v in row), *scene["fg_scores"]]
    )
    assert (check(load_proposals, BAOL, text) == 0) == valid


# every command, with each file it reads at a path that does not exist, and flags that
# override a config's files, workers and LLM mode, so that no run reads, writes or starts
# anything but the config
COMMANDS = [
    ["refine", "--detections", "{dir}/scenes.jsonl", "--kb", "{dir}/kb.json", "--llm", "off",
     "--out", "{dir}/out.jsonl", "--log", "{dir}/log.jsonl", "--workers", "1"],
    ["solve-psl", "0.9", "0.5", "1"],
    ["balance", "--labels", "{dir}/labels.jsonl", "--kb", "{dir}/kb.json", "--out", "{dir}/o"],
    ["dbc-sim", "--losses", "{dir}/losses.jsonl", "--out", "{dir}/out.jsonl"],
    ["baol", "--proposals", "{dir}/proposals.jsonl", "--lambda-baol", "1", "--workers", "1"],
    ["eval", "--detections", "{dir}/scenes.jsonl", "--gt", "{dir}/gt.jsonl", "--out", "{dir}/o"],
    ["gen-synthetic", "--kb", "{dir}/kb.json", "--out", "{dir}/out.jsonl", "--gt", "{dir}/gt.jsonl"],
]


def run_commands(options):
    """The config file's path, and each command's exit code, stdout and stderr run with it."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(options), encoding="utf-8")
        results = []
        for argv in COMMANDS:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([arg.format(dir=tmp) for arg in argv] + ["--config", str(config)])
            results.append((code, stdout.getvalue(), stderr.getvalue()))
            assert [path.name for path in Path(tmp).iterdir()] == ["config.json"]
    return config, results


@BOUNDARY
@given(CONFIG)
@example({"phi_clip": 5})
def test_every_command_takes_or_refuses_a_config_alike(options):
    """A config is refused by every command with one line naming its file, or
    by none: then each fails only on its first input file, or succeeds."""
    config, results = run_commands(options)
    if any(err.startswith(f"input error: {config}: ") for _, _, err in results):
        assert results == [(1, "", results[0][2])] * len(COMMANDS)
        return
    for (code, _, err), argv in zip(results, COMMANDS):
        # no option, only one of its files, is named
        paths = [arg.format(dir=config.parent) for arg in argv if arg.startswith("{dir}")]
        missing = "No such file or directory" in err and any(path in err for path in paths)
        assert (code, err) == (0, "") or (code, err.count("\n"), missing) == (1, 1, True), err


@pytest.mark.parametrize(
    "options, message",
    [
        ({"sbc_delta_phi": 0}, "sbc_delta_phi must be a finite number above 0, got 0"),
        (
            {"sbc_phi_lo": 0.9, "sbc_phi_hi": 0.1},
            "sbc_phi_init must be in [sbc_phi_lo, sbc_phi_hi] = [0.9, 0.1], got 0.5",
        ),
        ({"sbc_phi_init": 2}, "sbc_phi_init must be in [0, 1], got 2"),
        ({"dbc_w_lo": 1.2}, "dbc_w_lo must be at most 1, got 1.2"),
        ({"sbc_d_bound": -1}, "sbc_d_bound must be a finite number at least 0, got -1"),
        ({"iou_hi": 7}, "iou_hi must be in [0, 1], got 7"),
        ({"phi_clip": 5}, "phi_clip must be in [0, 1], got 5"),
        ({"phi_keep": 2}, "phi_keep must be in [0, 1], got 2"),
        # a value from the file is quoted short, as JSON writes it
        (
            {"workers": list(range(1000))},
            "workers must be an integer, got [0, 1, 2, 3, 4, 5, 6, 7, ... (1000 items)]",
        ),
        (
            {"alpha1": 1e308, "alpha2": 1e308},
            "alpha1 + alpha2 + alpha3 must be at most 2.247e+307, got 1e+308 + 1e+308 + 1.0",
        ),
    ],
    ids=["sbc_delta_phi", "sbc_phi_lo-above-hi", "sbc_phi_init", "dbc_w_lo", "sbc_d_bound",
         "iou_hi", "phi_clip", "phi_keep", "workers-1000-items", "weight-sum"],
)
def test_option_is_refused_under_its_key_by_every_command(options, message):
    config, results = run_commands(options)
    assert results == [(1, "", f"input error: {config}: {message}\n")] * len(COMMANDS)
