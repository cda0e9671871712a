"""Input files of any content give an input error, never a crash.

For arbitrary JSON lines and documents, every loader raises only the errors
that ``cli.main`` reports as input errors (``OSError``, ``ValueError``,
``LookupError``, ``TypeError``), and the message names the file. The command
that reads the file exits 0 or 1, and on 1 prints one ``input error:`` line
and no traceback.

The generated values mix arbitrary JSON with objects that carry the fields
each loader reads, so that they get past the first check and into the
parsing behind it.
"""

import contextlib
import io
import json
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import case_study_scenes
from ovrefine.balancers import load_loss_stream, load_pseudo_labels
from ovrefine.cli import RunConfig, main
from ovrefine.commonsense import load_knowledge_base
from ovrefine.pipeline import load_scenes, save_scenes

INPUT_ERRORS = (OSError, ValueError, LookupError, TypeError)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
NUMBER = st.integers(-3, 3) | st.floats() | st.floats(0.0, 1.0)
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
    class_scores=st.lists(st.lists(NUMBER, min_size=2, max_size=2), max_size=3),
    fg_scores=st.lists(NUMBER, max_size=3),
    labels=st.lists(BOX, max_size=2),
)

# nesting past the interpreter's recursion limit is still a JSON document
LIMIT = sys.getrecursionlimit()
DEEP = st.integers(LIMIT, 3 * LIMIT).map(lambda depth: "[" * depth + "]" * depth)


def document(shape):
    return st.one_of(shape.map(json.dumps), JSON.map(json.dumps), st.text(max_size=20), DEEP)


def lines(shape):
    return st.lists(document(shape), max_size=4).map(lambda ls: "".join(f"{l}\n" for l in ls))


def check(load, argv, text):
    """``load`` (if given) of a file holding ``text``, then ``main(argv)`` on that file."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "input.json"
        path.write_text(text, encoding="utf-8")
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


REFINE = ["--workers", "1", "--out", "{dir}/out.jsonl"]
BOUNDARY = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@BOUNDARY
@given(lines(SCENE))
def test_scenes_file(text):
    check(load_scenes, ["refine", "--detections", "{input}", *REFINE], text)


@BOUNDARY
@given(document(KB))
def test_knowledge_base_file(text):
    argv = ["refine", "--kb", "{input}", "--detections", "{dir}/scenes.jsonl", *REFINE]
    check(load_knowledge_base, argv, text)


@BOUNDARY
@given(lines(PSEUDO_LABELS))
def test_pseudo_label_file(text):
    check(load_pseudo_labels, ["balance", "--labels", "{input}"], text)


@BOUNDARY
@given(lines(LOSSES))
def test_loss_stream_file(text):
    check(load_loss_stream, ["dbc-sim", "--losses", "{input}"], text)


@BOUNDARY
@given(document(CONFIG))
def test_config_file(text):
    check(RunConfig.load, ["solve-psl", "0.9", "0.5", "1", "--config", "{input}"], text)


@BOUNDARY
@given(lines(PROPOSALS))
def test_proposals_file(text):
    # baol reads its proposals inside the command, so `main` is the reader:
    # any other error escapes it and fails the test
    check(None, ["baol", "--proposals", "{input}", "--lambda-baol", "1"], text)
