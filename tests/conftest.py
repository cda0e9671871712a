import json
from importlib.resources import files

import pytest

from ovrefine.commonsense import SceneContext, StaticKnowledgeProvider, default_knowledge_base
from ovrefine.geometry import Box7DoF
from ovrefine.pipeline import Detection, SceneRecord

# the knowledge base shipped with the package, which `default_knowledge_base` reads
SHIPPED_KB = files("ovrefine.data").joinpath("kb_indoor.json")


def shipped_kb_data():
    """The shipped knowledge base as its JSON file holds it, for a test to edit
    and write as a ``--kb`` file."""
    return json.loads(SHIPPED_KB.read_text(encoding="utf-8"))


# Case-study boxes: dimensions chosen so the mean per-dimension fit against
# the shipped priors lands exactly on the constraint values the tests pin
# (toilet: 0.9084, book: 0.5419) at alpha=0.25, phi_size=0.05.
TOILET_BOX = Box7DoF(1.2, 0.8, 0.375, 1.63466184, 0.40, 0.75)
BOOK_BOX = Box7DoF(-0.5, 1.0, 0.0875, 1.05020856, 0.70013904, 0.17503476)


def living_room_scene():
    """A toilet detected in a living room (to be removed), next to a sofa."""
    return SceneRecord(
        "living-room-case",
        SceneContext("living room", "a living room with a sofa"),
        (
            Detection(TOILET_BOX, "toilet", 0.73, {"toilet": 0.73, "bin": 0.40, "stool": 0.30}),
            Detection(Box7DoF(-1.5, 0, 0.4, 2.0, 0.9, 0.8), "sofa", 0.95),
        ),
    )


def library_scene():
    """An oversized 'book' (really a coffee table) and two chairs in a library."""
    return SceneRecord(
        "library-case",
        SceneContext("library", "a library reading corner"),
        (
            Detection(
                BOOK_BOX, "book", 0.9, {"book": 0.9, "stool": 0.6, "coffee table": 0.55}
            ),
            Detection(Box7DoF(1.0, 1.0, 0.45, 0.55, 0.55, 0.90, 0.3), "chair", 0.88),
            Detection(Box7DoF(2.0, 0.5, 0.45, 0.55, 0.55, 0.90, -0.7), "chair", 0.91),
        ),
    )


def case_study_scenes():
    return [living_room_scene(), library_scene()]


# what the commands report when reading their input file fails
READ_ERROR = "input error: [Errno 5] Input/output error\n"


def fail_reading_after(monkeypatch, last):
    """Make the commands' file reader fail with an I/O error, as ``READ_ERROR``
    reports it, in reading the line after line ``last``."""
    from ovrefine import cli
    from ovrefine.jsonl import read_lines

    def lines(path):
        for lineno, line in read_lines(path):
            if lineno > last:
                raise OSError(5, "Input/output error")
            yield lineno, line

    monkeypatch.setattr(cli, "read_lines", lines)


@pytest.fixture
def kb():
    return default_knowledge_base()


@pytest.fixture
def provider(kb):
    return StaticKnowledgeProvider(kb)
