import json
import math
import threading
from importlib.resources import files

import numpy as np
import pytest

from ovrefine.commonsense import (
    LlmClient,
    RemoteKnowledgeProvider,
    SceneContext,
    StaticKnowledgeProvider,
    default_knowledge_base,
)
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
# and the message after its ``path:line:`` of the line ``{not json``
NOT_JSON = "not JSON: Expecting property name enclosed in double quotes at column 2"


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


def mc_iou(a, b, n_samples, seed):
    """Monte-Carlo oracle: sample uniformly inside box a, test membership in b.

    intersection = vol(a) * fraction; both box volumes are exact.
    """
    rng = np.random.default_rng(seed)
    local = rng.uniform(-0.5, 0.5, (n_samples, 3)) * np.array([a.l, a.w, a.h])
    c, s = math.cos(a.theta), math.sin(a.theta)
    x = a.cx + c * local[:, 0] - s * local[:, 1]
    y = a.cy + s * local[:, 0] + c * local[:, 1]
    z = a.cz + local[:, 2]
    # membership in b via b's local frame
    cb, sb = math.cos(b.theta), math.sin(b.theta)
    dx, dy, dz = x - b.cx, y - b.cy, z - b.cz
    u = cb * dx + sb * dy
    v = -sb * dx + cb * dy
    inside = (np.abs(u) <= b.l / 2) & (np.abs(v) <= b.w / 2) & (np.abs(dz) <= b.h / 2)
    inter = a.volume * inside.mean()
    return inter / (a.volume + b.volume - inter)


class StubTransport:
    """Canned-reply transport; records payloads, can fail first N calls."""

    def __init__(self, replies=None, fail_first=0):
        self.replies = dict(replies or {})
        self.fail_first = fail_first
        self.calls = []

    def __call__(self, url, api_key, payload, timeout):
        self.calls.append(payload)
        if self.fail_first > 0:
            self.fail_first -= 1
            raise OSError("connection refused")
        prompt = payload["prompt"]
        for needle, text in self.replies.items():
            if needle in prompt:
                return {"text": text}
        return {"text": "I cannot say."}


def make_client(transport, retries=2):
    return LlmClient(
        endpoint="http://llm.test/generate",
        api_key="secret",
        retries=retries,
        backoff=0.0,
        transport=transport,
    )


def make_provider(transport, retries=2):
    """A remote provider over the built-in KB that sends through ``transport``."""
    return RemoteKnowledgeProvider(make_client(transport, retries), default_knowledge_base())


def kb_model(kb, judge, prompts, failing=False):
    """A transport whose model answers size and scene prompts from ``kb``, and a
    judge's prompt with ``judge`` of its candidates. Each prompt is appended to
    ``prompts`` as it is sent, from any thread; then, if ``failing``, its request fails."""
    static = StaticKnowledgeProvider(kb)
    lock = threading.Lock()

    def transport(url, key, payload, timeout):
        prompt = payload["prompt"]
        with lock:
            prompts.append(prompt)
        if failing:
            raise OSError("connection refused")
        if prompt.startswith("What is the common size of a "):
            # a class without a KB size fails the request
            prior = kb.sizes[prompt.removeprefix("What is the common size of a ").split("?")[0]]
            return {"text": f"{prior.length!r}*{prior.width!r}*{prior.height!r}"}
        if prompt.startswith("Is it normal to see a "):
            label, scene_type = prompt[len("Is it normal to see a ") : -1].split(" in a ")
            return {"text": "Yes." if static.scene_compatible(label, scene_type) else "No."}
        candidates = prompt.split("candidate classes ")[1].split(" of an object")[0]
        return {"text": judge(candidates.split(", "))}

    return transport


@pytest.fixture
def kb():
    return default_knowledge_base()


@pytest.fixture
def provider(kb):
    return StaticKnowledgeProvider(kb)
