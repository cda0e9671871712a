import json
import math
import socket
import sys
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from conftest import SHIPPED_KB, shipped_kb_data
from ovrefine import commonsense
from ovrefine.commonsense import (
    KnowledgeBase,
    LlmClient,
    MAX_TOKENS,
    MissingSizePriorError,
    ProviderError,
    RemoteKnowledgeProvider,
    SceneContext,
    SizeConstraintConfig,
    SizePrior,
    StaticKnowledgeProvider,
    constraint_vector,
    default_knowledge_base,
    judge_prompt,
    load_knowledge_base,
    parse_size_reply,
    parse_yes_no,
    scene_constraint,
    scene_prompt,
    size_constraint,
    size_fit,
    size_prompt,
)
from ovrefine.geometry import Box7DoF

CFG = SizeConstraintConfig(alpha=0.25, phi_size=0.05)

# shipped case-study boxes: sized so the mean dimension fit lands on the
# pinned constraint values
TOILET_BOX = Box7DoF(0, 0, 0.375, 1.63466184, 0.40, 0.75)
BOOK_BOX = Box7DoF(0, 0, 0.0875, 1.05020856, 0.70013904, 0.17503476)


class TestSizeFit:
    def test_zero_error(self):
        assert size_fit(2.0, 2.0, CFG) == 1.0

    def test_ten_percent_high(self):
        assert size_fit(2.20, 2.0, CFG) == pytest.approx(math.exp(-0.0125), abs=1e-12)
        assert size_fit(2.20, 2.0, CFG) == pytest.approx(0.987578, abs=1e-6)

    def test_error_inside_deadband(self):
        assert size_fit(2.05, 2.0, CFG) == 1.0
        # the deadband edge is still a perfect fit
        assert size_fit(2.10, 2.0, CFG) == 1.0

    def test_rejects_nonpositive_standard(self):
        with pytest.raises(ValueError):
            size_fit(1.0, 0.0, CFG)
        with pytest.raises(ValueError):
            size_fit(1.0, -2.0, CFG)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SizeConstraintConfig(alpha=-0.1)
        with pytest.raises(ValueError):
            SizeConstraintConfig(phi_size=1.0)
        # a NaN alpha makes every size constraint NaN
        for alpha in (math.nan, math.inf):
            with pytest.raises(ValueError, match="alpha must be nonnegative and finite"):
                SizeConstraintConfig(alpha=alpha)


class TestSizeConstraint:
    def test_exact_match(self):
        prior = SizePrior(2.0, 1.0, 0.5)
        box = Box7DoF(0, 0, 0, 2.0, 1.0, 0.5)
        assert size_constraint(box, prior, CFG) == 1.0

    def test_one_dimension_ten_percent_high(self):
        prior = SizePrior(2.0, 1.0, 0.5)
        box = Box7DoF(0, 0, 0, 2.20, 1.0, 0.5)
        assert size_constraint(box, prior, CFG) == pytest.approx(0.995859, abs=1e-6)

    def test_case_study_values(self):
        assert size_constraint(TOILET_BOX, SizePrior(0.70, 0.40, 0.75), CFG) == pytest.approx(
            0.9084, abs=1e-6
        )
        assert size_constraint(BOOK_BOX, SizePrior(0.30, 0.20, 0.05), CFG) == pytest.approx(
            0.5419, abs=1e-6
        )

    def test_scale_consistency(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            dims = rng.uniform(0.1, 3.0, 3)
            std = rng.uniform(0.1, 3.0, 3)
            factor = float(rng.uniform(0.01, 100.0))
            box = Box7DoF(0, 0, 0, *dims)
            scaled = Box7DoF(0, 0, 0, *(dims * factor))
            a = size_constraint(box, SizePrior(*std), CFG)
            b = size_constraint(scaled, SizePrior(*(std * factor)), CFG)
            assert abs(a - b) <= 1e-12

    def test_nonincreasing_beyond_deadband(self):
        prior = SizePrior(1.0, 1.0, 1.0)
        values = [
            size_constraint(Box7DoF(0, 0, 0, 1.0 + err, 1.0, 1.0), prior, CFG)
            for err in np.linspace(0.0, 2.0, 50)
        ]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_one_exactly_when_within_deadband(self):
        prior = SizePrior(1.0, 2.0, 0.5)
        inside = Box7DoF(0, 0, 0, 1.04, 2.0 * 1.05, 0.5 * 0.96)
        assert size_constraint(inside, prior, CFG) == 1.0
        outside = Box7DoF(0, 0, 0, 1.051, 2.0, 0.5)
        assert size_constraint(outside, prior, CFG) < 1.0


class TestKnowledgeBase:
    def test_novel_requires_size(self):
        with pytest.raises(ValueError):
            KnowledgeBase(sizes={}, compat={}, novel_classes={"ghost"})

    def test_default_is_the_shipped_file_read_as_any_file(self):
        assert default_knowledge_base() == load_knowledge_base(SHIPPED_KB)

    def test_a_file_of_the_shipped_data_reads_back_equal(self, tmp_path):
        path = tmp_path / "kb.json"
        path.write_text(json.dumps(shipped_kb_data()))
        assert load_knowledge_base(path) == default_knowledge_base()

    @pytest.mark.parametrize(
        "data, message",
        [
            ([], "knowledge base must be a JSON object, got []"),
            ({"sizes": [["chair", 1, 1, 1]]},
             'sizes must be a JSON object, got [["chair", 1, 1, 1]]'),
            ({"sizes": {"chair": "0.5"}}, 'sizes[\'chair\'] must be a JSON array, got "0.5"'),
            ({"compat": {"library": "chair"}},
             'compat[\'library\'] must be a JSON array, got "chair"'),
            ({"novel_classes": "chair"}, 'novel_classes must be a JSON array, got "chair"'),
            ({"sizes": None}, "sizes must be a JSON object, got null"),
            # no JSON file holds a set, and JSON cannot write one: named by its type
            ({"novel_classes": {"chair"}}, "novel_classes must be a JSON array, got set"),
            ({"compat": {"library": frozenset()}},
             "compat['library'] must be a JSON array, got frozenset"),
            # a class that is no string never matches a label, and a list is no set member
            ({"compat": {"bedroom": ["bed", 7, None]}},
             "compat['bedroom'] must hold class names, got 7"),
            ({"compat": {"bedroom": [["bed"]]}},
             'compat[\'bedroom\'] must hold class names, got ["bed"]'),
            ({"novel_classes": [["toilet"]]},
             'novel_classes must hold class names, got ["toilet"]'),
            ({"sizes": {"chair": [1, 2]}}, "sizes['chair'] must be 3 numbers, got [1, 2]"),
            ({"sizes": {"chair": [1, 2, 3, 4]}},
             "sizes['chair'] must be 3 numbers, got [1, 2, 3, 4]"),
        ],
    )
    def test_from_dict_requires_objects_and_arrays(self, data, message):
        with pytest.raises(ValueError) as err:
            KnowledgeBase.from_dict(data)
        assert str(err.value) == message

    def test_from_dict_refuses_boolean_sizes(self):
        # float would take JSON true as 1.0
        with pytest.raises(TypeError) as err:
            KnowledgeBase.from_dict({"sizes": {"chair": [1.0, True, 1.0]}})
        assert str(err.value) == "sizes['chair'] must be a number, got true"

    def test_shipped_kb_covers_case_studies(self):
        kb = default_knowledge_base()
        assert "toilet" not in kb.compat["living room"]
        for label in ("book", "stool", "coffee table", "chair"):
            assert label in kb.compat["library"]
        assert kb.novel_classes <= set(kb.sizes)


class TestSceneConstraint:
    def test_incompatible_pair(self):
        provider = StaticKnowledgeProvider(default_knowledge_base())
        assert scene_constraint("toilet", "living room", provider) == 0

    def test_compatible_pair(self):
        provider = StaticKnowledgeProvider(default_knowledge_base())
        assert scene_constraint("chair", "library", provider) == 1

    def test_unknown_scene_defaults_compatible(self):
        provider = StaticKnowledgeProvider(default_knowledge_base())
        assert scene_constraint("toilet", "spaceship", provider) == 1

    def test_binary_output(self):
        provider = StaticKnowledgeProvider(default_knowledge_base())
        kb = provider.kb
        for scene in kb.compat:
            for label in kb.sizes:
                assert scene_constraint(label, scene, provider) in (0, 1)


class TestConstraintVector:
    @pytest.mark.parametrize("score", [0.0, 0.73, 1.0])
    def test_confidence_is_the_score(self, provider, score):
        box = Box7DoF(0, 0, 0.45, 0.55, 0.55, 0.90)
        x = constraint_vector(box, "chair", score, SceneContext("library"), provider, CFG)
        assert x.conf == score

    def test_score_outside_unit_range_is_refused(self, provider):
        box = Box7DoF(0, 0, 0.45, 0.55, 0.55, 0.90)
        with pytest.raises(ValueError) as err:
            constraint_vector(box, "chair", 1.0001, SceneContext("library"), provider, CFG)
        assert str(err.value) == "constraint conf=1.0001 outside [0, 1]"

    def test_all_pass(self):
        provider = StaticKnowledgeProvider(default_knowledge_base())
        box = Box7DoF(0, 0, 0.45, 0.55, 0.55, 0.90)
        x = constraint_vector(box, "chair", 1.0, SceneContext("library"), provider, CFG)
        assert x.as_tuple() == (1.0, 1.0, 1)

    def test_case_study_fixtures(self):
        provider = StaticKnowledgeProvider(default_knowledge_base())
        x6 = constraint_vector(
            TOILET_BOX, "toilet", 0.73, SceneContext("living room"), provider, CFG
        )
        assert x6.conf == 0.73
        assert x6.size == pytest.approx(0.9084, abs=1e-6)
        assert x6.scene == 0
        x7 = constraint_vector(BOOK_BOX, "book", 0.9, SceneContext("library"), provider, CFG)
        assert x7.conf == 0.9
        assert x7.size == pytest.approx(0.5419, abs=1e-6)
        assert x7.scene == 1

    def test_missing_prior_names_class(self):
        provider = StaticKnowledgeProvider(default_knowledge_base())
        with pytest.raises(MissingSizePriorError) as err:
            constraint_vector(
                TOILET_BOX, "gargoyle", 0.5, SceneContext("library"), provider, CFG
            )
        assert "gargoyle" in str(err.value)


class TestReplyParsing:
    def test_exact_triple(self):
        assert parse_size_reply("2.0*0.9*0.75") == SizePrior(2.0, 0.9, 0.75)

    def test_prose_triple(self):
        got = parse_size_reply("A desk is usually 1.2*0.6*0.75 meters.")
        assert got == SizePrior(1.2, 0.6, 0.75)

    def test_unit_conversion(self):
        assert parse_size_reply("roughly 120*60*75 cm") == SizePrior(1.2, 0.6, 0.75)
        assert parse_size_reply("300*200*50 mm, give or take") == SizePrior(0.3, 0.2, 0.05)

    def test_no_triple(self):
        assert parse_size_reply("it depends") is None
        assert parse_size_reply("about 2 by 3") is None
        # past float range: parses as inf, which no size prior accepts
        assert parse_size_reply("1" + "0" * 400 + "*1*1") is None

    def test_yes_no(self):
        assert parse_yes_no("Yes, commonly.") == 1
        assert parse_yes_no("No, that would be unusual.") == 0
        assert parse_yes_no("Perhaps.") is None

    @pytest.mark.parametrize(
        "reply, meters",
        [
            ("About 80*60*30 inches", (2.032, 1.524, 0.762)),
            ("6*3*2.5 ft", (1.8288, 0.9144, 0.762)),
            ("120*60*75 in centimeters", (1.2, 0.6, 0.75)),
            # unchanged: meters after "in", centimeters, no unit, and "in" before no unit
            ("1.9*0.9*0.5 in meters", (1.9, 0.9, 0.5)),
            ("120*60*75 cm", (1.2, 0.6, 0.75)),
            ("2*1*0.5", (2.0, 1.0, 0.5)),
            ("2*1*0.5 in a bedroom", (2.0, 1.0, 0.5)),
        ],
    )
    def test_size_units(self, reply, meters):
        got = parse_size_reply(reply)
        dims = (got.length, got.width, got.height)
        assert all(map(math.isclose, dims, meters)), dims

    @pytest.mark.parametrize(
        "reply, verdict",
        [
            ("Absolutely not.", 0),
            ("Certainly not", 0),
            ("Definitely not, it belongs in a bathroom.", 0),
            ("Yes, but not in every home.", 1),
            ("Yes.", 1),
            ("No.", 0),
        ],
    )
    def test_affirmative_word_then_not_is_no(self, reply, verdict):
        assert parse_yes_no(reply) == verdict


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


class TestLlmClient:
    def test_prompt_templates_sent_verbatim(self):
        transport = StubTransport({"common size of a desk": "1.4*0.7*0.75"})
        make_provider(transport).size_prior("desk")
        assert transport.calls[0]["prompt"] == (
            "What is the common size of a desk? Answer in the format of length*width*height."
        )
        assert size_prompt("desk") == transport.calls[0]["prompt"]
        assert scene_prompt("desk", "kitchen") == "Is it normal to see a desk in a kitchen?"

    def test_payload_asks_for_fixed_max_tokens(self):
        transport = StubTransport()
        make_client(transport).complete("hello")
        assert transport.calls == [{"prompt": "hello", "max_tokens": MAX_TOKENS}]
        assert MAX_TOKENS == 64

    @pytest.mark.parametrize("max_in_flight", [0, -1])
    def test_max_in_flight_below_one_rejected(self, max_in_flight):
        with pytest.raises(ValueError, match="max_in_flight must be at least 1"):
            LlmClient(endpoint="http://llm.test", max_in_flight=max_in_flight)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"retries": -1}, "retries must be at least 0, got -1"),
            ({"timeout": 0}, "timeout must be a finite number above 0, got 0"),
            ({"timeout": -1.0}, "timeout must be a finite number above 0, got -1.0"),
            ({"timeout": math.nan}, "timeout must be a finite number above 0, got nan"),
            ({"timeout": math.inf}, "timeout must be a finite number above 0, got inf"),
        ],
        ids=["retries-1", "timeout0", "timeout-1", "timeoutNaN", "timeoutInf"],
    )
    def test_no_attempt_or_no_wait_rejected(self, kwargs, message):
        # either would fail every request, which the KB fallback hides
        with pytest.raises(ValueError) as err:
            LlmClient(endpoint="http://llm.test", **kwargs)
        assert str(err.value) == message

    def test_retry_then_success(self):
        transport = StubTransport({"common size": "2.0*0.9*0.75"}, fail_first=2)
        provider = make_provider(transport, retries=2)
        assert provider.size_prior("sofa") == SizePrior(2.0, 0.9, 0.75)
        assert len(transport.calls) == 3

    def test_exhausted_retries_raise(self):
        transport = StubTransport(fail_first=10)
        client = make_client(transport, retries=2)
        with pytest.raises(ProviderError):
            client.complete("hello")
        assert len(transport.calls) == 3

    def test_no_endpoint_configured(self, monkeypatch):
        monkeypatch.delenv("GLRD_LLM_ENDPOINT", raising=False)
        client = LlmClient(transport=StubTransport())
        with pytest.raises(ProviderError):
            client.complete("hello")
        assert (client.requests, client.failed) == (0, 0)  # nothing was sent

    def test_counts_requests_and_those_failed_after_every_retry(self):
        client = make_client(StubTransport({"": "Yes."}, fail_first=4), retries=2)
        with pytest.raises(ProviderError):
            client.complete("first")  # three attempts fail
        assert client.complete("second") == "Yes."  # on its second attempt
        assert client.complete("third") == "Yes."
        assert (client.requests, client.failed) == (3, 1)

    def test_endpoint_from_environment(self, monkeypatch):
        monkeypatch.setenv("GLRD_LLM_ENDPOINT", "http://env.test")
        monkeypatch.setenv("GLRD_LLM_KEY", "k")
        client = LlmClient(transport=StubTransport({"": "Yes."}))
        assert client.endpoint == "http://env.test"
        assert client.api_key == "k"


class CompletionHandler(BaseHTTPRequestHandler):
    """Answers each POST with ``reply``, here ``{"text": "echo: ..."}``, after
    failing the first ``server.fail_first`` with a 500; records every request
    it reads."""

    def reply(self, prompt: str) -> tuple[bytes, int]:
        """The body sent for ``prompt`` and the length announced for it."""
        body = json.dumps({"text": f"echo: {prompt}"}).encode("utf-8")
        return body, len(body)

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.requests.append((self.path, self.headers.get("Authorization"), body))
        if len(self.server.requests) <= self.server.fail_first:
            self.send_error(500)
            return
        reply, length = self.reply(body["prompt"])
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(length))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


class TruncatingHandler(CompletionHandler):
    """Announces a 100-byte reply, sends 16 bytes of it and closes."""

    def reply(self, prompt):
        return b'{"text": "0.5*0.', 100


class DeepHandler(CompletionHandler):
    """Replies with JSON nested past the decoder's recursion limit."""

    def reply(self, prompt):
        depth = 4 * sys.getrecursionlimit()
        body = b"[" * depth + b"]" * depth
        return body, len(body)


@contextmanager
def completion_server(fail_first=0, handler=CompletionHandler):
    """A loopback server on a free port, served from a thread; yields its
    URL and the list of requests it has read."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.requests, server.fail_first = [], fail_first
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}", server.requests
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


@pytest.fixture
def posts(monkeypatch):
    """Every call of the real ``_http_post``: its URL and the error it raised,
    or None."""
    calls = []
    real_post = commonsense._http_post

    def recording_post(url, *args):
        try:
            body = real_post(url, *args)
        except OSError as exc:
            calls.append((url, exc))
            raise
        calls.append((url, None))
        return body

    monkeypatch.setattr(commonsense, "_http_post", recording_post)
    return calls


class TestHttpTransport:
    """The client's own transport against a real loopback server; every
    other client test injects ``transport=``."""

    def test_reply_text_comes_back(self):
        with completion_server() as (url, requests):
            client = LlmClient(endpoint=f"{url}/generate", api_key="secret")
            assert client.complete("hello") == "echo: hello"
            assert requests == [
                ("/generate", "Bearer secret", {"prompt": "hello", "max_tokens": MAX_TOKENS})
            ]

    def test_server_error_is_retried_and_its_response_closed(self, posts):
        with completion_server(fail_first=1) as (url, requests):
            client = LlmClient(endpoint=url, retries=1, backoff=0.0)
            assert client.complete("again") == "echo: again"
            assert len(requests) == 2
        (_, error), (_, success) = posts
        assert error.code == 500 and success is None
        # an error status carries the open response, which would hold its
        # socket until garbage collection
        assert error.fp.closed

    def test_closed_port_raises_after_every_attempt(self, posts):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            url = "http://127.0.0.1:%d/" % probe.getsockname()[1]
        client = LlmClient(endpoint=url, retries=2, backoff=0.0)
        with pytest.raises(ProviderError, match="failed after 3 attempts"):
            client.complete("hello")
        assert [call_url for call_url, _ in posts] == [url] * 3

    def test_truncated_reply_is_a_failed_request(self, posts):
        with completion_server(handler=TruncatingHandler) as (url, requests):
            client = LlmClient(endpoint=url, retries=2, backoff=0.0)
            with pytest.raises(ProviderError, match="failed after 3 attempts"):
                client.complete("hello")
            assert len(requests) == 3
            # so the provider answers from the KB
            provider = RemoteKnowledgeProvider(client, default_knowledge_base())
            assert provider.size_prior("chair") == default_knowledge_base().sizes["chair"]
            assert len(requests) == 6
        assert all(isinstance(error, ConnectionError) for _, error in posts)
        assert "IncompleteRead" in str(posts[0][1])

    def test_reply_nested_too_deeply_is_a_failed_request(self):
        with completion_server(handler=DeepHandler) as (url, requests):
            client = LlmClient(endpoint=url, retries=1, backoff=0.0)
            with pytest.raises(ProviderError, match="failed after 2 attempts"):
                client.complete("hello")
            assert len(requests) == 2


class TestLlmQueries:
    """Where the model gives no answer, the remote provider answers as the
    static provider over the same KB does."""

    def test_unparseable_falls_back_to_kb(self):
        kb = default_knowledge_base()
        provider = make_provider(StubTransport({"common size": "it depends"}))
        assert provider.size_prior("desk") == kb.sizes["desk"]

    def test_failed_request_falls_back_to_kb(self):
        kb = default_knowledge_base()
        provider = make_provider(StubTransport(fail_first=99))
        assert provider.size_prior("desk") == kb.sizes["desk"]
        assert provider.scene_compatible("toilet", "living room") == 0
        # a class without a KB size fails as it does offline
        with pytest.raises(MissingSizePriorError, match="gargoyle"):
            provider.size_prior("gargoyle")

    def test_scene_answers(self):
        # the model's answers win over the KB's, which has both the other way
        provider = make_provider(
            StubTransport({"toilet in a bathroom": "No.", "toilet in a living room": "Yes, of course."})
        )
        assert provider.scene_compatible("toilet", "bathroom") == 0
        assert provider.scene_compatible("toilet", "living room") == 1

    def test_ambiguous_scene_falls_back(self):
        provider = make_provider(StubTransport({"": "Perhaps."}))
        assert provider.scene_compatible("toilet", "living room") == 0
        assert provider.scene_compatible("toilet", "bathroom") == 1
        # a scene type the KB does not list counts as compatible, as offline
        assert provider.scene_compatible("toilet", "observatory") == 1


class HoldingTransport:
    """Holds every request until ``n`` have arrived or ``hold`` seconds pass,
    so that lookups made at once overlap; then replies ``text``, or fails
    when it is None."""

    def __init__(self, n, text=None, hold=0.2):
        self.n, self.text, self.hold = n, text, hold
        self.calls = 0
        self._lock = threading.Lock()
        self._all_in = threading.Event()

    def __call__(self, url, api_key, payload, timeout):
        with self._lock:
            self.calls += 1
            if self.calls >= self.n:
                self._all_in.set()
        self._all_in.wait(self.hold)
        if self.text is None:
            raise OSError("connection refused")
        return {"text": self.text}


def look_up_at_once(n, lookup):
    """``lookup(i)`` on threads ``i`` in ``range(n)`` started together: each
    one's result or error."""
    start = threading.Barrier(n)
    out = [None] * n

    def run(i):
        start.wait(30)
        try:
            out[i] = lookup(i)
        except Exception as exc:
            out[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert not any(t.is_alive() for t in threads)
    return out


class TestRemoteProvider:
    @pytest.mark.parametrize(
        "text, lookup, answer",
        [
            ("0.5*0.5*0.9", lambda p: p.size_prior("chair"), SizePrior(0.5, 0.5, 0.9)),
            ("Yes.", lambda p: p.scene_compatible("chair", "library"), 1),
        ],
        ids=["size", "scene"],
    )
    def test_lookups_at_once_share_one_request(self, text, lookup, answer):
        transport = HoldingTransport(4, text)
        provider = make_provider(transport)
        assert look_up_at_once(4, lambda _: lookup(provider)) == [answer] * 4
        assert transport.calls == 1

    def test_lookups_at_once_share_a_failure_that_is_remembered(self):
        # only a class without a KB size fails once its request has failed;
        # each lookup falls back on its own, and none sends the prompt again
        transport = HoldingTransport(4)
        provider = make_provider(transport, retries=0)
        errors = look_up_at_once(4, lambda _: provider.size_prior("gargoyle"))
        assert all(isinstance(e, MissingSizePriorError) for e in errors)
        assert transport.calls == 1
        with pytest.raises(MissingSizePriorError):
            provider.size_prior("gargoyle")
        assert transport.calls == 1

    def test_other_errors_are_shared_and_remembered(self):
        class Broken(HoldingTransport):
            def __call__(self, url, api_key, payload, timeout):
                super().__call__(url, api_key, payload, timeout)
                raise RuntimeError("transport bug")

        transport = Broken(4, "0.5*0.5*0.9")
        provider = make_provider(transport)
        errors = look_up_at_once(4, lambda _: provider.size_prior("chair"))
        assert all(isinstance(e, RuntimeError) for e in errors)
        assert transport.calls == 1
        with pytest.raises(RuntimeError, match="transport bug"):
            provider.size_prior("chair")
        assert transport.calls == 1

    def test_caches_per_class(self):
        transport = StubTransport({"common size of a desk": "1.4*0.7*0.75"})
        provider = make_provider(transport)
        first = provider.size_prior("desk")
        second = provider.size_prior("desk")
        assert first == second == SizePrior(1.4, 0.7, 0.75)
        assert len(transport.calls) == 1

    def test_scene_caches_per_pair(self):
        transport = StubTransport({"Is it normal": "Yes."})
        provider = make_provider(transport)
        provider.scene_compatible("chair", "library")
        provider.scene_compatible("chair", "library")
        provider.scene_compatible("chair", "office")
        assert len(transport.calls) == 2

    def test_many_threads_ask_each_query_once(self):
        kb = default_knowledge_base()
        labels = sorted(kb.sizes)
        asked = []
        lock = threading.Lock()

        def transport(url, api_key, payload, timeout):
            with lock:
                asked.append(payload["prompt"])
            time.sleep(0.001)  # a round trip, during which other threads look up
            return {"text": "Yes."}

        provider = make_provider(transport)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # each thread walks the labels from its own offset
            answers = look_up_at_once(
                16,
                lambda i: [
                    provider.scene_compatible(labels[(i + j) % len(labels)], "office")
                    for j in range(len(labels))
                ],
            )
        finally:
            sys.setswitchinterval(switch)
        assert answers == [[1] * len(labels)] * 16
        assert sorted(asked) == sorted(scene_prompt(label, "office") for label in labels)

    def test_network_failure_falls_back_to_kb(self):
        kb = default_knowledge_base()
        provider = make_provider(StubTransport(fail_first=99))
        assert provider.size_prior("desk") == kb.sizes["desk"]
        assert provider.scene_compatible("toilet", "living room") == 0

    def test_novel_gating_from_kb(self):
        provider = make_provider(StubTransport())
        assert provider.is_novel("toilet")
        assert not provider.is_novel("sofa")

    def test_judge_names_the_longest_candidate_in_the_reply(self):
        transport = StubTransport({"Debaters argue": "The coffee table, not a table."})
        provider = make_provider(transport)
        candidates, cases = ("table", "coffee table", "stool"), ("case a", "case b", "case c")
        assert provider.judge(candidates, "library", cases) == "coffee table"
        assert [call["prompt"] for call in transport.calls] == [
            judge_prompt(candidates, "library", cases)
        ]

    @pytest.mark.parametrize(
        "candidates, reply, winner",
        [
            (("bin", "stool"), "It is a cabinet.", None),
            (("book", "stool"), "A bookshelf.", None),
            (("table", "coffee table"), "It is a coffee table.", "coffee table"),
        ],
        ids=["bin-in-cabinet", "book-in-bookshelf", "coffee-table"],
    )
    def test_judge_takes_a_candidate_named_as_a_whole_word(self, candidates, reply, winner):
        provider = make_provider(StubTransport({"Debaters argue": reply}))
        assert provider.judge(candidates, "library", ("a",) * len(candidates)) == winner

    def test_judge_prompt_template(self):
        assert judge_prompt(("book", "stool"), "library", ("fits", "does not fit")) == (
            "Debaters argue for the candidate classes book, stool of an object in a library. "
            "book: fits; stool: does not fit. Which class is correct? Answer with one class name."
        )

    @pytest.mark.parametrize(
        "transport",
        [StubTransport({"Debaters argue": "Hard to say."}), StubTransport(fail_first=99)],
        ids=["names-none", "request-fails"],
    )
    def test_judge_without_a_verdict_is_none(self, transport):
        provider = make_provider(transport)
        assert provider.judge(("book", "stool"), "library", ("a", "b")) is None

    def test_identical_judge_prompts_share_one_request(self):
        transport = StubTransport({"Debaters argue": "stool"})
        provider = make_provider(transport)
        for _ in range(2):
            assert provider.judge(("book", "stool"), "library", ("a", "b")) == "stool"
        assert len(transport.calls) == 1
        # other cases are another prompt, sent on its own
        assert provider.judge(("book", "stool"), "library", ("b", "a")) == "stool"
        assert [call["prompt"] for call in transport.calls] == [
            judge_prompt(("book", "stool"), "library", cases) for cases in (("a", "b"), ("b", "a"))
        ]

    def test_judges_at_once_share_one_request(self):
        transport = HoldingTransport(4, "It is a stool.")
        provider = make_provider(transport)
        verdicts = look_up_at_once(
            4, lambda _: provider.judge(("book", "stool"), "library", ("a", "b"))
        )
        assert verdicts == ["stool"] * 4
        assert transport.calls == 1

    def test_static_provider_gives_no_verdict(self):
        provider = StaticKnowledgeProvider(default_knowledge_base())
        assert provider.judge(("book", "stool"), "library", ("a", "b")) is None

    def test_in_flight_requests_bounded(self):
        import threading
        import time as time_mod

        lock = threading.Lock()
        state = {"now": 0, "peak": 0}

        def slow_transport(url, api_key, payload, timeout):
            with lock:
                state["now"] += 1
                state["peak"] = max(state["peak"], state["now"])
            time_mod.sleep(0.01)
            with lock:
                state["now"] -= 1
            return {"text": "Yes."}

        client = LlmClient(
            endpoint="http://llm.test", transport=slow_transport, max_in_flight=2, backoff=0.0
        )
        threads = [
            threading.Thread(target=client.complete, args=(f"prompt {i}",)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert state["peak"] <= 2
