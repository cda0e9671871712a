import math

import numpy as np
import pytest

from ovrefine.commonsense import (
    KnowledgeBase,
    LlmClient,
    MissingSizePriorError,
    ProviderError,
    RemoteKnowledgeProvider,
    SceneContext,
    SizeConstraintConfig,
    SizePrior,
    StaticKnowledgeProvider,
    confidence_constraint,
    constraint_vector,
    default_knowledge_base,
    llm_query_scene,
    llm_query_size,
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

    def test_round_trip(self, tmp_path):
        kb = default_knowledge_base()
        path = tmp_path / "kb.json"
        path.write_text(__import__("json").dumps(kb.to_dict()))
        from ovrefine.commonsense import load_knowledge_base

        again = load_knowledge_base(path)
        assert again.sizes == kb.sizes
        assert again.compat == kb.compat
        assert again.novel_classes == kb.novel_classes

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


class TestConfidenceConstraint:
    @pytest.mark.parametrize("score", [0.0, 0.73, 1.0])
    def test_identity(self, score):
        assert confidence_constraint(score) == score

    def test_range_checked(self):
        with pytest.raises(ValueError):
            confidence_constraint(1.0001)


class TestConstraintVector:
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


class TestLlmClient:
    def test_prompt_templates_sent_verbatim(self):
        transport = StubTransport({"common size of a desk": "1.4*0.7*0.75"})
        client = make_client(transport)
        llm_query_size("desk", client)
        assert transport.calls[0]["prompt"] == (
            "What is the common size of a desk? Answer in the format of length*width*height."
        )
        assert size_prompt("desk") == transport.calls[0]["prompt"]
        assert scene_prompt("desk", "kitchen") == "Is it normal to see a desk in a kitchen?"

    def test_retry_then_success(self):
        transport = StubTransport({"common size": "2.0*0.9*0.75"}, fail_first=2)
        client = make_client(transport, retries=2)
        assert llm_query_size("sofa", client) == SizePrior(2.0, 0.9, 0.75)
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

    def test_endpoint_from_environment(self, monkeypatch):
        monkeypatch.setenv("GLRD_LLM_ENDPOINT", "http://env.test")
        monkeypatch.setenv("GLRD_LLM_KEY", "k")
        client = LlmClient(transport=StubTransport({"": "Yes."}))
        assert client.endpoint == "http://env.test"
        assert client.api_key == "k"


class TestLlmQueries:
    def test_unparseable_falls_back_to_kb(self):
        kb = default_knowledge_base()
        client = make_client(StubTransport({"common size": "it depends"}))
        assert llm_query_size("desk", client, kb) == kb.sizes["desk"]

    def test_failed_request_falls_back_to_kb(self):
        kb = default_knowledge_base()
        client = make_client(StubTransport(fail_first=99))
        assert llm_query_size("desk", client, kb) == kb.sizes["desk"]
        assert llm_query_scene("toilet", "living room", client, kb) == 0
        with pytest.raises(ProviderError):
            llm_query_size("gargoyle", client, kb)

    def test_unparseable_without_kb_raises(self):
        client = make_client(StubTransport({"common size": "it depends"}))
        with pytest.raises(ProviderError):
            llm_query_size("desk", client)

    def test_scene_answers(self):
        client = make_client(
            StubTransport({"toilet in a living room": "No.", "chair in a library": "Yes, of course."})
        )
        assert llm_query_scene("toilet", "living room", client) == 0
        assert llm_query_scene("chair", "library", client) == 1

    def test_ambiguous_scene_falls_back(self):
        kb = default_knowledge_base()
        client = make_client(StubTransport({"": "Perhaps."}))
        assert llm_query_scene("toilet", "living room", client, kb) == 0
        with pytest.raises(ProviderError):
            llm_query_scene("toilet", "living room", client)


class TestRemoteProvider:
    def test_caches_per_class(self):
        transport = StubTransport({"common size of a desk": "1.4*0.7*0.75"})
        provider = RemoteKnowledgeProvider(make_client(transport))
        first = provider.size_prior("desk")
        second = provider.size_prior("desk")
        assert first == second == SizePrior(1.4, 0.7, 0.75)
        assert len(transport.calls) == 1

    def test_scene_caches_per_pair(self):
        transport = StubTransport({"Is it normal": "Yes."})
        provider = RemoteKnowledgeProvider(make_client(transport))
        provider.scene_compatible("chair", "library")
        provider.scene_compatible("chair", "library")
        provider.scene_compatible("chair", "office")
        assert len(transport.calls) == 2

    def test_network_failure_falls_back_to_kb(self):
        kb = default_knowledge_base()
        provider = RemoteKnowledgeProvider(make_client(StubTransport(fail_first=99)), kb)
        assert provider.size_prior("desk") == kb.sizes["desk"]
        assert provider.scene_compatible("toilet", "living room") == 0

    def test_network_failure_without_kb_raises(self):
        provider = RemoteKnowledgeProvider(make_client(StubTransport(fail_first=99)))
        with pytest.raises(ProviderError):
            provider.size_prior("desk")

    def test_novel_gating_from_kb(self):
        kb = default_knowledge_base()
        provider = RemoteKnowledgeProvider(make_client(StubTransport()), kb)
        assert provider.is_novel("toilet")
        assert not provider.is_novel("sofa")

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
