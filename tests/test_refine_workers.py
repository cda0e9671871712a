"""refine_scenes over worker processes: same results for any worker count."""

import concurrent.futures
import threading
from dataclasses import replace

import pytest

from conftest import case_study_scenes
from ovrefine import pipeline
from ovrefine.commonsense import (
    LlmClient,
    MissingSizePriorError,
    ProviderError,
    RemoteKnowledgeProvider,
    SceneContext,
    StaticKnowledgeProvider,
    default_knowledge_base,
)
from ovrefine.geometry import Box7DoF
from ovrefine.pipeline import (
    Detection,
    RefinementLog,
    SceneRecord,
    generate_synthetic_scenes,
    refine_scene,
    refine_scenes,
)

CHUNK = pipeline._CHUNK_SCENES
WORKER_COUNTS = (1, 2, 3)


@pytest.fixture(scope="module")
def scenes():
    # more chunks than the 2 x 3 threads of the largest worker count take at once
    _, detections = generate_synthetic_scenes(
        default_knowledge_base(), seed=7, n_scenes=2 * max(WORKER_COUNTS) * CHUNK + CHUNK // 2
    )
    return detections


def solver_reprs(results):
    return [
        tuple(repr(v) for v in (o.solution.y_keep, o.solution.y_recls, o.solution.objective))
        for _, log in results
        for o in log.objects
    ]


def assert_same(results, reference):
    assert [record for record, _ in results] == [record for record, _ in reference]
    assert [log for _, log in results] == [log for _, log in reference]
    assert solver_reprs(results) == solver_reprs(reference)


@pytest.fixture
def pools(monkeypatch):
    """The start method of every solver pool made while the test runs."""
    made = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, workers, mp_context):
            made.append(mp_context.get_start_method())
            super().__init__(workers, mp_context=mp_context)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return made


class TestWorkerCounts:
    def test_identical_for_any_worker_count(self, scenes, pools):
        provider = StaticKnowledgeProvider(default_knowledge_base())
        reference = [refine_scene(record, provider) for record in scenes]
        assert len(scenes) > 2 * max(WORKER_COUNTS) * CHUNK
        for workers in WORKER_COUNTS:
            assert_same(refine_scenes(scenes, provider, workers=workers), reference)
        assert len(pools) == len(WORKER_COUNTS) - 1  # one pool per count above 1

    def test_provider_failures_across_a_chunk_boundary(self, scenes):
        class Unreachable(StaticKnowledgeProvider):
            def scene_compatible(self, label, scene_type):
                if scene_type == "unreachable":
                    raise ProviderError(f"no answer about {label!r}")
                return super().scene_compatible(label, scene_type)

        provider = Unreachable(default_knowledge_base())
        failing = (CHUNK - 2, CHUNK - 1, CHUNK, 2 * CHUNK + 3)
        records = [
            replace(record, scene=SceneContext("unreachable")) if i in failing else record
            for i, record in enumerate(scenes[: 3 * CHUNK])
        ]
        assert all(
            any(provider.is_novel(d.label) for d in records[i].detections) for i in failing
        )
        outputs = [refine_scenes(records, provider, workers=w) for w in WORKER_COUNTS]
        for results in outputs:
            assert_same(results, outputs[0])
        skipped = [log.scene_id for _, log in outputs[0] if log.error]
        assert skipped == [records[i].scene_id for i in failing]
        for i in failing:
            assert outputs[0][i][0] == records[i]  # passed through unrefined
            assert outputs[0][i][1].objects == ()

    def test_provider_failure_in_a_debate_skips_the_scene(self):
        # "coffee table" is asked about only when the library's book is debated
        class NoTables(StaticKnowledgeProvider):
            def size_prior(self, label):
                if label == "coffee table":
                    raise ProviderError("coffee tables unknown")
                return super().size_prior(label)

        provider = NoTables(default_knowledge_base())
        living_room, library = case_study_scenes()
        for workers in (1, 2):
            # the library's two chairs come after the book: their solutions
            # must not pass to the next scene
            skipped, refined = refine_scenes([library, living_room], provider, workers=workers)
            assert skipped == (
                library, RefinementLog(library.scene_id, (), "coffee tables unknown")
            )
            assert_same([refined], [refine_scene(living_room, provider)])

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_other_errors_propagate_and_stop_the_run(self, scenes, monkeypatch, workers):
        chunk = 4
        monkeypatch.setattr(pipeline, "_CHUNK_SCENES", chunk)
        # the failing chunk comes after the first 2 * workers chunks the
        # threads take; the last chunk lies more than that many beyond it
        failing = 2 * max(WORKER_COUNTS) + 1
        n_chunks = failing + 2 * max(WORKER_COUNTS) + 2
        release = threading.Event()
        seen = set()

        class Gryphons(StaticKnowledgeProvider):
            def is_novel(self, label):
                return label == "gryphon" or super().is_novel(label)

            def scene_compatible(self, label, scene_type):
                # scenes after the failing chunk wait until refine_scenes
                # shuts its threads down, so none can finish and free a
                # thread for a further chunk before the error arrives
                if scene_type.startswith("later "):
                    seen.add(int(scene_type.removeprefix("later ")))
                    assert release.wait(60)
                return super().scene_compatible(label, scene_type)

        class Releasing(concurrent.futures.ThreadPoolExecutor):
            def shutdown(self, *args, **kwargs):
                release.set()
                super().shutdown(*args, **kwargs)

        # refine_scenes imports it from concurrent.futures when it runs
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Releasing)
        provider = Gryphons(default_knowledge_base())
        records = list(scenes[: n_chunks * chunk])
        first = records[failing * chunk]
        gryphon = Detection(first.detections[0].box, "gryphon", 0.9)
        records[failing * chunk] = replace(first, detections=(gryphon, *first.detections))
        for i in range((failing + 1) * chunk, len(records)):
            records[i] = replace(records[i], scene=SceneContext(f"later {i}"))
        last = range((n_chunks - 1) * chunk, len(records))
        assert any(provider.is_novel(d.label) for i in last for d in records[i].detections)

        with pytest.raises(MissingSizePriorError, match="gryphon"):
            refine_scenes(records, provider, workers=workers)
        assert seen.isdisjoint(last)

    def test_remote_provider_and_judge(self, scenes):
        kb = default_knowledge_base()
        static = StaticKnowledgeProvider(kb)
        prompts = []
        lock = threading.Lock()

        def transport(url, key, payload, timeout):
            prompt = payload["prompt"]
            with lock:
                prompts.append(prompt)
            if prompt.startswith("What is the common size of a "):
                label = prompt.removeprefix("What is the common size of a ").split("?")[0]
                prior = kb.sizes[label]
                return {"text": f"{prior.length}*{prior.width}*{prior.height}"}
            if prompt.startswith("Is it normal to see a "):
                label, scene_type = prompt[len("Is it normal to see a ") : -1].split(" in a ")
                return {"text": "Yes." if static.scene_compatible(label, scene_type) else "No."}
            # the judge names the last candidate the debaters argued for
            candidates = prompt.split("candidate classes ")[1].split(" of an object")[0]
            return {"text": f"It is a {candidates.split(', ')[-1]}."}

        records = scenes[: 2 * CHUNK + 5]
        outputs = []
        for workers in WORKER_COUNTS:
            client = LlmClient(
                endpoint="http://llm.test", transport=transport, max_in_flight=workers
            )
            provider = RemoteKnowledgeProvider(client, kb)
            outputs.append(refine_scenes(records, provider, workers=workers))
        judged = [p for p in prompts if p.startswith("Debaters argue")]
        assert judged and len(judged) % len(WORKER_COUNTS) == 0
        for results in outputs:
            assert_same(results, outputs[0])
        assert all(log.error is None for _, log in outputs[0])
        # the remote judge, not the offline one, decided the debates
        transcripts = [o.transcript for _, log in outputs[0] for o in log.objects if o.transcript]
        assert transcripts
        for transcript in transcripts:
            last_debater = transcript[-2][0].removeprefix("debater:")
            assert transcript[-1] == ("judge", f"selects {last_debater!r}")


class TestSolverPool:
    def test_no_process_without_a_novel_detection(self, provider, pools):
        base_only = SceneRecord(
            "s", SceneContext("library"), (Detection(Box7DoF(0, 0, 0.4, 1, 1, 0.8), "table", 0.9),)
        )
        assert refine_scenes([], provider, workers=2) == []
        [(record, log)] = refine_scenes([base_only], provider, workers=2)
        assert record == base_only and log.objects == ()
        assert pools == []
        refine_scenes(case_study_scenes(), provider, workers=2)
        assert len(pools) == 1

    def test_spawns_while_other_threads_run(self, provider, pools):
        # a fork while another thread runs could copy a held lock into the child
        stop = threading.Event()
        other = threading.Thread(target=stop.wait, args=(30,))
        other.start()
        try:
            results = refine_scenes(case_study_scenes(), provider, workers=2)
        finally:
            stop.set()
            other.join(timeout=30)
        assert not other.is_alive()
        assert pools == ["spawn"]
        assert_same(results, [refine_scene(r, provider) for r in case_study_scenes()])
