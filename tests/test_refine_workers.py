"""refine_scenes on its threads, and the `refine` command over worker
processes: same results for any worker count."""

import concurrent.futures
import json
import multiprocessing
import threading
from dataclasses import replace

import pytest

from ovrefine import cli, pipeline
from ovrefine.commonsense import (
    LlmClient,
    MissingSizePriorError,
    ProviderError,
    RemoteKnowledgeProvider,
    SceneContext,
    StaticKnowledgeProvider,
    default_knowledge_base,
)
from ovrefine.jsonl import read_lines
from ovrefine.pipeline import (
    Detection,
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
    """The start method of every process pool made while the test runs."""
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
        assert pools == []  # every count solves on its threads, in this process

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

        class Unreachable(Gryphons):
            def size_prior(self, label):
                if label == "gryphon":
                    raise ProviderError("no answer about 'gryphon'")
                return super().size_prior(label)

        class Releasing(concurrent.futures.ThreadPoolExecutor):
            def shutdown(self, *args, **kwargs):
                release.set()
                super().shutdown(*args, **kwargs)

        # refine_scenes imports it from concurrent.futures when it runs
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Releasing)
        kb = default_knowledge_base()
        records = list(scenes[: n_chunks * chunk])
        first = records[failing * chunk]
        gryphon = Detection(first.detections[0].box, "gryphon", 0.9)
        records[failing * chunk] = replace(first, detections=(gryphon, *first.detections))
        for i in range((failing + 1) * chunk, len(records)):
            records[i] = replace(records[i], scene=SceneContext(f"later {i}"))
        last = range((n_chunks - 1) * chunk, len(records))
        assert any(d.label in kb.novel_classes for i in last for d in records[i].detections)

        # a provider's own failure propagates as any other error does
        failures = ((Gryphons(kb), MissingSizePriorError), (Unreachable(kb), ProviderError))
        for provider, error in failures:
            release.clear()
            seen.clear()
            with pytest.raises(error, match="gryphon"):
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
        # the remote judge, not the offline one, decided the debates
        transcripts = [o.transcript for _, log in outputs[0] for o in log.objects if o.transcript]
        assert transcripts
        for transcript in transcripts:
            last_debater = transcript[-2][0].removeprefix("debater:")
            assert transcript[-1] == ("judge", f"selects {last_debater!r}")


def detection_lines(scenes, n):
    """The first ``n`` of ``scenes`` as the lines of a detections file, without newlines."""
    return [pipeline.scene_line(record).rstrip("\n") for record in scenes[:n]]


def with_scene_id(line, scene_id):
    data = json.loads(line)
    data["scene_id"] = scene_id
    return json.dumps(data)


def scene_id_of(line):
    return json.loads(line)["scene_id"]


def write_lines(path, lines):
    """Write each line, text or raw bytes, ended by a newline."""
    path.write_bytes(
        b"".join((line if isinstance(line, bytes) else line.encode()) + b"\n" for line in lines)
    )


def run_refine(tmp_path, capsys, detections, workers, *options):
    """``refine`` of ``detections`` at ``workers``: its exit code, its
    output, and its --out and --log bytes (None for a file not written)."""
    out, log = tmp_path / f"out-{workers}.jsonl", tmp_path / f"log-{workers}.jsonl"
    out.unlink(missing_ok=True)
    log.unlink(missing_ok=True)
    code = cli.main(["refine", "--detections", str(detections), "--out", str(out),
                     "--log", str(log), "--workers", str(workers), *options])
    assert not multiprocessing.active_children()
    files = [path.read_bytes() if path.exists() else None for path in (out, log)]
    return code, capsys.readouterr(), *files


class Forgetful(StaticKnowledgeProvider):
    """The static provider without the size of one class; defined here, not in
    a test, so that it pickles for a worker process."""

    def __init__(self, kb, forgotten):
        super().__init__(kb)
        self.forgotten = forgotten

    def size_prior(self, label):
        if label == self.forgotten:
            raise MissingSizePriorError(label)
        return super().size_prior(label)


# a line that does not parse, and one that is not UTF-8, each with the start of its message
BAD_LINES = {
    "json": ("{not json", "Expecting property name"),
    "not-utf-8": (b'{"scene_id": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
}


class TestRefineCommand:
    """Static `refine --workers N` parses, refines and formats chunks of the
    file's lines in its worker processes; it must write and report exactly
    what `--workers 1` does."""

    @pytest.mark.parametrize("bad", BAD_LINES.values(), ids=list(BAD_LINES))
    def test_bad_line_read_after_the_processes_start(self, scenes, tmp_path, capsys, bad):
        # the largest worker count has read 3 chunks when its processes start
        lineno = 3 * CHUNK + 20
        lines = detection_lines(scenes, 5 * CHUNK)
        lines[lineno - 1] = bad[0]
        path = tmp_path / "detections.jsonl"
        write_lines(path, lines)
        for workers in WORKER_COUNTS:
            code, output, out, log = run_refine(tmp_path, capsys, path, workers)
            assert (code, output.out, out, log) == (1, "", None, None)
            assert output.err.startswith(f"input error: {path}:{lineno}: {bad[1]}")

    def test_scene_id_repeated_across_a_chunk_boundary_names_the_earlier_line(
        self, scenes, tmp_path, capsys
    ):
        lines = detection_lines(scenes, 3 * CHUNK)
        lines[CHUNK + 5] = with_scene_id(lines[CHUNK + 5], scene_id_of(lines[CHUNK - 3]))
        path = tmp_path / "detections.jsonl"
        write_lines(path, lines)
        for workers in WORKER_COUNTS:
            code, output, out, log = run_refine(tmp_path, capsys, path, workers)
            assert (code, output.out, out, log) == (1, "", None, None)
            assert output.err == (
                f"input error: {path}:{CHUNK + 6}: scene_id {scene_id_of(lines[CHUNK - 3])!r} "
                f"already appears on line {CHUNK - 2}\n"
            )

    @pytest.mark.parametrize("scene_id", [None, ["a"], 1], ids=["null", "list", "int"])
    def test_scene_id_that_is_not_a_string(self, scenes, tmp_path, capsys, scene_id):
        # in the third chunk, which a worker process parses unless --workers 1
        lineno = 2 * CHUNK + 4
        lines = detection_lines(scenes, 3 * CHUNK)
        lines[lineno - 1] = with_scene_id(lines[lineno - 1], scene_id)
        path = tmp_path / "detections.jsonl"
        write_lines(path, lines)
        for workers in WORKER_COUNTS:
            code, output, out, log = run_refine(tmp_path, capsys, path, workers)
            assert (code, output.out, out, log) == (1, "", None, None)
            assert output.err == (
                f"input error: {path}:{lineno}: scene_id must be a string, "
                f"got {type(scene_id).__name__}\n"
            )

    @pytest.mark.parametrize("bad", BAD_LINES.values(), ids=list(BAD_LINES))
    @pytest.mark.parametrize(
        "repeat_at, bad_at",
        [(CHUNK + 3, CHUNK + 9), (CHUNK + 9, CHUNK + 3), (CHUNK + 3, 2 * CHUNK + 9),
         (2 * CHUNK + 9, CHUNK + 3)],
        ids=["repeat-first-one-chunk", "bad-first-one-chunk", "repeat-first-two-chunks",
             "bad-first-two-chunks"],
    )
    def test_the_first_of_a_repeat_and_a_bad_line_is_reported(
        self, scenes, tmp_path, capsys, repeat_at, bad_at, bad
    ):
        # line numbers from 1; the repeated id is the first line's
        lines = detection_lines(scenes, 4 * CHUNK)
        lines[repeat_at - 1] = with_scene_id(lines[repeat_at - 1], scene_id_of(lines[0]))
        lines[bad_at - 1] = bad[0]
        path = tmp_path / "detections.jsonl"
        write_lines(path, lines)
        if repeat_at < bad_at:
            expected = f"input error: {path}:{repeat_at}: scene_id {scene_id_of(lines[0])!r}"
        else:
            expected = f"input error: {path}:{bad_at}: {bad[1]}"
        for workers in WORKER_COUNTS:
            code, output, out, log = run_refine(tmp_path, capsys, path, workers)
            assert (code, output.out, out, log) == (1, "", None, None)
            assert output.err.startswith(expected)

    def test_file_is_read_as_the_chunks_are_refined(self, scenes, tmp_path, capsys, monkeypatch):
        from ovrefine import processes

        read, pools = [], []

        def counted_lines(path):
            for item in read_lines(path):
                read.append(item[0])
                yield item

        def recorded_pool(workers):
            pools.append((workers, len(read)))
            return real_pool(workers)

        real_pool = processes.process_pool
        # every worker count reads the file chunk by chunk, 1 included
        monkeypatch.setattr(cli, "read_lines", counted_lines)
        monkeypatch.setattr(processes, "process_pool", recorded_pool)
        path = tmp_path / "detections.jsonl"
        for n in (0, CHUNK, 4 * CHUNK):
            write_lines(path, detection_lines(scenes, n))
            outputs = []
            for workers in WORKER_COUNTS:
                read.clear()
                outputs.append(run_refine(tmp_path, capsys, path, workers))
                assert read == list(range(1, n + 1))
                assert outputs[-1] == outputs[0]
            assert outputs[0][0] == 0
        # the processes start once the first --workers chunks are read, and a
        # file of at most one chunk starts none
        assert pools == [(2, 2 * CHUNK), (3, 3 * CHUNK)]

    def test_spawned_workers_write_the_same_files(self, scenes, tmp_path, capsys, pools):
        path = tmp_path / "detections.jsonl"
        write_lines(path, detection_lines(scenes, 3 * CHUNK + 5))
        reference = run_refine(tmp_path, capsys, path, 1)
        assert reference[0] == 0
        # a fork while another thread runs could copy a held lock into the child
        stop = threading.Event()
        other = threading.Thread(target=stop.wait, args=(60,))
        other.start()
        try:
            runs = [run_refine(tmp_path, capsys, path, workers) for workers in (2, 3)]
        finally:
            stop.set()
            other.join(timeout=60)
        assert pools == ["spawn", "spawn"]
        assert runs == [reference, reference]

    def test_first_failing_chunk_is_reported(self, scenes, tmp_path, capsys, monkeypatch):
        # the first chunk's refine fails, in a worker process unless --workers 1
        kb = default_knowledge_base()
        label = next(
            d.label for record in scenes for d in record.detections if d.label in kb.novel_classes
        )
        monkeypatch.setattr(cli, "_make_provider", lambda config: Forgetful(kb, label))
        lines = detection_lines(scenes, 5 * CHUNK)
        path = tmp_path / "detections.jsonl"
        refine_error = ("", f"input error: no size prior for class {label!r}\n")
        # the refine error beats a bad line in the fifth chunk, which is read
        # after the processes start, at every worker count
        for file_lines in (lines, lines[:-1] + ["{not json"]):
            write_lines(path, file_lines)
            for workers in WORKER_COUNTS:
                run = run_refine(tmp_path, capsys, path, workers)
                assert run == (1, refine_error, None, None)
        # a bad line in the first chunk stops it before its refine
        write_lines(path, lines[:2] + ["{not json"] + lines[3:])
        for workers in WORKER_COUNTS:
            code, output, out, log = run_refine(tmp_path, capsys, path, workers)
            assert (code, output.out, out, log) == (1, "", None, None)
            assert output.err.startswith(f"input error: {path}:3: Expecting")

    @pytest.mark.parametrize("scenes_in_file", [0, 3 * CHUNK], ids=["empty", "three-chunks"])
    def test_refinement_options_are_checked_before_the_file(
        self, scenes, tmp_path, capsys, scenes_in_file
    ):
        config = tmp_path / "config.json"
        lines = detection_lines(scenes, scenes_in_file)
        path = tmp_path / "detections.jsonl"
        for options, message in (
            ({"phi_keep": 2.0}, "phi_keep must be in [0, 1], got 2.0"),
            (
                {"alpha1": 1e308, "alpha2": 1e308, "alpha3": 1e308},
                "rule weights must sum to at most 2.247e+307, beyond which the solver's sums "
                "overflow, got 1e+308, 1e+308, 1e+308",
            ),
        ):
            config.write_text(json.dumps(options))
            # the option error wins over a bad last line, which is never read
            for last in ([], ["{not json"]):
                write_lines(path, lines + last)
                for workers in WORKER_COUNTS:
                    run = run_refine(tmp_path, capsys, path, workers, "--config", str(config))
                    assert run == (1, ("", f"input error: {message}\n"), None, None)
