"""The `refine` command over its workers: worker processes for the static
provider, threads in one process for a remote one. Same files and the same
errors, in file order, for any worker count."""

import concurrent.futures
import json
import multiprocessing
import threading
from dataclasses import replace

import pytest

from conftest import NOT_JSON, READ_ERROR, fail_reading_after, kb_model
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
from ovrefine.pipeline import Detection, generate_synthetic_scenes

CHUNK = cli._CHUNK_SCENES
WORKER_COUNTS = (1, 2, 3)
# llm_max_in_flight values: a remote run refines on twice as many threads
WINDOWS = (1, 2, 3)


@pytest.fixture(scope="module")
def scenes():
    # more chunks than the 2 x 3 threads of the largest remote window take at once
    _, detections = generate_synthetic_scenes(
        default_knowledge_base(), seed=7, n_scenes=2 * max(WINDOWS) * CHUNK + CHUNK // 2
    )
    return detections


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


def abstain(candidates):
    """A judge's reply that names no candidate, leaving the offline rule to decide."""
    return "I cannot say."


class RemoteModel:
    """Makes `refine --llm remote` refine with ``provider`` over the built-in
    KB, whose model answers size and scene prompts from the KB and a judge's
    prompt with ``judge`` of its candidates. ``runs`` holds the prompts of
    each remote run, in the order sent."""

    def __init__(self, monkeypatch):
        self.kb = default_knowledge_base()
        self.judge = abstain
        self.provider = RemoteKnowledgeProvider
        self.failing = False  # whether every request fails
        self.runs = []
        self.clients = []
        self.make_offline = cli._make_provider
        monkeypatch.setattr(cli, "_make_provider", self.make)

    def make(self, config):
        if config.llm != "remote":
            return self.make_offline(config)
        prompts = []
        self.runs.append(prompts)
        transport = kb_model(self.kb, self.judge, prompts, self.failing)
        client = LlmClient(endpoint="http://llm.test", transport=transport, backoff=0.0)
        self.clients.append(client)
        return self.provider(client, self.kb)


@pytest.fixture
def remote(monkeypatch):
    return RemoteModel(monkeypatch)


@pytest.fixture
def thread_pools(monkeypatch):
    """The thread count of every thread pool made while the test runs."""
    made = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, workers):
            made.append(workers)
            super().__init__(workers)

    # `refine` imports it from concurrent.futures when it runs
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    return made


def detection_lines(scenes, n):
    """The first ``n`` of ``scenes`` as the lines of a detections file, without newlines."""
    return [pipeline.scene_line(record).rstrip("\n") for record in scenes[:n]]


def contested_lines():
    """Three identical scenes, each a library whose chair is reclassified and
    debated among chair, gargoyle (which the KB has no size for) and book."""
    detection = {
        "box": [0, 0, 2.5, 10, 10, 5, 0],
        "label": "chair",
        "score": 0.9,
        "class_scores": {"chair": 0.9, "gargoyle": 0.5, "book": 0.3},
    }
    return [
        json.dumps({"scene_id": f"s{i}", "scene_type": "library", "detections": [detection]})
        for i in range(3)
    ]


def window(tmp_path, llm_max_in_flight):
    """The options of a config file that sets ``llm_max_in_flight``."""
    path = tmp_path / f"window-{llm_max_in_flight}.json"
    path.write_text(json.dumps({"llm_max_in_flight": llm_max_in_flight}), encoding="utf-8")
    return "--config", str(path)


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
    "json": ("{not json", NOT_JSON),
    "not-utf-8": (b'{"scene_id": "\xff"}', "not UTF-8: byte 0xff at position 14"),
}


class RefineErrors:
    """The first error in the file or the options of a `refine` run with
    ``--llm`` ``llm``: it is reported as the inline run reports it, by chunk
    in file order, and no file is written."""

    llm = "off"

    @pytest.fixture
    def refine(self, tmp_path, capsys, monkeypatch):
        """``run_refine`` with this class's ``--llm``. A remote run must have
        refined the chunks before the error's chunk, and sent their requests,
        before it reports the error, unless ``refined_first`` is false, when
        it must have sent none."""
        model = RemoteModel(monkeypatch) if self.llm == "remote" else None

        def run(path, workers, *options, refined_first=True):
            result = run_refine(tmp_path, capsys, path, workers, "--llm", self.llm, *options)
            if model is not None:
                assert bool(model.runs and model.runs.pop()) == refined_first
            return result

        return run

    @pytest.mark.parametrize("bad", BAD_LINES.values(), ids=list(BAD_LINES))
    def test_bad_line_read_after_the_processes_start(self, scenes, tmp_path, refine, bad):
        # the largest static worker count has read 3 chunks when its processes
        # start; a remote one reads up to 6 before its threads start
        lineno = 3 * CHUNK + 20
        lines = detection_lines(scenes, 5 * CHUNK)
        lines[lineno - 1] = bad[0]
        path = tmp_path / "detections.jsonl"
        write_lines(path, lines)
        for workers in WORKER_COUNTS:
            code, output, out, log = refine(path, workers)
            assert (code, output.out, out, log) == (1, "", None, None)
            assert output.err.startswith(f"input error: {path}:{lineno}: {bad[1]}")

    def test_scene_id_repeated_across_a_chunk_boundary_names_the_earlier_line(
        self, scenes, tmp_path, refine
    ):
        lines = detection_lines(scenes, 3 * CHUNK)
        lines[CHUNK + 5] = with_scene_id(lines[CHUNK + 5], scene_id_of(lines[CHUNK - 3]))
        path = tmp_path / "detections.jsonl"
        write_lines(path, lines)
        for workers in WORKER_COUNTS:
            code, output, out, log = refine(path, workers)
            assert (code, output.out, out, log) == (1, "", None, None)
            assert output.err == (
                f'input error: {path}:{CHUNK + 6}: scene_id "{scene_id_of(lines[CHUNK - 3])}" '
                f"already appears on line {CHUNK - 2}\n"
            )

    @pytest.mark.parametrize(
        "scene_id, shown", [(None, "null"), (["a"], '["a"]'), (1, "1")], ids=["null", "list", "int"]
    )
    def test_scene_id_that_is_not_a_string(self, scenes, tmp_path, refine, scene_id, shown):
        # in the third chunk, which a worker process parses unless --workers 1
        lineno = 2 * CHUNK + 4
        lines = detection_lines(scenes, 3 * CHUNK)
        lines[lineno - 1] = with_scene_id(lines[lineno - 1], scene_id)
        path = tmp_path / "detections.jsonl"
        write_lines(path, lines)
        for workers in WORKER_COUNTS:
            code, output, out, log = refine(path, workers)
            assert (code, output.out, out, log) == (1, "", None, None)
            assert output.err == (
                f"input error: {path}:{lineno}: scene_id must be a string, got {shown}\n"
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
        self, scenes, tmp_path, refine, repeat_at, bad_at, bad
    ):
        # line numbers from 1; the repeated id is the first line's
        lines = detection_lines(scenes, 4 * CHUNK)
        lines[repeat_at - 1] = with_scene_id(lines[repeat_at - 1], scene_id_of(lines[0]))
        lines[bad_at - 1] = bad[0]
        path = tmp_path / "detections.jsonl"
        write_lines(path, lines)
        if repeat_at < bad_at:
            expected = f'input error: {path}:{repeat_at}: scene_id "{scene_id_of(lines[0])}"'
        else:
            expected = f"input error: {path}:{bad_at}: {bad[1]}"
        for workers in WORKER_COUNTS:
            code, output, out, log = refine(path, workers)
            assert (code, output.out, out, log) == (1, "", None, None)
            assert output.err.startswith(expected)

    @pytest.mark.parametrize(
        "bad_at, read_fails_after, reported",
        [
            (None, CHUNK // 2, "read"),
            (None, 3 * CHUNK + 20, "read"),
            (CHUNK + 5, 3 * CHUNK + 20, "bad"),
            # the failing read stops its chunk before any of its lines is parsed
            (3 * CHUNK + 5, 3 * CHUNK + 20, "read"),
        ],
        ids=["in-the-first-chunk", "after-the-processes-start", "bad-line-in-an-earlier-chunk",
             "bad-line-earlier-in-its-chunk"],
    )
    def test_read_error_mid_file(
        self, scenes, tmp_path, refine, monkeypatch, bad_at, read_fails_after, reported
    ):
        lines = detection_lines(scenes, 5 * CHUNK)
        if bad_at is not None:
            lines[bad_at - 1] = "{not json"
        path = tmp_path / "detections.jsonl"
        write_lines(path, lines)
        fail_reading_after(monkeypatch, read_fails_after)
        errors = []
        for workers in WORKER_COUNTS:
            # the chunks before the failing read's are refined first
            code, output, out, log = refine(path, workers, refined_first=read_fails_after >= CHUNK)
            assert (code, output.out, out, log) == (1, "", None, None)
            errors.append(output.err)
        if reported == "read":
            assert errors[0] == READ_ERROR
        else:
            assert errors[0] == f"input error: {path}:{bad_at}: {NOT_JSON}\n"
        assert errors == [errors[0]] * len(WORKER_COUNTS)

    @pytest.mark.parametrize("scenes_in_file", [0, 3 * CHUNK], ids=["empty", "three-chunks"])
    def test_refinement_options_are_checked_before_the_file(
        self, scenes, tmp_path, refine, scenes_in_file
    ):
        config = tmp_path / "config.json"
        lines = detection_lines(scenes, scenes_in_file)
        path = tmp_path / "detections.jsonl"
        for options, message in (
            ({"phi_keep": 2.0}, "phi_keep must be in [0, 1], got 2.0"),
            (
                {"alpha1": 1e308, "alpha2": 1e308, "alpha3": 1e308},
                "alpha1 + alpha2 + alpha3 must be at most 2.247e+307, "
                "got 1e+308 + 1e+308 + 1e+308",
            ),
        ):
            config.write_text(json.dumps(options))
            # the option error wins over a bad last line, which is never read
            for last in ([], ["{not json"]):
                write_lines(path, lines + last)
                for workers in WORKER_COUNTS:
                    run = refine(path, workers, "--config", str(config), refined_first=False)
                    expected = f"input error: {config}: {message}\n"
                    assert run == (1, ("", expected), None, None)


class TestRefineCommand(RefineErrors):
    """Static `refine --workers N` parses, refines and formats chunks of the
    file's lines in its worker processes; it must write and report exactly
    what `--workers 1` does."""

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
        refine_error = ("", f'input error: no size prior for class "{label}"\n')
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
            assert output.err == f"input error: {path}:3: {NOT_JSON}\n"


class TestRemoteRefineCommand(RefineErrors):
    """`refine --llm remote` refines the chunks of the file on
    2 x llm_max_in_flight threads in this process; it reads the file chunk
    by chunk as static `refine` does, and reports its errors in the same
    order."""

    llm = "remote"


class TestWorkerCounts:
    """`refine --llm remote` at any worker count: the same files, each query
    asked once, on 2 x llm_max_in_flight threads in this process."""

    def test_identical_for_any_worker_count(
        self, scenes, tmp_path, capsys, remote, pools, thread_pools
    ):
        path = tmp_path / "detections.jsonl"
        write_lines(path, detection_lines(scenes, len(scenes)))
        static = run_refine(tmp_path, capsys, path, 1)
        assert static[0] == 0
        options = ("--llm", "remote", *window(tmp_path, max(WINDOWS)))
        for workers in WORKER_COUNTS:
            # a model that answers as the KB does and judges no debate: the static run's bytes
            assert run_refine(tmp_path, capsys, path, workers, *options) == static
        assert len(remote.runs) == len(WORKER_COUNTS)
        for prompts in remote.runs:
            assert prompts and len(prompts) == len(set(prompts))
            assert sorted(prompts) == sorted(remote.runs[0])
        assert pools == []
        assert len(scenes) > 2 * max(WINDOWS) * CHUNK
        assert thread_pools == [2 * max(WINDOWS)] * len(WORKER_COUNTS)

    def test_default_window_fills_at_one_worker(
        self, scenes, tmp_path, capsys, monkeypatch, remote, pools, thread_pools
    ):
        # --workers 1, the default on a one-core host, still runs a thread per
        # request that the default window of 4 lets in flight, and as many more
        chunk = 4
        monkeypatch.setattr(cli, "_CHUNK_SCENES", chunk)
        path = tmp_path / "detections.jsonl"
        write_lines(path, detection_lines(scenes, len(scenes)))
        assert len(scenes) > 2 * cli.RunConfig().llm_max_in_flight * chunk
        static = run_refine(tmp_path, capsys, path, 1)
        assert static[0] == 0
        assert run_refine(tmp_path, capsys, path, 1, "--llm", "remote") == static
        assert pools == []
        assert thread_pools == [8]

    @pytest.mark.parametrize(
        ("llm_max_in_flight", "workers"), zip(WINDOWS, reversed(WORKER_COUNTS))
    )
    def test_other_errors_propagate_and_stop_the_run(
        self, scenes, tmp_path, capsys, monkeypatch, remote, llm_max_in_flight, workers
    ):
        chunk = 4
        monkeypatch.setattr(cli, "_CHUNK_SCENES", chunk)
        # the failing chunk comes after the first chunks that the
        # 2 x llm_max_in_flight threads take; map_in_order starts no chunk more
        # than 2 x that many beyond it, and the last chunk lies beyond that at
        # every window, whatever --workers is
        failing = 2 * max(WINDOWS) + 1
        bound = failing + 2 * (2 * llm_max_in_flight)
        n_chunks = failing + 4 * max(WINDOWS) + 2
        release = threading.Event()
        seen = set()

        class Gryphons(RemoteKnowledgeProvider):
            def is_novel(self, label):
                return label == "gryphon" or super().is_novel(label)

            def scene_compatible(self, label, scene_type):
                # scenes after the failing chunk wait until the run shuts its
                # threads down, so none can finish and free a thread for a
                # further chunk before the error arrives
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

        # `refine` imports it from concurrent.futures when it runs
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Releasing)
        records = list(scenes[: n_chunks * chunk])
        first = records[failing * chunk]
        gryphon = Detection(first.detections[0].box, "gryphon", 0.9)
        records[failing * chunk] = replace(first, detections=(gryphon, *first.detections))
        for i in range((failing + 1) * chunk, len(records)):
            records[i] = replace(records[i], scene=SceneContext(f"later {i}"))
        beyond = range((bound + 1) * chunk, len(records))
        last = range((n_chunks - 1) * chunk, len(records))
        novel = remote.kb.novel_classes
        assert any(d.label in novel for i in last for d in records[i].detections)
        path = tmp_path / "detections.jsonl"
        write_lines(path, [pipeline.scene_line(record).rstrip("\n") for record in records])

        # the remote query fails, and no KB size answers it: an input error
        remote.provider = Gryphons
        options = ("--llm", "remote", *window(tmp_path, llm_max_in_flight))
        run = run_refine(tmp_path, capsys, path, workers, *options)
        assert run == (1, ("", 'input error: no size prior for class "gryphon"\n'), None, None)
        assert seen.isdisjoint(beyond)
        # a provider's own failure propagates as any other error does
        release.clear()
        seen.clear()
        remote.provider = Unreachable
        with pytest.raises(ProviderError, match="gryphon"):
            run_refine(tmp_path, capsys, path, workers, *options)
        assert not (tmp_path / f"out-{workers}.jsonl").exists()
        assert seen.isdisjoint(beyond)

    @pytest.mark.parametrize("failing", [False, True], ids=["replying", "failing"])
    def test_repeated_debates_send_each_prompt_once(
        self, tmp_path, capsys, monkeypatch, remote, failing
    ):
        # a chunk per scene, so that the two threads of window 1 debate at once
        monkeypatch.setattr(cli, "_CHUNK_SCENES", 1)
        remote.failing = failing
        path = tmp_path / "contested.jsonl"
        write_lines(path, contested_lines())
        static = run_refine(tmp_path, capsys, path, 1)
        assert static[:2] == (0, ("kept 0, removed 0, reclassified 3\n", ""))
        # the model fails only the gargoyle's size prompt, whose lookups all
        # fall back on the KB, which has no size either
        warning = (
            f"warning: {7 if failing else 1} of 7 LLM requests failed after every retry: their "
            "queries fell back to the knowledge base and their debates to the offline rule\n"
        )
        options = ("--llm", "remote", *window(tmp_path, 1))
        for workers in WORKER_COUNTS:
            code, output, out, log = run_refine(tmp_path, capsys, path, workers, *options)
            assert (code, output.out, out, log) == (0, static[1].out, *static[2:])
            assert output.err == warning
            # a size and a scene prompt for each candidate, and one judge prompt
            assert remote.clients[-1].requests == 7
            assert len(set(remote.runs[-1])) == 7

    def test_remote_provider_and_judge(self, scenes, tmp_path, capsys, remote):
        # the judge names the last candidate the debaters argued for
        remote.judge = lambda candidates: f"It is a {candidates[-1]}."
        path = tmp_path / "detections.jsonl"
        write_lines(path, detection_lines(scenes, 2 * CHUNK + 5))
        runs = [
            run_refine(tmp_path, capsys, path, workers, "--llm", "remote")
            for workers in WORKER_COUNTS
        ]
        assert runs[0][:2] == (0, (runs[0][1].out, ""))
        assert runs == [runs[0]] * len(WORKER_COUNTS)
        for prompts in remote.runs:
            assert len(prompts) == len(set(prompts))
            assert sorted(prompts) == sorted(remote.runs[0])
        assert any(prompt.startswith("Debaters argue") for prompt in remote.runs[0])
        # the remote judge, not the offline one, decided the debates
        logs = [json.loads(line) for line in runs[0][3].splitlines()]
        transcripts = [o["transcript"] for log in logs for o in log["objects"] if o["transcript"]]
        assert transcripts
        for transcript in transcripts:
            last_debater = transcript[-2][0].removeprefix("debater:")
            assert transcript[-1] == ["judge", f"selects {last_debater!r}"]
