"""The seed-7 recorded outputs at every worker count and request window.

Each command runs in its own process, as `python -m ovrefine.cli`, on the
inputs `perfbench/gen.py` writes for the benchmark, and the SHA-256 of what
it writes must be the one `perfbench/digests.json` records:

- `baol`'s stdout, at --workers 1, 2 and 3;
- `refine`'s --out and --log, at --workers 1, 2 and 3, and `eval`'s reports
  of the refined and the unrefined scenes;
- `refine --llm remote`'s --out and --log against a loopback stub that answers
  as the knowledge base does, at several request windows and worker counts,
  each distinct prompt sent once; and against a closed port, where every
  request fails and the run falls back to the same files.

The benchmark checks the same digests at --workers 2 and window 2 only.
"""

import hashlib
import importlib.util
import json
import os
import socket
import subprocess
import sys
import threading
from http.server import ThreadingHTTPServer
from pathlib import Path

import pytest

from ovrefine import default_knowledge_base

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = json.loads((ROOT / "perfbench" / "digests.json").read_text(encoding="utf-8"))
# eval matches every detection of the 2000 scenes by IoU, so its reports pin any
# change to iou3d: mAP 0.8877 refined at --workers 1, 0.7298 unrefined
EVAL_DIGESTS = {
    "refined": "15dda160925bad2682928b6af578c66e745d054dda5508168b49af4c7fad4cd7",
    "unrefined": "e2dc78eb06a39f3c3fbf8c7d1925ad6d92140cfdbd5d25b2eb5c8c7cc6b930ab",
}
WORKER_COUNTS = (1, 2, 3)
# every remote run refines in chunks on 2 x llm_max_in_flight threads of one
# process, whatever --workers is; window 4 is the default of a config without the key
REMOTE_RUNS = ((2, 1), (2, 2), (2, 3), (1, 1), (4, 1))
REQUESTS = DIGESTS["refine-remote"]["distinct_prompts"]
ALL_FAILED = (
    f"warning: {REQUESTS} of {REQUESTS} LLM requests failed after every retry: their queries "
    "fell back to the knowledge base and their debates to the offline rule\n"
)
TIMEOUT = 300  # seconds a run may take; each takes a few


def perfbench_module(name):
    """``perfbench/<name>.py``, imported without putting `perfbench` on
    ``sys.path``, where its `gen` and `run` would shadow other modules."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cli(*args, endpoint=None):
    """``python -m ovrefine.cli`` run on ``args`` with `src` first on its path,
    no proxy and no LLM endpoint but ``endpoint``: its exit code, stdout bytes
    and stderr text."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("GLRD_LLM_") and "proxy" not in key.lower()
    }
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    if endpoint:
        env["GLRD_LLM_ENDPOINT"] = endpoint
    result = subprocess.run(
        [sys.executable, "-m", "ovrefine.cli", *map(str, args)],
        cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT,
    )
    return result.returncode, result.stdout, result.stderr.decode("utf-8", "replace")


def assert_recorded(run, data, expected):
    """``data``'s SHA-256 is ``expected``; ``run`` names the command, its worker
    count or window, and the file."""
    actual = hashlib.sha256(data).hexdigest()
    assert actual == expected, f"{run}: digest {actual}, recorded {expected}"


def refine(detections, tmp_path, workers, *options, endpoint=None):
    """`refine` of ``detections`` at ``workers`` with its further ``options``,
    writing into ``tmp_path``: its exit code, stderr, and --out and --log files."""
    out, log = tmp_path / f"out-{workers}.jsonl", tmp_path / f"log-{workers}.jsonl"
    code, _, err = cli("refine", "--detections", detections, "--out", out, "--log", log,
                       "--workers", workers, *options, endpoint=endpoint)
    return code, err, out, log


def remote(tmp_path, **options):
    """The options of a `refine --llm remote` run with a config of ``options``."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(options))
    return "--llm", "remote", "--config", config


def assert_refine_files(run, out, log, recorded):
    for flag, path in (("--out", out), ("--log", log)):
        assert_recorded(f"{run} {flag} {path.name}", path.read_bytes(), recorded[flag[2:]])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The benchmark's seed-7 inputs: 2000 scenes and their ground truth for
    `refine-batch`, 500 for `refine-remote`, and 20 scenes of 1200 proposals
    for `proposals`."""
    gen = perfbench_module("gen")
    tmp = tmp_path_factory.mktemp("seed7")
    names = ("scenes", "gt", "remote", "remote-gt", "proposals")
    paths = {name: tmp / f"{name}.jsonl" for name in names}
    gen.write_scenes(7, 2000, paths["scenes"], paths["gt"])
    gen.write_scenes(7, 500, paths["remote"], paths["remote-gt"])
    gen.write_proposals(7, 20, 1200, paths["proposals"])
    return paths


@pytest.fixture(scope="module")
def refined(inputs, tmp_path_factory):
    """The --out and --log files of the static `refine` at a worker count,
    each run once."""
    tmp, runs = tmp_path_factory.mktemp("refined"), {}

    def files(workers):
        if workers not in runs:
            code, err, out, log = refine(inputs["scenes"], tmp, workers)
            assert code == 0, f"refine --workers {workers}: {err}"
            runs[workers] = out, log
        return runs[workers]

    return files


@pytest.fixture(scope="module")
def stub():
    """`perfbench/llm_stub.py`'s handler with 20 ms replies, on a loopback
    server in a thread of this process: its endpoint URL and request counters."""
    llm_stub = perfbench_module("llm_stub")
    counters = llm_stub.Counters()
    server = ThreadingHTTPServer(
        ("127.0.0.1", 0),
        llm_stub.make_handler(llm_stub.Oracle(default_knowledge_base()), counters, 0.02),
    )
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/generate", counters
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


@pytest.mark.parametrize("workers", WORKER_COUNTS, ids=lambda w: f"workers-{w}")
def test_baol_stdout_is_recorded(inputs, workers):
    code, out, err = cli("baol", "--proposals", inputs["proposals"], "--lambda-baol", "1.0",
                         "--workers", workers)
    assert code == 0, err
    assert_recorded(f"baol --workers {workers} stdout", out, DIGESTS["proposals"]["stdout"])


@pytest.mark.parametrize("workers", WORKER_COUNTS, ids=lambda w: f"workers-{w}")
def test_refine_files_are_recorded(refined, workers):
    # --workers 1 refines its chunks in the main process, 2 and 3 on worker processes
    out, log = refined(workers)
    assert_refine_files(f"refine --workers {workers}", out, log, DIGESTS["refine-batch"])


@pytest.mark.parametrize("detections", sorted(EVAL_DIGESTS))
def test_eval_report_is_recorded(inputs, refined, detections):
    path = refined(1)[0] if detections == "refined" else inputs["scenes"]
    code, out, err = cli("eval", "--detections", path, "--gt", inputs["gt"])
    assert code == 0, err
    assert_recorded(f"eval --detections {path.name} stdout", out, EVAL_DIGESTS[detections])


@pytest.mark.parametrize(
    "window, workers", REMOTE_RUNS, ids=[f"window-{w}-workers-{n}" for w, n in REMOTE_RUNS]
)
def test_remote_refine_files_are_recorded_and_each_prompt_sent_once(
    inputs, stub, tmp_path, window, workers
):
    endpoint, counters = stub
    options = remote(tmp_path, **({} if window == 4 else {"llm_max_in_flight": window}))
    counters.reset()
    code, err, out, log = refine(inputs["remote"], tmp_path, workers, *options, endpoint=endpoint)
    run = f"refine --llm remote window {window} --workers {workers}"
    # no request failed, so the run warns of none
    assert (code, err) == (0, ""), f"{run}: {err}"
    assert_refine_files(run, out, log, DIGESTS["refine-remote"])
    stats = counters.snapshot()
    assert stats["requests"] == stats["distinct_prompts"] == REQUESTS, (
        f"{run}: {stats['requests']} requests of {stats['distinct_prompts']} distinct prompts, "
        f"recorded {REQUESTS}"
    )


@pytest.mark.parametrize("workers", WORKER_COUNTS, ids=lambda w: f"workers-{w}")
def test_remote_refine_with_every_request_failing_falls_back_to_the_recorded_files(
    inputs, tmp_path, workers
):
    # a loopback port that was bound and closed again: each connection is refused
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        endpoint = f"http://127.0.0.1:{probe.getsockname()[1]}/generate"
    options = remote(tmp_path, llm_max_in_flight=2, llm_retries=0)
    code, err, out, log = refine(inputs["remote"], tmp_path, workers, *options, endpoint=endpoint)
    run = f"refine --llm remote, every request failing, --workers {workers}"
    # each distinct prompt is sent once and fails; every query falls back to the
    # knowledge base the stub answers from, and every debate to the offline rule
    assert (code, err) == (0, ALL_FAILED), f"{run}: {err}"
    assert_refine_files(run, out, log, DIGESTS["refine-remote"])
