"""The benchmark's tracer still finds the functions it wraps.

`perfbench/tracecli.py` replaces pipeline functions by attribute, so a
renamed or removed one fails it only when the benchmark runs; this runs it
on `refine` of the case-study scenes instead: with `--llm remote`, which
refines through `refine_scenes`, and static at `--workers 1`, which refines
its chunks in the main process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import case_study_scenes
from ovrefine.pipeline import save_scenes

ROOT = Path(__file__).resolve().parent.parent


def traced_spans(tmp_path, *options):
    """The names of the spans that a traced `refine --workers 1` of the
    case-study scenes records, given its further ``options``."""
    detections, trace = tmp_path / "detections.jsonl", tmp_path / "trace.jsonl"
    save_scenes(case_study_scenes(), detections)
    env = dict(os.environ)
    env.pop("GLRD_LLM_ENDPOINT", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracecli.py"), str(trace), "refine",
         "--detections", str(detections), "--out", str(tmp_path / "out.jsonl"), "--workers", "1",
         *options],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    [record] = [json.loads(line) for line in trace.read_text().splitlines()]
    return {span[2] for span in record["spans"]}


def test_traced_refine_records_scene_and_debate_spans(tmp_path):
    # with no endpoint set, every query falls back to the knowledge base
    names = traced_spans(tmp_path, "--llm", "remote")
    assert {"pipeline.refine_scenes", "pipeline.debate"} <= names


def test_traced_static_refine_records_constraint_and_debate_spans(tmp_path):
    names = traced_spans(tmp_path)
    assert {"commonsense.constraint_vector", "pipeline.debate"} <= names
