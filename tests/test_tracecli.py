"""The benchmark's tracer still finds the functions it wraps.

`perfbench/tracecli.py` replaces pipeline functions by attribute, so a
renamed or removed one fails it only when the benchmark runs; this runs it
on a static `refine` of the case-study scenes instead.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import case_study_scenes
from ovrefine.pipeline import save_scenes

ROOT = Path(__file__).resolve().parent.parent


def test_traced_refine_records_scene_and_debate_spans(tmp_path):
    detections, trace = tmp_path / "detections.jsonl", tmp_path / "trace.jsonl"
    save_scenes(case_study_scenes(), detections)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracecli.py"), str(trace), "refine",
         "--detections", str(detections), "--out", str(tmp_path / "out.jsonl"), "--workers", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    [record] = [json.loads(line) for line in trace.read_text().splitlines()]
    names = {span[2] for span in record["spans"]}
    assert {"pipeline.refine_scenes", "pipeline.debate"} <= names
