import concurrent.futures
import inspect
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import typing
from pathlib import Path

import pytest

from conftest import READ_ERROR, case_study_scenes, fail_reading_after, shipped_kb_data
from ovrefine.cli import RunConfig, _build_parser, main
from ovrefine.pipeline import (
    Detection,
    SceneRecord,
    generate_synthetic_scenes,
    load_scenes,
    save_scenes,
)
from ovrefine.commonsense import SceneContext, default_knowledge_base
from ovrefine.geometry import Box7DoF
from ovrefine.jsonl import read_lines


def write_short_box_scene(tmp_path):
    """A scene whose second detection has a 5-number box."""
    scene = {
        "scene_id": "s0",
        "scene_type": "living room",
        "detections": [
            {"box": [0, 0, 0.5, 1, 1, 1, 0], "label": "sofa", "score": 0.9},
            {"box": [0, 0, 0.5, 1, 1], "label": "toilet", "score": 0.9},
        ],
    }
    path = tmp_path / "short.jsonl"
    path.write_text(json.dumps(scene) + "\n")
    return path


def assert_short_box_error(code, capsys, where):
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert where in err and "box must be 7 numbers" in err
    assert "Traceback" not in err


def write_lines(path, *lines):
    """Write each line, text or raw bytes, ended by a newline."""
    Path(path).write_bytes(
        b"".join((line if isinstance(line, bytes) else line.encode()) + b"\n" for line in lines)
    )


def chair_line(fields):
    """A detections line with one library chair, given its score fields."""
    return (
        '{"scene_id": "s1", "scene_type": "library", "detections": [{"box": '
        '[0, 0, 0.5, 1, 1, 1, 0], "label": "chair", ' + fields + "}]}"
    )


# second lines of a scenes file, after the living-room case study, that
# `refine` and `eval` reject; each with the message that names its fault
SCENE_FILE_ROWS = {
    # eval would pool the boxes of two scenes of one id
    "repeated-id": ('{"scene_id": "living-room-case", "scene_type": "office", "detections": []}',
                    'scene_id "living-room-case" already appears on line 1'),
    "detections-empty-object": ('{"scene_id": "s1", "scene_type": "office", "detections": {}}',
                                'scene "s1": detections must be a JSON array, got {}'),
    "detections-object": ('{"scene_id": "s1", "scene_type": "office", "detections": {"x": 1}}',
                          'scene "s1": detections must be a JSON array, got {"x": 1}'),
    "detection-int": ('{"scene_id": "s1", "scene_type": "office", "detections": [5]}',
                      'scene "s1" detection 0 must be a JSON object, got 5'),
    # each would have been refined under its str(): "None", "['a']" and "1"
    "scene-id-null": ('{"scene_id": null, "scene_type": "office", "detections": []}',
                      "scene_id must be a string, got null"),
    "scene-id-list": ('{"scene_id": ["a"], "scene_type": "office", "detections": []}',
                      'scene_id must be a string, got ["a"]'),
    "scene-id-int": ('{"scene_id": 1, "scene_type": "office", "detections": []}',
                     "scene_id must be a string, got 1"),
    # the id is checked before a detection's error names the scene by it
    "scene-id-null-bad-detection": (
        '{"scene_id": null, "scene_type": "office", "detections": [{"box": [0]}]}',
        "scene_id must be a string, got null",
    ),
    "scene-id-missing-bad-detection": (
        '{"scene_type": "office", "detections": [{"box": [0]}]}', 'missing field "scene_id"'
    ),
    "scene-id-1000-items": (
        json.dumps({"scene_id": list(range(1000)), "scene_type": "office", "detections": {}}),
        "scene_id must be a string, got [0, 1, 2, 3, 4, 5, 6, 7, ... (1000 items)]",
    ),
    "scene-id-1000-characters": (
        json.dumps({"scene_id": "a" * 1000, "scene_type": "office",
                    "detections": [{"box": [0, 0, 0.5, 1, 1, 1], "label": "chair"}]}),
        'scene "aaaaaaaaaaaaaaaaaaa... (1002 characters) detection 0: box must be 7 numbers, '
        "got [0, 0, 0.5, 1, 1, 1]",
    ),
    # written in Latin-1, where UTF-8 reads é as the start of a longer character
    "not-utf-8": (b'{"scene_id": "s1", "scene_type": "caf\xe9", "detections": []}',
                  "'utf-8' codec can't decode byte 0xe9 in position 37: invalid continuation byte"),
}

# a book whose only class score names a class the KB has no size for
ZEBRA_SCENE = {
    "scene_id": "z",
    "scene_type": "library",
    "detections": [
        {"box": [0, 0, 0.5, 1.6, 1.0, 1.0, 0], "label": "book", "score": 0.95,
         "class_scores": {"zebra": 0.99}},
    ],
}


def same_file(path, form):
    """Another name for ``path``, from the directory that holds it: the path
    itself, a relative path through a subdirectory, or a symlink."""
    if form == "same":
        return str(path)
    if form == "relative":
        (path.parent / "sub").mkdir()
        return os.path.join("sub", os.pardir, path.name)
    link = path.parent / "link.jsonl"
    link.symlink_to(path)
    return str(link)


@pytest.fixture
def case_files(tmp_path):
    detections = tmp_path / "detections.jsonl"
    save_scenes(case_study_scenes(), detections)
    return {
        "detections": str(detections),
        "out": str(tmp_path / "refined.jsonl"),
        "log": str(tmp_path / "log.jsonl"),
    }


class TestRefine:
    def test_case_study_summary(self, case_files, capsys):
        code = main(
            [
                "refine",
                "--detections", case_files["detections"],
                "--out", case_files["out"],
                "--log", case_files["log"],
            ]
        )
        assert code == 0
        assert "kept 2, removed 1, reclassified 1" in capsys.readouterr().out
        refined = load_scenes(case_files["out"])
        labels = sorted(d.label for r in refined for d in r.detections)
        assert labels == ["chair", "chair", "coffee table", "sofa"]
        log_lines = [json.loads(l) for l in Path(case_files["log"]).read_text().splitlines()]
        assert [entry["scene_id"] for entry in log_lines] == ["living-room-case", "library-case"]
        book = log_lines[1]["objects"][0]
        assert book["decision"] == "reclassify"
        assert book["final_label"] == "coffee table"
        assert book["transcript"]

    @pytest.mark.parametrize("weight", [1e-13, 1e300])
    def test_config_weight_scale_keeps_the_decisions(self, case_files, tmp_path, capsys, weight):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha1": weight, "alpha2": weight, "alpha3": weight}))
        code = main(["refine", "--detections", case_files["detections"],
                     "--out", case_files["out"], "--config", str(config)])
        assert code == 0
        assert "kept 2, removed 1, reclassified 1" in capsys.readouterr().out

    def test_config_weights_that_overflow_are_input_error(self, case_files, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha1": 1e308, "alpha2": 1e308, "alpha3": 1e308}))
        code = main(["refine", "--detections", case_files["detections"],
                     "--out", case_files["out"], "--config", str(config)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"input error: {config}: alpha1 + alpha2 + alpha3 must be at most 2.247e+307, "
            "got 1e+308 + 1e+308 + 1e+308\n"
        )

    def test_empty_detections(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main(["refine", "--detections", str(empty), "--out", str(tmp_path / "o.jsonl")])
        assert code == 0
        assert "kept 0, removed 0, reclassified 0" in capsys.readouterr().out

    def test_nan_box_is_input_error(self, tmp_path, capsys):
        # a NaN extent used to pass as a perfect size fit
        path = tmp_path / "nan.jsonl"
        path.write_text(
            '{"scene_id": "s0", "scene_type": "living room", "detections": '
            '[{"box": [0, 0, 0.5, NaN, 1, 1, 0], "label": "toilet", "score": 0.9}]}\n'
        )
        code = main(["refine", "--detections", str(path), "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert 'scene "s0" detection 0' in err and "finite" in err

    def test_wrong_arity_box_is_input_error(self, tmp_path, capsys):
        path = write_short_box_scene(tmp_path)
        code = main(["refine", "--detections", str(path), "--out", str(tmp_path / "o.jsonl")])
        assert_short_box_error(code, capsys, 'scene "s0" detection 1')

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
    def test_non_finite_size_prior_is_input_error(self, case_files, tmp_path, capsys, bad):
        # a NaN length used to score every chair a perfect length fit
        kb = shipped_kb_data()
        kb["sizes"]["chair"][0] = bad
        kb_path = tmp_path / "kb.json"
        kb_path.write_text(json.dumps(kb))
        code = main(
            ["refine", "--detections", case_files["detections"], "--kb", str(kb_path),
             "--out", case_files["out"]]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {kb_path}:")
        assert "finite" in err

    def test_string_size_prior_is_input_error(self, case_files, tmp_path, capsys):
        # float would take "0.5" as 0.5
        kb = shipped_kb_data()
        kb["sizes"]["chair"][0] = "0.5"
        kb_path = tmp_path / "kb.json"
        kb_path.write_text(json.dumps(kb))
        code = main(
            ["refine", "--detections", case_files["detections"], "--kb", str(kb_path),
             "--out", case_files["out"]]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f'input error: {kb_path}: sizes["chair"] must be a number, got "0.5"\n'
        )

    def test_workers_below_one_is_input_error(self, case_files, capsys):
        # a pool of no workers cannot run; it must not quietly mean one
        code = main(
            ["refine", "--detections", case_files["detections"], "--out", case_files["out"],
             "--workers", "0"]
        )
        assert code == 1
        assert capsys.readouterr().err == "input error: workers must be at least 1, got 0\n"

    @pytest.mark.parametrize("kb", [[], {"sizes": []}, {"compat": {"library": "chair"}}])
    def test_kb_of_the_wrong_shape_is_input_error(self, case_files, tmp_path, capsys, kb):
        kb_path = tmp_path / "kb.json"
        kb_path.write_text(json.dumps(kb))
        code = main(
            ["refine", "--detections", case_files["detections"], "--kb", str(kb_path),
             "--out", case_files["out"]]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {kb_path}: ") and "must be a JSON" in err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("{not json", "Expecting property name"),
            ("[1, 2]", "expected a JSON object, got [1, 2]"),
            ('{"scene_id": "s1", "detections": []}', 'missing field "scene_type"'),
            (chair_line('"score": 2'), "score must be in [0, 1]"),
            # JSON NaN and Infinity parse as floats, and no comparison admits NaN
            (chair_line('"score": NaN'), "score must be in [0, 1], got NaN"),
            (chair_line('"score": Infinity'), "score must be in [0, 1], got Infinity"),
            (chair_line('"score": -Infinity'), "score must be in [0, 1], got -Infinity"),
            *[
                (
                    chair_line(f'"score": 0.9, "class_scores": {{"chair": {bad}}}'),
                    f'class_scores["chair"] must be in [0, 1], got {bad}',
                )
                for bad in ("NaN", "Infinity", "-Infinity")
            ],
            # a list label or scene type would fail later as an unhashable dict key
            (chair_line('"score": 0.9').replace('"chair"', '["chair"]'),
             'label must be a string, got ["chair"]'),
            ('{"scene_id": "s1", "scene_type": ["office"], "detections": []}',
             'scene_type must be a string, got ["office"]'),
            ('{"scene_id": "s1", "scene_type": "office", "description": 3, "detections": []}',
             "description must be a string, got 3"),
            # Python counts JSON true and false as the numbers 1 and 0
            (chair_line('"score": true'), "score must be a number, got true"),
            (chair_line('"score": 0.9, "class_scores": {"chair": true}'),
             'class_scores["chair"] must be a number, got true'),
            (chair_line('"score": 0.9').replace("1, 1, 1, 0]", "true, true, true, false]"),
             "box must be 7 numbers, got [0, 0, 0.5, true, true, true, false]"),
            # float takes a numeric string as its number
            (chair_line('"score": "0.9"'), 'score must be a number, got "0.9"'),
            (chair_line('"score": 0.9, "class_scores": {"chair": "0.5"}'),
             'class_scores["chair"] must be a number, got "0.5"'),
            (chair_line('"score": 0.9, "class_scores": {"chair": null}'),
             'class_scores["chair"] must be a number, got null'),
            (chair_line('"score": 0.9, "class_scores": [0.5]'),
             "class_scores must be an object of class scores, got [0.5]"),
            *SCENE_FILE_ROWS.values(),
        ],
        ids=[
            "json", "array", "field", "value", "score-NaN", "score-Infinity", "score--Infinity",
            "class-score-NaN", "class-score-Infinity", "class-score--Infinity",
            "label-list", "scene-type-list", "description-int",
            "score-true", "class-score-true", "box-booleans", "score-string",
            "class-score-string", "class-score-null", "class-scores-list",
            *SCENE_FILE_ROWS,
        ],
    )
    def test_bad_detections_line_names_file_and_line(self, case_files, capsys, line, message):
        path = case_files["detections"]
        first = Path(path).read_text().splitlines()[0]
        write_lines(path, first, line)
        code = main(["refine", "--detections", path, "--out", case_files["out"]])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {path}:2: ") and message in err
        assert err.count("\n") == 1 and not Path(case_files["out"]).exists()

    def test_missing_kb_entry_names_class(self, tmp_path, capsys):
        kb = shipped_kb_data()
        kb["novel_classes"].append("gryphon")
        kb["sizes"]["gryphon"] = [1.0, 1.0, 1.0]
        kb_path = tmp_path / "kb.json"
        kb_path.write_text(json.dumps(kb))
        # a novel detection whose class has no size entry in a pruned KB
        del kb["sizes"]["gryphon"]
        kb["novel_classes"] = ["toilet"]
        kb2 = tmp_path / "kb2.json"
        kb2.write_text(json.dumps(kb))

        scenes = tmp_path / "scenes.jsonl"
        scenes.write_text(
            json.dumps(
                {
                    "scene_id": "s",
                    "scene_type": "living room",
                    "detections": [
                        {"box": [0, 0, 0.4, 0.7, 0.4, 0.75], "label": "toilet", "score": 0.9}
                    ],
                }
            )
            + "\n"
        )
        pruned = json.loads(kb2.read_text())
        del pruned["sizes"]["toilet"]
        kb3 = tmp_path / "kb3.json"
        kb3.write_text(json.dumps(pruned))
        code = main(
            ["refine", "--detections", str(scenes), "--kb", str(kb3), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "toilet" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(
            ["refine", "--detections", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")]
        )
        assert code == 1

    @pytest.mark.parametrize("form", ["same", "relative", "symlink"])
    def test_log_naming_the_out_file_is_input_error(self, tmp_path, monkeypatch, capsys, form):
        out = tmp_path / "refined.jsonl"
        out.write_text("earlier\n")
        monkeypatch.chdir(tmp_path)
        log = same_file(out, form)
        # a detections file that does not exist: the check comes before any line is read
        code = main(["refine", "--detections", "missing.jsonl", "--out", str(out), "--log", log])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"input error: --out {out} and --log {log} name the same file\n"
        )
        assert out.read_text() == "earlier\n"

    def test_remote_mode_degrades_to_kb_when_endpoint_dead(
        self, case_files, tmp_path, monkeypatch, capsys
    ):
        # every remote query falls back to the static provider, so an
        # unreachable endpoint still yields the offline result
        monkeypatch.delenv("GLRD_LLM_ENDPOINT", raising=False)
        # a debate candidate without a KB size gets size fit 0, as offline
        zebra = tmp_path / "zebra.jsonl"
        zebra.write_text(json.dumps(ZEBRA_SCENE) + "\n")
        for detections, summary in (
            (case_files["detections"], "kept 2, removed 1, reclassified 1\n"),
            (str(zebra), "kept 0, removed 0, reclassified 1\n"),
        ):
            runs = []
            for mode in ("remote", "off"):
                out, log = tmp_path / f"{mode}.jsonl", tmp_path / f"{mode}.log.jsonl"
                argv = ["refine", "--detections", detections, "--out", str(out), "--log", str(log)]
                code = main(argv + ["--llm", mode])
                runs.append((code, capsys.readouterr(), out.read_bytes(), log.read_bytes()))
            (remote_code, remote, *remote_files), (offline_code, offline, *offline_files) = runs
            assert remote_code == offline_code == 0
            # no request was sent, and the run says so
            assert remote.err == (
                "warning: GLRD_LLM_ENDPOINT is not set, so no request is sent: every query "
                "falls back to the knowledge base and every debate to the offline rule\n"
            )
            assert offline == (remote.out, "")
            assert remote.out == summary
            assert remote_files == offline_files
        assert [d.label for d in load_scenes(tmp_path / "remote.jsonl")[0].detections] == ["zebra"]

    def test_remote_run_whose_requests_all_fail_warns_with_the_counts(
        self, case_files, tmp_path, monkeypatch, capsys
    ):
        from ovrefine import commonsense

        sent = []

        def refused(url, key, payload, timeout):
            sent.append(payload["prompt"])
            raise OSError("connection refused")

        # the run's LlmClient takes its transport from the module when it is built
        monkeypatch.setattr(commonsense, "_http_post", refused)
        monkeypatch.setenv("GLRD_LLM_ENDPOINT", "http://llm.test")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"llm_retries": 0}))
        runs = []
        for mode in ("remote", "off"):
            out, log = tmp_path / f"{mode}.jsonl", tmp_path / f"{mode}.log.jsonl"
            code = main(["refine", "--detections", case_files["detections"], "--out", str(out),
                         "--log", str(log), "--llm", mode, "--config", str(config)])
            runs.append((code, capsys.readouterr(), out.read_bytes(), log.read_bytes()))
        (remote_code, remote, *remote_files), (offline_code, offline, *offline_files) = runs
        assert remote_code == offline_code == 0
        # each query was sent once, failed, and fell back; the run says how many
        assert sent and len(sent) == len(set(sent))
        assert remote.err == (
            f"warning: {len(sent)} of {len(sent)} LLM requests failed after every retry: their "
            "queries fell back to the knowledge base and their debates to the offline rule\n"
        )
        assert offline == (remote.out, "")
        assert remote_files == offline_files

    def test_worker_count_determinism(self, tmp_path):
        kb = default_knowledge_base()
        _, detections = generate_synthetic_scenes(kb, seed=7, n_scenes=20)
        det_path = tmp_path / "det.jsonl"
        save_scenes(detections, det_path)
        outputs = []
        for workers in ("1", "4"):
            out = tmp_path / f"out{workers}.jsonl"
            log = tmp_path / f"log{workers}.jsonl"
            code = main(
                [
                    "refine",
                    "--detections", str(det_path),
                    "--out", str(out),
                    "--log", str(log),
                    "--workers", workers,
                ]
            )
            assert code == 0
            outputs.append((out.read_bytes(), log.read_bytes()))
        assert outputs[0] == outputs[1]


class TestSolvePsl:
    def test_keep(self, capsys):
        assert main(["solve-psl", "1", "1", "1", "--policy", "max-keep-min-recls"]) == 0
        out = capsys.readouterr().out
        assert "decision=keep" in out
        assert "y_keep=1.000000" in out
        assert "y_recls=0.000000" in out

    def test_remove(self, capsys):
        assert main(["solve-psl", "0", "1", "1"]) == 0
        assert "decision=remove" in capsys.readouterr().out

    def test_reclassify_case_study(self, capsys):
        assert main(["solve-psl", "0.9", "0.5419", "1", "--policy", "max-keep-min-recls"]) == 0
        out = capsys.readouterr().out
        assert "decision=reclassify" in out
        assert "y_keep=0.900000" in out
        assert "y_recls=0.258100" in out

    def test_out_of_range_rejected(self, capsys):
        assert main(["solve-psl", "1.5", "0", "0"]) == 1

    @pytest.mark.parametrize(
        "value, shown", [("nan", "NaN"), ("inf", "Infinity")], ids=["nan", "inf"]
    )
    def test_non_finite_constraint_named_as_json_writes_it(self, capsys, value, shown):
        assert main(["solve-psl", "0.9", value, "1"]) == 1
        assert capsys.readouterr().err == f"input error: constraint size={shown} outside [0, 1]\n"

    def test_weights_flag(self, capsys):
        # zeroing the third rule's weight frees y_keep from the confidence cap
        assert main(["solve-psl", "0.5", "1", "1", "--weights", "1", "1", "0",
                     "--policy", "max-keep-min-recls"]) == 0
        assert "y_keep=1.000000" in capsys.readouterr().out

    def test_infinite_weight_flag_names_key(self, capsys):
        assert main(["solve-psl", "0.9", "0.5", "1", "--weights", "inf", "1", "1"]) == 1
        assert capsys.readouterr().err == (
            "input error: alpha1 must be a finite number, got Infinity\n"
        )


    @pytest.mark.parametrize("weight", ["1", "1e-13", "1e300"])
    def test_weight_scale_does_not_change_the_decision(self, weight, capsys):
        assert main(["solve-psl", "0.005", "1", "1", "--weights", weight, weight, weight]) == 0
        out = capsys.readouterr().out
        assert "y_keep=0.005000" in out
        assert "decision=remove" in out

    def test_weights_that_overflow_are_input_error(self, capsys):
        assert main(["solve-psl", "0.005", "1", "1", "--weights", "1e308", "1e308", "1e308"]) == 1
        assert capsys.readouterr() == ("", (
            "input error: alpha1 + alpha2 + alpha3 must be at most 2.247e+307, "
            "got 1e+308 + 1e+308 + 1e+308\n"
        ))


class TestBalance:
    def test_threshold_circulation(self, tmp_path, capsys):
        lines = []
        for cls, count, confidence in (("chair", 40, 0.9), ("lamp", 4, 0.9)):
            labels = [
                {"bbox": [0, 0, 5, 5], "label": cls, "confidence": confidence,
                 "sim_pos": 2.0, "sim_neg": 0.0}
                for _ in range(count)
            ]
            lines.append(json.dumps({"image_id": cls, "labels": labels}))
        path = tmp_path / "labels.jsonl"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "trace.json"
        code = main(["balance", "--labels", str(path), "--out", str(out)])
        assert code == 0
        trace = json.loads(out.read_text())
        # the over-represented class is pushed to the upper clamp
        assert trace["phi_by_class"]["chair"] == pytest.approx(0.9)

    def test_bad_line_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "labels.jsonl"
        path.write_text(
            json.dumps({"image_id": "i", "labels": []}) + "\n\n"
            + json.dumps({"labels": [{"bbox": [0, 0, 5, 5], "label": "chair"}]}) + "\n"
        )
        assert main(["balance", "--labels", str(path)]) == 1
        assert capsys.readouterr().err == (
            f'input error: {path}:3: missing field "confidence"\n'
        )

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"label": ["chair"]}, 'label must be a string, got ["chair"]'),
            ({"bbox": "abcd"}, 'bbox must be 4 finite numbers, got "abcd"'),
            ({"bbox": [0, 0, 5]}, "bbox must be 4 finite numbers, got [0, 0, 5]"),
            ({"bbox": [0, 0, 5, math.nan]}, "bbox must be 4 finite numbers, got [0, 0, 5, NaN]"),
            # reflect_filter would drop the label without a word
            ({"sim_pos": math.nan}, "sim_pos must be finite, got NaN"),
            ({"sim_neg": math.inf}, "sim_neg must be finite, got Infinity"),
            # Python counts JSON true and false as the numbers 1 and 0
            ({"bbox": [0, 0, True, True]}, "bbox must be 4 finite numbers, got [0, 0, true, true]"),
            ({"confidence": True}, "confidence must be a number, got true"),
            ({"sim_pos": False}, "sim_pos must be a number, got false"),
            ({"sim_neg": True}, "sim_neg must be a number, got true"),
            # float takes a numeric string as its number
            ({"confidence": "0.9"}, 'confidence must be a number, got "0.9"'),
            ({"sim_pos": "2.0"}, 'sim_pos must be a number, got "2.0"'),
            ({"sim_neg": "0"}, 'sim_neg must be a number, got "0"'),
        ],
        ids=[
            "label-list", "bbox-string", "bbox-short", "bbox-nan", "sim_pos-nan", "sim_neg-inf",
            "bbox-booleans", "confidence-true", "sim_pos-false", "sim_neg-true",
            "confidence-string", "sim_pos-string", "sim_neg-string",
        ],
    )
    def test_bad_label_names_file_and_line(self, tmp_path, capsys, fields, message):
        good = {"bbox": [0, 0, 5, 5], "label": "lamp", "confidence": 0.9,
                "sim_pos": 2.0, "sim_neg": 0.0}
        path = tmp_path / "labels.jsonl"
        path.write_text(
            json.dumps({"labels": [good]}) + "\n" + json.dumps({"labels": [{**good, **fields}]}) + "\n"
        )
        assert main(["balance", "--labels", str(path)]) == 1
        assert capsys.readouterr().err == f"input error: {path}:2: {message}\n"

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"labels": 5}, "labels must be a JSON array, got 5"),
            ({"labels": {"a": 1}}, 'labels must be a JSON array, got {"a": 1}'),
            ({"labels": ["x"]}, 'labels[0] must be a JSON object, got "x"'),
        ],
        ids=["int", "object", "entry-string"],
    )
    def test_labels_not_an_array_of_objects_names_the_field(
        self, tmp_path, capsys, record, message
    ):
        path = tmp_path / "labels.jsonl"
        path.write_text(json.dumps(record) + "\n")
        out = tmp_path / "out.json"
        assert main(["balance", "--labels", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"input error: {path}:1: {message}\n")
        assert not out.exists()

    def test_max_iters_below_one_is_input_error(self, tmp_path, capsys):
        # balance has no flag for it, so the config file sets it
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sbc_max_iters": 0}))
        path = tmp_path / "labels.jsonl"
        path.write_text(json.dumps({"image_id": "i", "labels": []}) + "\n")
        assert main(["balance", "--labels", str(path), "--config", str(config)]) == 1
        assert capsys.readouterr() == (
            "", f"input error: {config}: sbc_max_iters must be at least 1, got 0\n"
        )

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"phi_clip": 2.0}, "phi_clip must be in [0, 1], got 2.0"),
            ({"sbc_delta_phi": 0.0}, "sbc_delta_phi must be a finite number above 0, got 0.0"),
            (
                {"sbc_phi_lo": 0.95},
                "sbc_phi_init must be in [sbc_phi_lo, sbc_phi_hi] = [0.95, 0.9], got 0.5",
            ),
        ],
        ids=["phi_clip", "delta_phi", "phi_lo-above-phi_hi"],
    )
    def test_bad_option_is_reported_before_the_file_is_read(
        self, tmp_path, capsys, options, message
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(options))
        missing = tmp_path / "missing.jsonl"
        assert main(["balance", "--labels", str(missing), "--config", str(config)]) == 1
        assert capsys.readouterr() == ("", f"input error: {config}: {message}\n")

    def test_missing_kb_is_reported_before_the_file_is_read(self, tmp_path, capsys):
        missing, kb = tmp_path / "missing.jsonl", tmp_path / "kb.json"
        assert main(["balance", "--labels", str(missing), "--kb", str(kb)]) == 1
        assert capsys.readouterr() == ("", f"input error: {kb}: No such file or directory\n")

    def test_no_novel_labels(self, tmp_path, capsys):
        path, out = tmp_path / "labels.jsonl", tmp_path / "out.json"
        path.write_text(json.dumps({"image_id": "i", "labels": []}) + "\n")
        assert main(["balance", "--labels", str(path), "--out", str(out)]) == 1
        message = f"{path}: no novel-class labels in the pseudo-label file"
        assert capsys.readouterr() == ("", f"input error: {message}\n")
        assert not out.exists()


class TestDbcSim:
    def test_three_class_fixture(self, tmp_path, capsys):
        path = tmp_path / "losses.jsonl"
        path.write_text(json.dumps({"A": 5.0, "B": 1.0, "C": 3.0}) + "\n")
        code = main(["dbc-sim", "--losses", str(path), "--interval", "1", "--top-k", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "final: A=1.05 B=0.95 C=1.00" in out

    @pytest.mark.parametrize(
        "line, message",
        [
            ("{", "Expecting property name"),
            ('{"A": "high"}', 'loss for "A" must be a number, got "high"'),
            # a NaN loss would rank first and have its weight raised
            ('{"A": NaN}', 'loss for "A" must be a finite number at least 0, got NaN'),
            ('{"A": "nan"}', 'loss for "A" must be a number, got "nan"'),
            ('{"A": Infinity}', 'loss for "A" must be a finite number at least 0, got Infinity'),
            ('{"A": -1.5}', 'loss for "A" must be a finite number at least 0, got -1.5'),
            ('{"A": true}', 'loss for "A" must be a number, got true'),
            # float takes a numeric string as its number
            ('{"A": "1.5"}', 'loss for "A" must be a number, got "1.5"'),
        ],
        ids=["json", "value", "NaN", "nan-string", "Infinity", "negative", "true", "string"],
    )
    def test_bad_line_names_file_and_line(self, tmp_path, capsys, line, message):
        path = tmp_path / "losses.jsonl"
        path.write_text(json.dumps({"A": 5.0}) + "\n" + line + "\n")
        assert main(["dbc-sim", "--losses", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {path}:2: ") and message in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--top-k", "-1", "dbc_k must be at least 0, got -1"),
            ("--interval", "0", "dbc_interval must be at least 1, got 0"),
        ],
    )
    def test_out_of_range_flag_is_input_error(self, tmp_path, capsys, flag, value, message):
        path = tmp_path / "losses.jsonl"
        path.write_text(json.dumps({"A": 5.0, "B": 1.0, "C": 3.0}) + "\n")
        assert main(["dbc-sim", "--losses", str(path), flag, value]) == 1
        assert capsys.readouterr() == ("", f"input error: {message}\n")

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"dbc_w_lo": 2.0}, "dbc_w_lo must be at most 1, got 2.0"),
            ({"dbc_delta_w": 0.0}, "dbc_delta_w must be a finite number above 0, got 0.0"),
        ],
        ids=["w_lo-above-w_hi", "delta_w"],
    )
    def test_bad_option_is_reported_before_the_file_is_read(
        self, tmp_path, capsys, options, message
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(options))
        missing = tmp_path / "missing.jsonl"
        assert main(["dbc-sim", "--losses", str(missing), "--config", str(config)]) == 1
        assert capsys.readouterr() == ("", f"input error: {config}: {message}\n")

    @pytest.mark.parametrize(
        "text, message",
        # an empty file names no class either
        [("", "no class in the loss stream"), ("{}\n{}\n", "no class in the loss stream")],
        ids=["empty", "no-class"],
    )
    def test_stream_without_a_class_names_the_file(self, tmp_path, capsys, text, message):
        path, out = tmp_path / "losses.jsonl", tmp_path / "trace.jsonl"
        path.write_text(text)
        assert main(["dbc-sim", "--losses", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"input error: {path}: {message}\n")
        assert not out.exists()

    def test_trace_file(self, tmp_path):
        path = tmp_path / "losses.jsonl"
        records = [{"A": 5.0, "B": 1.0, "C": 3.0}] * 4
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        out = tmp_path / "trace.jsonl"
        code = main(
            ["dbc-sim", "--losses", str(path), "--interval", "2", "--top-k", "1", "--out", str(out)]
        )
        assert code == 0
        trace = [json.loads(l) for l in out.read_text().splitlines()]
        assert [t["iteration"] for t in trace] == [2, 4]
        assert trace[1]["weights"]["A"] == pytest.approx(1.10)


class TestBaol:
    def test_report(self, tmp_path, capsys):
        scene = {
            "boxes": [[0, 0, 0, 1, 1, 1, 0], [0.01, 0, 0, 1, 1, 1, 0], [5, 5, 0, 1, 1, 1, 0]],
            "class_scores": [[0.9, 0.1], [0.8, 0.2], [0.3, 0.4]],
            "fg_scores": [0.9, 0.85, 0.2],
            "labels": [[0, 0, 0, 1, 1, 1, 0]],
        }
        path = tmp_path / "proposals.jsonl"
        path.write_text(json.dumps(scene) + "\n")
        code = main(["baol", "--proposals", str(path), "--lambda-baol", "1.0"])
        assert code == 0
        assert "foreground" in capsys.readouterr().out

    def test_scene_without_proposals(self, tmp_path, capsys):
        empty = {"boxes": [], "class_scores": [], "fg_scores": []}
        one = {"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [[0.5]], "fg_scores": [0.9]}
        path = tmp_path / "proposals.jsonl"
        path.write_text(json.dumps(empty) + "\n" + json.dumps(one) + "\n")
        assert main(["baol", "--proposals", str(path), "--lambda-baol", "1.0"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "scene 0: kept 0/0 boxes, 0 foreground, loss 0.000000, 0 after soft-nms",
            "scene 1: kept 1/1 boxes, 0 foreground, loss 2.302585, 1 after soft-nms",
        ]

    def test_k_pro_below_one_is_input_error(self, tmp_path, capsys):
        # the bound is the option's own, not the first scene's [1, size]
        scene = {"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [[0.5]], "fg_scores": [0.9]}
        path = tmp_path / "proposals.jsonl"
        path.write_text(json.dumps(scene) + "\n")
        code = main(["baol", "--proposals", str(path), "--lambda-baol", "1.0", "--k-pro", "0"])
        assert code == 1
        assert capsys.readouterr() == ("", "input error: k_pro must be at least 1, got 0\n")

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"boxes": 5}, "boxes must be a JSON array, got 5"),
            # an object's keys would be read as its boxes
            ({"boxes": {"a": 1}}, 'boxes must be a JSON array, got {"a": 1}'),
            ({"labels": 7}, "labels must be a JSON array, got 7"),
        ],
        ids=["boxes-int", "boxes-object", "labels-int"],
    )
    def test_boxes_or_labels_not_an_array_names_the_field(self, tmp_path, capsys, fields, message):
        scene = {"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [[0.9]], "fg_scores": [0.9]}
        path = tmp_path / "proposals.jsonl"
        path.write_text(json.dumps({**scene, **fields}) + "\n")
        for workers in ("1", "2"):
            argv = ["baol", "--proposals", str(path), "--lambda-baol", "1.0", "--workers", workers]
            assert main(argv) == 1
            assert capsys.readouterr() == ("", f"input error: {path}:1: {message}\n")

    def test_wrong_arity_box_is_input_error(self, tmp_path, capsys):
        scene = {
            "boxes": [[0, 0, 0, 1, 1, 1, 0], [0, 0, 0, 1, 1]],
            "class_scores": [[0.9, 0.1], [0.8, 0.2]],
            "fg_scores": [0.9, 0.85],
        }
        path = tmp_path / "proposals.jsonl"
        path.write_text(json.dumps(scene) + "\n")
        code = main(["baol", "--proposals", str(path), "--lambda-baol", "1.0"])
        assert_short_box_error(code, capsys, "scene 0 proposal 1")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("{not json", "Expecting property name"),
            ('{"boxes": [], "fg_scores": []}', 'missing field "class_scores"'),
            # numpy takes JSON true and false as 1 and 0
            ('{"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [[true]], "fg_scores": [0.9]}',
             "class_scores must be a number, got true"),
            ('{"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [[0.9]], "fg_scores": [false]}',
             "fg_scores must be a number, got false"),
            # and a numeric string as its number, null as NaN
            ('{"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [["0.5"]], "fg_scores": [0.9]}',
             'class_scores must be a number, got "0.5"'),
            ('{"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [[0.9]], "fg_scores": ["0.2"]}',
             'fg_scores must be a number, got "0.2"'),
            ('{"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [[null]], "fg_scores": [0.9]}',
             "class_scores must be a number, got null"),
            # scores outside [0, 1], NaN among them, name the field and the value
            ('{"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [[1.5]], "fg_scores": [0.9]}',
             "class_scores must lie in [0, 1], got 1.5"),
            ('{"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [[0.9]], "fg_scores": [-2]}',
             "fg_scores must lie in [0, 1], got -2.0"),
            ('{"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [[0.9]], "fg_scores": [NaN]}',
             "fg_scores must lie in [0, 1], got NaN"),
            # the scaled score 0.15 is in range, so no later check would see it
            ('{"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [[0.1]], "fg_scores": [1.5]}',
             "fg_scores must lie in [0, 1], got 1.5"),
            ('{"boxes": [[0, 0, 0, 1, 1, 1, 0], [1, 0, 0, 1, 1, 1, 0]], '
             '"class_scores": [[0.5], [0.5, 0.2]], "fg_scores": [0.9, 0.9]}',
             "class_scores rows must have equal lengths, got lengths [1, 2]"),
            # numpy cannot read these, and its own messages do not name the field
            ('{"boxes": [[0, 0, 0, 1, 1, 1, 0], [1, 0, 0, 1, 1, 1, 0]], '
             '"class_scores": [0.5, [0.5]], "fg_scores": [0.9, 0.9]}',
             "class_scores must be a JSON array, got 0.5"),
            ('{"boxes": [[0, 0, 0, 1, 1, 1, 0], [1, 0, 0, 1, 1, 1, 0]], '
             '"class_scores": [[0.5], {"a": 1}], "fg_scores": [0.9, 0.9]}',
             'class_scores must be a JSON array, got {"a": 1}'),
            ('{"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [{"a": 1}], "fg_scores": [0.9]}',
             'class_scores must be a JSON array, got {"a": 1}'),
            ('{"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [[0.9]], "fg_scores": [{"a": 1}]}',
             'fg_scores must be a number, got {"a": 1}'),
            (b'{"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [[0.9]], "fg_scores": [0.9], '
             b'"note": "\xff"}',
             "'utf-8' codec can't decode byte 0xff in position 89: invalid start byte"),
        ],
        ids=[
            "json", "field", "class-scores-true", "fg-scores-false", "class-scores-string",
            "fg-scores-string", "class-scores-null", "class-scores-above-one",
            "fg-scores-negative", "fg-scores-nan", "fg-scores-above-one-scaled-in-range",
            "class-scores-ragged", "class-scores-number-and-row", "class-scores-row-and-object",
            "class-scores-object", "fg-scores-object", "not-utf-8",
        ],
    )
    def test_bad_line_names_file_and_line_before_any_output(
        self, tmp_path, capsys, line, message
    ):
        good = json.dumps(
            {"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [[0.9]], "fg_scores": [0.9]}
        )
        path = tmp_path / "proposals.jsonl"
        write_lines(path, good, line, good)
        errors = []
        for workers in ("1", "2"):
            argv = ["baol", "--proposals", str(path), "--lambda-baol", "1.0", "--workers", workers]
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"input error: {path}:2: ") and message in err
            assert not multiprocessing.active_children()
            errors.append(err)
        assert errors[0] == errors[1]

    def test_output_is_identical_for_any_worker_count(self, tmp_path, capsys, monkeypatch):
        pools = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, workers, mp_context):
                pools.append((workers, mp_context.get_start_method()))
                super().__init__(workers, mp_context=mp_context)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        scenes = [
            {
                "boxes": [[0.3 * i, 0.2 * s, 0.5, 1, 0.8, 1, 0.1 * i] for i in range(2 + 3 * s)],
                "class_scores": [
                    [(i + c + s) % 5 / 5 for c in range(3)] for i in range(2 + 3 * s)
                ],
                "fg_scores": [(7 * i + s) % 10 / 10 for i in range(2 + 3 * s)],
                "labels": [[0.3 * s, 0.2 * s, 0.5, 1, 0.8, 1, 0]],
            }
            for s in range(5)
        ]
        scenes.insert(2, {"boxes": [], "class_scores": [], "fg_scores": []})
        path = tmp_path / "proposals.jsonl"
        # a blank line numbers no scene
        path.write_text("\n".join(json.dumps(scene) for scene in scenes[:3]) + "\n\n"
                        + "".join(json.dumps(scene) + "\n" for scene in scenes[3:]))
        argv = ["baol", "--proposals", str(path), "--lambda-baol", "0.5", "--k-pro", "6"]
        outputs = []
        for workers in ("1", "2", "4"):
            assert main(argv + ["--workers", workers]) == 0
            outputs.append(capsys.readouterr())
            assert not multiprocessing.active_children()
        # a job holds all its worker needs, so spawned workers, which share
        # nothing with this process, print the same
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert main(argv + ["--workers", "2"]) == 0
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        outputs.append(capsys.readouterr())
        assert not multiprocessing.active_children()
        assert outputs[0] == outputs[1] == outputs[2] == outputs[3]
        lines = outputs[0].out.splitlines()
        assert [line.split(":")[0] for line in lines] == [f"scene {i}" for i in range(6)]
        assert lines[2] == "scene 2: kept 0/0 boxes, 0 foreground, loss 0.000000, 0 after soft-nms"
        # one pool per count above 1; the last spawns, since a thread runs
        assert [workers for workers, _ in pools] == [2, 4, 2]
        assert pools[-1][1] == "spawn"

    def test_file_is_read_as_the_scenes_are_scored(self, tmp_path, capsys, monkeypatch):
        import ovrefine.cli as cli_module
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
        monkeypatch.setattr(cli_module, "read_lines", counted_lines)
        monkeypatch.setattr(processes, "process_pool", recorded_pool)
        scene = {"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [[0.9]], "fg_scores": [0.9]}
        path = tmp_path / "proposals.jsonl"
        outputs = []
        for scenes, workers in ((6, "1"), (6, "2"), (1, "4"), (0, "4")):
            path.write_text((json.dumps(scene) + "\n") * scenes)
            read.clear()
            argv = ["baol", "--proposals", str(path), "--lambda-baol", "1", "--workers", workers]
            assert main(argv) == 0
            assert read == list(range(1, scenes + 1))
            outputs.append(capsys.readouterr())
            assert not multiprocessing.active_children()
        assert outputs[0] == outputs[1]
        # the processes start once the first --workers lines are read, and a
        # file of at most one scene starts none
        assert pools == [(2, 2)]

    def test_unreadable_line_names_file_and_line_at_any_worker_count(self, tmp_path, capsys):
        # at --workers 2 the processes have started when line 4 is read
        scene = {"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [[0.9]], "fg_scores": [0.9]}
        path = tmp_path / "proposals.jsonl"
        write_lines(path, *[json.dumps(scene)] * 3, b"\xff")
        for workers in ("1", "2"):
            argv = ["baol", "--proposals", str(path), "--lambda-baol", "1", "--workers", workers]
            assert main(argv) == 1
            assert capsys.readouterr() == ("", (
                f"input error: {path}:4: 'utf-8' codec can't decode byte 0xff in position 0: "
                "invalid start byte\n"
            ))
            assert not multiprocessing.active_children()

    def test_unreadable_line_is_reported_after_the_scenes_before_it(self, tmp_path, capsys):
        # the byte that is no UTF-8 fails the read of line 5, after the bad line 2
        scene = {"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [[0.9]], "fg_scores": [0.9]}
        good = json.dumps(scene).ljust(3000).encode() + b"\n"
        path = tmp_path / "proposals.jsonl"
        path.write_bytes(good + b"{not json\n" + good + good + b"\xff\n")
        errors = []
        for workers in ("1", "2", "3"):
            argv = ["baol", "--proposals", str(path), "--lambda-baol", "1", "--workers", workers]
            assert main(argv) == 1
            errors.append(capsys.readouterr())
            assert not multiprocessing.active_children()
        assert errors[0].err.startswith(f"input error: {path}:2: Expecting property name")
        assert errors[0] == errors[1] == errors[2]

    @pytest.mark.parametrize(
        "bad_at, read_fails_after, reported",
        [(None, 1, "read"), (None, 4, "read"), (1, 1, "bad"), (2, 4, "bad")],
        ids=["within-the-first-workers-lines", "after-them", "bad-line-before-within",
             "bad-line-before-after"],
    )
    def test_read_error_mid_file(
        self, tmp_path, capsys, monkeypatch, bad_at, read_fails_after, reported
    ):
        scene = {"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [[0.9]], "fg_scores": [0.9]}
        lines = [json.dumps(scene)] * 6
        if bad_at is not None:
            lines[bad_at - 1] = "{not json"
        path = tmp_path / "proposals.jsonl"
        write_lines(path, *lines)
        fail_reading_after(monkeypatch, read_fails_after)
        errors = []
        for workers in ("1", "2", "3"):
            argv = ["baol", "--proposals", str(path), "--lambda-baol", "1", "--workers", workers]
            assert main(argv) == 1
            errors.append(capsys.readouterr())
            assert not multiprocessing.active_children()
        assert errors[0].out == ""
        if reported == "read":
            assert errors[0].err == READ_ERROR
        else:
            assert errors[0].err.startswith(f"input error: {path}:{bad_at}: Expecting property name")
        assert errors == [errors[0]] * 3

    def test_config_error_is_the_same_at_any_worker_count(self, tmp_path, capsys):
        proposals = tmp_path / "proposals.jsonl"
        scene = {"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [[0.9]], "fg_scores": [0.9]}
        proposals.write_text((json.dumps(scene) + "\n") * 3)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"nms_floor": 7}))
        errors = []
        for workers in ("1", "2"):
            argv = ["baol", "--proposals", str(proposals), "--lambda-baol", "1",
                    "--config", str(config), "--workers", workers]
            assert main(argv) == 1
            errors.append(capsys.readouterr())
        message = f"input error: {config}: nms_floor must be in [0, 1], got 7\n"
        assert errors[0] == errors[1] == ("", message)

    def test_negative_lambda_flag_names_key(self, tmp_path, capsys):
        path = tmp_path / "proposals.jsonl"
        path.write_text("")
        assert main(["baol", "--proposals", str(path), "--lambda-baol", "-3"]) == 1
        assert capsys.readouterr() == (
            "", "input error: lambda_baol must be a finite number at least 0, got -3.0\n"
        )

    @pytest.mark.parametrize("value, shown", [("nan", "NaN"), ("inf", "Infinity")], ids=["nan", "inf"])
    def test_non_finite_lambda_names_key(self, tmp_path, capsys, value, shown):
        path = tmp_path / "proposals.jsonl"
        path.write_text("{}\n")
        assert main(["baol", "--proposals", str(path), "--lambda-baol", value]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"input error: lambda_baol must be a finite number, got {shown}\n"

    def test_lambda_required(self, tmp_path, capsys):
        path = tmp_path / "proposals.jsonl"
        path.write_text("{}\n")
        assert main(["baol", "--proposals", str(path)]) == 1
        assert "lambda" in capsys.readouterr().err

    def test_lambda_zero_is_given(self, tmp_path, capsys):
        # the background term drops out: only the foreground proposal's -log(0.9) / 2 is left
        path = tmp_path / "proposals.jsonl"
        path.write_text(json.dumps({
            "boxes": [[0, 0, 0, 1, 1, 1, 0], [5, 5, 0, 1, 1, 1, 0]],
            "class_scores": [[0.9], [0.3]],
            "fg_scores": [0.9, 0.2],
            "labels": [[0, 0, 0, 1, 1, 1, 0]],
        }) + "\n")
        assert main(["baol", "--proposals", str(path), "--lambda-baol", "0"]) == 0
        assert capsys.readouterr() == (
            "scene 0: kept 2/2 boxes, 1 foreground, loss 0.052680, 2 after soft-nms\n", ""
        )


class TestEval:
    def test_identical_files_perfect_map(self, tmp_path, capsys):
        kb = default_knowledge_base()
        gt, _ = generate_synthetic_scenes(kb, seed=3, n_scenes=5, corruption_rate=0.0)
        path = tmp_path / "scenes.jsonl"
        save_scenes(gt, path)
        report = tmp_path / "report.json"
        code = main(["eval", "--detections", str(path), "--gt", str(path), "--out", str(report)])
        assert code == 0
        assert "mAP 1.0000" in capsys.readouterr().out
        data = json.loads(report.read_text())
        assert data["mean"] == 1.0
        assert all(ap == 1.0 for ap in data["per_class"].values())


    @pytest.mark.parametrize("which", ["--detections", "--gt"])
    @pytest.mark.parametrize("line, message", SCENE_FILE_ROWS.values(), ids=SCENE_FILE_ROWS)
    def test_bad_line_names_file_and_line(self, tmp_path, capsys, which, line, message):
        good = tmp_path / "good.jsonl"
        save_scenes(case_study_scenes(), good)
        bad = tmp_path / "bad.jsonl"
        write_lines(bad, good.read_text().splitlines()[0], line)
        files = {"--detections": str(good), "--gt": str(good), which: str(bad)}
        assert main(["eval", *(arg for pair in files.items() for arg in pair)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"input error: {bad}:2: {message}\n"

    def test_wrong_arity_box_is_input_error(self, tmp_path, capsys):
        path = write_short_box_scene(tmp_path)
        code = main(["eval", "--detections", str(path), "--gt", str(path)])
        assert_short_box_error(code, capsys, 'scene "s0" detection 1')

    def test_boolean_score_is_input_error(self, tmp_path, capsys):
        # it used to load as a perfect detection: exit 0 with mAP 1.0
        scene = {"scene_id": "s1", "scene_type": "office"}
        box = [0, 0, 0.5, 1, 1, 1, 0]
        gt, det = tmp_path / "gt.jsonl", tmp_path / "det.jsonl"
        gt.write_text(json.dumps({**scene, "detections": [{"box": box, "label": "lamp"}]}) + "\n")
        lamp = {"box": box, "label": "lamp", "score": True, "class_scores": {"lamp": True}}
        det.write_text(json.dumps({**scene, "detections": [lamp]}) + "\n")
        assert main(["eval", "--detections", str(det), "--gt", str(gt)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"input error: {det}:1: score must be a number, got true\n"

    def test_string_score_is_input_error(self, tmp_path, capsys):
        # it used to load as a detection of score 0.9: exit 0 with mAP 1.0
        scene = {"scene_id": "s1", "scene_type": "office"}
        box = [0, 0, 0.5, 1, 1, 1, 0]
        gt, det = tmp_path / "gt.jsonl", tmp_path / "det.jsonl"
        gt.write_text(json.dumps({**scene, "detections": [{"box": box, "label": "lamp"}]}) + "\n")
        det.write_text(
            json.dumps({**scene, "detections": [{"box": box, "label": "lamp", "score": "0.9"}]})
            + "\n"
        )
        assert main(["eval", "--detections", str(det), "--gt", str(gt)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f'input error: {det}:1: score must be a number, got "0.9"\n'

    def test_unknown_scene_names_file_and_line(self, tmp_path, capsys):
        # it used to name the ids alone: "predictions reference unknown scenes: ['s1']"
        box = [0, 0, 0.5, 1, 1, 1, 0]
        lamp = {"box": box, "label": "lamp", "score": 0.9}
        gt, det = tmp_path / "gt.jsonl", tmp_path / "det.jsonl"
        scene = {"scene_id": "s0", "scene_type": "office", "detections": [lamp]}
        write_lines(gt, json.dumps(scene))
        write_lines(
            det,
            json.dumps(scene),
            "",
            *(json.dumps({**scene, "scene_id": scene_id}) for scene_id in ("s1", "s2")),
        )
        assert main(["eval", "--detections", str(det), "--gt", str(gt)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f'input error: {det}:3: scene_id "s1" is not in the ground truth {gt}\n'


@pytest.mark.parametrize("field", range(6))
@pytest.mark.parametrize("command", ["refine", "eval", "baol"])
def test_box_beyond_1e5_m_names_file_and_line(tmp_path, capsys, command, field):
    # an extent of 1e150 made a volume of 1e450 overflow, and iou3d return NaN:
    # eval printed AP 0 and exited 0, baol named no file
    box = [1.0] * 6 + [0.0]
    box[field] = 1e150 if field >= 3 else -1.5e5
    path = tmp_path / "scenes.jsonl"
    if command == "baol":
        good = {"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [[0.5]], "fg_scores": [0.9]}
        bad = {"boxes": [[0, 0, 0, 1, 1, 1, 0], box], "class_scores": [[0.5]] * 2,
               "fg_scores": [0.9] * 2}
        where = "scene 1 proposal 1"
        argv = ["baol", "--proposals", str(path), "--lambda-baol", "1.0"]
    else:
        chair = {"box": [0, 0, 0.5, 1, 1, 1, 0], "label": "chair", "score": 0.9}
        good = {"scene_id": "s0", "scene_type": "library", "detections": [chair]}
        bad = {"scene_id": "s1", "scene_type": "library",
               "detections": [chair, {**chair, "box": box}]}
        where = 'scene "s1" detection 1'
        argv = {
            "refine": ["refine", "--detections", str(path), "--out", str(tmp_path / "o.jsonl")],
            "eval": ["eval", "--detections", str(path), "--gt", str(path)],
        }[command]
    write_lines(path, json.dumps(good), json.dumps(bad))
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    name = ("cx", "cy", "cz", "l", "w", "h")[field]
    assert err == (
        f"input error: {path}:2: {where}: box {name} must be finite and at most 1e5 m "
        f"in magnitude, got {box[field]}\n"
    )


class TestGenSynthetic:
    def test_deterministic_outputs(self, tmp_path):
        files = []
        for tag in ("a", "b"):
            out = tmp_path / f"det_{tag}.jsonl"
            gt = tmp_path / f"gt_{tag}.jsonl"
            code = main(
                [
                    "gen-synthetic",
                    "--seed", "7",
                    "--scenes", "10",
                    "--out", str(out),
                    "--gt", str(gt),
                ]
            )
            assert code == 0
            files.append((out.read_bytes(), gt.read_bytes()))
        assert files[0] == files[1]

    def test_negative_scene_count_is_input_error(self, tmp_path, capsys):
        out, gt = tmp_path / "det.jsonl", tmp_path / "gt.jsonl"
        code = main(["gen-synthetic", "--scenes", "-3", "--out", str(out), "--gt", str(gt)])
        assert code == 1
        assert capsys.readouterr() == ("", "input error: scenes must be at least 0, got -3\n")
        assert not out.exists() and not gt.exists()

    @pytest.mark.parametrize("form", ["same", "relative", "symlink"])
    def test_gt_naming_the_out_file_is_input_error(self, tmp_path, monkeypatch, capsys, form):
        out = tmp_path / "det.jsonl"
        out.write_text("earlier\n")
        monkeypatch.chdir(tmp_path)
        gt = same_file(out, form)
        # a knowledge base that does not exist: the check comes before it is read
        code = main(["gen-synthetic", "--kb", "missing.json", "--out", str(out), "--gt", gt])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"input error: --out {out} and --gt {gt} name the same file\n"
        )
        assert out.read_text() == "earlier\n"

    def test_negative_seed_is_input_error(self, tmp_path, capsys):
        out, gt = tmp_path / "det.jsonl", tmp_path / "gt.jsonl"
        code = main(["gen-synthetic", "--seed", "-1", "--out", str(out), "--gt", str(gt)])
        assert code == 1
        assert capsys.readouterr() == ("", "input error: seed must be at least 0, got -1\n")
        assert not out.exists() and not gt.exists()

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--corruption", "2"], "corruption must be in [0, 1], got 2.0"),
            (["--config", "{config}"], "{config}: corruption must be in [0, 1], got -0.5"),
        ],
        ids=["flag", "config"],
    )
    def test_corruption_outside_unit_interval_names_its_key(
        self, tmp_path, capsys, options, message
    ):
        out, gt, config = tmp_path / "det.jsonl", tmp_path / "gt.jsonl", tmp_path / "config.json"
        config.write_text(json.dumps({"corruption": -0.5}))
        # a knowledge base that does not exist: the check comes before it is read
        argv = ["gen-synthetic", "--kb", str(tmp_path / "missing.json"), "--out", str(out),
                "--gt", str(gt), *(option.format(config=config) for option in options)]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"input error: {message.format(config=config)}\n")
        assert not out.exists() and not gt.exists()


def valid_inputs(tmp_path):
    """A file each command can read without error, by the option that names it."""
    files = {option: tmp_path / name for option, name in (
        ("--detections", "scenes.jsonl"), ("--gt", "gt.jsonl"), ("--kb", "kb.json"),
        ("--labels", "labels.jsonl"), ("--losses", "losses.jsonl"), ("--config", "config.json"),
    )}
    save_scenes(case_study_scenes(), files["--detections"])
    save_scenes(case_study_scenes(), files["--gt"], include_scores=False)
    files["--kb"].write_text(json.dumps(shipped_kb_data()))
    label = {"bbox": [0, 0, 5, 5], "label": "chair", "confidence": 0.9, "sim_pos": 2.0,
             "sim_neg": 0.0}
    files["--labels"].write_text(json.dumps({"image_id": "i", "labels": [label]}) + "\n")
    files["--losses"].write_text(json.dumps({"A": 5.0, "B": 1.0}) + "\n")
    files["--config"].write_text("{}\n")
    return files


class TestNoCommandWritesOverItsInputs:
    """A file that a command writes may name no other file it writes or reads,
    under any path that resolves to it; the refusal comes before any input
    but the config file is read."""

    # the files each command writes, and those it reads
    COMMANDS = {
        "refine": (("--out", "--log"), ("--detections", "--kb", "--config")),
        "balance": (("--out",), ("--labels", "--kb", "--config")),
        "dbc-sim": (("--out",), ("--losses", "--config")),
        "eval": (("--out",), ("--detections", "--gt", "--config")),
        "gen-synthetic": (("--out", "--gt"), ("--kb", "--config")),
    }

    @pytest.mark.parametrize(
        "command, written, other",
        [
            ("refine", "--out", "--detections"),
            ("refine", "--out", "--kb"),
            ("refine", "--out", "--config"),
            ("refine", "--log", "--detections"),
            ("refine", "--log", "--kb"),
            ("refine", "--log", "--config"),
            ("balance", "--out", "--labels"),
            ("balance", "--out", "--kb"),
            ("balance", "--out", "--config"),
            ("dbc-sim", "--out", "--losses"),
            ("dbc-sim", "--out", "--config"),
            ("eval", "--out", "--detections"),
            ("eval", "--out", "--gt"),
            ("eval", "--out", "--config"),
            ("gen-synthetic", "--out", "--kb"),
            ("gen-synthetic", "--out", "--config"),
            ("gen-synthetic", "--gt", "--kb"),
            ("gen-synthetic", "--gt", "--config"),
        ],
    )
    def test_output_naming_an_input_is_input_error(
        self, tmp_path, monkeypatch, capsys, command, written, other
    ):
        writes, reads = self.COMMANDS[command]
        inputs = valid_inputs(tmp_path)
        outputs = tmp_path / "outputs"
        outputs.mkdir()
        options = {option: str(outputs / option.strip("-")) for option in writes}
        options.update((option, str(inputs[option])) for option in reads)
        target = inputs[other]
        before = target.read_bytes()
        # the same file under another name: the command would succeed and replace it
        monkeypatch.chdir(tmp_path)
        options[written] = same_file(target, "relative")
        code = main([command, *(arg for pair in options.items() for arg in pair)])
        assert code == 1
        assert capsys.readouterr() == (
            "",
            f"input error: {written} {options[written]} and {other} {options[other]} "
            "name the same file\n",
        )
        assert target.read_bytes() == before
        assert list(outputs.iterdir()) == []


class TestConfigFile:
    def test_config_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"policy": "min-keep", "phi_recls": 0.5}))
        # flag wins over the config file
        code = main(
            ["solve-psl", "0.9", "0.5419", "1", "--config", str(config),
             "--policy", "max-keep-min-recls"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "y_keep=0.900000" in out
        # phi_recls 0.5 from the config: 0.2581 <= 0.5, so the object is kept
        assert "decision=keep" in out

    @pytest.mark.parametrize("document", ["[1]", '"policy"', "null"], ids=["list", "str", "null"])
    def test_config_that_is_no_object_names_the_file(self, tmp_path, capsys, document):
        config = tmp_path / "config.json"
        config.write_text(document)
        assert main(["solve-psl", "1", "1", "1", "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"input error: {config}: config must be a JSON object, got {document}\n"
        )

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        for key in ("frobnicate", "n_pro"):
            config.write_text(json.dumps({key: 1, "seed": 1}))
            assert main(["solve-psl", "1", "1", "1", "--config", str(config)]) == 1
            assert capsys.readouterr().err == (
                f'input error: {config}: unknown config keys: ["{key}"]\n'
            )

    def test_mistyped_config_value_is_input_error(self, case_files, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"workers": "2"}))
        code = main(
            ["refine", "--config", str(config), "--detections", case_files["detections"],
             "--out", case_files["out"]]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f'input error: {config}: workers must be an integer, got "2"\n'
        )

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("workers", 2.0, "workers must be an integer, got 2.0"),
            ("workers", True, "workers must be an integer, got true"),
            ("workers", 0, "workers must be at least 1, got 0"),
            # quoted short, as any value from the file
            pytest.param(
                "workers", list(range(1000)),
                "workers must be an integer, got [0, 1, 2, 3, 4, 5, 6, 7, ... (1000 items)]",
                id="workers-1000-items",
            ),
            ("alpha1", "1", 'alpha1 must be a number, got "1"'),
            ("policy", None, "policy must be a string, got null"),
            # a semaphore of 0 admits no request, so `refine --llm remote` would hang
            ("llm_max_in_flight", 0, "llm_max_in_flight must be at least 1, got 0"),
            ("llm_max_in_flight", -1, "llm_max_in_flight must be at least 1, got -1"),
            # no attempt, or one that cannot wait, would quietly answer from the KB
            ("llm_retries", -1, "llm_retries must be at least 0, got -1"),
            ("llm_timeout", 0, "llm_timeout must be a finite number above 0, got 0"),
            ("llm_timeout", -1, "llm_timeout must be a finite number above 0, got -1"),
            ("llm_timeout", float("nan"), "llm_timeout must be a finite number, got NaN"),
            # an infinite weight times a zero coefficient leaves the solver only NaNs
            ("alpha1", float("inf"), "alpha1 must be a finite number, got Infinity"),
            ("alpha2", float("nan"), "alpha2 must be a finite number, got NaN"),
            ("alpha3", -1, "alpha3 must be a finite number at least 0, got -1"),
            # an int too large for a float would overflow where it is used
            pytest.param(
                "alpha1", 10**400,
                "alpha1 must be a finite number, got 10000000000000000000... (401 characters)",
                id="alpha1-int-1e400",
            ),
            pytest.param(
                "phi_keep", -10**400,
                "phi_keep must be a finite number, got -1000000000000000000... (402 characters)",
                id="phi_keep-int--1e400",
            ),
            # a negative k raises all but the last-ranked class and lowers all but the first
            ("dbc_k", -1, "dbc_k must be at least 0, got -1"),
            # 0 fires the weight update on every iteration
            ("dbc_interval", 0, "dbc_interval must be at least 1, got 0"),
            # balance would report convergence after 0 iterations
            ("sbc_max_iters", 0, "sbc_max_iters must be at least 1, got 0"),
            ("scenes", -3, "scenes must be at least 0, got -3"),
            # numpy's default_rng would reject it naming neither the key nor the value
            ("seed", -1, "seed must be at least 0, got -1"),
            (
                "policy",
                "bogus",
                "policy must be one of max-keep-min-recls, min-keep, scene-conservative, "
                'got "bogus"',
            ),
            ("llm", "bogus", 'llm must be one of off, remote, got "bogus"'),
        ],
    )
    def test_bad_config_value_is_input_error(
        self, case_files, tmp_path, capsys, key, value, message
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        code = main(
            ["refine", "--config", str(config), "--detections", case_files["detections"],
             "--out", case_files["out"], "--llm", "remote"]
        )
        assert code == 1
        assert capsys.readouterr().err == f"input error: {config}: {message}\n"
        assert not Path(case_files["out"]).exists()

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["refine", "--detections", "{detections}", "--out", "{out}"], "policy"),
            (["refine", "--detections", "{detections}", "--out", "{out}"], "llm"),
            (["solve-psl", "0.9", "0.5", "1"], "policy"),
        ],
        ids=["refine-policy", "refine-llm", "solve-psl-policy"],
    )
    def test_bad_choice_flag_is_refused_as_from_the_config(
        self, case_files, tmp_path, capsys, argv, key
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: "bad"}))
        argv = [arg.format(**case_files) for arg in argv]
        assert main([*argv, "--config", str(config)]) == 1
        from_config = capsys.readouterr()
        allowed = {
            "policy": "max-keep-min-recls, min-keep, scene-conservative", "llm": "off, remote"
        }
        message = f'{key} must be one of {allowed[key]}, got "bad"'
        assert from_config == ("", f"input error: {config}: {message}\n")
        # one line, less the config file's name, where argparse printed its usage
        assert main([*argv, f"--{key}", "bad"]) == 1
        assert capsys.readouterr() == ("", f"input error: {message}\n")
        assert not Path(case_files["out"]).exists()

    @pytest.mark.parametrize(
        "key",
        [name for name, hint in typing.get_type_hints(RunConfig).items()
         if (typing.get_args(hint) or (hint,))[0] is float],
    )
    @pytest.mark.parametrize(
        "value, shown",
        [(math.nan, "NaN"), (math.inf, "Infinity"), (-math.inf, "-Infinity")],
        ids=["nan", "inf", "-inf"],
    )
    def test_non_finite_float_key_rejected(self, key, value, shown):
        with pytest.raises(ValueError) as err:
            RunConfig(**{key: value})
        assert str(err.value) == f"{key} must be a finite number, got {shown}"

    @pytest.mark.parametrize(
        "key, argv",
        [
            # the weights would jump to their clamps: `iter 1: a=0.50 b=1.50`
            ("dbc_delta_w", ["dbc-sim", "--losses", "{losses}", "--interval", "1", "--top-k", "1"]),
            ("size_alpha", ["refine", "--detections", "{detections}", "--out", "{out}"]),
            ("nms_sigma", ["baol", "--proposals", "{proposals}", "--lambda-baol", "1"]),
        ],
    )
    def test_non_finite_config_float_names_key(self, case_files, tmp_path, capsys, key, argv):
        losses = tmp_path / "losses.jsonl"
        losses.write_text('{"a": 2.0, "b": 1.0}\n')
        proposals = tmp_path / "proposals.jsonl"
        proposals.write_text(
            '{"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [[0.9]], "fg_scores": [0.9]}\n'
        )
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: math.nan}))
        paths = {**case_files, "losses": losses, "proposals": proposals}
        code = main([arg.format(**paths) for arg in argv] + ["--config", str(config)])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"input error: {config}: {key} must be a finite number, got NaN\n"

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"nms_sigma": 0}, "nms_sigma must be a finite number above 0, got 0"),
            ({"nms_sigma": -1}, "nms_sigma must be a finite number above 0, got -1"),
            ({"nms_floor": 7}, "nms_floor must be in [0, 1], got 7"),
            ({"nms_floor": -0.5}, "nms_floor must be in [0, 1], got -0.5"),
            ({"iou_lo": 0.9, "iou_hi": 0.2}, "iou_lo must be below iou_hi = 0.2, got 0.9"),
            ({"iou_lo": 0.5, "iou_hi": 0.5}, "iou_lo must be below iou_hi = 0.5, got 0.5"),
            ({"lambda_baol": -3}, "lambda_baol must be a finite number at least 0, got -3"),
            # the first key checked is named
            (
                {"nms_sigma": -1, "iou_lo": 0.9, "iou_hi": 0.2, "lambda_baol": -3},
                "nms_sigma must be a finite number above 0, got -1",
            ),
        ],
        ids=[
            "nms_sigma-zero", "nms_sigma-negative", "nms_floor-above-one", "nms_floor-negative",
            "iou-inverted", "iou-equal", "lambda_baol-negative", "all-four",
        ],
    )
    @pytest.mark.parametrize("scenes", [0, 1], ids=["empty", "one-scene"])
    def test_out_of_range_baol_option_names_key(self, tmp_path, capsys, options, message, scenes):
        # on an empty file no scene reaches the library's own checks, which
        # name no key, and the run used to exit 0
        proposals = tmp_path / "proposals.jsonl"
        proposals.write_text(
            '{"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [[0.9]], "fg_scores": [0.9]}\n'
            * scenes
        )
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lambda_baol": 1, **options}))
        code = main(["baol", "--proposals", str(proposals), "--config", str(config)])
        assert code == 1
        assert capsys.readouterr() == ("", f"input error: {config}: {message}\n")

    @pytest.mark.parametrize(
        "key, value", [("phi_keep", 2.0), ("phi_recls", -1.0)], ids=["phi_keep", "phi_recls"]
    )
    @pytest.mark.parametrize("novel", [False, True], ids=["base-only", "novel"])
    def test_threshold_outside_unit_interval_is_input_error(
        self, tmp_path, capsys, key, value, novel
    ):
        # base-class-only input never reaches decide, and used to exit 0
        sofa = Detection(Box7DoF(0, 0, 0.4, 2.0, 0.9, 0.8), "sofa", 0.95)
        scenes = [SceneRecord("s", SceneContext("living room"), (sofa,))]
        scenes += case_study_scenes() if novel else []
        detections = tmp_path / "detections.jsonl"
        save_scenes(scenes, detections)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        out = tmp_path / "out.jsonl"
        code = main(
            ["refine", "--config", str(config), "--detections", str(detections),
             "--out", str(out), "--workers", "1"]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"input error: {config}: {key} must be in [0, 1], got {value}\n"
        )
        assert not out.exists()

    def test_config_value_types_accepted(self, tmp_path, capsys):
        # an int where a float is expected, null where None is allowed
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha1": 1, "phi_recls": 0, "lambda_baol": None}))
        assert main(["solve-psl", "0.9", "0.5419", "1", "--config", str(config)]) == 0
        assert "decision=reclassify" in capsys.readouterr().out


# a JSON integer that Python reads exactly and float() cannot convert
HUGE = "1" + "0" * 399


def library_chair(scene_id, score="0.9", theta="0", cx="0", class_score=None):
    """A scenes line with one library chair, its score, box centre x and angle,
    and its class score if given, as JSON text."""
    scores = "" if class_score is None else f', "class_scores": {{"chair": {class_score}}}'
    return (
        f'{{"scene_id": "{scene_id}", "scene_type": "library", "detections": [{{"box": '
        f'[{cx}, 0, 0.5, 1, 1, 1, {theta}], "label": "chair", "score": {score}{scores}}}]}}'
    )


def proposals_line(class_score="0.9"):
    return (
        '{"boxes": [[0, 0, 0, 1, 1, 1, 0]], '
        f'"class_scores": [[{class_score}]], "fg_scores": [0.9]}}'
    )


# 33 good scenes before the bad one: at --workers 2, refine parses the bad
# line in its second chunk of 32, on a worker process
GOOD_SCENES = [library_chair(f"s{i}") for i in range(33)]

# per input kind: the argv (``{input}`` is the file, ``{dir}`` its folder),
# the file's lines, the line of the error (None for a whole-file input), the
# worker counts the command is run at, and the field the message names
PAST_FLOAT_RANGE_ROWS = {
    "refine-score": (
        ["refine", "--detections", "{input}", "--out", "{dir}/out.jsonl"],
        [*GOOD_SCENES, library_chair("bad", score=HUGE)], 34, ("1", "2"), "score",
    ),
    "refine-theta": (
        ["refine", "--detections", "{input}", "--out", "{dir}/out.jsonl"],
        [*GOOD_SCENES, library_chair("bad", theta=HUGE)], 34, ("1", "2"), "box theta",
    ),
    "refine-cx": (
        ["refine", "--detections", "{input}", "--out", "{dir}/out.jsonl"],
        [*GOOD_SCENES, library_chair("bad", cx=HUGE)], 34, ("1", "2"), "box cx",
    ),
    "refine-class-score": (
        ["refine", "--detections", "{input}", "--out", "{dir}/out.jsonl"],
        [*GOOD_SCENES, library_chair("bad", class_score=HUGE)], 34, ("1", "2"),
        'class_scores["chair"]',
    ),
    "eval-score": (
        ["eval", "--detections", "{input}", "--gt", "{dir}/gt.jsonl"],
        [library_chair("s0", score=HUGE)], 1, (None,), "score",
    ),
    "baol-class-score": (
        ["baol", "--proposals", "{input}", "--lambda-baol", "1"],
        [proposals_line(), proposals_line(HUGE)], 2, ("1", "2"), "class_scores",
    ),
    "baol-fg-score": (
        ["baol", "--proposals", "{input}", "--lambda-baol", "1"],
        ['{"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [[0.9]], "fg_scores": [%s]}' % HUGE],
        1, ("1",), "fg_scores",
    ),
    "balance-bbox": (
        ["balance", "--labels", "{input}"],
        ['{"image_id": "i0", "labels": [{"bbox": [0, 0, %s, 1], "label": "chair", '
         '"confidence": 0.5, "sim_pos": 0.5, "sim_neg": 0.1}]}' % HUGE], 1, (None,), "bbox",
    ),
    "dbc-sim-loss": (
        ["dbc-sim", "--losses", "{input}"],
        ['{"chair": %s}' % HUGE], 1, (None,), 'loss for "chair"',
    ),
    "kb-size": (
        ["refine", "--kb", "{input}", "--detections", "{dir}/gt.jsonl", "--out", "{dir}/out.jsonl"],
        ['{"sizes": {"chair": [%s, 1, 1]}}' % HUGE], None, (None,), 'sizes["chair"]',
    ),
    # the value of a wrong length is quoted short, item by item
    "kb-size-of-four": (
        ["refine", "--kb", "{input}", "--detections", "{dir}/gt.jsonl", "--out", "{dir}/out.jsonl"],
        ['{"sizes": {"chair": [%s, 1, 1, 1]}}' % HUGE], None, (None,), 'sizes["chair"]',
    ),
    "refine-six-number-box": (
        ["refine", "--detections", "{input}", "--out", "{dir}/out.jsonl"],
        [*GOOD_SCENES, library_chair("bad", cx=HUGE).replace(", 0]", "]")], 34, ("1", "2"),
        "box",
    ),
    "refine-1000-number-box": (
        ["refine", "--detections", "{input}", "--out", "{dir}/out.jsonl"],
        [*GOOD_SCENES, library_chair("bad", theta=", ".join(["0"] * 994))], 34, ("1", "2"),
        "box",
    ),
    "config-float": (
        ["solve-psl", "0.9", "0.5", "1", "--config", "{input}"],
        ['{"phi_keep": %s}' % HUGE], None, (None,), "phi_keep",
    ),
}


class TestNumbersPastTheFloatRange:
    """A 400-digit integer in any input file, or an array of the wrong length,
    is an input error that names the file, the line of a JSONL file and the
    field, at every worker count, on one short line."""

    @pytest.mark.parametrize(
        "argv, lines, lineno, worker_counts, field",
        PAST_FLOAT_RANGE_ROWS.values(),
        ids=PAST_FLOAT_RANGE_ROWS,
    )
    def test_is_input_error_naming_the_file(
        self, tmp_path, monkeypatch, capsys, argv, lines, lineno, worker_counts, field
    ):
        # a relative path, so that the line's length does not depend on tmp_path's
        monkeypatch.chdir(tmp_path)
        path = "input.json"
        write_lines(path, *lines)
        write_lines(tmp_path / "gt.jsonl", library_chair("s0"))
        where = f"{path}:" if lineno is None else f"{path}:{lineno}:"
        argv = [arg.format(input=path, dir=tmp_path) for arg in argv]
        for workers in worker_counts:
            flags = [] if workers is None else ["--workers", workers]
            assert main([*argv, *flags]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"input error: {where} ") and err.count("\n") == 1, err
            assert f"{field} must " in err.removeprefix(f"input error: {where} "), err
            # the value is quoted by a short prefix, not in all its digits
            assert len(err) < 200, err
            assert "Traceback" not in err
            assert not multiprocessing.active_children()


class TestRequiredOptions:
    """A command run without an option it needs exits 1, naming the option,
    and writes nothing."""

    @pytest.mark.parametrize(
        "argv, missing",
        [
            (["refine", "--detections", "{scenes}", "--log", "{dir}/log.jsonl"], "--out"),
            (["refine", "--out", "{dir}/out.jsonl", "--log", "{dir}/log.jsonl"], "--detections"),
            (["eval", "--detections", "{scenes}", "--out", "{dir}/report.json"], "--gt"),
            (["gen-synthetic", "--out", "{dir}/out.jsonl", "--scenes", "2"], "--gt"),
            # it has no default
            (["baol", "--proposals", "{scenes}", "--workers", "1"], "--lambda-baol"),
            # each command's input file, refused the same way
            (["balance", "--out", "{dir}/out.json"], "--labels"),
            (["dbc-sim", "--out", "{dir}/out.jsonl"], "--losses"),
            (["baol", "--lambda-baol", "1", "--workers", "1"], "--proposals"),
        ],
        ids=["refine-out", "refine-detections", "eval-gt", "gen-synthetic-gt", "baol-lambda-baol",
             "balance-labels", "dbc-sim-losses", "baol-proposals"],
    )
    def test_missing_option_is_input_error(self, tmp_path, capsys, argv, missing):
        scenes = tmp_path / "scenes.jsonl"
        write_lines(scenes, library_chair("s0"))
        assert main([arg.format(scenes=scenes, dir=tmp_path) for arg in argv]) == 1
        assert capsys.readouterr() == (
            "", f"input error: missing required option(s): {missing}\n"
        )
        assert [child.name for child in tmp_path.iterdir()] == ["scenes.jsonl"]


@pytest.mark.parametrize(
    "argv, path, reason",
    [
        (["refine", "--detections", "{dir}/missing.jsonl", "--out", "{dir}/out.jsonl"],
         "{dir}/missing.jsonl", "No such file or directory"),
        (["refine", "--detections", "{scenes}", "--out", "{dir}/missing/out.jsonl"],
         "{dir}/missing/out.jsonl", "No such file or directory"),
        (["balance", "--labels", "{dir}"], "{dir}", "Is a directory"),
    ],
    ids=["missing-detections", "out-in-a-missing-directory", "labels-a-directory"],
)
def test_file_that_cannot_be_opened_is_named(tmp_path, capsys, argv, path, reason):
    scenes = tmp_path / "scenes.jsonl"
    write_lines(scenes, library_chair("s0"))
    paths = {"scenes": scenes, "dir": tmp_path}
    assert main([arg.format(**paths) for arg in argv]) == 1
    assert capsys.readouterr() == ("", f"input error: {path.format(**paths)}: {reason}\n")
    assert [child.name for child in tmp_path.iterdir()] == ["scenes.jsonl"]


class TestEmptyFileOptions:
    """An empty file option is an input error that names the option, not a
    file left out, and nothing is written."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["refine", "--kb", ""], "kb must name a file, got an empty string"),
            (["refine", "--log", ""], "log must name a file, got an empty string"),
            (["eval", "--out", ""], "out must name a file, got an empty string"),
            (["refine", "--config", ""], "--config must name a file, got an empty string"),
            (["refine", "--config", "{dir}/config.json"],
             "{dir}/config.json: kb must name a file, got an empty string"),
            # flags that no RunConfig field holds
            (["balance", "--labels", ""], "--labels must name a file, got an empty string"),
            (["dbc-sim", "--losses", ""], "--losses must name a file, got an empty string"),
            (["baol", "--proposals", "", "--lambda-baol", "1"],
             "--proposals must name a file, got an empty string"),
        ],
        ids=["kb", "log", "eval-out", "config", "config-kb", "labels", "losses", "proposals"],
    )
    def test_is_input_error_naming_the_option(self, tmp_path, capsys, argv, message):
        scenes = tmp_path / "scenes.jsonl"
        write_lines(scenes, library_chair("s0"))
        (tmp_path / "config.json").write_text('{"kb": ""}\n')
        files = {
            "refine": ["--detections", "{scenes}", "--out", "{dir}/out.jsonl"],
            "eval": ["--detections", "{scenes}", "--gt", "{scenes}"],
            "balance": ["--out", "{dir}/out.json"],
            "dbc-sim": ["--out", "{dir}/out.jsonl"],
            "baol": [],
        }
        argv = [*argv, *files[argv[0]]]
        assert main([arg.format(scenes=scenes, dir=tmp_path) for arg in argv]) == 1
        assert capsys.readouterr() == ("", f"input error: {message.format(dir=tmp_path)}\n")
        assert sorted(child.name for child in tmp_path.iterdir()) == [
            "config.json", "scenes.jsonl"
        ]


class TestKnowledgeBaseClasses:
    def test_class_name_that_is_no_string_is_input_error(self, tmp_path, capsys):
        # the class 7 never matched a label, and refine exited 0
        kb = shipped_kb_data()
        kb["compat"]["bedroom"] += [7, None]
        kb_path, scenes = tmp_path / "kb.json", tmp_path / "scenes.jsonl"
        kb_path.write_text(json.dumps(kb))
        write_lines(scenes, library_chair("s0"))
        out = tmp_path / "out.jsonl"
        argv = ["refine", "--kb", str(kb_path), "--detections", str(scenes), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "", f'input error: {kb_path}: compat["bedroom"] must hold class names, got 7\n'
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "compat, message",
        [
            ({}, "the knowledge base's compat is empty: it has no scene type to sample"),
            ({"library": ["chair"], "attic": ["gargoyle"]},
             "no class in the knowledge base's compat[\"attic\"] has a size, "
             "so no scene of that type can be sampled"),
        ],
        ids=["empty-compat", "no-sized-class"],
    )
    def test_gen_synthetic_names_the_scene_type_it_cannot_fill(
        self, tmp_path, capsys, compat, message
    ):
        kb_path = tmp_path / "kb.json"
        kb_path.write_text(json.dumps({"sizes": {"chair": [0.5, 0.5, 0.9]}, "compat": compat}))
        out, gt = tmp_path / "det.jsonl", tmp_path / "gt.jsonl"
        argv = ["gen-synthetic", "--kb", str(kb_path), "--out", str(out), "--gt", str(gt)]
        assert main([*argv, "--scenes", "1"]) == 1
        assert capsys.readouterr() == ("", f"input error: {message}\n")
        assert not out.exists() and not gt.exists()
        # no scene asked for, none to fill
        assert main([*argv, "--scenes", "0"]) == 0
        assert out.read_text() == gt.read_text() == ""


class TestUsageErrors:
    def test_unknown_flag_is_input_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["refine", "--frobnicate"])
        assert err.value.code == 1

    def test_missing_required_subcommand_flag(self, capsys):
        # refused as every missing option is, by flag or config, not by argparse
        assert main(["balance"]) == 1
        assert capsys.readouterr() == ("", "input error: missing required option(s): --labels\n")

    def test_missing_positional_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["solve-psl", "0.5"])
        assert err.value.code == 1


# the flags each subcommand reads, besides --config and its own flags below
READ_FLAGS = {
    "refine": ["--detections", "--kb", "--out", "--log", "--policy", "--workers", "--llm"],
    "solve-psl": ["--policy"],
    "balance": ["--kb", "--out"],
    "dbc-sim": ["--out"],
    "baol": ["--workers"],
    "eval": ["--detections", "--gt", "--out"],
    "gen-synthetic": ["--kb", "--out", "--gt", "--seed"],
}
# each subcommand's own flags, with the attributes they set
OWN_FLAGS = {
    "refine": {},
    "solve-psl": {"--weights": "weights"},
    "balance": {"--labels": "labels", "--phi-init": "sbc_phi_init"},
    "dbc-sim": {"--losses": "losses", "--interval": "dbc_interval", "--top-k": "dbc_k"},
    "baol": {"--proposals": "proposals", "--lambda-baol": "lambda_baol", "--k-pro": "k_pro"},
    "eval": {},
    "gen-synthetic": {"--scenes": "scenes", "--corruption": "corruption"},
}
# the flags every subcommand used to accept, whether its command read them or not
COMMON_FLAGS = [
    "--config", "--detections", "--kb", "--gt", "--out", "--log", "--policy", "--workers",
    "--seed", "--llm",
]
# what a subcommand needs to parse at all: every option parses without the others
REQUIRED = {
    "refine": [],
    "solve-psl": ["0.9", "0.5", "1"],
    "balance": [],
    "dbc-sim": [],
    "baol": [],
    "eval": [],
    "gen-synthetic": [],
}
FLAG_VALUES = {"--policy": "min-keep", "--workers": "2", "--seed": "7", "--llm": "remote"}
IGNORED = [
    (command, flag)
    for command, read in READ_FLAGS.items()
    for flag in COMMON_FLAGS
    if flag != "--config" and flag not in read
]
READ = [(command, flag) for command, read in READ_FLAGS.items() for flag in ["--config", *read]]


def help_flags(command, capsys):
    """The flags a subcommand's --help lists."""
    with pytest.raises(SystemExit) as err:
        _build_parser().parse_args([command, "--help"])
    assert err.value.code == 0
    return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))


class TestFlagsPerSubcommand:
    def test_pair_counts(self):
        assert len(IGNORED) == 44
        assert len(READ) == 26

    @pytest.mark.parametrize("command, flag", IGNORED)
    def test_ignored_flag_is_usage_error(self, capsys, command, flag):
        with pytest.raises(SystemExit) as err:
            main([command, *REQUIRED[command], flag, FLAG_VALUES.get(flag, "file.json")])
        assert err.value.code == 1
        stderr = capsys.readouterr().err
        assert stderr.startswith(f"usage: ovrefine {command} [-h]")
        assert f"\novrefine {command}: error: unrecognized arguments: {flag} " in stderr

    @pytest.mark.parametrize("command, flag", READ)
    def test_read_flag_is_accepted(self, command, flag):
        value = FLAG_VALUES.get(flag, "file.json")
        args = _build_parser().parse_args([command, *REQUIRED[command], flag, value])
        assert str(getattr(args, flag[2:])) == value

    @pytest.mark.parametrize(
        "command, flag, dest",
        [(command, flag, dest) for command, own in OWN_FLAGS.items() for flag, dest in own.items()],
    )
    def test_own_flag_is_accepted(self, command, flag, dest):
        values = ["3"] * (3 if flag == "--weights" else 1)
        args = _build_parser().parse_args([command, *REQUIRED[command], flag, *values])
        assert getattr(args, dest) in ("3", 3, [3, 3, 3])

    @pytest.mark.parametrize(
        "command, values",
        [
            ("refine", ["max-keep-min-recls", "min-keep", "scene-conservative", "off", "remote"]),
            ("solve-psl", ["max-keep-min-recls", "min-keep", "scene-conservative"]),
        ],
    )
    def test_help_names_the_allowed_values(self, capsys, command, values):
        # RunConfig checks them, so argparse lists no choices of its own
        with pytest.raises(SystemExit):
            _build_parser().parse_args([command, "--help"])
        words = set(re.findall(r"[a-z-]+", capsys.readouterr().out))
        assert set(values) <= words

    @pytest.mark.parametrize("command", sorted(READ_FLAGS))
    def test_help_lists_only_the_flags_read(self, capsys, command):
        expected = {"--help", "--config", *READ_FLAGS[command], *OWN_FLAGS[command]}
        assert help_flags(command, capsys) == expected


def readme_commands():
    """(subcommand, flags shown) for each line of the README's command-line block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [
        (line.split()[1], set(re.findall(r"--[a-z][a-z-]*", line)))
        for line in lines
        if line.startswith("ovrefine ")
    ]


def test_readme_shows_the_flags_each_subcommand_takes(capsys):
    shown = readme_commands()
    assert sorted(command for command, _ in shown) == sorted(READ_FLAGS)
    for command, flags in shown:
        # every command takes --config; the README says so once, above the block
        assert flags == help_flags(command, capsys) - {"--help", "--config"}, command


# Runs in a fresh interpreter: the test process has numpy and the HTTP stack loaded already
LEAN_START_SCRIPT = """
import sys

HTTP_STACK = ("urllib.request", "http.client", "ssl")

def check(step, numpy_free=True):
    if numpy_free:
        assert "numpy" not in sys.modules, f"numpy is loaded after {step}"
    loaded = [name for name in HTTP_STACK if name in sys.modules]
    assert not loaded, f"{loaded} loaded after {step}"

import ovrefine
from ovrefine.cli import main
check("import ovrefine")
detections, gt, labels, losses, proposals, empty, out = sys.argv[1:8]
# no scene, so no array and no worker process, at the default worker count
assert main(["baol", "--proposals", empty, "--lambda-baol", "1"]) == 0
check("baol on an empty file")
assert "multiprocessing" not in sys.modules, "multiprocessing is loaded after an empty baol"
for workers in ("1", "2"):
    code = main(["refine", "--detections", detections, "--out", f"{out}{workers}.jsonl",
                 "--log", f"{out}{workers}.log.jsonl", "--workers", workers])
    assert code == 0, code
    check(f"refine --workers {workers}")
# no endpoint is set, so every query falls back to the KB before a request is built
code = main(["refine", "--detections", detections, "--out", f"{out}remote.jsonl",
             "--llm", "remote"])
assert code == 0, code
check("refine --llm remote")
assert main(["eval", "--detections", f"{out}1.jsonl", "--gt", gt]) == 0
check("eval")
assert main(["solve-psl", "0.5", "1", "1"]) == 0
check("solve-psl")
assert main(["balance", "--labels", labels]) == 0
check("balance")
assert main(["dbc-sim", "--losses", losses, "--interval", "1", "--top-k", "1"]) == 0
check("dbc-sim")
# baol builds arrays, but it sends no request either
assert main(["baol", "--proposals", proposals, "--lambda-baol", "1"]) == 0
check("baol", numpy_free=False)
"""


def test_offline_commands_load_no_http_stack_and_arrayless_ones_no_numpy(tmp_path):
    ground_truth, detections = generate_synthetic_scenes(
        default_knowledge_base(), seed=7, n_scenes=12
    )
    det_path, gt_path = tmp_path / "det.jsonl", tmp_path / "gt.jsonl"
    save_scenes(detections, det_path)
    save_scenes(ground_truth, gt_path, include_scores=False)
    labels = tmp_path / "labels.jsonl"
    labels.write_text("".join(
        json.dumps({"image_id": cls, "labels": [
            {"bbox": [0, 0, 5, 5], "label": cls, "confidence": 0.9, "sim_pos": 2.0, "sim_neg": 0.0}
        ] * count}) + "\n"
        for cls, count in (("chair", 40), ("lamp", 4))
    ))
    losses = tmp_path / "losses.jsonl"
    losses.write_text(json.dumps({"A": 5.0, "B": 1.0, "C": 3.0}) + "\n")
    proposals = tmp_path / "proposals.jsonl"
    proposals.write_text(
        '{"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [[0.9]], "fg_scores": [0.9]}\n'
    )
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env.pop("GLRD_LLM_ENDPOINT", None)
    env["PYTHONPATH"] = os.pathsep.join([str(src), *filter(None, [env.get("PYTHONPATH")])])
    result = subprocess.run(
        [sys.executable, "-c", LEAN_START_SCRIPT, str(det_path), str(gt_path), str(labels),
         str(losses), str(proposals), str(empty), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    logs = [(tmp_path / f"out{w}.log.jsonl").read_text() for w in ("1", "2")]
    assert logs[0] == logs[1]
    decisions = [o["decision"] for line in logs[0].splitlines()
                 for o in json.loads(line)["objects"]]
    assert "reclassify" in decisions and "remove" in decisions and "keep" in decisions
    # the fallback answers from the same KB, so the remote run refines alike
    assert (tmp_path / "outremote.jsonl").read_bytes() == (tmp_path / "out1.jsonl").read_bytes()


def test_main_lets_errors_other_than_input_errors_propagate(monkeypatch):
    import ovrefine.cli as cli_module
    from ovrefine.commonsense import ProviderError

    for error in (RuntimeError("bug"), ProviderError("judge offline")):

        def command(config, *args):
            raise error

        monkeypatch.setattr(cli_module, "cmd_solve_psl", command)
        with pytest.raises(type(error), match=str(error)):
            main(["solve-psl", "0.5", "1", "1"])


def test_policy_names_are_the_selection_policies():
    from ovrefine.cli import _POLICIES
    from ovrefine.psl import SelectionPolicy

    assert list(_POLICIES) == [policy.value for policy in SelectionPolicy]


def test_weight_sum_bound_is_the_solvers():
    from ovrefine.cli import _MAX_WEIGHT_SUM
    from ovrefine.psl import _MAX_WEIGHT_SUM as SOLVER_BOUND

    assert _MAX_WEIGHT_SUM == SOLVER_BOUND


def test_run_option_defaults_are_the_library_defaults():
    """Each run option that restates a library default equals it."""
    from ovrefine import balancers, commonsense, geometry, pipeline

    def defaults(function, **names):
        parameters = inspect.signature(function).parameters
        return {key: parameters[name].default for key, name in names.items()}

    refinement, size = pipeline.RefinementConfig(), commonsense.SizeConstraintConfig()
    alpha1, alpha2, alpha3 = refinement.rule_weights
    library = {
        "alpha1": alpha1, "alpha2": alpha2, "alpha3": alpha3,
        "phi_keep": refinement.phi_keep, "phi_recls": refinement.phi_recls,
        "policy": refinement.policy.value,
        "size_alpha": size.alpha, "phi_size": size.phi_size,
        **defaults(
            balancers.SbcState, sbc_delta_phi="delta_phi", sbc_d_bound="d_bound",
            sbc_phi_lo="phi_lo", sbc_phi_hi="phi_hi", sbc_max_iters="max_iters",
        ),
        **defaults(balancers.SbcState.uniform, sbc_phi_init="phi_init"),
        **defaults(
            balancers.DbcState, dbc_interval="update_interval", dbc_k="k",
            dbc_delta_w="delta_w", dbc_w_lo="w_lo", dbc_w_hi="w_hi",
        ),
        **defaults(balancers.assign_foreground_labels, iou_lo="iou_lo", iou_hi="iou_hi"),
        **defaults(geometry.soft_nms, nms_sigma="sigma", nms_floor="score_floor"),
        **defaults(
            commonsense.LlmClient, llm_timeout="timeout", llm_retries="retries",
            llm_max_in_flight="max_in_flight",
        ),
        **defaults(pipeline.generate_synthetic_scenes, scenes="n_scenes", corruption="corruption_rate"),
    }
    assert len(library) == 28
    config = RunConfig()
    assert {key: getattr(config, key) for key in library} == library
