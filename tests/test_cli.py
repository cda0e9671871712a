import json
from pathlib import Path

import pytest

from conftest import case_study_scenes
from ovrefine.cli import main
from ovrefine.pipeline import generate_synthetic_scenes, load_scenes, save_scenes
from ovrefine.commonsense import default_knowledge_base


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


def chair_line(fields):
    """A detections line with one library chair, given its score fields."""
    return (
        '{"scene_id": "s1", "scene_type": "library", "detections": [{"box": '
        '[0, 0, 0.5, 1, 1, 1, 0], "label": "chair", ' + fields + "}]}"
    )


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
        assert "scene s0 detection 0" in err and "finite" in err

    def test_wrong_arity_box_is_input_error(self, tmp_path, capsys):
        path = write_short_box_scene(tmp_path)
        code = main(["refine", "--detections", str(path), "--out", str(tmp_path / "o.jsonl")])
        assert_short_box_error(code, capsys, "scene s0 detection 1")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
    def test_non_finite_size_prior_is_input_error(self, case_files, tmp_path, capsys, bad):
        # a NaN length used to score every chair a perfect length fit
        kb = default_knowledge_base().to_dict()
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
            ("[1, 2]", "expected a JSON object, got list"),
            ('{"scene_id": "s1", "detections": []}', "missing field 'scene_type'"),
            (chair_line('"score": 2'), "score must be in [0, 1]"),
            # JSON NaN and Infinity parse as floats, and no comparison admits NaN
            (chair_line('"score": NaN'), "score must be in [0, 1], got nan"),
            (chair_line('"score": Infinity'), "score must be in [0, 1], got inf"),
            (chair_line('"score": -Infinity'), "score must be in [0, 1], got -inf"),
            *[
                (
                    chair_line(f'"score": 0.9, "class_scores": {{"chair": {bad}}}'),
                    f"class score for 'chair' is {shown}, outside [0, 1]",
                )
                for bad, shown in (("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"))
            ],
        ],
        ids=[
            "json", "array", "field", "value", "score-NaN", "score-Infinity", "score--Infinity",
            "class-score-NaN", "class-score-Infinity", "class-score--Infinity",
        ],
    )
    def test_bad_detections_line_names_file_and_line(self, case_files, capsys, line, message):
        path = case_files["detections"]
        first = Path(path).read_text().splitlines()[0]
        Path(path).write_text(first + "\n" + line + "\n")
        code = main(["refine", "--detections", path, "--out", case_files["out"]])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {path}:2: ") and message in err

    def test_missing_kb_entry_names_class(self, tmp_path, capsys):
        kb = default_knowledge_base().to_dict()
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

    def test_remote_mode_degrades_to_kb_when_endpoint_dead(
        self, case_files, tmp_path, monkeypatch, capsys
    ):
        # every remote query falls back to the KB, so an unreachable
        # endpoint still yields the offline result
        monkeypatch.delenv("GLRD_LLM_ENDPOINT", raising=False)
        code = main(
            [
                "refine",
                "--detections", case_files["detections"],
                "--out", case_files["out"],
                "--llm", "remote",
            ]
        )
        assert code == 0
        assert "kept 2, removed 1, reclassified 1" in capsys.readouterr().out
        offline_out = tmp_path / "offline.jsonl"
        main(["refine", "--detections", case_files["detections"], "--out", str(offline_out)])
        assert Path(case_files["out"]).read_text() == offline_out.read_text()

    def test_unabsorbed_provider_failure_exits_2(self, case_files, monkeypatch, capsys):
        # a provider failure the fallback chain cannot absorb skips the
        # scene, keeps it unrefined in the output, and fails the run
        import ovrefine.cli as cli_module
        from ovrefine.commonsense import ProviderError

        class DeadProvider:
            def is_novel(self, label):
                return True

            def size_prior(self, label):
                raise ProviderError("knowledge service unreachable")

            def scene_compatible(self, label, scene_type):
                raise ProviderError("knowledge service unreachable")

        monkeypatch.setattr(cli_module, "_make_provider", lambda config: (DeadProvider(), None))
        code = main(
            [
                "refine",
                "--detections", case_files["detections"],
                "--out", case_files["out"],
                "--log", case_files["log"],
            ]
        )
        assert code == 2
        assert "skipped" in capsys.readouterr().err
        refined = load_scenes(case_files["out"])
        assert sorted(d.label for r in refined for d in r.detections) == [
            "book", "chair", "chair", "sofa", "toilet",
        ]
        logs = [json.loads(l) for l in Path(case_files["log"]).read_text().splitlines()]
        assert all(entry.get("error") for entry in logs)

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

    def test_weights_flag(self, capsys):
        # zeroing the third rule's weight frees y_keep from the confidence cap
        assert main(["solve-psl", "0.5", "1", "1", "--weights", "1", "1", "0",
                     "--policy", "max-keep-min-recls"]) == 0
        assert "y_keep=1.000000" in capsys.readouterr().out


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
            f"input error: {path}:3: missing field 'confidence'\n"
        )

    def test_no_novel_labels(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text(json.dumps({"image_id": "i", "labels": []}) + "\n")
        assert main(["balance", "--labels", str(path)]) == 1


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
        [("{", "Expecting property name"), ('{"A": "high"}', "could not convert string to float")],
        ids=["json", "value"],
    )
    def test_bad_line_names_file_and_line(self, tmp_path, capsys, line, message):
        path = tmp_path / "losses.jsonl"
        path.write_text(json.dumps({"A": 5.0}) + "\n" + line + "\n")
        assert main(["dbc-sim", "--losses", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {path}:2: ") and message in err

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
            ('{"boxes": [], "fg_scores": []}', "missing field 'class_scores'"),
        ],
        ids=["json", "field"],
    )
    def test_bad_line_names_file_and_line_before_any_output(
        self, tmp_path, capsys, line, message
    ):
        scene = {"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [[0.9]], "fg_scores": [0.9]}
        path = tmp_path / "proposals.jsonl"
        path.write_text(json.dumps(scene) + "\n" + line + "\n")
        code = main(["baol", "--proposals", str(path), "--lambda-baol", "1.0"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"input error: {path}:2: ") and message in err

    def test_lambda_required(self, tmp_path, capsys):
        path = tmp_path / "proposals.jsonl"
        path.write_text("{}\n")
        assert main(["baol", "--proposals", str(path)]) == 1
        assert "lambda" in capsys.readouterr().err


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


    def test_wrong_arity_box_is_input_error(self, tmp_path, capsys):
        path = write_short_box_scene(tmp_path)
        code = main(["eval", "--detections", str(path), "--gt", str(path)])
        assert_short_box_error(code, capsys, "scene s0 detection 1")


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

    def test_unknown_config_key(self, tmp_path):
        config = tmp_path / "config.json"
        for key in ("frobnicate", "n_pro"):
            config.write_text(json.dumps({key: 1}))
            assert main(["solve-psl", "1", "1", "1", "--config", str(config)]) == 1

    def test_mistyped_config_value_is_input_error(self, case_files, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"workers": "2"}))
        code = main(
            ["refine", "--config", str(config), "--detections", case_files["detections"],
             "--out", case_files["out"]]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"input error: {config}: workers must be int, got str '2'\n"
        )

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("workers", 2.0, "workers must be int, got float 2.0"),
            ("workers", True, "workers must be int, got bool True"),
            ("workers", 0, "workers must be at least 1, got 0"),
            ("alpha1", "1", "alpha1 must be float, got str '1'"),
            ("policy", None, "policy must be str, got NoneType None"),
            # a semaphore of 0 admits no request, so `refine --llm remote` would hang
            ("llm_max_in_flight", 0, "llm_max_in_flight must be at least 1, got 0"),
            ("llm_max_in_flight", -1, "llm_max_in_flight must be at least 1, got -1"),
            # no attempt, or one that cannot wait, would quietly answer from the KB
            ("llm_retries", -1, "llm_retries must be at least 0, got -1"),
            ("llm_timeout", 0, "llm_timeout must be a finite number above 0, got 0"),
            ("llm_timeout", -1, "llm_timeout must be a finite number above 0, got -1"),
            ("llm_timeout", float("nan"), "llm_timeout must be a finite number above 0, got nan"),
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

    def test_config_value_types_accepted(self, tmp_path, capsys):
        # an int where a float is expected, null where None is allowed
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha1": 1, "phi_recls": 0, "lambda_baol": None}))
        assert main(["solve-psl", "0.9", "0.5419", "1", "--config", str(config)]) == 0
        assert "decision=reclassify" in capsys.readouterr().out


class TestUsageErrors:
    def test_unknown_flag_is_input_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["refine", "--frobnicate"])
        assert err.value.code == 1

    def test_missing_required_subcommand_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["balance"])
        assert err.value.code == 1
