import hashlib
import math
from dataclasses import replace
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BOOK_BOX,
    StubTransport,
    case_study_scenes,
    kb_model,
    library_scene,
    living_room_scene,
    make_provider,
)
from ovrefine.commonsense import (
    SceneContext,
    StaticKnowledgeProvider,
    constraint_vector,
    default_knowledge_base,
    size_constraint,
)
from ovrefine.geometry import Box7DoF, iou3d
from ovrefine.pipeline import (
    Decision,
    Detection,
    ObjectRecord,
    RefinementConfig,
    SceneRecord,
    _average_precision,
    debate,
    eval_ap25,
    generate_synthetic_scenes,
    load_scenes,
    refine_scene,
    refine_scenes,
    save_scenes,
)
from ovrefine.psl import SelectionPolicy, solve_decisions


def simple_scene(detections, scene_type="library", scene_id="s0"):
    return SceneRecord(scene_id, SceneContext(scene_type), tuple(detections))


class TestRefineScene:
    def test_all_constraints_pass_keeps(self, provider):
        box = Box7DoF(0, 0, 0.45, 0.55, 0.55, 0.90)
        scene = simple_scene([Detection(box, "chair", 1.0)])
        refined, log = refine_scene(scene, provider)
        assert [d.label for d in refined.detections] == ["chair"]
        assert log.objects[0].decision is Decision.KEEP
        assert log.objects[0].transcript == ()

    def test_living_room_toilet_removed(self, provider):
        refined, log = refine_scene(living_room_scene(), provider)
        labels = [d.label for d in refined.detections]
        assert "toilet" not in labels
        assert "sofa" in labels  # base class passes through
        toilet = log.objects[0]
        assert toilet.label == "toilet"
        assert toilet.decision is Decision.REMOVE
        assert toilet.final_label is None
        assert toilet.constraints.size == pytest.approx(0.9084, abs=1e-6)
        assert toilet.constraints.scene == 0

    def test_library_book_reclassified_to_coffee_table(self, provider):
        refined, log = refine_scene(library_scene(), provider)
        labels = sorted(d.label for d in refined.detections)
        assert labels == ["chair", "chair", "coffee table"]
        book = log.objects[0]
        assert book.decision is Decision.RECLASSIFY
        assert book.final_label == "coffee table"
        assert book.constraints.size == pytest.approx(0.5419, abs=1e-6)
        assert len(book.transcript) == 4  # three debaters plus the judge
        # reclassification keeps the box and score
        table = next(d for d in refined.detections if d.label == "coffee table")
        assert table.box == BOOK_BOX
        assert table.score == 0.9

    def test_base_classes_never_touched(self, provider):
        scene = simple_scene(
            [Detection(Box7DoF(0, 0, 0.1, 5.0, 5.0, 0.2), "table", 0.02)], "bathroom"
        )
        refined, log = refine_scene(scene, provider)
        assert refined.detections == scene.detections
        assert log.objects == ()

    def test_output_order_preserved(self, provider):
        refined, _ = refine_scene(library_scene(), provider)
        assert [d.label for d in refined.detections] == ["coffee table", "chair", "chair"]

    def test_detection_count_never_grows(self, provider):
        rng = np.random.default_rng(5)
        gt, dets = generate_synthetic_scenes(provider.kb, seed=11, n_scenes=10)
        for record in dets:
            refined, _ = refine_scene(record, provider)
            assert len(refined.detections) <= len(record.detections)


class TestDetection:
    @pytest.mark.parametrize(
        "score, shown", [(True, "true"), ("0.9", '"0.9"'), (None, "null")], ids=["bool", "str", "none"]
    )
    def test_score_must_be_a_number(self, score, shown):
        with pytest.raises(TypeError) as err:
            Detection(Box7DoF(0, 0, 0, 1, 1, 1), "chair", score)
        assert str(err.value) == f"score must be a number, got {shown}"

    def test_numpy_score_accepted(self):
        assert Detection(Box7DoF(0, 0, 0, 1, 1, 1), "chair", np.float64(0.5)).score == 0.5

    @pytest.mark.parametrize("number", [np.float32, np.int64, np.float64])
    def test_numpy_scalars_and_any_mapping_of_class_scores_accepted(self, number):
        # past the exact-type test for JSON's float and int, to the ABC checks;
        # np.float32 and np.int64 are no subclass of float or int
        scores = MappingProxyType({"chair": number(1), "sofa": number(0)})
        detection = Detection(Box7DoF(0, 0, 0, 1, 1, 1), "chair", number(1), scores)
        assert detection.score == 1
        assert detection.class_scores == {"chair": 1, "sofa": 0}
        assert type(detection.class_scores) is dict


class TestRefinementConfig:
    """Bad thresholds or weights are refused where they act, by `decide` and
    `solve_decisions`, once a scene with a novel detection reaches them."""

    @pytest.mark.parametrize("key", ["phi_keep", "phi_recls"])
    @pytest.mark.parametrize("value", [-0.1, 1.5, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, provider, key, value):
        with pytest.raises(ValueError) as err:
            refine_scenes([living_room_scene()], provider, RefinementConfig(**{key: value}))
        assert str(err.value) == f"{key} must be in [0, 1], got {value}"

    def test_unit_interval_bounds_accepted(self, provider):
        for cfg in (RefinementConfig(phi_keep=0.0, phi_recls=1.0),
                    RefinementConfig(phi_keep=1, phi_recls=0)):
            refine_scenes([living_room_scene()], provider, cfg)

    @pytest.mark.parametrize(
        "weights",
        [(-1.0, 1, 1), (1, float("inf"), 1), (1, 1, float("nan")), (10**400, 1, 1),
         (1e308, 1e308, 1e308), (1.0, 1.0)],
        ids=["negative", "inf", "nan", "int-beyond-float", "sum-overflows", "two-weights"],
    )
    def test_rule_weights_rejected_as_the_solver_rejects_them(self, provider, weights):
        with pytest.raises(ValueError) as solver:
            solve_decisions([(0.5, 1.0, 1.0)], weights)
        cfg = RefinementConfig(rule_weights=weights)
        with pytest.raises(ValueError) as err:
            refine_scenes([living_room_scene()], provider, cfg)
        assert str(err.value) == str(solver.value)


class TestDebate:
    def test_case_study_winner(self, provider):
        det = library_scene().detections[0]
        outcome = debate(det, SceneContext("library"), provider)
        assert outcome.candidates == ("book", "stool", "coffee table")
        assert outcome.winner == "coffee table"

    def test_single_entry_wins_immediately(self, provider):
        det = Detection(BOOK_BOX, "book", 0.9, {"book": 0.9})
        outcome = debate(det, SceneContext("library"), provider)
        assert outcome.candidates == ("book",)
        assert outcome.winner == "book"

    def test_constructed_dominant_candidate(self, provider):
        # a box exactly at the bookshelf prior, labeled bin: the bookshelf
        # size fit is 1 while the bin fit decays hard, so its product wins
        box = Box7DoF(0, 0, 0.9, 0.90, 0.30, 1.80)
        det = Detection(box, "bin", 0.8, {"bin": 0.8, "bookshelf": 0.7, "book": 0.6})
        outcome = debate(det, SceneContext("library"), provider)
        assert outcome.winner == "bookshelf"
        assert outcome.scores["bookshelf"] > outcome.scores["bin"]

    def test_deterministic(self, provider):
        det = library_scene().detections[0]
        a = debate(det, SceneContext("library"), provider)
        b = debate(det, SceneContext("library"), provider)
        assert a == b

    @pytest.mark.parametrize(
        "verdict, shown",
        [(0.5, "0.5"), (True, "true"), (1.0, "1.0"), (np.int64(1), "int64")],
        ids=["half", "bool", "float-one", "numpy-int"],
    )
    def test_scene_verdict_is_checked_as_in_assembly(self, kb, verdict, shown):
        # only the int 0 or 1: True and 1.0 reached the log as `true` and `1.0`,
        # and a numpy int made the log line fail to serialise
        det = library_scene().detections[0]

        class Unsure(StaticKnowledgeProvider):
            def scene_compatible(self, label, scene_type):
                if label == det.label:
                    return super().scene_compatible(label, scene_type)
                return verdict

        message = f"^provider returned non-binary scene verdict {shown}$"
        with pytest.raises(ValueError, match=message):
            debate(det, SceneContext("library"), Unsure(kb))

    def test_remote_judge_names_candidate(self):
        # the reply is no size and no yes/no, so lookups fall back to the KB
        transport = StubTransport({"": "Considering the size, it must be the stool."})
        det = library_scene().detections[0]
        outcome = debate(det, SceneContext("library"), make_provider(transport))
        assert outcome.winner == "stool"
        prompt = transport.calls[-1]["prompt"]
        assert prompt.startswith("Debaters argue for the candidate classes book, stool, ")

    def test_remote_judge_naming_nothing_falls_back(self):
        provider = make_provider(StubTransport({"": "Hard to say."}))
        det = library_scene().detections[0]
        outcome = debate(det, SceneContext("library"), provider)
        assert outcome.winner == "coffee table"


class TestEvalAp25:
    def test_perfect_detector(self, provider):
        gt, _ = generate_synthetic_scenes(provider.kb, seed=3, n_scenes=5, corruption_rate=0.0)
        preds = [
            SceneRecord(
                r.scene_id,
                r.scene,
                tuple(Detection(d.box, d.label, 1.0) for d in r.detections),
            )
            for r in gt
        ]
        report = eval_ap25(preds, gt)
        assert report.mean == 1.0
        assert all(ap == 1.0 for ap in report.per_class.values())

    def test_no_predictions(self, provider):
        gt, _ = generate_synthetic_scenes(provider.kb, seed=3, n_scenes=3, corruption_rate=0.0)
        empty = [SceneRecord(r.scene_id, r.scene, ()) for r in gt]
        report = eval_ap25(empty, gt)
        assert report.mean == 0.0

    def test_fp_then_tp_half(self):
        scene = SceneContext("library")
        gt_box = Box7DoF(0, 0, 0.45, 0.55, 0.55, 0.9)
        far_box = Box7DoF(30, 30, 0.45, 0.55, 0.55, 0.9)
        gt = [SceneRecord("s", scene, (Detection(gt_box, "chair", 1.0),))]
        preds = [
            SceneRecord(
                "s",
                scene,
                (
                    Detection(far_box, "chair", 0.9),  # false positive, ranked first
                    Detection(gt_box, "chair", 0.8),  # true positive
                ),
            )
        ]
        report = eval_ap25(preds, gt)
        assert report.per_class["chair"] == pytest.approx(0.5, abs=1e-12)

    def test_best_box_already_claimed_is_false_positive(self):
        # the second prediction's best box is the first one's; the other box
        # overlaps it at 0.6 / 1.4 = 0.43, yet it does not fall back to it
        scene = SceneContext("library")
        first, other = Box7DoF(0, 0, 0, 1, 1, 1), Box7DoF(0.6, 0, 0, 1, 1, 1)
        second = Box7DoF(0.2, 0, 0, 1, 1, 1)
        assert iou3d(second, first) > iou3d(second, other) > 0.25
        gt = [SceneRecord(
            "s", scene, (Detection(first, "chair", 1.0), Detection(other, "chair", 1.0))
        )]
        preds = [SceneRecord(
            "s", scene, (Detection(first, "chair", 0.9), Detection(second, "chair", 0.8))
        )]
        # one TP then one FP, against two boxes: precision 1 up to recall 0.5
        assert eval_ap25(preds, gt).per_class["chair"] == 0.5

    def test_iou_equal_to_threshold_is_false_positive(self):
        # 5 m boxes 3 m apart along their length: 2 / (5 + 5 - 2) = 0.25
        scene = SceneContext("library")
        box, shifted = Box7DoF(0, 0, 0, 5, 1, 1), Box7DoF(3, 0, 0, 5, 1, 1)
        assert iou3d(box, shifted) == 0.25
        gt = [SceneRecord("s", scene, (Detection(box, "chair", 1.0),))]
        preds = [SceneRecord("s", scene, (Detection(shifted, "chair", 0.9),))]
        assert eval_ap25(preds, gt).per_class["chair"] == 0.0

    def test_duplicate_tp_never_increases_ap(self):
        scene = SceneContext("library")
        gt_box = Box7DoF(0, 0, 0.45, 0.55, 0.55, 0.9)
        gt = [SceneRecord("s", scene, (Detection(gt_box, "chair", 1.0),))]
        base_preds = [SceneRecord("s", scene, (Detection(gt_box, "chair", 0.9),))]
        with_dup = [
            SceneRecord(
                "s",
                scene,
                (Detection(gt_box, "chair", 0.9), Detection(gt_box, "chair", 0.5)),
            )
        ]
        assert eval_ap25(with_dup, gt).mean <= eval_ap25(base_preds, gt).mean

    def test_scene_permutation_invariant(self, provider):
        gt, dets = generate_synthetic_scenes(provider.kb, seed=9, n_scenes=8)
        forward = eval_ap25(dets, gt)
        backward = eval_ap25(list(reversed(dets)), list(reversed(gt)))
        assert forward.per_class == backward.per_class

    def test_ap_in_unit_interval(self, provider):
        gt, dets = generate_synthetic_scenes(provider.kb, seed=13, n_scenes=10)
        report = eval_ap25(dets, gt)
        assert all(0.0 <= ap <= 1.0 for ap in report.per_class.values())

    def test_unknown_scene_rejected(self):
        scene = SceneContext("library")
        gt = [SceneRecord("a", scene, ())]
        preds = [SceneRecord("b", scene, ())]
        with pytest.raises(ValueError):
            eval_ap25(preds, gt)


def numpy_average_precision(tp, n_positive):
    """The evaluator's earlier numpy formula, kept as the oracle: the same
    terms, summed by np.sum instead of math.fsum."""
    tp = np.asarray(tp, dtype=float)
    if n_positive == 0 or tp.size == 0:
        return 0.0
    cum_tp = np.cumsum(tp)
    precision = cum_tp / np.arange(1, tp.size + 1)
    recall = cum_tp / n_positive
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(mpre.size - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


@st.composite
def ranked_hits(draw):
    tp = draw(st.lists(st.sampled_from([0.0, 1.0]), max_size=300))
    return tp, draw(st.integers(min_value=int(sum(tp)), max_value=int(sum(tp)) + 50))


class TestAveragePrecision:
    @settings(max_examples=300, deadline=None)
    @given(ranked_hits())
    def test_matches_numpy_formula(self, case):
        tp, n_positive = case
        assert _average_precision(tp, n_positive) == pytest.approx(
            numpy_average_precision(tp, n_positive), rel=0, abs=1e-12
        )


class TestGenerateSyntheticScenes:
    def test_zero_corruption_matches_gt(self, kb):
        gt, dets = generate_synthetic_scenes(kb, seed=21, n_scenes=6, corruption_rate=0.0)
        for g, d in zip(gt, dets):
            assert [x.label for x in g.detections] == [x.label for x in d.detections]
            assert [x.box for x in g.detections] == [x.box for x in d.detections]

    def test_deterministic(self, kb):
        a = generate_synthetic_scenes(kb, seed=7, n_scenes=10)
        b = generate_synthetic_scenes(kb, seed=7, n_scenes=10)
        assert a == b

    def test_corruption_count_is_seed_stable(self, kb):
        gt, dets = generate_synthetic_scenes(kb, seed=7, n_scenes=40, corruption_rate=0.2)
        swapped = 0
        total_novel = 0
        for g, d in zip(gt, dets):
            by_box = {x.box: x.label for x in d.detections}
            for truth in g.detections:
                if truth.label in kb.novel_classes:
                    total_novel += 1
                    if by_box.get(truth.box) != truth.label:
                        swapped += 1
        rate = swapped / total_novel
        # binomial(n, 0.2) stays well inside (0.1, 0.3) at this sample size
        assert 0.1 < rate < 0.3

    def test_gt_objects_conform_to_kb(self, kb):
        gt, _ = generate_synthetic_scenes(kb, seed=5, n_scenes=10)
        for record in gt:
            for det in record.detections:
                assert det.label in kb.compat[record.scene.scene_type]


class TestSceneFiles:
    def test_round_trip(self, tmp_path):
        scenes = case_study_scenes()
        path = tmp_path / "scenes.jsonl"
        save_scenes(scenes, path)
        again = load_scenes(path)
        assert again == scenes

    def test_gt_files_drop_scores(self, tmp_path):
        scenes = case_study_scenes()
        path = tmp_path / "gt.jsonl"
        save_scenes(scenes, path, include_scores=False)
        again = load_scenes(path)
        assert all(d.score == 1.0 for record in again for d in record.detections)
        assert all(d.class_scores is None for record in again for d in record.detections)


class TestLogInvariants:
    def test_transcript_iff_reclassify(self, provider):
        for record in case_study_scenes():
            _, log = refine_scene(record, provider)
            for obj in log.objects:
                assert (len(obj.transcript) > 0) == (obj.decision is Decision.RECLASSIFY)

    def test_object_record_validates_transcript(self):
        from ovrefine.psl import ConstraintVector, SolverOutput

        with pytest.raises(ValueError):
            ObjectRecord(
                0,
                "chair",
                ConstraintVector(1, 1, 1),
                SolverOutput(1.0, 0.0, 3.0),
                Decision.KEEP,
                "chair",
                (("judge", "oops"),),
            )


class TestRemoteProviderPipeline:
    @staticmethod
    def make_remote_provider(fail=False):
        # the first needle that a prompt holds picks its reply
        transport = StubTransport(
            {
                "common size of a book": "Usually about 0.3*0.2*0.05 meters.",
                "common size of a": "1.05*0.70*0.45",
                "Is it normal": "Yes, certainly.",
                "": "Which class is correct? coffee table.",
            },
            fail_first=math.inf if fail else 0,
        )
        return make_provider(transport, retries=1), transport.calls

    def test_refines_through_remote_answers(self):
        provider, calls = self.make_remote_provider()
        refined, log = refine_scene(library_scene(), provider)
        book = log.objects[0]
        # size prior answered remotely, scene judged compatible remotely
        assert book.constraints.size == pytest.approx(0.5419, abs=1e-6)
        assert book.constraints.scene == 1
        assert book.decision is Decision.RECLASSIFY
        assert book.final_label == "coffee table"

    def test_remote_answers_cached_across_detections(self):
        provider, calls = self.make_remote_provider()
        refine_scene(library_scene(), provider)
        size_queries = [p for p in calls if "common size of a chair" in p["prompt"]]
        assert len(size_queries) == 1  # two chairs, one remote query

    def test_remote_failure_degrades_to_kb(self):
        provider, calls = self.make_remote_provider(fail=True)
        refined, log = refine_scene(library_scene(), provider)
        assert log.objects[0].final_label == "coffee table"

    @pytest.mark.parametrize("answer", ["request-fails", "no-answer", "no-endpoint"])
    def test_no_remote_answer_gives_the_static_run(self, kb, answer, monkeypatch):
        from ovrefine.commonsense import LlmClient, RemoteKnowledgeProvider

        # every request fails, or is answered "I cannot say."
        transport = StubTransport(fail_first=math.inf if answer == "request-fails" else 0)
        monkeypatch.delenv("GLRD_LLM_ENDPOINT", raising=False)
        endpoint = None if answer == "no-endpoint" else "http://llm.test"
        client = LlmClient(endpoint=endpoint, transport=transport, backoff=0.0, retries=1)
        _, records = generate_synthetic_scenes(kb, seed=7, n_scenes=200)
        # a debate candidate without a KB size gets size fit 0, as offline
        zebra = Detection(Box7DoF(0, 0, 0.5, 1.6, 1.0, 1.0), "book", 0.95, {"zebra": 0.99})
        records.append(simple_scene([zebra], scene_id="zebra"))
        remote = refine_scenes(records, RemoteKnowledgeProvider(client, kb))
        static = refine_scenes(records, StaticKnowledgeProvider(kb))
        assert remote == static
        assert [log.counts() for _, log in remote] == [log.counts() for _, log in static]
        assert static[-1][1].objects[0].final_label == "zebra"

    def test_prompts_match_recorded_digest(self, kb):
        # recorded when the judge's client was still passed beside the
        # provider: 85 size and scene prompts and 5 judge prompts
        from ovrefine.commonsense import LlmClient, RemoteKnowledgeProvider

        prompts = []
        # the judge names the last candidate the debaters argued for
        transport = kb_model(kb, lambda candidates: f"It is a {candidates[-1]}.", prompts)
        _, records = generate_synthetic_scenes(kb, seed=7, n_scenes=60)
        client = LlmClient(endpoint="http://llm.test", transport=transport, backoff=0.0)
        refine_scenes(records, RemoteKnowledgeProvider(client, kb))
        assert len(prompts) == 90
        assert sum(p.startswith("Debaters argue") for p in prompts) == 5
        digest = hashlib.sha256("\n".join(sorted(prompts)).encode()).hexdigest()
        assert digest == "d3354e3a9900a98686c32879d9c9ba0af21a2d4ea2472317d9c90e5655baacc0"


class TestClassChangeInvariant:
    def test_labels_change_only_via_debate_to_top3(self, kb, provider):
        _, detections = generate_synthetic_scenes(kb, seed=23, n_scenes=25)
        for record in detections:
            refined, log = refine_scene(record, provider)
            changed = {
                obj.index: obj
                for obj in log.objects
                if obj.final_label is not None and obj.final_label != obj.label
            }
            for index, obj in changed.items():
                assert obj.decision is Decision.RECLASSIFY
                original = record.detections[index]
                scores = original.class_scores or {original.label: original.score}
                top3 = sorted(scores, key=lambda c: (-scores[c], c))[:3]
                assert obj.final_label in top3


class TestEndToEndImprovement:
    def test_refinement_raises_map_and_purges_foreign_objects(self, kb, provider):
        gt, dets = generate_synthetic_scenes(kb, seed=7, n_scenes=30, corruption_rate=0.2)
        before = eval_ap25(dets, gt).mean
        results = refine_scenes(dets, provider)
        refined = [record for record, _ in results]
        after = eval_ap25(refined, gt).mean
        assert after > before
        for record in refined:
            for det in record.detections:
                if provider.is_novel(det.label):
                    assert provider.scene_compatible(det.label, record.scene.scene_type) == 1


# --------------------------------------------------------------------------
# What refine decides, end to end

# `solve` reaches the corner below only to float rounding, and treats
# objectives within 1e-12 as tied, so an object whose corner lies this close
# to a threshold may fall on either side of it
NEAR_THRESHOLD = 1e-12


class ContraryJudge(StaticKnowledgeProvider):
    """A provider whose judge names the last candidate, so its verdict and
    the offline rule disagree."""

    def judge(self, candidates, scene_type, cases):
        return candidates[-1]


def reference_outcome(detection, scene, provider, cfg):
    """(decision, final label, near a threshold) of a novel detection, from the
    README's "Notes on the solver": the policy's corner, then `decide`."""
    conf, size, fit = constraint_vector(
        detection.box, detection.label, detection.score, scene, provider, cfg.size
    ).as_tuple()
    w1, w2, w3 = cfg.rule_weights
    a = max(conf + size + fit - 2, 0.0)
    b = max(conf - max(size + fit - 1, 0.0), 0.0)
    policy = cfg.policy
    if policy is SelectionPolicy.SCENE_CONSERVATIVE:
        policy = SelectionPolicy.MIN_KEEP if fit == 0 else SelectionPolicy.MAX_KEEP_MIN_RECLS
    if policy is SelectionPolicy.MIN_KEEP:
        k = a if w1 else 0.0
    else:
        k = conf if w3 else 1.0
    r = max(k + b - 1, 0.0) if w2 else 0.0
    near = abs(k - cfg.phi_keep) <= NEAR_THRESHOLD
    if k <= cfg.phi_keep:
        return Decision.REMOVE, None, near
    near = near or abs(r - cfg.phi_recls) <= NEAR_THRESHOLD
    if r <= cfg.phi_recls:
        return Decision.KEEP, detection.label, near
    # the debate: the top three classes, the judge's verdict, else the strongest
    scores = dict(detection.class_scores or {detection.label: detection.score})
    candidates = sorted(scores, key=lambda c: (-scores[c], c))[:3]
    verdict = provider.judge(tuple(candidates), scene.scene_type, ())
    if verdict is None:

        def strength(c):
            try:
                fit_c = size_constraint(detection.box, provider.size_prior(c), cfg.size)
            except LookupError:
                fit_c = 0.0
            return fit_c * provider.scene_compatible(c, scene.scene_type) * scores[c]

        verdict = min(candidates, key=lambda c: (-strength(c), -scores[c], c))
    return Decision.RECLASSIFY, verdict, near


@st.composite
def refine_runs(draw):
    """Scenes, a provider and a config for one refine run."""
    kb = default_knowledge_base()
    _, scenes = generate_synthetic_scenes(
        kb, seed=draw(st.integers(0, 2**16)), n_scenes=draw(st.integers(1, 4))
    )
    weight = st.just(0.0) | st.floats(1e-3, 10.0)
    cfg = RefinementConfig(
        rule_weights=(draw(weight), draw(weight), draw(weight)),
        # weighted towards the defaults' end, where reclassifications happen
        phi_keep=draw(st.floats(1e-3, 0.2) | st.floats(0.0, 1.0)),
        phi_recls=draw(st.floats(1e-3, 0.3) | st.floats(0.0, 1.0)),
        policy=draw(st.sampled_from(SelectionPolicy)),
    )
    # an unknown scene type, and confidences at and beside phi_keep
    first = scenes[0]
    novel = [d for d in first.detections if d.label in kb.novel_classes]
    near = [
        replace(d, score=min(max(cfg.phi_keep + offset, 0.0), 1.0), class_scores=None)
        for d, offset in zip(novel, draw(st.lists(st.sampled_from([-1e-3, 0.0, 1e-3]))))
    ]
    scenes.append(SceneRecord("unknown", SceneContext("attic"), first.detections + tuple(near)))
    provider = draw(st.sampled_from([StaticKnowledgeProvider, ContraryJudge]))(kb)
    return scenes, provider, cfg


class TestRefineOracle:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(refine_runs())
    def test_refine_scenes_matches_the_corner_reference(self, run):
        scenes, provider, cfg = run
        results = refine_scenes(scenes, provider, cfg)
        assert len(results) == len(scenes)
        for record, (refined, log) in zip(scenes, results):
            logged = {o.index: o for o in log.objects}
            expected = []
            for index, detection in enumerate(record.detections):
                if not provider.is_novel(detection.label):
                    # base classes pass through, unlogged
                    assert index not in logged
                    expected.append(detection)
                    continue
                decision, final_label, near = reference_outcome(
                    detection, record.scene, provider, cfg
                )
                got = logged.pop(index)
                assert got.label == detection.label
                if near:
                    decision, final_label = got.decision, got.final_label
                assert (got.decision, got.final_label) == (decision, final_label), index
                if final_label is not None:
                    expected.append(replace(detection, label=final_label))
            assert logged == {}
            assert refined == replace(record, detections=tuple(expected))
            tally = {"keep": 0, "remove": 0, "reclassify": 0}
            for o in log.objects:
                tally[o.decision.value] += 1
            assert log.counts() == tally
