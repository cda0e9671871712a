"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from conftest import library_scene, living_room_scene
from psl_reference import brute_force_solve
from ovrefine.balancers import DbcState, SbcState, dbc_accumulate, sbc_loop, sbc_step
from ovrefine.cli import main as cli_main
from ovrefine.commonsense import (
    SceneContext,
    SizeConstraintConfig,
    SizePrior,
    StaticKnowledgeProvider,
    default_knowledge_base,
    size_constraint,
    size_fit,
)
from ovrefine.geometry import Box7DoF, ScoredBox, iou3d, soft_nms
from ovrefine.pipeline import (
    Decision,
    Detection,
    SceneRecord,
    eval_ap25,
    generate_synthetic_scenes,
    refine_scene,
    refine_scenes,
    save_scenes,
)
from ovrefine.psl import (
    And,
    ConstraintVector,
    Not,
    Or,
    SelectionPolicy,
    Var,
    build_decision_rules,
    eval_expr,
    implies,
    solve,
)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL - {label}", flush=True)
        raise
    print(f"[criterion {number:2d}] PASS - {label}", flush=True)


def test_c01_solver_oracle_equivalence():
    with criterion(1, "solver-oracle equivalence, 1000 random + 3 closed-form instances"):
        start = time.perf_counter()
        rng = np.random.default_rng(20240807)
        for _ in range(1000):
            x = ConstraintVector(*rng.uniform(0.0, 1.0, 3))
            weights = tuple(float(w) for w in rng.uniform(0.0, 2.0, 3))
            rules = build_decision_rules(x, weights)
            exact = solve(rules, SelectionPolicy.MAX_KEEP_MIN_RECLS)
            grid = brute_force_solve(rules, 1e-3, dtype=np.float32)
            assert abs(exact.objective - grid.objective) <= 1e-3 + 1e-6

        out = solve(build_decision_rules(ConstraintVector(1, 1, 1)), SelectionPolicy.MAX_KEEP_MIN_RECLS)
        assert abs(out.objective - 3.0) <= 1e-9
        assert abs(out.y_keep - 1.0) <= 1e-9 and abs(out.y_recls - 0.0) <= 1e-9

        out = solve(build_decision_rules(ConstraintVector(0, 1, 1)), SelectionPolicy.MAX_KEEP_MIN_RECLS)
        assert abs(out.objective - 3.0) <= 1e-9
        assert abs(out.y_keep - 0.0) <= 1e-9

        out = solve(
            build_decision_rules(ConstraintVector(0.9, 0.5419, 1)),
            SelectionPolicy.MAX_KEEP_MIN_RECLS,
        )
        assert abs(out.y_keep - 0.9) <= 1e-9 and abs(out.y_recls - 0.2581) <= 1e-9

        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"


def test_c02_lukasiewicz_identity_suite():
    with criterion(2, "Lukasiewicz identities, exact over a 101x101 grid"):
        grid = [Fraction(i, 100) for i in range(101)]
        x_var, y_var = Var("x"), Var("y")
        de_morgan_lhs = Not(And(x_var, y_var))
        de_morgan_rhs = Or(Not(x_var), Not(y_var))
        residuation = implies(x_var, y_var)
        for x in grid:
            env_x = {"x": x}
            # boundary identities
            assert eval_expr(And(x_var, Var("one")), {**env_x, "one": Fraction(1)}) == x
            assert eval_expr(Or(x_var, Var("zero")), {**env_x, "zero": Fraction(0)}) == x
            for y in grid:
                env = {"x": x, "y": y}
                assert eval_expr(de_morgan_lhs, env) == eval_expr(de_morgan_rhs, env)
                assert (eval_expr(residuation, env) == 1) == (x <= y)


def test_c03_case_study_reproduction():
    with criterion(3, "case studies: living-room removal, library reclassification"):
        start = time.perf_counter()
        provider = StaticKnowledgeProvider(default_knowledge_base())

        refined6, log6 = refine_scene(living_room_scene(), provider)
        toilet = log6.objects[0]
        assert toilet.decision is Decision.REMOVE
        assert "toilet" not in [d.label for d in refined6.detections]

        refined7, log7 = refine_scene(library_scene(), provider)
        book = log7.objects[0]
        assert book.decision is Decision.RECLASSIFY
        assert book.final_label == "coffee table"

        # deterministic offline oracle
        again7, again_log7 = refine_scene(library_scene(), provider)
        assert again7 == refined7 and again_log7 == log7

        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"criterion 3 took {elapsed:.2f}s"


def test_c04_size_constraint_regression():
    with criterion(4, "size-constraint regression values and scale consistency"):
        cfg = SizeConstraintConfig(alpha=0.25, phi_size=0.05)
        # a dimension 10% above standard decays by exp(-0.0125)
        assert abs(size_fit(2.20, 2.0, cfg) - 0.987578) <= 1e-6
        box = Box7DoF(0, 0, 0, 2.20, 1.0, 0.5)
        assert abs(size_constraint(box, SizePrior(2.0, 1.0, 0.5), cfg) - 0.995859) <= 1e-6
        # the deadband edge itself is a perfect fit
        assert size_fit(2.10, 2.0, cfg) == 1.0

        rng = np.random.default_rng(404)
        for _ in range(10_000):
            dims = rng.uniform(0.05, 4.0, 3)
            std = rng.uniform(0.05, 4.0, 3)
            factor = float(rng.uniform(1e-2, 1e2))
            a = size_constraint(Box7DoF(0, 0, 0, *dims), SizePrior(*std), cfg)
            b = size_constraint(
                Box7DoF(0, 0, 0, *(dims * factor)), SizePrior(*(std * factor)), cfg
            )
            assert abs(a - b) <= 1e-12


def test_c05_sbc_threshold_circulation():
    with criterion(5, "threshold circulation terminates balanced or clamped"):
        base = {"a": 400, "b": 120, "c": 60, "d": 30}

        def source(phi):
            return {cls: max(0, int(base[cls] * (1.0 - phi[cls]))) for cls in base}

        state = SbcState.uniform(sorted(base), 0.5, max_iters=50)
        final, iterations = sbc_loop(source, state)
        assert iterations <= 50
        counts = source(final.phi_by_class)
        n_avg = sum(counts.values()) / len(counts)
        for cls, count in counts.items():
            offset = (count - n_avg) / n_avg
            clamped = final.phi_by_class[cls] in (0.1, 0.9)
            assert abs(offset) <= 0.5 or clamped

        worked = SbcState({"A": 0.5, "B": 0.5, "C": 0.5})
        new, changed = sbc_step({"A": 100, "B": 50, "C": 30}, worked)
        moved = [cls for cls in "ABC" if new.phi_by_class[cls] != 0.5]
        assert changed and moved == ["A"]
        assert new.phi_by_class["A"] == pytest.approx(0.55)


def test_c06_dbc_weight_schedule():
    with criterion(6, "loss-weight schedule bounded, quantized, fixture-exact"):
        rng = np.random.default_rng(606)
        classes = [f"c{i}" for i in range(12)]
        state = DbcState.initial(classes, update_interval=10, k=2)
        for _ in range(2000):
            before = dict(state.w_by_class)
            losses = {cls: float(rng.uniform(0.0, 3.0)) for cls in classes}
            state = dbc_accumulate(losses, state)
            after = state.w_by_class
            moved = [cls for cls in classes if after[cls] != before[cls]]
            assert len(moved) <= 2 * 2
            for cls in moved:
                step = abs(after[cls] - before[cls])
                at_bound = after[cls] in (0.5, 1.5)
                assert abs(step - 0.05) <= 1e-12 or at_bound
            assert all(0.5 <= w <= 1.5 for w in after.values())

        fixture = DbcState(
            {"A": 1.0, "B": 1.0, "C": 1.0},
            {"A": 5.0, "B": 1.0, "C": 3.0},
            update_interval=1,
            k=1,
            iter_count=1,
        )
        from ovrefine.balancers import dbc_update

        updated = dbc_update(fixture)
        assert updated.w_by_class == {"A": 1.05, "B": 0.95, "C": 1.0}


def _mc_iou(a, b, n_samples, seed):
    # independent Monte-Carlo oracle: sample inside box a, test membership in b
    rng = np.random.default_rng(seed)
    local = rng.uniform(-0.5, 0.5, (n_samples, 3)) * np.array([a.l, a.w, a.h])
    ca, sa = math.cos(a.theta), math.sin(a.theta)
    x = a.cx + ca * local[:, 0] - sa * local[:, 1]
    y = a.cy + sa * local[:, 0] + ca * local[:, 1]
    z = a.cz + local[:, 2]
    cb, sb = math.cos(b.theta), math.sin(b.theta)
    dx, dy, dz = x - b.cx, y - b.cy, z - b.cz
    u = cb * dx + sb * dy
    v = -sb * dx + cb * dy
    inside = (np.abs(u) <= b.l / 2) & (np.abs(v) <= b.w / 2) & (np.abs(dz) <= b.h / 2)
    inter = a.volume * float(inside.mean())
    return inter / (a.volume + b.volume - inter)


def test_c07_geometry():
    with criterion(7, "rotated IoU vs Monte-Carlo, analytic cases, soft-NMS decay"):
        cube = Box7DoF(0, 0, 0, 1, 1, 1)
        assert abs(iou3d(cube, cube) - 1.0) <= 1e-9
        assert abs(iou3d(cube, Box7DoF(10, 0, 0, 1, 1, 1)) - 0.0) <= 1e-9
        assert abs(iou3d(cube, Box7DoF(0.5, 0, 0, 1, 1, 1)) - 1.0 / 3.0) <= 1e-9

        rng = np.random.default_rng(777)
        for index in range(200):
            boxes = []
            for _ in range(2):
                cx, cy, cz = rng.uniform(-0.8, 0.8, 3)
                l, w, h = rng.uniform(0.4, 2.0, 3)
                theta = float(rng.uniform(-math.pi, math.pi))
                boxes.append(Box7DoF(cx, cy, cz, l, w, h, theta))
            estimate = _mc_iou(boxes[0], boxes[1], 100_000, seed=9_000 + index)
            assert abs(iou3d(boxes[0], boxes[1]) - estimate) <= 5e-3

        out = soft_nms([ScoredBox(cube, 1.0), ScoredBox(cube, 1.0)], sigma=0.5)
        assert abs(out[1].score - math.exp(-2.0)) <= 1e-9


def test_c08_evaluator_fixtures():
    with criterion(8, "average-precision hand fixtures"):
        scene = SceneContext("library")
        gt_box = Box7DoF(0, 0, 0.45, 0.55, 0.55, 0.9)
        gt = [SceneRecord("s", scene, (Detection(gt_box, "chair", 1.0),))]

        perfect = [SceneRecord("s", scene, (Detection(gt_box, "chair", 1.0),))]
        assert eval_ap25(perfect, gt).mean == 1.0

        assert eval_ap25([SceneRecord("s", scene, ())], gt).mean == 0.0

        far_box = Box7DoF(30, 30, 0.45, 0.55, 0.55, 0.9)
        ranked = [
            SceneRecord(
                "s",
                scene,
                (Detection(far_box, "chair", 0.9), Detection(gt_box, "chair", 0.8)),
            )
        ]
        assert eval_ap25(ranked, gt).per_class["chair"] == 0.5


def test_c09_end_to_end_synthetic_improvement():
    with criterion(9, "synthetic refinement raises mAP and purges foreign objects"):
        start = time.perf_counter()
        kb = default_knowledge_base()
        provider = StaticKnowledgeProvider(kb)
        ground_truth, detections = generate_synthetic_scenes(
            kb, seed=7, n_scenes=200, corruption_rate=0.2
        )
        before = eval_ap25(detections, ground_truth).mean
        results = refine_scenes(detections, provider)
        refined = [record for record, _ in results]
        after = eval_ap25(refined, ground_truth).mean
        assert after > before, f"mAP did not improve: {before:.4f} -> {after:.4f}"
        for record in refined:
            for det in record.detections:
                if provider.is_novel(det.label):
                    assert provider.scene_compatible(det.label, record.scene.scene_type) == 1
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"criterion 9 took {elapsed:.1f}s"
        print(f"  mAP {before:.4f} -> {after:.4f} in {elapsed:.1f}s", flush=True)


def test_c10_worker_determinism(tmp_path):
    with criterion(10, "refine output identical for --workers 1 and --workers 4"):
        kb = default_knowledge_base()
        _, detections = generate_synthetic_scenes(kb, seed=7, n_scenes=60, corruption_rate=0.2)
        det_path = tmp_path / "detections.jsonl"
        save_scenes(detections, det_path)
        outputs = []
        for workers in ("1", "4"):
            out = tmp_path / f"out_w{workers}.jsonl"
            log = tmp_path / f"log_w{workers}.jsonl"
            code = cli_main(
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
