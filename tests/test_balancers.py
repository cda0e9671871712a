import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovrefine.balancers import (
    DbcState,
    ProposalSet,
    PseudoLabel2D,
    SbcState,
    assign_foreground_labels,
    baol_compress,
    baol_loss,
    dbc_accumulate,
    dbc_update,
    load_loss_stream,
    load_pseudo_labels,
    positive_similarity,
    proposal_record,
    reflect_filter,
    sbc_loop,
    sbc_step,
    scale_loss,
)
from ovrefine.geometry import Box7DoF, iou3d


def label(cls="chair", confidence=0.8, sim_pos=1.0, sim_neg=0.0):
    return PseudoLabel2D((0.0, 0.0, 10.0, 10.0), cls, confidence, sim_pos, sim_neg)


class TestReflectFilter:
    def test_confident_pair_kept(self):
        kept = reflect_filter([label(sim_pos=2.0, sim_neg=0.0)], 0.5)
        assert len(kept) == 1
        assert positive_similarity(label(sim_pos=2.0, sim_neg=0.0)) == pytest.approx(
            0.880797, abs=1e-6
        )

    def test_boundary_kept(self):
        # equal similarities give exactly 0.5, which survives phi_clip = 0.5
        assert len(reflect_filter([label(sim_pos=1.3, sim_neg=1.3)], 0.5)) == 1

    def test_negative_pair_deleted(self):
        item = label(sim_pos=0.0, sim_neg=2.0)
        assert positive_similarity(item) == pytest.approx(0.119203, abs=1e-6)
        assert reflect_filter([item], 0.5) == []

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        labels = [
            label(sim_pos=float(rng.normal()), sim_neg=float(rng.normal())) for _ in range(100)
        ]
        once = reflect_filter(labels, 0.5)
        assert reflect_filter(once, 0.5) == once

    def test_extreme_logits_stable(self):
        assert positive_similarity(label(sim_pos=1000.0, sim_neg=0.0)) == 1.0
        assert positive_similarity(label(sim_pos=0.0, sim_neg=1000.0)) == 0.0

    def test_invalid_bbox(self):
        with pytest.raises(ValueError):
            PseudoLabel2D((5.0, 0.0, 1.0, 10.0), "chair", 0.5, 0.0, 0.0)

    @pytest.mark.parametrize(
        "bbox, cls, sims, error, message",
        [
            ((0, 0, 1, 1), ["chair"], (0.0, 0.0), TypeError, 'label must be a string, got ["chair"]'),
            # unpacked, a string of four characters would pass as a box
            ("0123", "chair", (0.0, 0.0), ValueError, 'bbox must be 4 finite numbers, got "0123"'),
            ((0, 0, 1), "chair", (0.0, 0.0), ValueError, "bbox must be 4 finite numbers"),
            ((0, 0, 1, math.inf), "chair", (0.0, 0.0), ValueError, "bbox must be 4 finite numbers"),
            ((0, 0, 1, 1), "chair", (math.nan, 0.0), ValueError, "sim_pos must be finite, got NaN"),
            ((0, 0, 1, 1), "chair", (0.0, -math.inf), ValueError, "sim_neg must be finite, got -Infinity"),
        ],
        ids=["label-list", "bbox-string", "bbox-short", "bbox-inf", "sim_pos-nan", "sim_neg-inf"],
    )
    def test_invalid_fields(self, bbox, cls, sims, error, message):
        with pytest.raises(error) as err:
            PseudoLabel2D(bbox, cls, 0.5, *sims)
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize("field", ["confidence", "sim_pos", "sim_neg"])
    @pytest.mark.parametrize("bad, shown", [(True, "true"), ("0.9", '"0.9"')], ids=["bool", "str"])
    def test_number_fields_refuse_bools_and_strings(self, field, bad, shown):
        values = {"confidence": 0.5, "sim_pos": 0.0, "sim_neg": 0.0, field: bad}
        with pytest.raises(TypeError) as err:
            PseudoLabel2D((0, 0, 1, 1), "chair", **values)
        assert str(err.value) == f"{field} must be a number, got {shown}"

    def test_number_fields_take_numpy_scalars(self):
        label = PseudoLabel2D((0, 0, 1, 1), "chair", np.float32(0.5), np.float64(1.0), 0)
        assert label.confidence == 0.5

    def test_bbox_list_stored_as_tuple(self):
        assert PseudoLabel2D([0, 0, 1, 1], "chair", 0.5, 0.0, 0.0).bbox == (0, 0, 1, 1)


class TestSbcStep:
    def test_worked_example(self):
        state = SbcState({"A": 0.5, "B": 0.5, "C": 0.5})
        new, changed = sbc_step({"A": 100, "B": 50, "C": 30}, state)
        # offsets: A +0.6667, B -0.1667, C -0.5 (not strictly above the bound)
        assert changed
        assert new.phi_by_class == {"A": 0.55, "B": 0.5, "C": 0.5}

    def test_equal_counts_no_change(self):
        state = SbcState({"A": 0.5, "B": 0.5})
        new, changed = sbc_step({"A": 7, "B": 7}, state)
        assert not changed
        assert new.phi_by_class == state.phi_by_class

    def test_clamped_threshold_frozen(self):
        state = SbcState({"A": 0.9, "B": 0.5, "C": 0.5})
        new, changed = sbc_step({"A": 1000, "B": 1, "C": 1}, state)
        assert new.phi_by_class["A"] == 0.9
        # B and C move down; A is pinned at the upper bound
        assert changed

    def test_zero_average(self):
        state = SbcState({"A": 0.5, "B": 0.5})
        new, changed = sbc_step({"A": 0, "B": 0}, state)
        assert not changed

    def test_empty_classes_error(self):
        with pytest.raises(ValueError):
            sbc_step({}, SbcState({}))

    def test_counts_must_cover_classes(self):
        with pytest.raises(ValueError):
            sbc_step({"A": 1}, SbcState({"A": 0.5, "B": 0.5}))

    @pytest.mark.parametrize("delta_phi", [0.0, -0.05, math.nan, math.inf])
    def test_step_must_be_positive_and_finite(self, delta_phi):
        with pytest.raises(ValueError, match="delta_phi must be positive and finite"):
            SbcState({"A": 0.5}, delta_phi=delta_phi)

    def test_steps_stay_in_bounds_and_quantized(self):
        rng = np.random.default_rng(3)
        state = SbcState.uniform(["a", "b", "c", "d"], 0.5)
        for _ in range(100):
            counts = {c: int(rng.integers(0, 200)) for c in state.phi_by_class}
            new, _ = sbc_step(counts, state)
            for cls in state.phi_by_class:
                move = abs(new.phi_by_class[cls] - state.phi_by_class[cls])
                assert min(move, abs(move - 0.05)) < 1e-9
                assert 0.1 <= new.phi_by_class[cls] <= 0.9
            state = new


class TestSbcLoop:
    def test_immediate_fixpoint(self):
        state = SbcState({"A": 0.5, "B": 0.5})
        final, iters = sbc_loop(lambda phi: {"A": 5, "B": 5}, state)
        assert iters == 1
        assert final.phi_by_class == state.phi_by_class

    def test_monotone_source_reaches_balance(self):
        # counts fall linearly with the class threshold; rates differ per class
        base = {"a": 400, "b": 120, "c": 60}

        def source(phi):
            return {c: max(0, int(base[c] * (1.0 - phi[c]))) for c in base}

        final, iters = sbc_loop(source, SbcState.uniform(sorted(base), 0.5))
        assert iters <= 50
        counts = source(final.phi_by_class)
        n_avg = sum(counts.values()) / len(counts)
        for cls, count in counts.items():
            offset = (count - n_avg) / n_avg
            clamped = final.phi_by_class[cls] in (0.1, 0.9)
            assert abs(offset) <= 0.5 or clamped

    def test_adversarial_source_hits_cap(self):
        flip = {"on": False}

        def source(phi):
            flip["on"] = not flip["on"]
            return {"A": 1000 if flip["on"] else 0, "B": 0 if flip["on"] else 1000}

        state = SbcState({"A": 0.5, "B": 0.5}, max_iters=50)
        final, iters = sbc_loop(source, state)
        assert iters == 50

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_max_iters_below_one_rejected(self, max_iters):
        # sbc_loop would report convergence without taking a step
        with pytest.raises(ValueError, match=f"max_iters must be at least 1, got {max_iters}"):
            SbcState({"A": 0.5}, max_iters=max_iters)


class TestDbc:
    def test_accumulate_single(self):
        state = DbcState.initial(["A"])
        new = dbc_accumulate({"A": 1.0}, state)
        assert new.sum_by_class["A"] == 1.0
        assert new.iter_count == 1

    def test_accumulate_additive(self):
        state = DbcState.initial(["A", "B"])
        for _ in range(2):
            state = dbc_accumulate({"A": 1.0, "B": 2.0}, state)
        assert state.sum_by_class == {"A": 2.0, "B": 4.0}

    def test_accumulate_scales_by_weight(self):
        state = DbcState({"A": 1.05}, w_lo=0.5, w_hi=1.5)
        state = dbc_accumulate({"A": 1.0}, state)
        assert state.sum_by_class["A"] == pytest.approx(1.05)

    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError):
            dbc_accumulate({"A": -1.0}, DbcState.initial(["A"]))

    def test_update_worked_example(self):
        state = DbcState.initial(["A", "B", "C"], k=1)
        state = DbcState(
            state.w_by_class, {"A": 5.0, "B": 1.0, "C": 3.0}, k=1, iter_count=1, update_interval=1
        )
        new = dbc_update(state)
        assert new.w_by_class == {"A": 1.05, "B": 0.95, "C": 1.0}
        assert new.sum_by_class == {"A": 0.0, "B": 0.0, "C": 0.0}
        assert new.iter_count == 0

    def test_update_fires_on_interval(self):
        state = DbcState.initial(["A", "B", "C"], k=1, update_interval=2)
        state = dbc_accumulate({"A": 5.0, "B": 1.0, "C": 3.0}, state)
        assert state.iter_count == 1
        state = dbc_accumulate({"A": 5.0, "B": 1.0, "C": 3.0}, state)
        assert state.iter_count == 0
        assert state.w_by_class == {"A": 1.05, "B": 0.95, "C": 1.0}

    def test_clamp_at_upper_bound(self):
        state = DbcState(
            {"A": 1.5, "B": 1.0, "C": 1.0},
            {"A": 9.0, "B": 1.0, "C": 0.5},
            k=1,
        )
        new = dbc_update(state)
        assert new.w_by_class["A"] == 1.5

    def test_tie_order_lexicographic(self):
        state = DbcState(
            {"A": 1.0, "B": 1.0, "C": 1.0}, {"A": 2.0, "B": 2.0, "C": 2.0}, k=1
        )
        new = dbc_update(state)
        assert new.w_by_class == {"A": 1.05, "B": 1.0, "C": 0.95}

    def test_k_reduced_for_small_class_count(self):
        state = DbcState({"A": 1.0, "B": 1.0, "C": 1.0}, {"A": 3.0, "B": 2.0, "C": 1.0}, k=5)
        new = dbc_update(state)
        # floor(3/2) = 1 per side
        moved = [c for c in "ABC" if new.w_by_class[c] != 1.0]
        assert moved == ["A", "C"]

    @pytest.mark.parametrize(
        "params, message",
        [
            # ranked[:-1] and ranked[1:] would move all but one class each way
            ({"k": -1}, "k must be at least 0, got -1"),
            # the update would fire on every iteration
            ({"update_interval": 0}, "update_interval must be at least 1, got 0"),
            ({"update_interval": -2}, "update_interval must be at least 1, got -2"),
        ],
    )
    def test_out_of_range_schedule_rejected(self, params, message):
        with pytest.raises(ValueError, match=message):
            DbcState.initial(["A", "B", "C"], **params)

    def test_zero_k_moves_no_weight(self):
        state = DbcState({"A": 1.0, "B": 1.0, "C": 1.0}, {"A": 3.0, "B": 2.0, "C": 1.0}, k=0)
        assert dbc_update(state).w_by_class == {"A": 1.0, "B": 1.0, "C": 1.0}

    def test_update_moves_at_most_2k_by_delta(self):
        rng = np.random.default_rng(23)
        classes = [f"c{i}" for i in range(12)]
        state = DbcState.initial(classes, k=3, update_interval=10)
        for _ in range(200):
            losses = {c: float(rng.uniform(0, 2)) for c in classes}
            before = dict(state.w_by_class)
            state = dbc_accumulate(losses, state)
            after = state.w_by_class
            moved = [c for c in classes if after[c] != before[c]]
            assert len(moved) <= 6
            for c in moved:
                assert abs(after[c] - before[c]) <= 0.05 + 1e-12
            assert all(0.5 <= w <= 1.5 for w in after.values())

    @pytest.mark.parametrize("delta_w", [0.0, -0.05, math.nan, math.inf])
    def test_step_must_be_positive_and_finite(self, delta_w):
        # a NaN step sends the moved weights straight to their clamps
        with pytest.raises(ValueError, match="delta_w must be positive and finite"):
            DbcState.initial(["A", "B"], delta_w=delta_w)

    def test_scale_loss(self):
        state = DbcState({"A": 1.05, "B": 1.0}, w_lo=0.5, w_hi=1.5)
        assert scale_loss({"A": 2.0}, state) == {"A": pytest.approx(2.1)}
        assert scale_loss({"unknown": 3.0}, state) == {"unknown": 3.0}
        assert scale_loss({"A": 0.0}, state) == {"A": 0.0}


def make_proposals(boxes, scores, fg):
    return ProposalSet(tuple(boxes), np.array(scores, dtype=float), np.array(fg, dtype=float))


class TestBaolCompress:
    def test_identity_scaling(self):
        boxes = [Box7DoF(i, 0, 0, 1, 1, 1) for i in range(2)]
        p = make_proposals(boxes, [[0.9, 0.1], [0.2, 0.8]], [1.0, 1.0])
        out = baol_compress(p, 4)
        assert out.box_indices == (0, 1)
        np.testing.assert_allclose(out.scores, p.class_scores)

    def test_worked_example(self):
        boxes = [Box7DoF(i, 0, 0, 1, 1, 1) for i in range(2)]
        p = make_proposals(boxes, [[0.9, 0.1], [0.2, 0.8]], [0.5, 1.0])
        out = baol_compress(p, 2)
        # scaled matrix [[0.45, 0.05], [0.2, 0.8]]; top-2 entries 0.8 and 0.45
        assert out.box_indices == (0, 1)
        np.testing.assert_allclose(out.scores, [[0.45, 0.05], [0.2, 0.8]])

    def test_small_k_drops_boxes(self):
        boxes = [Box7DoF(i, 0, 0, 1, 1, 1) for i in range(3)]
        p = make_proposals(
            boxes, [[0.9, 0.8], [0.1, 0.05], [0.7, 0.6]], [1.0, 1.0, 1.0]
        )
        out = baol_compress(p, 3)
        assert out.box_indices == (0, 2)
        assert out.scores.shape == (2, 2)

    def test_k_bounds(self):
        boxes = [Box7DoF(0, 0, 0, 1, 1, 1)]
        p = make_proposals(boxes, [[0.5]], [1.0])
        with pytest.raises(ValueError):
            baol_compress(p, 0)
        with pytest.raises(ValueError):
            baol_compress(p, 2)

    def test_fg_scale_invariance(self):
        rng = np.random.default_rng(31)
        boxes = [Box7DoF(i, 0, 0, 1, 1, 1) for i in range(6)]
        scores = rng.uniform(0.01, 1.0, (6, 4))
        fg = rng.uniform(0.1, 1.0, 6)
        a = baol_compress(make_proposals(boxes, scores, fg), 10)
        b = baol_compress(make_proposals(boxes, scores, np.minimum(fg * 0.37, 1.0)), 10)
        assert a.box_indices == b.box_indices

    def test_row_count_bound(self):
        rng = np.random.default_rng(37)
        boxes = [Box7DoF(i, 0, 0, 1, 1, 1) for i in range(5)]
        p = make_proposals(boxes, rng.uniform(0, 1, (5, 3)), rng.uniform(0, 1, 5))
        for k in (1, 4, 9, 15):
            out = baol_compress(p, k)
            assert len(out.box_indices) == out.scores.shape[0]
            assert len(out.box_indices) <= min(k, 5)


class TestAssignForegroundLabels:
    LO, HI = 0.25, 0.85

    def test_exact_match_is_foreground(self):
        box = Box7DoF(0, 0, 0, 1, 1, 1)
        y = assign_foreground_labels([box], [box], self.LO, self.HI)
        assert y.tolist() == [1]

    def test_poor_match_is_background(self):
        prop = Box7DoF(0.95, 0, 0, 1, 1, 1)  # IoU with the label ~ 0.026
        gt = Box7DoF(0, 0, 0, 1, 1, 1)
        assert iou3d(prop, gt) < self.LO
        y = assign_foreground_labels([prop], [gt], self.LO, self.HI)
        assert y.tolist() == [0]

    def test_duplicate_rescued_by_high_iou(self):
        gt = Box7DoF(0, 0, 0, 1, 1, 1)
        near1 = Box7DoF(0.01, 0, 0, 1, 1, 1)
        near2 = Box7DoF(-0.01, 0, 0, 1, 1, 1)
        y = assign_foreground_labels([near1, near2], [gt], self.LO, self.HI)
        assert y.tolist() == [1, 1]

    def test_no_labels_all_background(self):
        y = assign_foreground_labels([Box7DoF(0, 0, 0, 1, 1, 1)], [], self.LO, self.HI)
        assert y.tolist() == [0]

    def test_threshold_order_enforced(self):
        with pytest.raises(ValueError):
            assign_foreground_labels([], [], 0.85, 0.25)

    def test_threshold_properties(self):
        rng = np.random.default_rng(41)
        gts = [Box7DoF(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)), 0, 1, 1, 1) for _ in range(4)]
        props = [
            Box7DoF(float(rng.uniform(-2.5, 2.5)), float(rng.uniform(-2.5, 2.5)), 0, 1, 1, 1, float(rng.uniform(-3, 3)))
            for _ in range(25)
        ]
        y = assign_foreground_labels(props, gts, self.LO, self.HI)
        for i, prop in enumerate(props):
            best = max(iou3d(prop, gt) for gt in gts)
            if best > self.HI:
                assert y[i] == 1
            if best < self.LO:
                assert y[i] == 0



class TestBaolLoss:
    def test_perfect_prediction_near_zero(self):
        y = [1, 0, 1]
        o = [1.0, 0.0, 1.0]
        assert baol_loss(y, o, lam=1.0) <= 1e-6

    def test_uniform_prediction_ln2(self):
        assert baol_loss([1, 0], [0.5, 0.5], lam=1.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_lambda_zero_ignores_background(self):
        assert baol_loss([1, 0], [0.9, 0.9], lam=0.0) == pytest.approx(
            -0.5 * math.log(0.9), abs=1e-12
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            baol_loss([1, 0], [0.5], lam=1.0)

    @pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
    def test_lambda_must_be_nonnegative_and_finite(self, lam):
        with pytest.raises(ValueError, match="lam must be nonnegative and finite"):
            baol_loss([1, 0], [0.5, 0.5], lam=lam)

    def test_nonnegative_and_monotone(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            y = rng.integers(0, 2, 8)
            o = rng.uniform(0.01, 0.99, 8)
            assert baol_loss(y, o, lam=float(rng.uniform(0, 2))) >= 0.0
        # decreasing in o_i when y_i = 1
        base = baol_loss([1], [0.4], lam=1.0)
        assert baol_loss([1], [0.6], lam=1.0) < base


# a score as JSON gives it: a float in [0, 1], -0.0, or the int 0 or 1
SCORES = st.one_of(st.floats(0.0, 1.0), st.sampled_from([-0.0, 0, 1]))


@st.composite
def score_matrices(draw):
    """A proposal record's ``class_scores`` rows and ``fg_scores``, one per box."""
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(SCORES, min_size=m, max_size=m), min_size=n, max_size=n))
    return rows, draw(st.lists(SCORES, min_size=n, max_size=n))


class TestFileFormats:
    def test_pseudo_label_round_trip(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text(
            '{"image_id": "img0", "labels": [{"bbox": [0, 0, 4, 4], "label": "chair", '
            '"confidence": 0.8, "sim_pos": 2.0, "sim_neg": 0.0}]}\n'
            '\n'
            '{"image_id": "img1", "labels": []}\n'
            '{"labels": []}\n'
            # any key but labels is ignored, image_id among them
            '{"image_id": null, "labels": []}\n'
            '{"image_id": ["a"], "labels": []}\n'
        )
        records = load_pseudo_labels(path)
        assert [len(labels) for labels in records] == [1, 0, 0, 0, 0]
        assert records[0][0].label == "chair"

    def test_loss_stream(self, tmp_path):
        path = tmp_path / "losses.jsonl"
        path.write_text('{"A": 1.0, "B": 2.5}\n{"A": 0.5, "B": 0.25}\n')
        stream = load_loss_stream(path)
        assert stream == [{"A": 1.0, "B": 2.5}, {"A": 0.5, "B": 0.25}]

    @settings(max_examples=300, deadline=None)
    @given(score_matrices())
    def test_proposal_scores_are_read_as_numpy_reads_them(self, scores):
        class_scores, fg_scores = scores
        data = {
            "boxes": [[i, 0, 0, 1, 1, 1, 0] for i in range(len(fg_scores))],
            "class_scores": class_scores,
            "fg_scores": fg_scores,
        }
        proposals, labels = proposal_record(data, 0)
        assert labels == ()
        for name, raw in (("class_scores", class_scores), ("fg_scores", fg_scores)):
            assert getattr(proposals, name).tobytes() == np.asarray(raw, dtype=float).tobytes()
