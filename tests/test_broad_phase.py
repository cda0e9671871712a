"""The circle broad phase changes no result: exact comparisons with oracles.

The oracles below are the IoU, Soft-NMS and foreground labelling without the
broad phase: ``oracle_iou3d`` runs ``iou3d``'s clip on every pair,
``oracle_soft_nms`` rescans all survivors for each pick, and
``oracle_assign_foreground_labels`` fills the whole proposal-by-label matrix.
Results are compared with ``==``.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovrefine import geometry
from ovrefine.balancers import assign_foreground_labels
from ovrefine.geometry import (
    Box7DoF,
    ScoredBox,
    _circles_meet,
    _clip_footprint,
    _polygon_area,
    footprint_circles,
    iou3d,
    soft_nms,
)


def oracle_iou3d(a, b):
    z_lo = max(a.cz - a.h / 2.0, b.cz - b.h / 2.0)
    z_hi = min(a.cz + a.h / 2.0, b.cz + b.h / 2.0)
    dz = z_hi - z_lo
    if dz <= 0.0:
        return 0.0
    overlap = _clip_footprint(a, b)
    if len(overlap) < 3:
        return 0.0
    inter = _polygon_area(overlap) * dz
    union = a.volume + b.volume - inter
    if union <= 0.0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def oracle_soft_nms(boxes, sigma=0.5, score_floor=0.01):
    alive = [[sb.score, i, sb] for i, sb in enumerate(boxes)]
    out = []
    while alive:
        best = min(alive, key=lambda item: (-item[0], item[1]))
        alive.remove(best)
        score, idx, picked = best
        out.append(ScoredBox(picked.box, score, picked.class_id))
        survivors = []
        for item in alive:
            if item[2].class_id == picked.class_id:
                overlap = oracle_iou3d(picked.box, item[2].box)
                item[0] *= math.exp(-(overlap * overlap) / sigma)
                if item[0] < score_floor:
                    continue
            survivors.append(item)
        alive = survivors
    out.sort(key=lambda sb: -sb.score)
    return out


def oracle_assign_foreground_labels(proposals, labels, iou_lo=0.25, iou_hi=0.85):
    n, m = len(proposals), len(labels)
    y = np.zeros(n, dtype=int)
    if m == 0 or n == 0:
        return y
    iou = np.zeros((n, m))
    for i, box in enumerate(proposals):
        for j, gt in enumerate(labels):
            iou[i, j] = oracle_iou3d(box, gt)
    pairs = sorted(
        ((iou[i, j], i, j) for i in range(n) for j in range(m) if iou[i, j] > 0.0),
        key=lambda t: (-t[0], t[1], t[2]),
    )
    matched_iou, used_labels = {}, set()
    for value, i, j in pairs:
        if i in matched_iou or j in used_labels:
            continue
        matched_iou[i] = value
        used_labels.add(j)
    best = iou.max(axis=1)
    for i in range(n):
        if i in matched_iou:
            y[i] = 1 if matched_iou[i] >= iou_lo else 0
        else:
            y[i] = 1 if best[i] > iou_hi else 0
    return y


def rejected(a, b):
    """True when the broad phase rules the pair out."""
    cx, cy, radius = footprint_circles([a, b])
    return not _circles_meet(cx[1] - cx[0], cy[1] - cy[0], radius[1] + radius[0])


def reach(a, b):
    return (math.hypot(a.l, a.w) / 2 + math.hypot(b.l, b.w) / 2) * (1 + 1e-9) + 1e-9


def random_box(rng, spread, size=(0.1, 3.0)):
    cx, cy, cz = rng.uniform(-spread, spread, 3)
    l, w, h = rng.uniform(*size, 3)
    return Box7DoF(cx, cy, cz, l, w, h, rng.uniform(-math.pi, math.pi))


def near_pair(rng, gap, scale):
    """Two boxes whose centres are ``reach * (1 + gap)`` apart.

    Half the time each footprint points a corner along the centre line,
    the orientation in which the footprints come closest.
    """
    a = random_box(rng, scale, size=(0.02, 5.0))
    l, w = rng.uniform(0.02, 5.0, 2)
    phi = rng.uniform(-math.pi, math.pi)
    if rng.random() < 0.5:
        a = Box7DoF(a.cx, a.cy, 0.0, a.l, a.w, 1.0, phi - math.atan2(a.w, a.l))
        theta = phi + math.pi - math.atan2(w, l)
    else:
        theta = rng.uniform(-math.pi, math.pi)
    probe = Box7DoF(0.0, 0.0, 0.0, l, w, 1.0)
    d = reach(a, probe) * (1.0 + gap)
    b = Box7DoF(a.cx + d * math.cos(phi), a.cy + d * math.sin(phi), a.cz + 0.1, l, w, 1.0, theta)
    return a, b


class TestIou3dEquivalence:
    def test_random_pairs_equal_oracle(self):
        rng = np.random.default_rng(20)
        skipped = 0
        for spread in (1.0, 3.0, 8.0):
            for _ in range(5000):
                a, b = random_box(rng, spread), random_box(rng, spread)
                got = iou3d(a, b)
                assert got == oracle_iou3d(a, b)
                if rejected(a, b):
                    assert got == 0.0
                    skipped += 1
        assert 1000 < skipped < 14000  # both phases are exercised

    def test_near_touching_pairs_just_beyond_reach(self):
        rng = np.random.default_rng(21)
        checked = 0
        for gap in np.logspace(-12, -3, 10):
            for scale in (1.0, 100.0, 1e4):
                for _ in range(200):
                    a, b = near_pair(rng, gap, scale)
                    if not rejected(a, b):
                        continue  # rounding of the placement landed inside reach
                    assert oracle_iou3d(a, b) == 0.0
                    assert oracle_iou3d(b, a) == 0.0
                    assert iou3d(a, b) == 0.0
                    checked += 1
        assert checked >= 5000

    def test_touching_pairs_inside_reach_still_clip(self):
        # just inside reach the clip runs and agrees with the oracle
        rng = np.random.default_rng(22)
        for gap in (-1e-3, -1e-6, -1e-9):
            for _ in range(300):
                a, b = near_pair(rng, gap, 10.0)
                assert not rejected(a, b)
                assert iou3d(a, b) == oracle_iou3d(a, b)

    def test_circle_matrix_agrees_with_iou3d_broad_phase(self):
        # the pair matrix of 40 boxes against all 400, as the labelling and
        # the Soft-NMS neighbour table build it, against the test pair by pair
        rng = np.random.default_rng(23)
        boxes = [random_box(rng, 6.0) for _ in range(400)]
        cx, cy, radius = footprint_circles(boxes)
        meet = _circles_meet(cx[:40, None] - cx, cy[:40, None] - cy, radius[:40, None] + radius)
        for i, a in enumerate(boxes[:40]):
            for j, b in enumerate(boxes):
                if not meet[i, j]:
                    assert iou3d(a, b) == 0.0 == oracle_iou3d(a, b)
                assert meet[i, j] == (not rejected(a, b))


def soft_nms_instance(rng):
    n = int(rng.integers(1, 60))
    n_class = int(rng.integers(1, 5))
    boxes = [random_box(rng, float(rng.choice([0.5, 2.0, 6.0]))) for _ in range(n)]
    for i in range(1, n):
        if rng.random() < 0.15:  # coincident with an earlier box
            boxes[i] = boxes[int(rng.integers(i))]
    levels = rng.choice([0.005, 0.2, 0.5, 0.8, 1.0], n)  # ties, and some under the floor
    scores = np.where(rng.random(n) < 0.5, levels, rng.uniform(0.0, 1.0, n))
    return [
        ScoredBox(box, float(score), int(rng.integers(n_class)))
        for box, score in zip(boxes, scores)
    ]


class TestSoftNmsEquivalence:
    @pytest.mark.parametrize("sigma, floor", [(0.5, 0.01), (0.1, 0.2), (2.0, 0.0)])
    def test_equals_quadratic_oracle(self, sigma, floor):
        rng = np.random.default_rng(int(sigma * 100) + 7)
        for _ in range(100):
            boxes = soft_nms_instance(rng)
            assert soft_nms(boxes, sigma, floor) == oracle_soft_nms(boxes, sigma, floor)

    @pytest.mark.parametrize("sigma, floor", [(0.5, 0.01), (0.1, 0.2), (2.0, 0.0)])
    def test_integer_scores_and_ties_across_classes_equal_oracle_as_floats(self, sigma, floor):
        # integer scores 0 and 1, and scores shared by every class, so that
        # picks tie across classes; ties go in index order, and every score
        # comes out as a float
        rng = np.random.default_rng(int(sigma * 100) + 8)
        for _ in range(100):
            boxes = [
                ScoredBox(sb.box, int(rng.integers(2)) if rng.random() < 0.5 else 0.5, sb.class_id)
                for sb in soft_nms_instance(rng)
            ]
            out = soft_nms(boxes, sigma, floor)
            assert out == oracle_soft_nms(boxes, sigma, floor)
            assert all(type(sb.score) is float for sb in out)

    def test_equal_scores_across_classes_pick_in_index_order(self):
        cube = Box7DoF(0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
        far = Box7DoF(50.0, 0.0, 0.0, 1.0, 1.0, 1.0)
        boxes = [
            ScoredBox(far, 1, 2), ScoredBox(cube, 1, 0), ScoredBox(cube, 1, 1),
            ScoredBox(cube, 1, 0), ScoredBox(far, 0, 2), ScoredBox(far, 0, 1),
        ]
        out = soft_nms(boxes, 0.5, 0.0)
        assert out == oracle_soft_nms(boxes, 0.5, 0.0)
        assert [(sb.box, sb.class_id) for sb in out[:3]] == [(far, 2), (cube, 0), (cube, 1)]
        assert all(type(sb.score) is float for sb in out)

    def test_floor_drops_low_initial_score_only_after_same_class_pick(self):
        far = Box7DoF(50.0, 0.0, 0.0, 1.0, 1.0, 1.0)
        boxes = [
            ScoredBox(Box7DoF(0.0, 0.0, 0.0, 1.0, 1.0, 1.0), 0.9, 0),
            ScoredBox(far, 0.005, 0),  # same class, far away: dropped
            ScoredBox(far, 0.005, 1),  # no other box of its class: kept
        ]
        out = soft_nms(boxes, 0.5, 0.01)
        assert out == oracle_soft_nms(boxes, 0.5, 0.01)
        assert [(sb.class_id, sb.score) for sb in out] == [(0, 0.9), (1, 0.005)]


class TestSoftNmsNeighbourTable:
    """The neighbour table, built in row blocks, leaves the result unchanged."""

    @pytest.mark.parametrize("sigma, floor", [(0.5, 0.01), (0.1, 0.2), (2.0, 0.0)])
    def test_small_blocks_equal_quadratic_oracle(self, monkeypatch, sigma, floor):
        monkeypatch.setattr(geometry, "_NEIGHBOUR_BLOCK_ROWS", 3)
        rng = np.random.default_rng(int(sigma * 100) + 7)
        partial = 0
        for _ in range(100):
            boxes = soft_nms_instance(rng)
            assert soft_nms(boxes, sigma, floor) == oracle_soft_nms(boxes, sigma, floor)
            sizes = Counter(sb.class_id for sb in boxes).values()
            partial += any(size > 3 and size % 3 for size in sizes)
        assert partial >= 20  # several blocks per class, the last one partial

    def test_class_larger_than_one_block_equals_oracle(self):
        rng = np.random.default_rng(40)
        n = geometry._NEIGHBOUR_BLOCK_ROWS + 44
        boxes = [
            ScoredBox(random_box(rng, 8.0), float(score), 0)
            for score in rng.choice([0.005, 0.5, 1.0, 0.3], n)
        ]
        assert soft_nms(boxes, 0.5, 0.01) == oracle_soft_nms(boxes, 0.5, 0.01)

    def test_iou3d_once_per_pick_and_live_neighbour(self, monkeypatch):
        # the oracle clips every live same-class box at each pick; of those,
        # soft_nms must clip exactly the ones whose circles meet the pick's
        want, got = Counter(), Counter()
        clip = oracle_iou3d

        def oracle_pair(a, b):
            if not rejected(a, b):
                want[a, b] += 1
            return clip(a, b)

        def iou3d_pair(a, b):
            got[a, b] += 1
            return iou3d(a, b)

        rng = np.random.default_rng(41)
        for _ in range(100):
            boxes = soft_nms_instance(rng)
            with monkeypatch.context() as patch:
                patch.setitem(globals(), "oracle_iou3d", oracle_pair)
                oracle_soft_nms(boxes, 0.5, 0.2)
                patch.setattr(geometry, "iou3d", iou3d_pair)
                soft_nms(boxes, 0.5, 0.2)
        assert got == want
        assert sum(want.values()) > 500


class TestForegroundLabelEquivalence:
    def test_equals_full_matrix(self):
        rng = np.random.default_rng(30)
        for _ in range(60):
            labels = [random_box(rng, 5.0) for _ in range(int(rng.integers(0, 6)))]
            proposals = []
            for _ in range(int(rng.integers(0, 80))):
                if labels and rng.random() < 0.5:
                    gt = labels[int(rng.integers(len(labels)))]
                    jitter = rng.normal(0.0, 0.15, 7) * [1, 1, 1, 0.1, 0.1, 0.1, 1]
                    proposals.append(Box7DoF(
                        gt.cx + jitter[0], gt.cy + jitter[1], gt.cz + jitter[2],
                        gt.l * (1 + jitter[3]), gt.w * (1 + jitter[4]), gt.h * (1 + jitter[5]),
                        gt.theta + jitter[6],
                    ))
                else:
                    proposals.append(random_box(rng, 5.0))
            for lo, hi in ((0.25, 0.85), (0.1, 0.3)):
                got = assign_foreground_labels(proposals, labels, lo, hi)
                want = oracle_assign_foreground_labels(proposals, labels, lo, hi)
                assert np.array_equal(got, want)


coords = st.floats(-1e3, 1e3)
extents = st.floats(1e-3, 1e2)
boxes = st.builds(Box7DoF, coords, coords, st.floats(-5.0, 5.0), extents, extents, extents,
                  st.floats(-10.0, 10.0))


@st.composite
def near_pairs(draw):
    """A box and a second box placed just beyond the broad phase's reach."""
    a = draw(boxes)
    l, w = draw(extents), draw(extents)
    phi = draw(st.floats(-math.pi, math.pi))
    gap = draw(st.floats(1e-12, 1e-3))
    d = reach(a, Box7DoF(0.0, 0.0, 0.0, l, w, 1.0)) * (1.0 + gap)
    b = Box7DoF(a.cx + d * math.cos(phi), a.cy + d * math.sin(phi), a.cz, l, w, a.h,
                draw(st.floats(-10.0, 10.0)))
    return a, b


pairs = st.one_of(st.tuples(boxes, boxes), near_pairs())


class TestIou3dProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pairs)
    def test_symmetric(self, pair):
        a, b = pair
        # the two argument orders clip in different orders; their rounding,
        # relative to the footprint, grows with the coordinates' magnitude
        scale = max(abs(a.cx), abs(a.cy), abs(b.cx), abs(b.cy), 1.0) / min(a.l, a.w, b.l, b.w)
        assert abs(iou3d(a, b) - iou3d(b, a)) <= 1e-12 * scale

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pairs)
    def test_in_unit_interval(self, pair):
        assert 0.0 <= iou3d(*pair) <= 1.0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pairs)
    def test_zero_when_broad_phase_rejects(self, pair):
        a, b = pair
        if rejected(a, b):
            assert iou3d(a, b) == 0.0
            assert oracle_iou3d(a, b) == 0.0
            assert oracle_iou3d(b, a) == 0.0
