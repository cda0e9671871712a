import math

import numpy as np
import pytest

from ovrefine.geometry import Box7DoF, ScoredBox, iou3d, parse_box, soft_nms


def unit_cube(cx=0.0, cy=0.0, cz=0.0, theta=0.0):
    return Box7DoF(cx, cy, cz, 1.0, 1.0, 1.0, theta)


def random_box(rng, spread=1.0):
    cx, cy, cz = rng.uniform(-spread, spread, 3)
    l, w, h = rng.uniform(0.3, 2.0, 3)
    theta = rng.uniform(-math.pi, math.pi)
    return Box7DoF(cx, cy, cz, l, w, h, theta)


def mc_iou(a, b, n_samples, seed):
    """Monte-Carlo oracle: sample uniformly inside box a, test membership in b.

    intersection = vol(a) * fraction; both box volumes are exact.
    """
    rng = np.random.default_rng(seed)
    local = rng.uniform(-0.5, 0.5, (n_samples, 3)) * np.array([a.l, a.w, a.h])
    c, s = math.cos(a.theta), math.sin(a.theta)
    x = a.cx + c * local[:, 0] - s * local[:, 1]
    y = a.cy + s * local[:, 0] + c * local[:, 1]
    z = a.cz + local[:, 2]
    # membership in b via b's local frame
    cb, sb = math.cos(b.theta), math.sin(b.theta)
    dx, dy, dz = x - b.cx, y - b.cy, z - b.cz
    u = cb * dx + sb * dy
    v = -sb * dx + cb * dy
    inside = (
        (np.abs(u) <= b.l / 2) & (np.abs(v) <= b.w / 2) & (np.abs(dz) <= b.h / 2)
    )
    inter = a.volume * inside.mean()
    union = a.volume + b.volume - inter
    return inter / union


class TestBox7DoF:
    def test_rejects_nonpositive_extents(self):
        with pytest.raises(ValueError):
            Box7DoF(0, 0, 0, 0.0, 1, 1)
        with pytest.raises(ValueError):
            Box7DoF(0, 0, 0, 1, -0.5, 1)

    @pytest.mark.parametrize("field", range(7))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_fields(self, field, bad):
        values = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0]
        values[field] = bad
        with pytest.raises(ValueError, match="finite"):
            Box7DoF(*values)

    @pytest.mark.parametrize("field", range(7))
    def test_rejects_boolean_fields(self, field):
        values = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0]
        values[field] = True
        with pytest.raises(TypeError, match="box fields must be numbers"):
            Box7DoF(*values)

    def test_parse_box(self):
        assert parse_box([1, 2, 3, 1, 1, 1, 0], "x") == Box7DoF(1, 2, 3, 1, 1, 1, 0)
        for bad in ([0, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1], [0, 0, 0, 1, 1, 1, 0, 0],
                    ["a", 0, 0, 1, 1, 1, 0], None, 3.0, {"cx": 0},
                    [0, 0, 0, True, True, True, False]):
            with pytest.raises(ValueError, match=r"^scene s detection 4: box must be 7 numbers"):
                parse_box(bad, "scene s detection 4")
        with pytest.raises(ValueError, match=r"^scene s detection 4: box fields must be finite"):
            parse_box([0, 0, 0, math.nan, 1, 1, 0], "scene s detection 4")
        with pytest.raises(ValueError, match=r"^p 1: box extents must be positive"):
            parse_box([0, 0, 0, 0, 1, 1, 0], "p 1")

    def test_theta_normalized(self):
        assert Box7DoF(0, 0, 0, 1, 1, 1, theta=3 * math.pi / 2).theta == pytest.approx(
            -math.pi / 2
        )
        assert Box7DoF(0, 0, 0, 1, 1, 1, theta=math.pi).theta == pytest.approx(-math.pi)
        b = Box7DoF(0, 0, 0, 1, 1, 1, theta=-math.pi)
        assert -math.pi <= b.theta < math.pi


class TestIou3d:
    def test_identity(self):
        b = Box7DoF(0.3, -1.2, 0.5, 2.0, 1.0, 0.7, 0.3)
        assert iou3d(b, b) == 1.0

    def test_disjoint(self):
        assert iou3d(unit_cube(), unit_cube(cx=10.0)) == 0.0

    def test_half_offset_cubes(self):
        # overlap 0.5, union 1.5
        got = iou3d(unit_cube(), unit_cube(cx=0.5))
        assert abs(got - 0.5 / 1.5) < 1e-9

    def test_vertical_only_separation(self):
        assert iou3d(unit_cube(), unit_cube(cz=1.0)) == 0.0

    def test_rotated_overlap_analytic(self):
        # 45-degree square over an identical centered square: intersection is
        # a regular octagon of area 2*(sqrt(2)-1).
        a = unit_cube()
        b = unit_cube(theta=math.pi / 4)
        inter = 2 * (math.sqrt(2) - 1)
        expected = inter / (2 - inter)
        assert abs(iou3d(a, b) - expected) < 1e-9

    def test_coincident_parallel_edges(self):
        # shared long edges: the clip meets parallel lines, which used to
        # divide by zero
        a = Box7DoF(1.0, 0.99999, 0.0, 23.0, 12.0, 1.0, 0.99999)
        b = Box7DoF(1.0, 0.99999, 0.0, 0.99999, 12.0, 1.0, 0.99999)
        assert iou3d(a, b) == pytest.approx(0.99999 / 23.0, abs=1e-9)
        assert iou3d(b, a) == pytest.approx(0.99999 / 23.0, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = random_box(rng), random_box(rng)
            assert abs(iou3d(a, b) - iou3d(b, a)) < 1e-12

    def test_rigid_motion_invariance(self):
        # translate, then rotate the whole scene about the vertical axis
        def moved(box, dx, dy, dz, dtheta):
            c, s = math.cos(dtheta), math.sin(dtheta)
            x, y = box.cx + dx, box.cy + dy
            return Box7DoF(
                c * x - s * y, s * x + c * y, box.cz + dz,
                box.l, box.w, box.h, box.theta + dtheta,
            )

        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = random_box(rng), random_box(rng)
            base = iou3d(a, b)
            dx, dy, dz = rng.uniform(-5, 5, 3)
            dtheta = rng.uniform(-math.pi, math.pi)
            assert abs(iou3d(moved(a, dx, dy, dz, dtheta), moved(b, dx, dy, dz, dtheta)) - base) < 1e-9

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(3)
        for i in range(30):
            a, b = random_box(rng), random_box(rng)
            exact = iou3d(a, b)
            estimate = mc_iou(a, b, 100_000, seed=1000 + i)
            assert abs(exact - estimate) <= 5e-3


class TestScoredBox:
    @pytest.mark.parametrize("score", [True, "0.9", None], ids=["bool", "str", "none"])
    def test_score_must_be_a_number(self, score):
        with pytest.raises(TypeError) as err:
            ScoredBox(unit_cube(), score)
        assert str(err.value) == f"score must be a number, got {score!r}"

    def test_numpy_score_accepted(self):
        assert ScoredBox(unit_cube(), np.float32(0.5)).score == 0.5


class TestSoftNms:
    def test_empty(self):
        assert soft_nms([]) == []

    def test_single_box_unchanged(self):
        sb = ScoredBox(unit_cube(), 0.8, 3)
        assert soft_nms([sb], sigma=0.1) == [sb]

    def test_duplicate_decay(self):
        boxes = [ScoredBox(unit_cube(), 1.0), ScoredBox(unit_cube(), 1.0)]
        out = soft_nms(boxes, sigma=0.5)
        assert len(out) == 2
        assert out[0].score == 1.0
        assert abs(out[1].score - math.exp(-2.0)) < 1e-9

    def test_per_class_suppression(self):
        boxes = [ScoredBox(unit_cube(), 0.9, 0), ScoredBox(unit_cube(), 0.9, 1)]
        out = soft_nms(boxes, sigma=0.5)
        assert sorted(sb.score for sb in out) == [0.9, 0.9]

    def test_scores_never_increase_and_top_box_kept(self):
        rng = np.random.default_rng(5)
        boxes = [
            ScoredBox(random_box(rng, spread=0.5), float(rng.uniform(0.05, 1.0)), int(rng.integers(2)))
            for _ in range(20)
        ]
        out = soft_nms(boxes, sigma=0.4)
        top = max(boxes, key=lambda sb: sb.score)
        assert any(sb.box == top.box and sb.score == top.score for sb in out)
        orig = {(sb.box, sb.class_id): sb.score for sb in boxes}
        for sb in out:
            assert sb.score <= orig[(sb.box, sb.class_id)] + 1e-12
        assert all(out[i].score >= out[i + 1].score for i in range(len(out) - 1))

    def test_floor_drops_boxes(self):
        boxes = [ScoredBox(unit_cube(), 1.0), ScoredBox(unit_cube(), 0.5)]
        out = soft_nms(boxes, sigma=0.5, score_floor=0.1)
        # second box decays to 0.5*exp(-2) ~ 0.068 < 0.1
        assert len(out) == 1

    def test_sigma_validation(self):
        for sigma in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma must be positive and finite"):
                soft_nms([], sigma=sigma)
