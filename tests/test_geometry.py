import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovrefine.geometry import Box7DoF, ScoredBox, _polygon_area, iou3d, parse_box, soft_nms


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

    @pytest.mark.parametrize("field", range(6))
    @pytest.mark.parametrize("bad", [1.0000001e5, 1e150, -1.0000001e5, -1e150])
    def test_rejects_fields_beyond_1e5_m(self, field, bad):
        values = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0]
        values[field] = bad
        with pytest.raises(ValueError, match="finite, and cx to h at most 1e5 m in magnitude"):
            Box7DoF(*values)
        values[field] = math.copysign(1e5, bad)
        if field < 3 or bad > 0:
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


# every box that Box7DoF accepts, up to its 1e5 m bound
METERS = st.floats(-1e5, 1e5)
EXTENTS = st.floats(1e-4, 1e5)
BOXES = st.builds(
    Box7DoF, METERS, METERS, METERS, EXTENTS, EXTENTS, EXTENTS, st.floats(-1e3, 1e3)
)


class TestIou3d:
    @settings(max_examples=300, deadline=None)
    @given(a=BOXES, b=BOXES, shift=st.floats(-2.0, 2.0))
    def test_in_unit_interval_and_one_on_itself(self, a, b, shift):
        # beyond the bound, a volume overflowed and iou3d returned NaN
        near = Box7DoF(min(max(a.cx + shift, -1e5), 1e5), a.cy, a.cz, a.l, a.w, a.h, a.theta)
        for other in (b, near):
            assert 0.0 <= iou3d(a, other) <= 1.0
        # the vertical interval's ends round at the scale of cz: a box 0.1 mm
        # tall at cz = 128 m has IoU 1 - 2.2e-10 with itself
        rounding = 4 * math.ulp(abs(a.cz) + a.h) / a.h
        assert abs(iou3d(a, a) - 1.0) <= 1e-12 + rounding

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
        # shared long edges, which a polygon-by-polygon clip meets as
        # parallel lines
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


def bev_corners(box):
    """Ground-plane footprint corners of ``box``, counter-clockwise."""
    c, s = math.cos(box.theta), math.sin(box.theta)
    hl, hw = box.l / 2.0, box.w / 2.0
    return [
        (box.cx + c * hl - s * hw, box.cy + s * hl + c * hw),
        (box.cx - c * hl - s * hw, box.cy - s * hl + c * hw),
        (box.cx - c * hl + s * hw, box.cy - s * hl - c * hw),
        (box.cx + c * hl + s * hw, box.cy + s * hl - c * hw),
    ]


def _edge_intersection(p, q, a, b):
    # Intersection of lines (p, q) and (a, b); callers guarantee they cross.
    x1, y1 = p
    x2, y2 = q
    x3, y3 = a
    x4, y4 = b
    denom = (x1 - x2) * (y3 - y4) - (y1 - y2) * (x3 - x4)
    if denom == 0.0:
        # parallel: the side tests split p and q only by rounding, so both
        # lie on the clip line (coincident edges of the two footprints)
        return p
    t = ((x1 - x3) * (y3 - y4) - (y1 - y3) * (x3 - x4)) / denom
    return (x1 + t * (x2 - x1), y1 + t * (y2 - y1))


def _clip_polygon(subject, clip):
    """Sutherland-Hodgman: clip a convex CCW polygon by a convex CCW polygon."""
    output = list(subject)
    n = len(clip)
    for i in range(n):
        if not output:
            return []
        a = clip[i]
        b = clip[(i + 1) % n]
        ex, ey = b[0] - a[0], b[1] - a[1]
        pts = output
        output = []
        prev = pts[-1]
        prev_in = ex * (prev[1] - a[1]) - ey * (prev[0] - a[0]) >= 0.0
        for cur in pts:
            cur_in = ex * (cur[1] - a[1]) - ey * (cur[0] - a[0]) >= 0.0
            if cur_in != prev_in:
                output.append(_edge_intersection(prev, cur, a, b))
            if cur_in:
                output.append(cur)
            prev, prev_in = cur, cur_in
    return output


def polygon_clip_iou3d(a, b):
    """IoU from a clip of one footprint's world corners by the other's.

    An independent reference for ``iou3d``: no broad phase, and the
    footprints clipped as general convex polygons in the world frame.
    """
    dz = min(a.cz + a.h / 2.0, b.cz + b.h / 2.0) - max(a.cz - a.h / 2.0, b.cz - b.h / 2.0)
    if dz <= 0.0:
        return 0.0
    overlap = _clip_polygon(bev_corners(a), bev_corners(b))
    if len(overlap) < 3:
        return 0.0
    inter = _polygon_area(overlap) * dz
    union = a.volume + b.volume - inter
    if union <= 0.0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


centres = st.floats(-10.0, 10.0)
# multiples of 1/64 m, on which boxes at heading 0 have exact corners and shared edges
grid = st.integers(-640, 640).map(lambda k: k / 64.0)
extents = st.floats(0.05, 10.0)
grid_extents = st.integers(4, 640).map(lambda k: k / 64.0)
headings = st.one_of(
    st.floats(-math.pi, math.pi), st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi / 4])
)


@st.composite
def clip_pairs(draw):
    """Two boxes: free, with equal headings, or sharing the line of an edge.

    A shared edge puts ``b``'s centre on one of ``a``'s axes, half the sum
    or difference of the extents across it from ``a``'s centre, so that
    ``b`` touches ``a`` from outside or lines an edge from inside.
    """
    coord, size = draw(st.sampled_from([(centres, extents), (grid, grid_extents)]))
    a = Box7DoF(draw(coord), draw(coord), draw(st.floats(-1.0, 1.0)), draw(size), draw(size),
                draw(size), draw(headings))
    l, w, h = draw(size), draw(size), draw(size)
    kind = draw(st.sampled_from(["free", "equal heading", "shared edge"]))
    theta = draw(headings) if kind == "free" else a.theta
    if kind != "shared edge":
        return a, Box7DoF(draw(coord), draw(coord), draw(st.floats(-1.0, 1.0)), l, w, h, theta)
    sign, outside = draw(st.sampled_from([-1.0, 1.0])), draw(st.booleans())
    if draw(st.booleans()):
        u, v = sign * (a.l + l if outside else a.l - l) / 2.0, draw(coord) % a.w - a.w / 2.0
    else:
        u, v = draw(coord) % a.l - a.l / 2.0, sign * (a.w + w if outside else a.w - w) / 2.0
    c, s = math.cos(a.theta), math.sin(a.theta)
    return a, Box7DoF(a.cx + c * u - s * v, a.cy + s * u + c * v, a.cz, l, w, h, theta)


def footprint_gap(a, b):
    """The footprints' largest gap along an edge normal of either box.

    Positive when the footprints are at least that far apart; otherwise
    minus the least depth of their overlap along those normals.
    """
    gap = -math.inf
    pa, pb = bev_corners(a), bev_corners(b)
    for theta in (a.theta, b.theta):
        c, s = math.cos(theta), math.sin(theta)
        for nx, ny in ((c, s), (-s, c)):
            ta = [x * nx + y * ny for x, y in pa]
            tb = [x * nx + y * ny for x, y in pb]
            gap = max(gap, min(tb) - max(ta), min(ta) - max(tb))
    return gap


class TestIou3dMatchesPolygonClip:
    """``iou3d`` agrees with a world-frame clip of two general polygons."""

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(clip_pairs())
    def test_within_1e_12_and_zero_exactly_where_the_reference_is(self, pair):
        for a, b in (pair, pair[::-1]):
            got, want = iou3d(a, b), polygon_clip_iou3d(a, b)
            assert abs(got - want) <= 1e-12
            # footprints that touch have IoU 0, and either clip may leave a
            # rounding sliver there (up to about 3e-14 for the reference)
            if abs(footprint_gap(a, b)) > 1e-9:
                assert (got == 0.0) == (want == 0.0)

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, -math.pi / 2, math.pi / 4, 0.99999])
    def test_shared_edges(self, theta):
        # a thin box lines a's long edge from inside, then touches it from outside
        c, s = math.cos(theta), math.sin(theta)
        a = Box7DoF(1.0, 2.0, 0.0, 8.0, 4.0, 1.0, theta)
        inside = Box7DoF(1.0 - s * 1.5, 2.0 + c * 1.5, 0.0, 8.0, 1.0, 1.0, theta)
        outside = Box7DoF(1.0 - s * 2.5, 2.0 + c * 2.5, 0.0, 8.0, 1.0, 1.0, theta)
        for p, q in ((a, inside), (inside, a), (a, outside), (outside, a)):
            assert abs(iou3d(p, q) - polygon_clip_iou3d(p, q)) <= 1e-12
        assert iou3d(a, inside) == pytest.approx(0.25, abs=1e-12)
        assert iou3d(a, outside) <= 1e-12
        if theta == 0.0:
            assert iou3d(a, inside) == 0.25
            assert iou3d(a, outside) == 0.0


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

    @pytest.mark.parametrize("floor", [math.nan, -0.01, 1.5, math.inf, -math.inf])
    def test_score_floor_validation(self, floor):
        # a NaN floor would keep every box, as no score compares below it
        boxes = [ScoredBox(unit_cube(), 0.9), ScoredBox(unit_cube(), 0.005)]
        for given in ([], boxes):
            with pytest.raises(ValueError, match=r"score_floor must be in \[0, 1\]"):
                soft_nms(given, 0.5, floor)

    @pytest.mark.parametrize("floor, scores", [(0.0, [1.0, 0.5 * math.exp(-2.0)]), (1.0, [1.0])])
    def test_score_floor_bounds_are_accepted(self, floor, scores):
        boxes = [ScoredBox(unit_cube(), 1.0), ScoredBox(unit_cube(), 0.5)]
        assert [sb.score for sb in soft_nms(boxes, 0.5, floor)] == pytest.approx(scores)
