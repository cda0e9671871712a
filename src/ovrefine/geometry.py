"""Oriented 3D boxes, exact rotated IoU, and Soft-NMS rescoring.

Overlap between heading-aligned boxes is the bird's-eye-view intersection of
the footprints (one clipped, in the other box's frame, against that box's
half extents) times the vertical interval overlap, divided by the union
volume. A broad phase on the footprints' circumscribed circles skips the
clip for pairs that cannot touch. All functions are pure.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

# numpy is imported inside the functions that build arrays, so that commands
# which never build one (``refine``, ``solve-psl``) start without loading it
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Box7DoF", "ScoredBox", "footprint_circles", "iou3d", "parse_box", "soft_nms",
]

# Circles this far apart enclose footprints that the clip finds disjoint; the
# margin absorbs the clip's rounding (see ``iou3d``).
_REACH_SCALE = 1.0 + 1e-9
_REACH_PAD = 1e-9

# The largest magnitude, in meters, of a box's centre coordinates and
# extents: far beyond any scene, ten times inside the range where the broad
# phase of ``iou3d`` is exact, and far from where its volumes overflow
_MAX_METERS = 1e5

# Rows of a class's pair matrix that ``soft_nms`` tests at once, so that its
# temporaries hold at most this many rows times the class size
_NEIGHBOUR_BLOCK_ROWS = 256


def _wrap_angle(theta: float) -> float:
    """Wrap an angle to [-pi, pi)."""
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped < 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def _is_number(value) -> bool:
    """Whether ``value`` is a real number other than a bool.

    ``numbers.Real`` admits numpy scalars; a bool is a Real but not a number
    here. The exact types a JSON file gives are tested first, as the ABC
    check is slow.
    """
    kind = type(value)
    return kind is float or kind is int or (
        kind is not bool and isinstance(value, numbers.Real)
    )


@dataclass(frozen=True)
class Box7DoF:
    """A 3D oriented box: center, extents along local axes, heading.

    Lengths are meters; ``theta`` is the rotation of the length axis about
    the vertical axis, normalized to [-pi, pi) at construction. All seven
    fields must be finite numbers (not bools), the first six at most 1e5 in
    magnitude, and the extents strictly positive.
    """

    cx: float
    cy: float
    cz: float
    l: float
    w: float
    h: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        values = (self.cx, self.cy, self.cz, self.l, self.w, self.h, self.theta)
        # a JSON true or false would pass as 1 or 0
        if bool in map(type, values):
            raise TypeError(f"box fields must be numbers, got {values}")
        cx, cy, cz, l, w, h, theta = values
        # a NaN fails every comparison; the chain is as fast as a finiteness test
        m = _MAX_METERS
        if not (
            -m <= cx <= m and -m <= cy <= m and -m <= cz <= m
            and -m <= l <= m and -m <= w <= m and -m <= h <= m and math.isfinite(theta)
        ):
            raise ValueError(
                f"box fields must be finite, and cx to h at most 1e5 m in magnitude, got {values}"
            )
        if l <= 0.0 or w <= 0.0 or h <= 0.0:
            raise ValueError(f"box extents must be positive, got ({l}, {w}, {h})")
        object.__setattr__(self, "theta", _wrap_angle(theta))

    @property
    def volume(self) -> float:
        return self.l * self.w * self.h


def parse_box(values, where: str) -> Box7DoF:
    """A box from a JSON ``box`` entry, which must be seven finite numbers.

    Raises ``ValueError`` prefixed with ``where`` (the scene and the
    detection or proposal it came from) for any other entry.
    """
    try:
        if len(values) == 7:
            return Box7DoF(*values)
    except TypeError:
        pass
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    raise ValueError(f"{where}: box must be 7 numbers, got {values!r}")


@dataclass(frozen=True)
class ScoredBox:
    """A box with a detection score in [0, 1] and an integer class id."""

    box: Box7DoF
    score: float
    class_id: int = 0

    def __post_init__(self) -> None:
        if not _is_number(self.score):
            raise TypeError(f"score must be a number, got {self.score!r}")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")


def _clip_footprint(a: Box7DoF, b: Box7DoF) -> list[tuple[float, float]]:
    """``b``'s footprint clipped to ``a``'s, in ``a``'s frame, counter-clockwise.

    There ``a``'s footprint is ``|x| <= l/2, |y| <= w/2``. Each pass keeps
    the part with ``x`` at most a half extent, a crossing on the bound at one
    division, and turns it by ``(x, y) -> (y, -x)``, which is exact. So the
    passes clip at ``x <= l/2``, ``y <= w/2``, ``x >= -l/2``, ``y >= -w/2``,
    and the fourth turn restores the frame. Empty when a pass keeps nothing.
    """
    ca, sa = math.cos(a.theta), math.sin(a.theta)
    dx, dy = b.cx - a.cx, b.cy - a.cy
    ux, uy = dx * ca + dy * sa, dy * ca - dx * sa
    # one angle, so that equal headings give exactly cos 1 and sin 0
    c, s = math.cos(b.theta - a.theta), math.sin(b.theta - a.theta)
    hl, hw = b.l / 2.0, b.w / 2.0
    ex, ey, fx, fy = c * hl, s * hl, -s * hw, c * hw
    poly = [
        (ux + ex + fx, uy + ey + fy), (ux - ex + fx, uy - ey + fy),
        (ux - ex - fx, uy - ey - fy), (ux + ex - fx, uy + ey - fy),
    ]
    for bound in (a.l / 2.0, a.w / 2.0) * 2:
        out = []
        px, py = poly[-1]
        p_in = px <= bound
        for x, y in poly:
            inside = x <= bound
            if inside != p_in:
                out.append((py + (bound - px) / (x - px) * (y - py), -bound))
            if inside:
                out.append((y, -x))
            px, py, p_in = x, y, inside
        if not out:
            return out
        poly = out
    return poly


def _polygon_area(poly) -> float:
    area = 0.0
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        area += x1 * y2 - x2 * y1
    return abs(area) / 2.0


def footprint_circles(boxes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centres ``(cx, cy)`` and radii of the boxes' footprint circles.

    A footprint's circumscribed circle is centred on the box and has radius
    ``hypot(l, w) / 2``; ``_circles_meet`` tests pair matrices of the arrays.
    """
    import numpy as np

    cx = np.array([b.cx for b in boxes], dtype=float)
    cy = np.array([b.cy for b in boxes], dtype=float)
    radius = np.array([math.hypot(b.l, b.w) / 2.0 for b in boxes], dtype=float)
    return cx, cy, radius


def _circles_meet(dx, dy, radii):
    """The broad phase of ``iou3d``, elementwise on arrays.

    True where two footprint circles, with centres ``(dx, dy)`` apart and
    radii summing to ``radii``, may meet: the squared centre distance is at
    most ``reach ** 2``, with ``reach = radii * (1 + 1e-9) + 1e-9``. These
    are the floating-point operations of ``iou3d``'s own test, so
    ``iou3d`` is exactly ``0.0`` on every pair where this is False.
    """
    reach = radii * _REACH_SCALE + _REACH_PAD
    return dx * dx + dy * dy <= reach * reach


def _neighbour_table(members, cx, cy, radius) -> list[list[int]]:
    """For each box, the other boxes of its class whose footprint circles meet its own.

    ``members`` maps each class to the ascending indices of its boxes, and
    ``cx``, ``cy`` and ``radius`` come from ``footprint_circles``. Each
    class's pair matrix is tested with ``_circles_meet``, so a box left out
    of another's list has IoU exactly ``0.0`` with it. The matrix is built
    ``_NEIGHBOUR_BLOCK_ROWS`` rows at a time, which bounds the temporaries.
    """
    import numpy as np

    table: list[list[int]] = [[] for _ in cx]
    for indices in members.values():
        idx = np.asarray(indices)
        ccx, ccy, cr = cx[idx], cy[idx], radius[idx]
        for lo in range(0, len(idx), _NEIGHBOUR_BLOCK_ROWS):
            hi = min(lo + _NEIGHBOUR_BLOCK_ROWS, len(idx))
            meet = _circles_meet(ccx - ccx[lo:hi, None], ccy - ccy[lo:hi, None], cr + cr[lo:hi, None])
            rows = np.arange(hi - lo)
            meet[rows, rows + lo] = False  # a box is not its own neighbour
            found = idx[np.nonzero(meet)[1]].tolist()
            start = 0
            for i, count in zip(indices[lo:hi], meet.sum(axis=1).tolist()):
                table[i] = found[start:start + count]
                start += count
    return table


def iou3d(a: Box7DoF, b: Box7DoF) -> float:
    """Intersection-over-union volume ratio of two oriented boxes.

    Symmetric, in [0, 1]; degenerate (zero-volume) overlap returns 0.

    Broad phase: each footprint lies in its circumscribed circle, of radius
    ``hypot(l, w) / 2``. When the centres are farther apart than
    ``reach = (r_a + r_b) * (1 + 1e-9) + 1e-9``, the footprints are disjoint
    with that margin to spare, and 0.0 is returned before any corner is
    built. This is exact, not an approximation: ``_clip_footprint`` puts
    ``b``'s corners in ``a``'s frame, and each crossing on a bound at a
    fraction in [0, 1] of its edge, within a few ulps of the coordinates,
    far inside the margin; so some pass keeps no corner, and the clip gives
    0.0 too. This holds while the coordinates are well below 1e6 m, where a
    few ulps stay under the 1e-9 m margin; ``Box7DoF`` keeps them within
    1e5 m, where no volume overflows either, so the result is never NaN.
    """
    z_lo = max(a.cz - a.h / 2.0, b.cz - b.h / 2.0)
    z_hi = min(a.cz + a.h / 2.0, b.cz + b.h / 2.0)
    dz = z_hi - z_lo
    if dz <= 0.0:
        return 0.0
    dx = a.cx - b.cx
    dy = a.cy - b.cy
    reach = (math.hypot(a.l, a.w) / 2.0 + math.hypot(b.l, b.w) / 2.0) * _REACH_SCALE + _REACH_PAD
    if dx * dx + dy * dy > reach * reach:
        return 0.0
    overlap = _clip_footprint(a, b)
    if len(overlap) < 3:
        return 0.0
    inter = _polygon_area(overlap) * dz
    union = a.volume + b.volume - inter
    if union <= 0.0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def soft_nms(
    boxes: list[ScoredBox], sigma: float = 0.5, score_floor: float = 0.01
) -> list[ScoredBox]:
    """Gaussian Soft-NMS: decay overlapping same-class scores instead of deleting.

    Iteratively picks the highest-scoring remaining box (the earliest on a
    tie), then rescales every remaining box of the same class by
    exp(-iou^2 / sigma). Boxes whose score decays below ``score_floor`` are
    dropped. The result is sorted by final score, descending; scores never
    increase. ``sigma`` must be positive and finite, ``score_floor`` in
    [0, 1].

    A table built once per call lists, for each box, the boxes of its class
    whose footprint circles meet its own (``_neighbour_table``). A pick
    passes only its remaining neighbours to ``iou3d``. For every other box of
    the class the IoU is exactly 0.0 and the factor exactly 1.0, so its
    score is left as it is, and the result is the same as rescaling all of
    them. The picks come from a heap of ``(-score, index)``, so the highest
    score comes first, the lowest index on a tie. An entry whose score is no
    longer its box's is skipped when it is popped, and a neighbour is pushed
    again only when its rescaled score changed, so a pick costs one heap pop
    (plus those of skipped entries), one ``iou3d`` per remaining neighbour
    and one push per neighbour whose score changed. A box whose initial score
    is already below the floor is dropped at its class's first pick; after
    that, only a rescaled neighbour can fall below it.
    """
    # imported here, as numpy is, so that commands without Soft-NMS load neither
    import heapq

    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if not 0.0 <= score_floor <= 1.0:
        raise ValueError(f"score_floor must be in [0, 1], got {score_floor}")
    if not boxes:
        return []
    # -inf marks a box already picked or dropped; scores are plain floats,
    # so that each rescale and comparison stays in Python
    live = [float(sb.score) for sb in boxes]
    heap = [(-score, i) for i, score in enumerate(live)]
    heapq.heapify(heap)
    members: dict = {}
    for i, sb in enumerate(boxes):
        members.setdefault(sb.class_id, []).append(i)
    neighbours = _neighbour_table(members, *footprint_circles([sb.box for sb in boxes]))
    out: list[ScoredBox] = []
    while heap:
        negated, best = heapq.heappop(heap)
        score = live[best]
        # scores only fall, so at most one entry of a box matches it
        if score != -negated:
            continue
        live[best] = -math.inf
        picked = boxes[best]
        out.append(ScoredBox(picked.box, score, picked.class_id))
        for j in neighbours[best]:
            current = live[j]
            if current == -math.inf:
                continue
            overlap = iou3d(picked.box, boxes[j].box)
            rescaled = current * math.exp(-(overlap * overlap) / sigma)
            if rescaled < score_floor:
                live[j] = -math.inf
            elif rescaled != current:
                live[j] = rescaled
                heapq.heappush(heap, (-rescaled, j))
        # at a class's first pick, boxes that start under the floor go too
        for j in members.pop(picked.class_id, ()):
            if live[j] < score_floor:
                live[j] = -math.inf
    out.sort(key=lambda sb: -sb.score)
    return out
