"""Training-side balancing machinery as pure, simulatable components.

Covers: reflection filtering of 2D pseudo labels, per-class confidence
threshold circulation (static balance), per-class loss-weight scheduling
(dynamic balance), and background-aware proposal scoring with its loss.
State objects are immutable; every step returns a new state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .geometry import _MAX_FLOAT, Box7DoF, footprint_neighbours, iou3d, parse_box
from .jsonl import ARRAY, brief, expect, is_number, number, numbers, parse_line, read_lines

# numpy is imported inside the proposal-scoring functions, the only code here
# that builds arrays, so that `balance` and `dbc-sim` start without loading it
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PseudoLabel2D",
    "positive_similarity",
    "reflect_filter",
    "SbcState",
    "sbc_step",
    "sbc_loop",
    "DbcState",
    "dbc_accumulate",
    "dbc_update",
    "scale_loss",
    "ProposalSet",
    "CompressedProposals",
    "baol_compress",
    "assign_foreground_labels",
    "baol_loss",
    "load_pseudo_labels",
    "load_loss_stream",
    "proposal_record",
]


# --------------------------------------------------------------------------
# Reflection filtering


@dataclass(frozen=True)
class PseudoLabel2D:
    """A 2D pseudo label with its positive/negative template similarities."""

    bbox: tuple[float, float, float, float]  # pixels, (x1, y1, x2, y2)
    label: str
    confidence: float
    sim_pos: float
    sim_neg: float

    def __post_init__(self) -> None:
        if not isinstance(self.label, str):
            raise TypeError(f"label must be a string, got {brief(self.label)}")
        # a JSON true or false would pass as 1 or 0, a string of 4 characters as 4 items
        if not (
            isinstance(self.bbox, (list, tuple)) and len(self.bbox) == 4
            and all(is_number(v) and -_MAX_FLOAT <= v <= _MAX_FLOAT for v in self.bbox)
        ):
            raise ValueError(f"bbox must be 4 finite numbers, got {brief(self.bbox)}")
        object.__setattr__(self, "bbox", tuple(self.bbox))
        x1, y1, x2, y2 = self.bbox
        if not (x1 < x2 and y1 < y2):
            raise ValueError(f"degenerate bbox {brief(self.bbox)}")
        for name in ("confidence", "sim_pos", "sim_neg"):
            object.__setattr__(self, name, number(getattr(self, name), name))
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {brief(self.confidence)}")
        # reflect_filter would drop a label with a NaN similarity without a word
        for name in ("sim_pos", "sim_neg"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {brief(getattr(self, name))}")


def positive_similarity(label: PseudoLabel2D) -> float:
    """Two-way normalized exponential of (sim_pos, sim_neg)."""
    d = label.sim_neg - label.sim_pos
    if d > 700.0:
        return 0.0
    if d < -700.0:
        return 1.0
    return 1.0 / (1.0 + math.exp(d))


def reflect_filter(labels: Sequence[PseudoLabel2D], phi_clip: float) -> list[PseudoLabel2D]:
    """Drop labels whose normalized positive similarity is strictly below phi_clip."""
    if not 0.0 <= phi_clip <= 1.0:
        raise ValueError(f"phi_clip must be in [0, 1], got {phi_clip}")
    return [label for label in labels if positive_similarity(label) >= phi_clip]


# --------------------------------------------------------------------------
# Static balance: per-class confidence thresholds


@dataclass(frozen=True)
class SbcState:
    """Per-class confidence thresholds and their circulation parameters."""

    phi_by_class: Mapping[str, float]
    delta_phi: float = 0.05
    d_bound: float = 0.5
    phi_lo: float = 0.1
    phi_hi: float = 0.9
    max_iters: int = 50

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi_by_class", dict(self.phi_by_class))
        if not 0 < self.delta_phi < math.inf:
            raise ValueError(f"delta_phi must be positive and finite, got {self.delta_phi}")
        if self.phi_lo > self.phi_hi:
            raise ValueError(f"phi_lo {self.phi_lo} exceeds phi_hi {self.phi_hi}")
        # no round would run, yet sbc_loop would report convergence
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        for label, phi in self.phi_by_class.items():
            if not self.phi_lo <= phi <= self.phi_hi:
                raise ValueError(
                    f"threshold for {brief(label)} is {brief(phi)}, "
                    f"outside [{self.phi_lo}, {self.phi_hi}]"
                )

    @classmethod
    def uniform(cls, classes: Sequence[str], phi_init: float = 0.5, **params) -> "SbcState":
        return cls({label: phi_init for label in classes}, **params)


def sbc_step(counts_by_class: Mapping[str, int], state: SbcState) -> tuple[SbcState, bool]:
    """One threshold update from per-class pseudo-label counts.

    The offset rate of class c is (n_c - n_avg) / n_avg; its threshold moves
    by sign(offset) * delta_phi only while strictly inside the clamp bounds
    and only when |offset| exceeds d_bound. Returns (new state, any moved).
    """
    classes = set(state.phi_by_class)
    if not classes:
        raise ValueError("no classes to balance")
    if set(counts_by_class) != classes:
        raise ValueError(
            f"counts must cover exactly the balanced classes, got {sorted(counts_by_class)}"
        )
    n_avg = sum(counts_by_class.values()) / len(counts_by_class)
    if n_avg == 0:
        return state, False
    new_phi = dict(state.phi_by_class)
    changed = False
    for label in sorted(classes):
        offset = (counts_by_class[label] - n_avg) / n_avg
        phi = new_phi[label]
        if abs(offset) > state.d_bound and state.phi_lo < phi < state.phi_hi:
            stepped = phi + math.copysign(state.delta_phi, offset)
            stepped = min(state.phi_hi, max(state.phi_lo, stepped))
            if stepped != phi:
                new_phi[label] = stepped
                changed = True
    if not changed:
        return state, False
    return replace(state, phi_by_class=new_phi), True


def sbc_loop(
    label_source: Callable[[Mapping[str, float]], Mapping[str, int]], state: SbcState
) -> tuple[SbcState, int]:
    """Iterate sbc_step against a count source until no threshold moves.

    ``label_source`` maps a threshold vector to per-class label counts.
    Stops at the first fixpoint or after ``state.max_iters`` rounds; returns
    the final state and the number of rounds run.
    """
    for iteration in range(1, state.max_iters + 1):
        counts = label_source(dict(state.phi_by_class))
        state, changed = sbc_step(counts, state)
        if not changed:
            return state, iteration
    return state, state.max_iters


# --------------------------------------------------------------------------
# Dynamic balance: per-class loss weights


@dataclass(frozen=True)
class DbcState:
    """Per-class loss weights with their accumulated scaled losses."""

    w_by_class: Mapping[str, float]
    sum_by_class: Mapping[str, float] = field(default_factory=dict)
    update_interval: int = 2000
    k: int = 5
    delta_w: float = 0.05
    w_lo: float = 0.5
    w_hi: float = 1.5
    iter_count: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "w_by_class", dict(self.w_by_class))
        sums = {label: float(self.sum_by_class.get(label, 0.0)) for label in self.w_by_class}
        object.__setattr__(self, "sum_by_class", sums)
        if not 0 < self.delta_w < math.inf:
            raise ValueError(f"delta_w must be positive and finite, got {self.delta_w}")
        if self.w_lo > self.w_hi:
            raise ValueError(f"w_lo {self.w_lo} exceeds w_hi {self.w_hi}")
        # a negative k would move nearly every class (ranked[:k], ranked[-k:]), and
        # an interval below 1 would update the weights on every iteration
        for name, least in (("k", 0), ("update_interval", 1)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
        for label, w in self.w_by_class.items():
            if not self.w_lo <= w <= self.w_hi:
                raise ValueError(
                    f"weight for {brief(label)} is {brief(w)}, outside [{self.w_lo}, {self.w_hi}]"
                )

    @classmethod
    def initial(cls, classes: Sequence[str], **params) -> "DbcState":
        return cls({label: 1.0 for label in classes}, **params)


def scale_loss(loss_by_class: Mapping[str, float], state: DbcState) -> dict[str, float]:
    """Multiply each class loss by its current weight (unknown classes: 1)."""
    return {
        label: value * state.w_by_class.get(label, 1.0)
        for label, value in loss_by_class.items()
    }


def dbc_accumulate(loss_by_class: Mapping[str, float], state: DbcState) -> DbcState:
    """Fold one iteration's losses into the accumulators, updating on schedule.

    Losses are accumulated after weight scaling; when the iteration counter
    reaches the update interval the rank-based weight update fires and the
    accumulators reset.
    """
    for label, value in loss_by_class.items():
        if value < 0:
            raise ValueError(f"loss for {brief(label)} is negative: {brief(value)}")
    scaled = scale_loss(loss_by_class, state)
    sums = dict(state.sum_by_class)
    weights = dict(state.w_by_class)
    for label, value in scaled.items():
        sums[label] = sums.get(label, 0.0) + value
        weights.setdefault(label, 1.0)
    state = replace(
        state, w_by_class=weights, sum_by_class=sums, iter_count=state.iter_count + 1
    )
    if state.iter_count >= state.update_interval:
        return dbc_update(state)
    return state


def dbc_update(state: DbcState) -> DbcState:
    """Rank classes by accumulated loss; raise top-k weights, lower bottom-k.

    Ties rank lexicographically by class name. Steps are exactly delta_w,
    clamped to [w_lo, w_hi]; at most 2k weights move. Accumulators and the
    iteration counter reset to zero.
    """
    ranked = sorted(state.w_by_class, key=lambda label: (-state.sum_by_class[label], label))
    k = min(state.k, len(ranked) // 2)
    weights = dict(state.w_by_class)
    for label in ranked[:k]:
        if weights[label] < state.w_hi:
            weights[label] = min(state.w_hi, weights[label] + state.delta_w)
    if k:
        for label in ranked[-k:]:
            if weights[label] > state.w_lo:
                weights[label] = max(state.w_lo, weights[label] - state.delta_w)
    return replace(
        state,
        w_by_class=weights,
        sum_by_class={label: 0.0 for label in weights},
        iter_count=0,
    )


# --------------------------------------------------------------------------
# Background-aware proposal scoring


@dataclass(frozen=True)
class ProposalSet:
    """Proposal boxes with their class-score matrix and foreground scores."""

    boxes: tuple[Box7DoF, ...]
    class_scores: np.ndarray  # (N_pro, N_class), values in [0, 1]
    fg_scores: np.ndarray  # (N_pro,), values in [0, 1]

    def __post_init__(self) -> None:
        import numpy as np

        scores = np.asarray(self.class_scores, dtype=float)
        fg = np.asarray(self.fg_scores, dtype=float)
        object.__setattr__(self, "boxes", tuple(self.boxes))
        if not self.boxes and scores.shape == (0,):
            # no boxes, so no rows: JSON writes the empty matrix as []
            scores = scores.reshape(0, 0)
        object.__setattr__(self, "class_scores", scores)
        object.__setattr__(self, "fg_scores", fg)
        if scores.ndim != 2 or scores.shape[0] != len(self.boxes):
            raise ValueError(
                f"class_scores shape {scores.shape} inconsistent with {len(self.boxes)} boxes"
            )
        if fg.shape != (len(self.boxes),):
            raise ValueError(f"fg_scores shape {fg.shape} inconsistent with boxes")
        for name, values in (("class_scores", scores), ("fg_scores", fg)):
            # written so that NaN, which fails every comparison, is outside too
            outside = values[~((values >= 0.0) & (values <= 1.0))]
            if outside.size:
                raise ValueError(f"{name} must lie in [0, 1], got {brief(float(outside[0]))}")


@dataclass(frozen=True)
class CompressedProposals:
    """Surviving boxes after top-k compression of the scaled score matrix.

    Row i of ``scores`` belongs to proposal ``box_indices[i]`` of the input.
    """

    box_indices: tuple[int, ...]
    scores: np.ndarray


def baol_compress(proposals: ProposalSet, k_pro: int) -> CompressedProposals:
    """Scale class scores by foreground scores, keep boxes owning top entries.

    The scaled matrix's k_pro largest entries (ties resolved in row-major
    order) select the surviving boxes; the returned matrix holds the scaled
    rows of those boxes, in ascending original index order.
    """
    import numpy as np

    n_pro, n_class = proposals.class_scores.shape
    if not 1 <= k_pro <= n_pro * n_class:
        raise ValueError(f"k_pro must be in [1, {n_pro * n_class}], got {k_pro}")
    scaled = proposals.fg_scores[:, None] * proposals.class_scores
    flat = scaled.ravel()
    order = np.argsort(-flat, kind="stable")[:k_pro]
    rows = sorted(set(int(i) // n_class for i in order))
    return CompressedProposals(tuple(rows), scaled[rows])


def assign_foreground_labels(
    proposals: Sequence[Box7DoF],
    labels: Sequence[Box7DoF],
    iou_lo: float = 0.25,
    iou_hi: float = 0.85,
) -> np.ndarray:
    """Binary foreground vector from a one-to-one proposal-to-label matching.

    Greedy matching by descending IoU approximates the max-total-IoU
    bipartite assignment. Matched proposals whose IoU falls below iou_lo
    are relabeled background; unmatched proposals overlapping any label
    above iou_hi are rescued as foreground.
    """
    import numpy as np

    if not iou_lo < iou_hi:
        raise ValueError(f"need iou_lo < iou_hi, got {iou_lo} >= {iou_hi}")
    n, m = len(proposals), len(labels)
    y = np.zeros(n, dtype=int)
    if m == 0 or n == 0:
        return y
    # only pairs whose footprint circles meet can have nonzero IoU
    pairs, best = [], [0.0] * n
    for i, near in enumerate(footprint_neighbours(proposals, labels)):
        for j in near:
            value = iou3d(proposals[i], labels[j])
            if value > 0.0:
                pairs.append((value, i, j))
                best[i] = max(best[i], value)
    pairs.sort(key=lambda t: (-t[0], t[1], t[2]))
    matched_iou: dict[int, float] = {}
    used_labels: set[int] = set()
    for value, i, j in pairs:
        if i in matched_iou or j in used_labels:
            continue
        matched_iou[i] = value
        used_labels.add(j)
    for i in range(n):
        if i in matched_iou:
            y[i] = 1 if matched_iou[i] >= iou_lo else 0
        else:
            y[i] = 1 if best[i] > iou_hi else 0
    return y


def baol_loss(y: Sequence[int], o: Sequence[float], lam: float) -> float:
    """Foreground-score loss: weighted binary cross-entropy over proposals.

    -(1/N) * sum_i [ y_i*log(o_i) + lam*(1 - y_i)*log(1 - o_i) ], with the
    probabilities clamped to [1e-7, 1 - 1e-7].
    """
    import numpy as np

    if not 0 <= lam < math.inf:
        raise ValueError(f"lam must be nonnegative and finite, got {lam}")
    y_arr = np.asarray(y, dtype=float)
    o_arr = np.asarray(o, dtype=float)
    if y_arr.shape != o_arr.shape or y_arr.ndim != 1:
        raise ValueError(f"shape mismatch: y {y_arr.shape} vs o {o_arr.shape}")
    if y_arr.size == 0:
        return 0.0
    eps = 1e-7
    o_arr = np.clip(o_arr, eps, 1.0 - eps)
    terms = y_arr * np.log(o_arr) + lam * (1.0 - y_arr) * np.log(1.0 - o_arr)
    return float(-terms.mean())


# --------------------------------------------------------------------------
# File formats


def load_pseudo_labels(path) -> list[list[PseudoLabel2D]]:
    """The labels of each pseudo-label record, one JSON object per image per
    line; any key of the record but ``labels`` is ignored."""

    def record(data: dict) -> list[PseudoLabel2D]:
        labels = []
        for k, entry in enumerate(expect(data.get("labels", []), ARRAY, "labels")):
            expect(entry, dict, f"labels[{k}]")
            values = (entry[key] for key in ("bbox", "label", "confidence", "sim_pos", "sim_neg"))
            labels.append(PseudoLabel2D(*values))
        return labels

    return [parse_line(path, lineno, line, record) for lineno, line in read_lines(path)]


def load_loss_stream(path) -> list[dict[str, float]]:
    """Loss-stream records: one class-to-loss JSON mapping per line.

    Each loss must be a finite number at least 0: a NaN would rank first in
    the weight update, and `dbc_accumulate` rejects a negative one too late
    to name the line.
    """

    def record(data: dict) -> dict[str, float]:
        losses = {str(k): number(v, f"loss for {brief(k)}") for k, v in data.items()}
        for label, value in losses.items():
            if not 0 <= value < math.inf:
                raise ValueError(
                    f"loss for {brief(label)} must be a finite number at least 0, "
                    f"got {brief(value)}"
                )
        return losses

    return [parse_line(path, lineno, line, record) for lineno, line in read_lines(path)]


def proposal_record(data: dict, index: int) -> tuple[ProposalSet, tuple[Box7DoF, ...]]:
    """Scene ``index``'s proposal record from its JSON object; box errors name the scene."""
    boxes = tuple(
        parse_box(b, f"scene {index} proposal {i}")
        for i, b in enumerate(expect(data["boxes"], ARRAY, "boxes"))
    )
    # numpy would take a JSON true or false as 1 or 0, a numeric string as its
    # number and null as NaN, and its messages do not name the field
    rows = expect(data["class_scores"], ARRAY, "class_scores")
    lengths = sorted({len(numbers(row, "class_scores")) for row in rows})
    if len(lengths) > 1:
        raise ValueError(f"class_scores rows must have equal lengths, got lengths {brief(lengths)}")
    proposals = ProposalSet(boxes, rows, numbers(data["fg_scores"], "fg_scores"))
    labels = tuple(
        parse_box(b, f"scene {index} label {j}")
        for j, b in enumerate(expect(data.get("labels", []), ARRAY, "labels"))
    )
    return proposals, labels
