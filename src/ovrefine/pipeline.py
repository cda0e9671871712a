"""Per-scene refinement: constraint assembly, solver decision, debate
arbitration for contested objects, plus the mAP@0.25 evaluator and a
synthetic-scene generator used for end-to-end checks.

Base-class detections pass through untouched; each novel-class detection is
scored against the knowledge provider, solved, and kept, removed, or
reclassified. A reclassified object goes to a debate that the same provider
judges, with an offline strength rule deciding when it gives no verdict.
Scenes are independent units of work: `refine_scenes` refines any number of
them with one solver call, and the `refine` command spreads chunks of its
file over worker processes, or over threads for a remote provider, so that
its lookups and debates overlap.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field, replace

from .commonsense import (
    SceneContext,
    SizeConstraintConfig,
    constraint_vector,
    scene_constraint,
    size_constraint,
)
from .geometry import Box7DoF, iou3d, parse_box
from .jsonl import ARRAY, brief, expect, is_number, number, parse_line, read_lines
from .psl import ConstraintVector, Decision, SelectionPolicy, SolverOutput, decide, solve_decisions

# perfbench/tracecli.py wraps these by attribute on this module; they are not called here
from .psl import build_decision_rules, solve  # noqa: F401

# numpy is imported inside the scene generator, the only code here that
# builds arrays, so that `refine` and `eval` start without loading it

__all__ = [
    "Detection",
    "SceneRecord",
    "DebateOutcome",
    "ObjectRecord",
    "RefinementLog",
    "RefinementConfig",
    "debate",
    "refine_scene",
    "refine_scenes",
    "ApReport",
    "eval_ap25",
    "generate_synthetic_scenes",
    "load_scenes",
    "scene_record",
    "check_scene_id",
    "save_scenes",
    "scene_line",
    "save_logs",
    "log_line",
]


@dataclass(frozen=True)
class Detection:
    """One detected object: box, class label, confidence, optional score vector."""

    box: Box7DoF
    label: str
    score: float
    class_scores: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.label, str):
            raise TypeError(f"label must be a string, got {brief(self.label)}")
        # a float, so that a JSON integer score is written back as 1.0
        score = number(self.score, "score")
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {brief(score)}")
        object.__setattr__(self, "score", score)
        if self.class_scores is not None:
            if type(self.class_scores) is not dict and not isinstance(self.class_scores, Mapping):
                raise TypeError(
                    "class_scores must be an object of class scores, "
                    f"got {brief(self.class_scores)}"
                )
            object.__setattr__(self, "class_scores", dict(self.class_scores))
            for label, value in self.class_scores.items():
                if not is_number(value):
                    raise TypeError(
                        f"class_scores[{brief(label)}] must be a number, got {brief(value)}"
                    )
                if not 0.0 <= value <= 1.0:
                    raise ValueError(
                        f"class_scores[{brief(label)}] must be in [0, 1], got {brief(value)}"
                    )


@dataclass(frozen=True)
class SceneRecord:
    """One scene's detections plus its scene context."""

    scene_id: str
    scene: SceneContext
    detections: tuple[Detection, ...]

    def __post_init__(self) -> None:
        # as scene_type must be: a JSON null or 1 would otherwise become "None" or "1"
        if not isinstance(self.scene_id, str):
            raise TypeError(f"scene_id must be a string, got {brief(self.scene_id)}")
        object.__setattr__(self, "detections", tuple(self.detections))


@dataclass(frozen=True)
class DebateOutcome:
    """Result of arbitrating a contested object among candidate classes."""

    candidates: tuple[str, ...]
    winner: str
    scores: Mapping[str, float]
    transcript: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if self.winner not in self.candidates:
            raise ValueError(f"winner {self.winner!r} not among candidates {self.candidates}")


@dataclass(frozen=True)
class ObjectRecord:
    """Audit record for one refined object."""

    index: int
    label: str
    constraints: ConstraintVector
    solution: SolverOutput
    decision: Decision
    final_label: str | None
    transcript: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if (len(self.transcript) > 0) != (self.decision is Decision.RECLASSIFY):
            raise ValueError("transcript must be non-empty exactly for reclassified objects")


@dataclass(frozen=True)
class RefinementLog:
    scene_id: str
    objects: tuple[ObjectRecord, ...] = ()

    def counts(self) -> dict[str, int]:
        out = {"keep": 0, "remove": 0, "reclassify": 0}
        for record in self.objects:
            out[record.decision.value] += 1
        return out


@dataclass(frozen=True)
class RefinementConfig:
    """Everything the per-scene refinement needs besides the provider."""

    rule_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    phi_keep: float = 0.01
    phi_recls: float = 0.2
    size: SizeConstraintConfig = field(default_factory=SizeConstraintConfig)
    policy: SelectionPolicy = SelectionPolicy.SCENE_CONSERVATIVE


# the classes a debate argues over: a detection's highest-scored ones
_DEBATE_CANDIDATES = 3


def _top_candidates(class_scores: Mapping[str, float]) -> tuple[str, ...]:
    ranked = sorted(class_scores, key=lambda label: (-class_scores[label], label))
    return tuple(ranked[:_DEBATE_CANDIDATES])


def debate(
    detection: Detection,
    scene: SceneContext,
    provider,
    cfg: RefinementConfig = RefinementConfig(),
) -> DebateOutcome:
    """Arbitrate a contested object among its top-3 scored classes.

    One debater argues per candidate; the provider judges their cases
    (`judge`, which a remote provider puts to the model). When it names no
    candidate, the offline rule picks the strongest by size fit x scene fit
    x classification score.
    """
    class_scores = dict(detection.class_scores or {detection.label: detection.score})
    candidates = _top_candidates(class_scores)

    strengths: dict[str, float] = {}
    cases: list[str] = []
    for label in candidates:
        try:
            fit = size_constraint(detection.box, provider.size_prior(label), cfg.size)
        except LookupError:
            fit = 0.0  # cannot vouch for a class without a size prior
        scene_fit = scene_constraint(label, scene.scene_type, provider)
        strengths[label] = fit * scene_fit * class_scores[label]
        cases.append(
            f"size fit {fit:.4f}, scene fit {scene_fit}, "
            f"classification score {class_scores[label]:.4f}"
        )

    winner = provider.judge(candidates, scene.scene_type, cases)
    if winner is None:
        winner = min(
            candidates, key=lambda c: (-strengths[c], -class_scores[c], c)
        )
    transcript = [(f"debater:{label}", case) for label, case in zip(candidates, cases)]
    transcript.append(("judge", f"selects {winner!r}"))
    return DebateOutcome(candidates, winner, strengths, tuple(transcript))


def _assemble(
    record: SceneRecord, provider, cfg: RefinementConfig
) -> list[ConstraintVector | None]:
    """The constraint vector of each detection, None for a base-class one."""
    return [
        constraint_vector(d.box, d.label, d.score, record.scene, provider, cfg.size)
        if provider.is_novel(d.label)
        else None
        for d in record.detections
    ]


def _finish(
    record: SceneRecord,
    vectors: Sequence[ConstraintVector | None],
    solved: Iterator[SolverOutput],
    provider,
    cfg: RefinementConfig,
) -> tuple[SceneRecord, RefinementLog]:
    """Decide each novel detection from its solution, the next one ``solved``
    yields, debating the contested ones."""
    kept: list[Detection] = []
    objects: list[ObjectRecord] = []
    for index, (detection, x) in enumerate(zip(record.detections, vectors)):
        if x is None:
            kept.append(detection)
            continue
        solution = next(solved)
        decision = decide(solution, cfg.phi_keep, cfg.phi_recls)
        final_label: str | None = detection.label
        transcript: tuple[tuple[str, str], ...] = ()
        if decision is Decision.KEEP:
            kept.append(detection)
        elif decision is Decision.REMOVE:
            final_label = None
        else:
            outcome = debate(detection, record.scene, provider, cfg)
            final_label = outcome.winner
            transcript = outcome.transcript
            kept.append(replace(detection, label=outcome.winner))
        objects.append(
            ObjectRecord(index, detection.label, x, solution, decision, final_label, transcript)
        )
    refined = replace(record, detections=tuple(kept))
    return refined, RefinementLog(record.scene_id, tuple(objects))


def refine_scene(
    record: SceneRecord,
    provider,
    cfg: RefinementConfig = RefinementConfig(),
) -> tuple[SceneRecord, RefinementLog]:
    """Refine one scene: keep, remove, or reclassify each novel detection.

    Base-class detections pass through unchanged and unlogged. Failures
    propagate before anything is returned, so a scene is never partially
    mutated.
    """
    return refine_scenes([record], provider, cfg)[0]


def refine_scenes(
    records: Sequence[SceneRecord],
    provider,
    cfg: RefinementConfig = RefinementConfig(),
) -> list[tuple[SceneRecord, RefinementLog]]:
    """Refine many scenes, in input order: assemble every scene's constraint
    vectors, solve them in one call, then decide and debate each scene's
    objects. Any error, a provider's too, propagates.
    """
    parts = [_assemble(record, provider, cfg) for record in records]
    xs = [x.as_tuple() for part in parts for x in part if x is not None]
    solved = iter(solve_decisions(xs, cfg.rule_weights, cfg.policy))
    return [_finish(record, part, solved, provider, cfg) for record, part in zip(records, parts)]


# --------------------------------------------------------------------------
# Evaluation


@dataclass(frozen=True)
class ApReport:
    per_class: dict[str, float]
    mean: float


_AP_IOU_THRESHOLD = 0.25


def eval_ap25(
    predictions: Sequence[SceneRecord], ground_truth: Sequence[SceneRecord]
) -> ApReport:
    """Per-class average precision at IoU 0.25, all-point interpolated.

    Predictions are ranked by score. Each takes the same-class box of its
    scene with the highest IoU (the first on a tie), claimed or not, and is
    a true positive only if that IoU is above 0.25 and the box is
    unclaimed, which claims it. This is VoteNet's ``eval_det_cls``
    (``utils/eval_det.py`` in github.com/facebookresearch/votenet), the
    ScanNet and SUN RGB-D protocol. Unlike the greedy match over unclaimed
    boxes used before, a prediction whose best box is claimed is a false
    positive, as is an IoU of exactly 0.25. Classes absent from the
    ground truth are excluded from the mean; classes present but never
    predicted score 0. Each class's area under the precision envelope is
    summed exactly with ``math.fsum``.
    """
    gt_ids = {record.scene_id for record in ground_truth}
    pred_ids = {record.scene_id for record in predictions}
    if pred_ids - gt_ids:
        raise ValueError(f"predictions reference unknown scenes: {sorted(pred_ids - gt_ids)}")

    gt_boxes: dict[str, dict[str, list[Box7DoF]]] = {}
    for record in ground_truth:
        for detection in record.detections:
            gt_boxes.setdefault(detection.label, {}).setdefault(record.scene_id, []).append(
                detection.box
            )

    preds: dict[str, list[tuple[float, str, Box7DoF]]] = {}
    for record in predictions:
        for detection in record.detections:
            preds.setdefault(detection.label, []).append(
                (detection.score, record.scene_id, detection.box)
            )

    per_class: dict[str, float] = {}
    for label, boxes_by_scene in gt_boxes.items():
        entries = sorted(preds.get(label, []), key=lambda item: (-item[0], item[1]))
        matched: dict[str, list[bool]] = {
            scene: [False] * len(boxes) for scene, boxes in boxes_by_scene.items()
        }
        tp = [0.0] * len(entries)
        for rank, (_score, scene_id, box) in enumerate(entries):
            best_iou, best_j = -math.inf, -1
            for j, gt in enumerate(boxes_by_scene.get(scene_id, [])):
                overlap = iou3d(box, gt)
                if overlap > best_iou:
                    best_iou, best_j = overlap, j
            if best_iou > _AP_IOU_THRESHOLD and not matched[scene_id][best_j]:
                matched[scene_id][best_j] = True
                tp[rank] = 1.0
        per_class[label] = _average_precision(tp, sum(map(len, boxes_by_scene.values())))

    mean = sum(per_class.values()) / len(per_class) if per_class else 0.0
    return ApReport(per_class, mean)


def _average_precision(tp: Sequence[float], n_positive: int) -> float:
    if n_positive == 0 or not tp:
        return 0.0
    # all-point interpolation: area under the precision envelope, with the
    # recall and precision after each rank between two sentinels
    mrec, mpre = [0.0], [0.0]
    hits = 0.0
    for rank, hit in enumerate(tp, 1):
        hits += hit
        mrec.append(hits / n_positive)
        mpre.append(hits / rank)
    mrec.append(1.0)
    mpre.append(0.0)
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    return math.fsum(
        (mrec[i + 1] - mrec[i]) * mpre[i + 1]
        for i in range(len(mrec) - 1)
        if mrec[i + 1] != mrec[i]
    )


# --------------------------------------------------------------------------
# Synthetic scenes

# the fewest and the most ground-truth objects in a scene
_OBJECTS_PER_SCENE = (3, 8)


def generate_synthetic_scenes(
    kb,
    seed: int,
    n_scenes: int = 200,
    corruption_rate: float = 0.2,
    size_cfg: SizeConstraintConfig = SizeConstraintConfig(),
) -> tuple[list[SceneRecord], list[SceneRecord]]:
    """Sample knowledge-base-conformant scenes and a corrupted detection set.

    Ground-truth objects use classes compatible with their scene and sizes
    inside the deadband of their priors. Corruption (driven entirely by the
    seed) swaps a fraction of novel labels to scene- or size-incompatible
    classes and hallucinates low-scoring boxes, some with classes foreign
    to the scene. Returns (ground truth, corrupted detections).
    """
    import numpy as np

    if not 0.0 <= corruption_rate <= 1.0:
        raise ValueError(f"corruption_rate must be in [0, 1], got {corruption_rate}")
    scene_types = sorted(kb.compat)
    # each scene draws its type, and each object a class of that type with a size
    if n_scenes > 0:
        if not scene_types:
            raise ValueError("the knowledge base's compat is empty: it has no scene type to sample")
        for scene_type in scene_types:
            if not any(c in kb.sizes for c in kb.compat[scene_type]):
                raise ValueError(
                    f"no class in the knowledge base's compat[{brief(scene_type)}] has a size, "
                    "so no scene of that type can be sampled"
                )
    rng = np.random.default_rng(seed)
    novel_sorted = sorted(kb.novel_classes)
    ground_truth: list[SceneRecord] = []
    detections: list[SceneRecord] = []

    for index in range(n_scenes):
        scene_type = scene_types[int(rng.integers(len(scene_types)))]
        compatible = sorted(c for c in kb.compat[scene_type] if c in kb.sizes)
        novel_compatible = [c for c in compatible if c in kb.novel_classes]
        foreign = [c for c in novel_sorted if c not in kb.compat[scene_type]]
        scene = SceneContext(scene_type, f"a {scene_type}")
        n_objects = int(rng.integers(_OBJECTS_PER_SCENE[0], _OBJECTS_PER_SCENE[1] + 1))

        gt_objects: list[Detection] = []
        det_objects: list[Detection] = []
        for _ in range(n_objects):
            label = compatible[int(rng.integers(len(compatible)))]
            box = _sample_box(rng, kb.sizes[label], 1.0 + rng.uniform(-0.04, 0.04, 3))
            gt_objects.append(Detection(box, label, 1.0))

            corrupt = (
                label in kb.novel_classes
                and rng.random() < corruption_rate
                and (foreign or novel_compatible)
            )
            if not corrupt:
                score = float(rng.uniform(0.75, 0.99))
                det_objects.append(Detection(box, label, score, {label: score}))
                continue

            score = float(rng.uniform(0.85, 0.99))
            # size-incompatible targets must misfit enough to force a
            # reclassification at this confidence, yet lose the debate to
            # the true class (whose strength is 0.75 * score)
            fit_ceiling = 2.0 * score - 1.25
            size_targets = [
                c
                for c in novel_compatible
                if c != label and size_constraint(box, kb.sizes[c], size_cfg) < fit_ceiling
            ]
            use_size_swap = size_targets and (not foreign or rng.random() < 0.5)
            if use_size_swap:
                wrong = size_targets[int(rng.integers(len(size_targets)))]
            else:
                wrong = foreign[int(rng.integers(len(foreign)))]
            class_scores = {wrong: score, label: round(score * 0.75, 6)}
            others = [c for c in novel_sorted if c not in (label, wrong)]
            if others:
                third = others[int(rng.integers(len(others)))]
                class_scores[third] = round(score * 0.4, 6)
            det_objects.append(Detection(box, wrong, score, class_scores))

        n_hallucinated = int(rng.binomial(n_objects, corruption_rate / 2))
        for _ in range(n_hallucinated):
            pool = foreign if (foreign and rng.random() < 0.7) else novel_compatible
            if not pool:
                continue
            label = pool[int(rng.integers(len(pool)))]
            box = _sample_box(rng, kb.sizes[label], rng.uniform(0.6, 1.8, 3))
            score = float(rng.uniform(0.1, 0.45))
            det_objects.append(Detection(box, label, score, {label: score}))

        scene_id = f"scene{index:04d}"
        ground_truth.append(SceneRecord(scene_id, scene, tuple(gt_objects)))
        detections.append(SceneRecord(scene_id, scene, tuple(det_objects)))
    return ground_truth, detections


def _sample_box(rng, prior, scale) -> Box7DoF:
    """A box on the floor of the scene, with ``prior``'s extents times the
    three factors ``scale`` and a drawn position and heading."""
    import numpy as np

    dims = np.array([prior.length, prior.width, prior.height]) * scale
    return Box7DoF(
        float(rng.uniform(-6, 6)),
        float(rng.uniform(-6, 6)),
        float(dims[2] / 2),
        float(dims[0]),
        float(dims[1]),
        float(dims[2]),
        float(rng.uniform(-math.pi, math.pi)),
    )


# --------------------------------------------------------------------------
# Scene and log files


def _detection_to_dict(detection: Detection, include_score: bool) -> dict:
    box = detection.box
    data: dict = {
        "box": [float(v) for v in (box.cx, box.cy, box.cz, box.l, box.w, box.h, box.theta)],
        "label": detection.label,
    }
    if include_score:
        data["score"] = float(detection.score)
        if detection.class_scores is not None:
            data["class_scores"] = {
                label: float(value) for label, value in sorted(detection.class_scores.items())
            }
    return data


def scene_line(record: SceneRecord, include_scores: bool = True) -> str:
    """One line of a scenes file: ``record`` as JSON, ended by a newline."""
    data = {
        "scene_id": record.scene_id,
        "scene_type": record.scene.scene_type,
    }
    if record.scene.description:
        data["description"] = record.scene.description
    data["detections"] = [_detection_to_dict(d, include_scores) for d in record.detections]
    return json.dumps(data) + "\n"


def save_scenes(records: Sequence[SceneRecord], path, include_scores: bool = True) -> None:
    """Write scene records as line-delimited JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(scene_line(record, include_scores) for record in records)


def scene_record(data: dict) -> SceneRecord:
    """The scene record of one line of a scenes file, from its JSON object;
    a missing score (as in a ground-truth file) is 1."""
    # the record checks its id before a detection's error names the scene by it
    record = SceneRecord(
        data["scene_id"], SceneContext(data["scene_type"], data.get("description", "")), ()
    )
    where = f"scene {brief(record.scene_id)}"
    entries = expect(data.get("detections", []), ARRAY, f"{where}: detections")
    detections = []
    for k, entry in enumerate(entries):
        what = f"{where} detection {k}"
        expect(entry, dict, what)
        detections.append(
            Detection(
                parse_box(entry["box"], what),
                entry["label"],
                entry.get("score", 1.0),
                entry.get("class_scores"),
            )
        )
    return replace(record, detections=detections)


def check_scene_id(first_line: dict[str, int], scene_id: str, path, lineno: int) -> None:
    """Note that ``scene_id`` appears on line ``lineno`` of ``path``; a
    ``ValueError`` prefixed ``path:line:`` if ``first_line`` has it already."""
    first = first_line.setdefault(scene_id, lineno)
    if first != lineno:
        raise ValueError(
            f"{path}:{lineno}: scene_id {brief(scene_id)} already appears on line {first}"
        )


def load_scenes(path, first_line: dict[str, int] | None = None) -> list[SceneRecord]:
    """Read scene records; missing scores (ground-truth files) default to 1.

    A ``scene_id`` may appear on one line only: `eval_ap25` matches
    predictions to ground truth by id, and would pool two scenes' boxes.
    ``first_line``, if given, receives the line number of each scene id.
    """
    if first_line is None:
        first_line = {}
    records = []
    for lineno, line in read_lines(path):
        record = parse_line(path, lineno, line, scene_record)
        check_scene_id(first_line, record.scene_id, path, lineno)
        records.append(record)
    return records


def log_line(log: RefinementLog) -> str:
    """One line of a refinement log file: ``log`` as JSON, ended by a newline."""
    objects = [
        {
            "index": record.index,
            "label": record.label,
            "constraints": list(record.constraints.as_tuple()),
            "y_keep": record.solution.y_keep,
            "y_recls": record.solution.y_recls,
            "objective": record.solution.objective,
            "decision": record.decision.value,
            "final_label": record.final_label,
            "transcript": [list(turn) for turn in record.transcript],
        }
        for record in log.objects
    ]
    return json.dumps({"scene_id": log.scene_id, "objects": objects}) + "\n"


def save_logs(logs: Sequence[RefinementLog], path) -> None:
    """Write refinement logs as line-delimited JSON, one record per scene."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(map(log_line, logs))
