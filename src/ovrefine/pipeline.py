"""Per-scene refinement: constraint assembly, solver decision, debate
arbitration for contested objects, plus the mAP@0.25 evaluator and a
synthetic-scene generator used for end-to-end checks.

Base-class detections pass through untouched; each novel-class detection is
scored against the knowledge provider, solved, and kept, removed, or
reclassified. Scenes are independent units of work, and each solve is a pure
function of one detection's constraints, so solves can run in worker
processes while provider lookups and debates run on threads.
"""

from __future__ import annotations

import json
import math
import threading
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Mapping, Sequence

import numpy as np

from .commonsense import (
    LlmClient,
    ProviderError,
    SceneContext,
    SizeConstraintConfig,
    constraint_vector,
    size_constraint,
)
from .geometry import Box7DoF, iou3d, parse_box
from .jsonl import read_jsonl
from .psl import ConstraintVector, Decision, SelectionPolicy, SolverOutput, decide, solve_decisions

# perfbench/tracecli.py wraps these by attribute on this module; they are not called here
from .psl import build_decision_rules, solve  # noqa: F401

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
    "save_scenes",
    "save_logs",
]


@dataclass(frozen=True)
class Detection:
    """One detected object: box, class label, confidence, optional score vector."""

    box: Box7DoF
    label: str
    score: float
    class_scores: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")
        if self.class_scores is not None:
            object.__setattr__(self, "class_scores", dict(self.class_scores))
            for label, value in self.class_scores.items():
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"class score for {label!r} is {value}, outside [0, 1]")


@dataclass(frozen=True)
class SceneRecord:
    """One scene's detections plus its scene context."""

    scene_id: str
    scene: SceneContext
    detections: tuple[Detection, ...]

    def __post_init__(self) -> None:
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
    error: str | None = None

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


def _top_candidates(class_scores: Mapping[str, float], limit: int = 3) -> tuple[str, ...]:
    ranked = sorted(class_scores, key=lambda label: (-class_scores[label], label))
    return tuple(ranked[:limit])


def debate(
    detection: Detection,
    scene: SceneContext,
    provider,
    cfg: RefinementConfig = RefinementConfig(),
    client: LlmClient | None = None,
) -> DebateOutcome:
    """Arbitrate a contested object among its top-3 scored classes.

    One debater argues per candidate; a judge picks the winner. The offline
    judge weighs size fit x scene fit x classification score; a remote
    judge, when a client is given, reads the debaters' cases and names a
    candidate (falling back to the offline judge if it names none).
    """
    class_scores = dict(detection.class_scores or {detection.label: detection.score})
    if not class_scores:
        raise ValueError("debate requires at least one class score")
    candidates = _top_candidates(class_scores)

    strengths: dict[str, float] = {}
    transcript: list[tuple[str, str]] = []
    for label in candidates:
        try:
            fit = size_constraint(detection.box, provider.size_prior(label), cfg.size)
        except LookupError:
            fit = 0.0  # cannot vouch for a class without a size prior
        scene_fit = provider.scene_compatible(label, scene.scene_type)
        strength = fit * scene_fit * class_scores[label]
        strengths[label] = strength
        transcript.append(
            (
                f"debater:{label}",
                f"size fit {fit:.4f}, scene fit {scene_fit}, "
                f"classification score {class_scores[label]:.4f}",
            )
        )

    winner = None
    if client is not None:
        try:
            case = "; ".join(f"{label}: {text}" for (_, text), label in zip(transcript, candidates))
            reply = client.complete(
                f"Debaters argue for the candidate classes {', '.join(candidates)} "
                f"of an object in a {scene.scene_type}. {case}. "
                "Which class is correct? Answer with one class name."
            )
            lowered = reply.lower()
            for label in sorted(candidates, key=len, reverse=True):
                if label.lower() in lowered:
                    winner = label
                    break
        except ProviderError:
            winner = None

    if winner is None:
        winner = min(
            candidates, key=lambda c: (-strengths[c], -class_scores[c], c)
        )
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
    solutions: Sequence[SolverOutput],
    provider,
    cfg: RefinementConfig,
    client: LlmClient | None,
) -> tuple[SceneRecord, RefinementLog]:
    """Decide each novel detection from its solution, debating the contested ones."""
    kept: list[Detection] = []
    objects: list[ObjectRecord] = []
    solved = iter(solutions)
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
            outcome = debate(detection, record.scene, provider, cfg, client)
            final_label = outcome.winner
            transcript = outcome.transcript
            kept.append(replace(detection, label=outcome.winner))
        objects.append(
            ObjectRecord(index, detection.label, x, solution, decision, final_label, transcript)
        )
    refined = replace(record, detections=tuple(kept))
    return refined, RefinementLog(record.scene_id, tuple(objects))


def _novel_triples(vectors: Sequence[ConstraintVector | None]) -> list[tuple[float, float, float]]:
    return [x.as_tuple() for x in vectors if x is not None]


def refine_scene(
    record: SceneRecord,
    provider,
    cfg: RefinementConfig = RefinementConfig(),
    client: LlmClient | None = None,
) -> tuple[SceneRecord, RefinementLog]:
    """Refine one scene: keep, remove, or reclassify each novel detection.

    Base-class detections pass through unchanged and unlogged. Failures
    propagate before anything is returned, so a scene is never partially
    mutated.
    """
    vectors = _assemble(record, provider, cfg)
    solutions = solve_decisions(_novel_triples(vectors), cfg.rule_weights, cfg.policy)
    return _finish(record, vectors, solutions, provider, cfg, client)


# Scenes per unit of pipelined work: enough solves (about 150 at the synthetic
# workload's density) to amortise a round trip to a solver process.
_CHUNK_SCENES = 32


def _solver_pool(workers: int) -> Executor:
    """``workers`` solver processes, all started before the caller starts a thread.

    A fork copies only the forking thread, so it must not happen while other
    threads run: a lock one of them holds would stay held in the child. A
    pool over fork starts all of its processes at its first submit, so the
    no-op submit below forks them while the caller's thread is the only one.
    A caller that already runs other threads gets spawned processes instead.
    """
    # imported here, not with the module, so that commands and runs that
    # start no process do not pay for loading multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context()
    if context.get_start_method() == "fork" and threading.active_count() > 1:
        context = multiprocessing.get_context("spawn")
    pool = ProcessPoolExecutor(workers, mp_context=context)
    pool.submit(int)
    return pool


def refine_scenes(
    records: Sequence[SceneRecord],
    provider,
    cfg: RefinementConfig = RefinementConfig(),
    client: LlmClient | None = None,
    workers: int = 1,
) -> list[tuple[SceneRecord, RefinementLog]]:
    """Refine many scenes; order follows the input, output is identical for
    any worker count.

    Scenes go through in chunks of ``_CHUNK_SCENES`` on ``2 * workers``
    provider I/O threads, each taking one chunk at a time, so at most that
    many chunks are in flight and remote lookups overlap. A thread assembles
    its chunk's constraint vectors, has one of ``workers`` solver processes
    solve them (one worker solves inline, and no process starts for input
    without a novel detection), then decides and debates each scene's
    objects. A provider failure skips that scene: the original record is
    passed through with an error log entry. Any other error propagates, and
    no chunk starts once it has reached the caller.
    """
    novel = any(provider.is_novel(d.label) for record in records for d in record.detections)
    solver = _solver_pool(workers) if workers > 1 and novel else None

    def run_chunk(chunk: Sequence[SceneRecord]) -> list[tuple[SceneRecord, RefinementLog]]:
        parts: list[list[ConstraintVector | None] | ProviderError] = []
        for record in chunk:
            try:
                parts.append(_assemble(record, provider, cfg))
            except ProviderError as exc:
                parts.append(exc)
        xs = [x for part in parts if isinstance(part, list) for x in _novel_triples(part)]
        args = (xs, cfg.rule_weights, cfg.policy)
        solved = iter(
            solve_decisions(*args)
            if solver is None
            else solver.submit(solve_decisions, *args).result()
        )
        out = []
        for record, part in zip(chunk, parts):
            try:
                if isinstance(part, ProviderError):
                    raise part
                own = list(islice(solved, sum(x is not None for x in part)))
                out.append(_finish(record, part, own, provider, cfg, client))
            except ProviderError as exc:
                out.append((record, RefinementLog(record.scene_id, (), error=str(exc))))
        return out

    chunks = [records[i : i + _CHUNK_SCENES] for i in range(0, len(records), _CHUNK_SCENES)]
    try:
        with ThreadPoolExecutor(2 * workers) as io:
            return [result for results in io.map(run_chunk, chunks) for result in results]
    finally:
        if solver is not None:
            solver.shutdown()


# --------------------------------------------------------------------------
# Evaluation


@dataclass(frozen=True)
class ApReport:
    per_class: dict[str, float]
    mean: float


def eval_ap25(
    predictions: Sequence[SceneRecord],
    ground_truth: Sequence[SceneRecord],
    iou_threshold: float = 0.25,
) -> ApReport:
    """Per-class average precision at the IoU threshold, all-point interpolated.

    Predictions are ranked by score; each greedily claims the unmatched
    same-scene ground-truth box of highest overlap at or above the
    threshold. Classes absent from the ground truth are excluded from the
    mean; classes present but never predicted score 0.
    """
    gt_ids = {record.scene_id for record in ground_truth}
    pred_ids = {record.scene_id for record in predictions}
    if pred_ids - gt_ids:
        raise ValueError(f"predictions reference unknown scenes: {sorted(pred_ids - gt_ids)}")

    gt_boxes: dict[str, dict[str, list[Box7DoF]]] = {}
    class_totals: dict[str, int] = {}
    for record in ground_truth:
        for detection in record.detections:
            gt_boxes.setdefault(detection.label, {}).setdefault(record.scene_id, []).append(
                detection.box
            )
            class_totals[detection.label] = class_totals.get(detection.label, 0) + 1

    preds: dict[str, list[tuple[float, str, Box7DoF]]] = {}
    for record in predictions:
        for detection in record.detections:
            preds.setdefault(detection.label, []).append(
                (detection.score, record.scene_id, detection.box)
            )

    per_class: dict[str, float] = {}
    for label, total in class_totals.items():
        entries = sorted(
            preds.get(label, []), key=lambda item: (-item[0], item[1])
        )
        matched: dict[str, list[bool]] = {
            scene: [False] * len(boxes) for scene, boxes in gt_boxes[label].items()
        }
        tp = np.zeros(len(entries))
        for rank, (_score, scene_id, box) in enumerate(entries):
            candidates = gt_boxes[label].get(scene_id, [])
            best_iou, best_j = 0.0, -1
            for j, gt in enumerate(candidates):
                if matched[scene_id][j]:
                    continue
                overlap = iou3d(box, gt)
                if overlap >= iou_threshold and overlap > best_iou:
                    best_iou, best_j = overlap, j
            if best_j >= 0:
                matched[scene_id][best_j] = True
                tp[rank] = 1.0
        per_class[label] = _average_precision(tp, total)

    mean = sum(per_class.values()) / len(per_class) if per_class else 0.0
    return ApReport(per_class, mean)


def _average_precision(tp: np.ndarray, n_positive: int) -> float:
    if n_positive == 0:
        return 0.0
    if tp.size == 0:
        return 0.0
    cum_tp = np.cumsum(tp)
    ranks = np.arange(1, tp.size + 1)
    precision = cum_tp / ranks
    recall = cum_tp / n_positive
    # all-point interpolation: area under the precision envelope
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(mpre.size - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


# --------------------------------------------------------------------------
# Synthetic scenes


def generate_synthetic_scenes(
    kb,
    seed: int,
    n_scenes: int = 200,
    corruption_rate: float = 0.2,
    objects_per_scene: tuple[int, int] = (3, 8),
    size_cfg: SizeConstraintConfig = SizeConstraintConfig(),
) -> tuple[list[SceneRecord], list[SceneRecord]]:
    """Sample knowledge-base-conformant scenes and a corrupted detection set.

    Ground-truth objects use classes compatible with their scene and sizes
    inside the deadband of their priors. Corruption (driven entirely by the
    seed) swaps a fraction of novel labels to scene- or size-incompatible
    classes and hallucinates low-scoring boxes, some with classes foreign
    to the scene. Returns (ground truth, corrupted detections).
    """
    if not 0.0 <= corruption_rate <= 1.0:
        raise ValueError(f"corruption_rate must be in [0, 1], got {corruption_rate}")
    rng = np.random.default_rng(seed)
    scene_types = sorted(kb.compat)
    novel_sorted = sorted(kb.novel_classes)
    ground_truth: list[SceneRecord] = []
    detections: list[SceneRecord] = []

    for index in range(n_scenes):
        scene_type = scene_types[int(rng.integers(len(scene_types)))]
        compatible = sorted(c for c in kb.compat[scene_type] if c in kb.sizes)
        novel_compatible = [c for c in compatible if c in kb.novel_classes]
        foreign = [c for c in novel_sorted if c not in kb.compat[scene_type]]
        scene = SceneContext(scene_type, f"a {scene_type}")
        n_objects = int(rng.integers(objects_per_scene[0], objects_per_scene[1] + 1))

        gt_objects: list[Detection] = []
        det_objects: list[Detection] = []
        for _ in range(n_objects):
            label = compatible[int(rng.integers(len(compatible)))]
            prior = kb.sizes[label]
            dims = np.array([prior.length, prior.width, prior.height]) * (
                1.0 + rng.uniform(-0.04, 0.04, 3)
            )
            box = Box7DoF(
                float(rng.uniform(-6, 6)),
                float(rng.uniform(-6, 6)),
                float(dims[2] / 2),
                float(dims[0]),
                float(dims[1]),
                float(dims[2]),
                float(rng.uniform(-math.pi, math.pi)),
            )
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
            prior = kb.sizes[label]
            dims = np.array([prior.length, prior.width, prior.height]) * rng.uniform(
                0.6, 1.8, 3
            )
            box = Box7DoF(
                float(rng.uniform(-6, 6)),
                float(rng.uniform(-6, 6)),
                float(dims[2] / 2),
                float(dims[0]),
                float(dims[1]),
                float(dims[2]),
                float(rng.uniform(-math.pi, math.pi)),
            )
            score = float(rng.uniform(0.1, 0.45))
            det_objects.append(Detection(box, label, score, {label: score}))

        scene_id = f"scene{index:04d}"
        ground_truth.append(SceneRecord(scene_id, scene, tuple(gt_objects)))
        detections.append(SceneRecord(scene_id, scene, tuple(det_objects)))
    return ground_truth, detections


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


def save_scenes(records: Sequence[SceneRecord], path, include_scores: bool = True) -> None:
    """Write scene records as line-delimited JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            data = {
                "scene_id": record.scene_id,
                "scene_type": record.scene.scene_type,
            }
            if record.scene.description:
                data["description"] = record.scene.description
            data["detections"] = [
                _detection_to_dict(d, include_scores) for d in record.detections
            ]
            fh.write(json.dumps(data) + "\n")


def load_scenes(path) -> list[SceneRecord]:
    """Read scene records; missing scores (ground-truth files) default to 1."""

    def scene(data: dict) -> SceneRecord:
        where = f"scene {data.get('scene_id')}"
        detections = tuple(
            Detection(
                parse_box(entry["box"], f"{where} detection {k}"),
                entry["label"],
                float(entry.get("score", 1.0)),
                entry.get("class_scores"),
            )
            for k, entry in enumerate(data.get("detections", []))
        )
        return SceneRecord(
            str(data["scene_id"]),
            SceneContext(data["scene_type"], data.get("description", "")),
            detections,
        )

    return read_jsonl(path, scene)


def save_logs(logs: Sequence[RefinementLog], path) -> None:
    """Write refinement logs as line-delimited JSON, one record per scene."""
    with open(path, "w", encoding="utf-8") as fh:
        for log in logs:
            data: dict = {"scene_id": log.scene_id}
            if log.error is not None:
                data["error"] = log.error
            data["objects"] = [
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
            fh.write(json.dumps(data) + "\n")
