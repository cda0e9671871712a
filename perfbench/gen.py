"""Seeded workload files for the benchmark.

Everything the program under test reads is written here, from the seed
alone: scene/ground-truth files for ``refine`` and ``eval``, and proposal
files for ``baol``. The package is imported from the checkout only to reuse
its synthetic-scene generator and file writers.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ovrefine import default_knowledge_base, generate_synthetic_scenes, save_scenes

CORRUPTION = 0.2


def write_scenes(seed: int, n_scenes: int, det_path, gt_path) -> int:
    """Write corrupted detections and ground truth; return the novel-detection count."""
    kb = default_knowledge_base()
    ground_truth, detections = generate_synthetic_scenes(
        kb, seed=seed, n_scenes=n_scenes, corruption_rate=CORRUPTION
    )
    save_scenes(detections, det_path)
    save_scenes(ground_truth, gt_path, include_scores=False)
    return sum(1 for r in detections for d in r.detections if d.label in kb.novel_classes)


def _jittered(rng, box) -> list[float]:
    # a near-miss proposal: centre shifted by up to ~10% of the extent,
    # extents scaled by up to 20%, heading off by a few degrees
    dims = np.array([box.l, box.w, box.h]) * rng.uniform(0.8, 1.2, 3)
    shift = rng.normal(0.0, 0.1, 3) * np.array([box.l, box.w, box.h])
    return [
        float(box.cx + shift[0]),
        float(box.cy + shift[1]),
        float(box.cz + shift[2]),
        float(dims[0]),
        float(dims[1]),
        float(dims[2]),
        float(box.theta + rng.normal(0.0, 0.2)),
    ]


def _random_box(rng, priors) -> list[float]:
    prior = priors[int(rng.integers(len(priors)))]
    dims = np.array([prior.length, prior.width, prior.height]) * rng.uniform(0.6, 1.4, 3)
    return [
        float(rng.uniform(-6, 6)),
        float(rng.uniform(-6, 6)),
        float(dims[2] / 2),
        float(dims[0]),
        float(dims[1]),
        float(dims[2]),
        float(rng.uniform(-math.pi, math.pi)),
    ]


def write_proposals(seed: int, n_scenes: int, n_pro: int, path) -> int:
    """Write ``baol`` proposal records built on the synthetic ground truth.

    Per scene: half the proposals jitter a ground-truth box, half are random
    boxes of KB-sized classes; foreground scores are uniform. Each proposal's
    class scores are a Dirichlet draw over the novel classes, so one class
    usually dominates, as after a detector's softmax. Returns the proposal
    count.
    """
    kb = default_knowledge_base()
    ground_truth, _ = generate_synthetic_scenes(
        kb, seed=seed, n_scenes=n_scenes, corruption_rate=CORRUPTION
    )
    rng = np.random.default_rng([seed, 1])
    priors = [kb.sizes[label] for label in sorted(kb.sizes)]
    n_class = len(kb.novel_classes)
    with open(path, "w", encoding="utf-8") as fh:
        for record in ground_truth:
            gt_boxes = [d.box for d in record.detections]
            n_jitter = n_pro // 2
            boxes = [
                _jittered(rng, gt_boxes[int(rng.integers(len(gt_boxes)))])
                for _ in range(n_jitter)
            ]
            boxes += [_random_box(rng, priors) for _ in range(n_pro - n_jitter)]
            data = {
                "boxes": boxes,
                "class_scores": rng.dirichlet(np.full(n_class, 0.5), n_pro).tolist(),
                "fg_scores": rng.uniform(0.0, 1.0, n_pro).tolist(),
                "labels": [
                    [b.cx, b.cy, b.cz, b.l, b.w, b.h, b.theta] for b in gt_boxes
                ],
            }
            fh.write(json.dumps(data) + "\n")
    return n_scenes * n_pro
