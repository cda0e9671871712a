"""Desk-scale end-to-end check: corrupt synthetic scenes, refine, measure mAP.

The generator samples scenes that conform to the knowledge base, then
corrupts a fraction of the novel-class labels (swaps to scene- or
size-incompatible classes) and hallucinates low-scoring boxes. Refinement
should recover most of the damage.

Equivalent CLI run:
    ovrefine gen-synthetic --seed 7 --scenes 50 --out /tmp/det.jsonl --gt /tmp/gt.jsonl
    ovrefine refine --detections /tmp/det.jsonl --out /tmp/refined.jsonl --log /tmp/log.jsonl
    ovrefine eval --detections /tmp/refined.jsonl --gt /tmp/gt.jsonl

Run with: python demos/04_synthetic_evaluation.py
"""

from collections import Counter

from ovrefine import (
    StaticKnowledgeProvider,
    default_knowledge_base,
    eval_ap25,
    generate_synthetic_scenes,
    refine_scenes,
)

kb = default_knowledge_base()
provider = StaticKnowledgeProvider(kb)

ground_truth, detections = generate_synthetic_scenes(
    kb, seed=7, n_scenes=50, corruption_rate=0.2
)
n_objects = sum(len(r.detections) for r in ground_truth)
n_detections = sum(len(r.detections) for r in detections)
print(f"{len(ground_truth)} scenes, {n_objects} objects, {n_detections} raw detections")

before = eval_ap25(detections, ground_truth)
print(f"mAP@0.25 before refinement: {before.mean:.4f}")

results = refine_scenes(detections, provider)
refined = [record for record, _ in results]

decisions = Counter()
for _, log in results:
    for count_name, count in log.counts().items():
        decisions[count_name] += count
print("decisions:", dict(decisions))

after = eval_ap25(refined, ground_truth)
print(f"mAP@0.25 after refinement:  {after.mean:.4f}")

# The biggest per-class swings, for color.
deltas = {
    cls: after.per_class.get(cls, 0.0) - before.per_class.get(cls, 0.0)
    for cls in before.per_class
}
for cls, delta in sorted(deltas.items(), key=lambda kv: -abs(kv[1]))[:5]:
    print(f"  {cls:15s} {before.per_class[cls]:.3f} -> {after.per_class[cls]:.3f}")
