"""Command-line surface: refinement runs, solver one-shots, balancing
simulations, evaluation, and synthetic-fixture generation.

One binary with subcommands; options come from an optional JSON config file
plus flags, with flags winning. Exit codes: 0 success, 1 input error,
2 provider error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import typing
from dataclasses import dataclass, fields, replace

import numpy as np

from . import balancers, commonsense, pipeline
from .commonsense import (
    KnowledgeBase,
    LlmClient,
    ProviderError,
    RemoteKnowledgeProvider,
    SizeConstraintConfig,
    StaticKnowledgeProvider,
    load_knowledge_base,
)
from .geometry import ScoredBox, parse_box, soft_nms
from .jsonl import read_jsonl
from .psl import SelectionPolicy, decide, solve_decisions

__all__ = ["RunConfig", "main", "entry_point"]

_POLICIES = {policy.value: policy for policy in SelectionPolicy}
# the values a RunConfig field of each type accepts: a float field takes an int
_ACCEPTS = {str: str, int: int, float: (int, float)}


@dataclass
class RunConfig:
    """Run options with their defaults."""

    detections: str | None = None
    kb: str | None = None
    gt: str | None = None
    out: str | None = None
    log: str | None = None
    policy: str = "scene-conservative"
    workers: int | None = None
    seed: int = 0
    llm: str = "off"
    # soft-logic rules and thresholds
    alpha1: float = 1.0
    alpha2: float = 1.0
    alpha3: float = 1.0
    phi_keep: float = 0.01
    phi_recls: float = 0.2
    # size constraint
    size_alpha: float = 0.25
    phi_size: float = 0.05
    # reflection filtering
    phi_clip: float = 0.5
    # static balance
    sbc_delta_phi: float = 0.05
    sbc_d_bound: float = 0.5
    sbc_phi_lo: float = 0.1
    sbc_phi_hi: float = 0.9
    sbc_phi_init: float = 0.5
    sbc_max_iters: int = 50
    # dynamic balance
    dbc_interval: int = 2000
    dbc_k: int = 5
    dbc_delta_w: float = 0.05
    dbc_w_lo: float = 0.5
    dbc_w_hi: float = 1.5
    # proposal scoring
    k_pro: int = 1000
    iou_lo: float = 0.25
    iou_hi: float = 0.85
    lambda_baol: float | None = None
    nms_sigma: float = 0.5
    nms_floor: float = 0.01
    # synthetic fixtures
    scenes: int = 200
    corruption: float = 0.2
    # remote LLM
    llm_timeout: float = 10.0
    llm_retries: int = 2
    llm_max_in_flight: int = 4

    def __post_init__(self) -> None:
        for name, hint in typing.get_type_hints(type(self)).items():
            value = getattr(self, name)
            allowed = typing.get_args(hint) or (hint,)
            if value is None and type(None) in allowed:
                continue
            # JSON true is no number, though bool subclasses int
            if isinstance(value, bool) or not isinstance(value, _ACCEPTS[allowed[0]]):
                raise ValueError(
                    f"{name} must be {allowed[0].__name__}, got {type(value).__name__} {value!r}"
                )
        for name, least in (("workers", 1), ("llm_max_in_flight", 1), ("llm_retries", 0)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
        if not 0 < self.llm_timeout < math.inf:
            raise ValueError(f"llm_timeout must be a finite number above 0, got {self.llm_timeout}")

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
                if not isinstance(data, dict):
                    raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
                unknown = set(data) - {f.name for f in fields(cls)}
                if unknown:
                    raise ValueError(f"unknown config keys: {sorted(unknown)}")
                return cls(**data)
            # a document nested past the recursion limit makes the decoder raise
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"{path}: {exc}") from None

    def override(self, args: argparse.Namespace) -> "RunConfig":
        updates = {}
        for f in fields(self):
            value = getattr(args, f.name, None)
            if value is not None:
                updates[f.name] = value
        return replace(self, **updates)

    def refinement(self) -> pipeline.RefinementConfig:
        if self.policy not in _POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}, expected one of {sorted(_POLICIES)}"
            )
        return pipeline.RefinementConfig(
            rule_weights=(self.alpha1, self.alpha2, self.alpha3),
            phi_keep=self.phi_keep,
            phi_recls=self.phi_recls,
            size=SizeConstraintConfig(self.size_alpha, self.phi_size),
            policy=_POLICIES[self.policy],
        )


def _load_kb(config: RunConfig) -> KnowledgeBase:
    if config.kb:
        return load_knowledge_base(config.kb)
    return commonsense.default_knowledge_base()


def _make_provider(config: RunConfig):
    kb = _load_kb(config)
    if config.llm == "remote":
        client = LlmClient(
            timeout=config.llm_timeout,
            retries=config.llm_retries,
            max_in_flight=config.llm_max_in_flight,
        )
        return RemoteKnowledgeProvider(client, kb), client
    if config.llm != "off":
        raise ValueError(f"--llm must be 'off' or 'remote', got {config.llm!r}")
    return StaticKnowledgeProvider(kb), None


def _require(config: RunConfig, *names: str) -> None:
    missing = [name for name in names if not getattr(config, name)]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join('--' + m for m in missing)}")


def cmd_refine(config: RunConfig) -> int:
    _require(config, "detections", "out")
    provider, client = _make_provider(config)
    records = pipeline.load_scenes(config.detections)
    workers = config.workers if config.workers is not None else (os.cpu_count() or 1)
    results = pipeline.refine_scenes(
        records, provider, config.refinement(), client, workers=workers
    )
    refined = [record for record, _ in results]
    logs = [log for _, log in results]
    pipeline.save_scenes(refined, config.out)
    if config.log:
        pipeline.save_logs(logs, config.log)
    totals = {"keep": 0, "remove": 0, "reclassify": 0}
    for log in logs:
        for decision, count in log.counts().items():
            totals[decision] += count
    print(
        f"kept {totals['keep']}, removed {totals['remove']}, "
        f"reclassified {totals['reclassify']}"
    )
    failures = [log for log in logs if log.error]
    if failures:
        for log in failures:
            print(f"scene {log.scene_id} skipped: {log.error}", file=sys.stderr)
        return 2
    return 0


def cmd_solve_psl(config: RunConfig, x_conf: float, x_size: float, x_scene: float) -> int:
    weights = (config.alpha1, config.alpha2, config.alpha3)
    (solution,) = solve_decisions([(x_conf, x_size, x_scene)], weights, _POLICIES[config.policy])
    decision = decide(solution, config.phi_keep, config.phi_recls)
    print(
        f"y_keep={solution.y_keep:.6f} y_recls={solution.y_recls:.6f} "
        f"objective={solution.objective:.6f} decision={decision.value}"
    )
    return 0


def cmd_balance(config: RunConfig, labels_path: str) -> int:
    records = balancers.load_pseudo_labels(labels_path)
    kb = _load_kb(config)
    pool = [label for _, labels in records for label in labels]
    pool = balancers.reflect_filter(pool, config.phi_clip)
    classes = sorted({label.label for label in pool} & kb.novel_classes)
    if not classes:
        raise ValueError("no novel-class labels in the pseudo-label file")

    def source(phi_by_class):
        return {
            cls: sum(
                1 for label in pool if label.label == cls and label.confidence >= phi_by_class[cls]
            )
            for cls in phi_by_class
        }

    state = balancers.SbcState.uniform(
        classes,
        config.sbc_phi_init,
        delta_phi=config.sbc_delta_phi,
        d_bound=config.sbc_d_bound,
        phi_lo=config.sbc_phi_lo,
        phi_hi=config.sbc_phi_hi,
        max_iters=config.sbc_max_iters,
    )
    final, iterations = balancers.sbc_loop(source, state)
    print(f"converged after {iterations} iteration(s)")
    for cls in classes:
        print(f"phi[{cls}] = {final.phi_by_class[cls]:.4f}")
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            json.dump(
                {"iterations": iterations, "phi_by_class": dict(sorted(final.phi_by_class.items()))},
                fh,
                indent=2,
            )
            fh.write("\n")
    return 0


def cmd_dbc_sim(config: RunConfig, losses_path: str) -> int:
    stream = balancers.load_loss_stream(losses_path)
    if not stream:
        raise ValueError("empty loss stream")
    classes = sorted({cls for record in stream for cls in record})
    state = balancers.DbcState.initial(
        classes,
        update_interval=config.dbc_interval,
        k=config.dbc_k,
        delta_w=config.dbc_delta_w,
        w_lo=config.dbc_w_lo,
        w_hi=config.dbc_w_hi,
    )
    trace = []
    for iteration, record in enumerate(stream, start=1):
        before = dict(state.w_by_class)
        state = balancers.dbc_accumulate(record, state)
        if state.iter_count == 0 and state.w_by_class != before:
            trace.append({"iteration": iteration, "weights": dict(sorted(state.w_by_class.items()))})
    for entry in trace:
        weights = " ".join(f"{cls}={w:.2f}" for cls, w in entry["weights"].items())
        print(f"iter {entry['iteration']}: {weights}")
    final = " ".join(f"{cls}={state.w_by_class[cls]:.2f}" for cls in classes)
    print(f"final: {final}")
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            for entry in trace:
                fh.write(json.dumps(entry) + "\n")
    return 0


def cmd_baol(config: RunConfig, proposals_path: str) -> int:
    if config.lambda_baol is None:
        raise ValueError("missing required option --lambda-baol (it has no default)")
    indices = itertools.count()

    def scene(data: dict) -> tuple[balancers.ProposalSet, tuple]:
        index = next(indices)
        boxes = tuple(
            parse_box(b, f"scene {index} proposal {i}") for i, b in enumerate(data["boxes"])
        )
        proposals = balancers.ProposalSet(
            boxes, np.asarray(data["class_scores"], float), np.asarray(data["fg_scores"], float)
        )
        labels = tuple(
            parse_box(b, f"scene {index} label {j}") for j, b in enumerate(data.get("labels", []))
        )
        return proposals, labels

    # every line is checked before the first scene's result is printed
    for index, (proposals, labels) in enumerate(read_jsonl(proposals_path, scene)):
        boxes = proposals.boxes
        k_pro = min(config.k_pro, proposals.class_scores.size)
        compressed = balancers.baol_compress(proposals, k_pro)
        y = balancers.assign_foreground_labels(
            boxes, labels, config.iou_lo, config.iou_hi
        )
        loss = balancers.baol_loss(y, proposals.fg_scores, config.lambda_baol)
        scored = [
            ScoredBox(boxes[i], float(compressed.scores[row].max()), int(compressed.scores[row].argmax()))
            for row, i in enumerate(compressed.box_indices)
        ]
        final = soft_nms(scored, config.nms_sigma, config.nms_floor)
        print(
            f"scene {index}: kept {len(compressed.box_indices)}/{len(boxes)} boxes, "
            f"{int(y.sum())} foreground, loss {loss:.6f}, {len(final)} after soft-nms"
        )
    return 0


def cmd_eval(config: RunConfig) -> int:
    _require(config, "detections", "gt")
    predictions = pipeline.load_scenes(config.detections)
    ground_truth = pipeline.load_scenes(config.gt)
    report = pipeline.eval_ap25(predictions, ground_truth)
    for label in sorted(report.per_class):
        print(f"AP[{label}] = {report.per_class[label]:.4f}")
    print(f"mAP {report.mean:.4f}")
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            json.dump(
                {"per_class": dict(sorted(report.per_class.items())), "mean": report.mean},
                fh,
                indent=2,
            )
            fh.write("\n")
    return 0


def cmd_gen_synthetic(config: RunConfig) -> int:
    _require(config, "out", "gt")
    kb = _load_kb(config)
    ground_truth, detections = pipeline.generate_synthetic_scenes(
        kb,
        seed=config.seed,
        n_scenes=config.scenes,
        corruption_rate=config.corruption,
        size_cfg=SizeConstraintConfig(config.size_alpha, config.phi_size),
    )
    pipeline.save_scenes(detections, config.out)
    pipeline.save_scenes(ground_truth, config.gt, include_scores=False)
    n_objects = sum(len(r.detections) for r in ground_truth)
    n_detections = sum(len(r.detections) for r in detections)
    print(
        f"wrote {len(ground_truth)} scenes: {n_objects} ground-truth objects, "
        f"{n_detections} detections"
    )
    return 0


class _Parser(argparse.ArgumentParser):
    # usage mistakes are input errors (exit 1); exit 2 is reserved for
    # provider failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ovrefine",
        description="Soft-logic refinement of open-vocabulary 3D detections",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--detections", help="detections file (JSONL)")
        p.add_argument("--kb", help="knowledge-base file (JSON); defaults to the built-in KB")
        p.add_argument("--gt", help="ground-truth scenes file (JSONL)")
        p.add_argument("--out", help="output file")
        p.add_argument("--log", help="refinement log output file (JSONL)")
        p.add_argument("--policy", choices=sorted(_POLICIES))
        p.add_argument(
            "--workers",
            type=int,
            metavar="N",
            help="refine: N solver processes plus 2N provider I/O threads, each thread "
            "taking one chunk of scenes at a time (default: cores); outputs are "
            "byte-identical for any N",
        )
        p.add_argument("--seed", type=int)
        p.add_argument("--llm", choices=["off", "remote"])

    p = sub.add_parser("refine", help="refine a detections file")
    common(p)

    p = sub.add_parser("solve-psl", help="solve one constraint vector")
    common(p)
    p.add_argument("x", type=float, nargs=3, metavar=("X_CONF", "X_SIZE", "X_SCENE"))
    p.add_argument("--weights", type=float, nargs=3, metavar=("A1", "A2", "A3"))

    p = sub.add_parser("balance", help="run the threshold circulation on pseudo labels")
    common(p)
    p.add_argument("--labels", required=True, help="pseudo-label file (JSONL)")
    p.add_argument("--phi-init", dest="sbc_phi_init", type=float)

    p = sub.add_parser("dbc-sim", help="replay a loss stream through the weight scheduler")
    common(p)
    p.add_argument("--losses", required=True, help="loss-stream file (JSONL)")
    p.add_argument("--interval", dest="dbc_interval", type=int)
    p.add_argument("--top-k", dest="dbc_k", type=int)

    p = sub.add_parser("baol", help="compress proposals, assign labels, compute the loss")
    common(p)
    p.add_argument("--proposals", required=True, help="proposal file (JSONL)")
    p.add_argument("--lambda-baol", dest="lambda_baol", type=float)
    p.add_argument("--k-pro", dest="k_pro", type=int)

    p = sub.add_parser("eval", help="mAP@0.25 of detections against ground truth")
    common(p)

    p = sub.add_parser("gen-synthetic", help="write a synthetic ground-truth/detections pair")
    common(p)
    p.add_argument("--scenes", type=int)
    p.add_argument("--corruption", type=float)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = RunConfig.load(args.config) if args.config else RunConfig()
        config = config.override(args)
        if args.command == "refine":
            return cmd_refine(config)
        if args.command == "solve-psl":
            if args.weights is not None:
                config = replace(
                    config, alpha1=args.weights[0], alpha2=args.weights[1], alpha3=args.weights[2]
                )
            return cmd_solve_psl(config, *args.x)
        if args.command == "balance":
            return cmd_balance(config, args.labels)
        if args.command == "dbc-sim":
            return cmd_dbc_sim(config, args.losses)
        if args.command == "baol":
            return cmd_baol(config, args.proposals)
        if args.command == "eval":
            return cmd_eval(config)
        if args.command == "gen-synthetic":
            return cmd_gen_synthetic(config)
        raise AssertionError(f"unhandled command {args.command!r}")
    except ProviderError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return 2
    # rule-syntax and JSON errors are ValueErrors; a missing size prior is a
    # LookupError
    except (OSError, ValueError, LookupError, TypeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
