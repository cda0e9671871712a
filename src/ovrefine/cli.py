"""Command-line surface: refinement runs, solver one-shots, balancing
simulations, evaluation, and synthetic-fixture generation.

One binary with subcommands; options come from an optional JSON config file
plus flags, with flags winning. Exit codes: 0 success, 1 input error,
2 provider error.

Each command imports the library layers it runs, when it runs: `baol` never
loads the refine stack (`pipeline`, `commonsense`, `psl`), and loads
`concurrent.futures` only when it starts worker processes; `refine` and
`eval` load no `balancers`. The library is called through its module
objects, where the benchmark's tracer wraps it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import typing
from collections import deque
from dataclasses import dataclass, fields, replace
from itertools import chain, islice

# geometry is light; perfbench/tracecli.py wraps soft_nms on this module
from .geometry import ScoredBox, soft_nms
from .jsonl import parse_line, read_lines

if typing.TYPE_CHECKING:
    from . import pipeline
    from .commonsense import KnowledgeBase

__all__ = ["RunConfig", "main", "entry_point"]

# the values of psl.SelectionPolicy, named here so that no command loads psl to parse its flags
_POLICIES = ("max-keep-min-recls", "min-keep", "scene-conservative")
_LLM_MODES = ("off", "remote")
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
            # a NaN slips past every `value < least` check, and an infinity defeats a clamp
            if allowed[0] is float and not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value}")
        for name, least in (
            ("workers", 1), ("k_pro", 1), ("llm_max_in_flight", 1), ("llm_retries", 0),
            ("dbc_k", 0), ("dbc_interval", 1), ("sbc_max_iters", 1), ("scenes", 0),
            ("seed", 0),
        ):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
        for name in ("llm_timeout", "nms_sigma"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be a finite number above 0, got {value}")
        for name in ("alpha1", "alpha2", "alpha3", "lambda_baol"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be a finite number at least 0, got {value}")
        if not 0 <= self.nms_floor <= 1:
            raise ValueError(f"nms_floor must be in [0, 1], got {self.nms_floor}")
        if self.iou_lo >= self.iou_hi:
            raise ValueError(f"iou_lo must be below iou_hi, got {self.iou_lo} >= {self.iou_hi}")
        for name, allowed in (("policy", sorted(_POLICIES)), ("llm", _LLM_MODES)):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"{name} must be one of {', '.join(allowed)}, got {value!r}")

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
        from . import commonsense, pipeline
        from .psl import SelectionPolicy

        return pipeline.RefinementConfig(
            rule_weights=(self.alpha1, self.alpha2, self.alpha3),
            phi_keep=self.phi_keep,
            phi_recls=self.phi_recls,
            size=commonsense.SizeConstraintConfig(self.size_alpha, self.phi_size),
            policy=SelectionPolicy(self.policy),
        )


def _load_kb(config: RunConfig) -> KnowledgeBase:
    from . import commonsense

    if config.kb:
        return commonsense.load_knowledge_base(config.kb)
    return commonsense.default_knowledge_base()


def _make_provider(config: RunConfig):
    from . import commonsense

    kb = _load_kb(config)
    if config.llm == "remote":
        client = commonsense.LlmClient(
            timeout=config.llm_timeout,
            retries=config.llm_retries,
            max_in_flight=config.llm_max_in_flight,
        )
        if not client.endpoint:
            print(
                f"warning: {commonsense.ENDPOINT_ENV} is not set, so no request is sent: every "
                "query falls back to the knowledge base and every debate to the offline rule",
                file=sys.stderr,
            )
        # the provider's client also sends the debate judge's prompts
        return commonsense.RemoteKnowledgeProvider(client, kb)
    return commonsense.StaticKnowledgeProvider(kb)


def _workers(config: RunConfig) -> int:
    return config.workers if config.workers is not None else (os.cpu_count() or 1)


def _require(config: RunConfig, *names: str) -> None:
    missing = [name for name in names if not getattr(config, name)]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join('--' + m for m in missing)}")


def cmd_refine(config: RunConfig) -> int:
    from . import pipeline

    _require(config, "detections", "out")
    provider = _make_provider(config)
    records = pipeline.load_scenes(config.detections)
    results = pipeline.refine_scenes(
        records, provider, config.refinement(), workers=_workers(config)
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
    from .psl import SelectionPolicy, decide, solve_decisions

    weights = (config.alpha1, config.alpha2, config.alpha3)
    policy = SelectionPolicy(config.policy)
    (solution,) = solve_decisions([(x_conf, x_size, x_scene)], weights, policy)
    decision = decide(solution, config.phi_keep, config.phi_recls)
    print(
        f"y_keep={solution.y_keep:.6f} y_recls={solution.y_recls:.6f} "
        f"objective={solution.objective:.6f} decision={decision.value}"
    )
    return 0


def cmd_balance(config: RunConfig, labels_path: str) -> int:
    from . import balancers

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
    from . import balancers

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
    # balancers is loaded here, and geometry with this module, before any
    # worker process forks, so that the workers inherit both
    from . import balancers  # noqa: F401

    if config.lambda_baol is None:
        raise ValueError("missing required option --lambda-baol (it has no default)")
    # read as the scenes are scored, so that no process holds the whole file
    jobs = (
        (proposals_path, index, lineno, line, config)
        for index, (lineno, line) in enumerate(read_lines(proposals_path))
    )
    first = list(islice(jobs, _workers(config)))
    # one worker, or one scene, runs inline and starts no process
    if len(first) > 1:
        reports = _baol_on_processes(first, jobs)
    else:
        reports = [_baol_scene(job) for job in chain(first, jobs)]
    # the first bad line, in file order, raises before any scene is printed
    for report in reports:
        print(report)
    return 0


def _baol_on_processes(first: list, rest: typing.Iterator) -> list[str]:
    """``_baol_scene`` of each job, on one process per job of ``first``.

    The processes start before ``rest`` is read, and at most two jobs per
    process wait, so no process holds more than a few lines of the file.
    Reports come in file order, and an error is raised as the inline run
    raises it: a bad scene's once the scenes before it are done, and one in
    reading a later line once every scene before that line is done.
    """
    from . import processes

    reports = []
    with processes.process_pool(len(first)) as pool:
        pending = deque(pool.submit(_baol_scene, job) for job in first)
        try:
            while pending:
                try:
                    job = next(rest, None)
                except (OSError, ValueError):
                    for future in pending:
                        future.result()
                    raise
                if job is not None:
                    pending.append(pool.submit(_baol_scene, job))
                if job is None or len(pending) > 2 * len(first):
                    reports.append(pending.popleft().result())
        finally:
            # an error leaves the queued scenes unscored
            for future in pending:
                future.cancel()
    return reports


def _baol_scene(job: tuple[str, int, int, str, RunConfig]) -> str:
    """The report line of one scene of the proposals file.

    ``job`` is the file's path, the scene's index, its line number and text,
    and the run's options: all a worker process needs, under any start method.
    """
    # loaded already, unless the worker was spawned
    from . import balancers

    path, index, lineno, line, config = job
    proposals, labels = parse_line(
        path, lineno, line, lambda data: balancers.proposal_record(data, index)
    )
    boxes = proposals.boxes
    k_pro = min(config.k_pro, proposals.class_scores.size)
    # a scene without proposals (or without classes) has no score to keep
    kept, scored = (), []
    if k_pro:
        compressed = balancers.baol_compress(proposals, k_pro)
        kept = compressed.box_indices
        rows = compressed.scores
        scored = [
            ScoredBox(boxes[i], score, class_id)
            for i, score, class_id in zip(
                kept, rows.max(axis=1).tolist(), rows.argmax(axis=1).tolist()
            )
        ]
    y = balancers.assign_foreground_labels(boxes, labels, config.iou_lo, config.iou_hi)
    loss = balancers.baol_loss(y, proposals.fg_scores, config.lambda_baol)
    final = soft_nms(scored, config.nms_sigma, config.nms_floor)
    return (
        f"scene {index}: kept {len(kept)}/{len(boxes)} boxes, "
        f"{int(y.sum())} foreground, loss {loss:.6f}, {len(final)} after soft-nms"
    )


def cmd_eval(config: RunConfig) -> int:
    from . import pipeline

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
    from . import commonsense, pipeline

    _require(config, "out", "gt")
    kb = _load_kb(config)
    ground_truth, detections = pipeline.generate_synthetic_scenes(
        kb,
        seed=config.seed,
        n_scenes=config.scenes,
        corruption_rate=config.corruption,
        size_cfg=commonsense.SizeConstraintConfig(config.size_alpha, config.phi_size),
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

    def parse_known_args(self, args=None, namespace=None):
        # a subcommand rejects what it does not take itself, so its own usage
        # line is printed, where argparse would hand the rest to the top level
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


# every argument a subcommand can take, each defined once
_ARGUMENTS = {
    "--config": {"help": "JSON config file; flags override it"},
    "--detections": {"help": "detections file (JSONL)"},
    "--kb": {"help": "knowledge-base file (JSON); defaults to the built-in KB"},
    "--gt": {"help": "ground-truth scenes file (JSONL)"},
    "--out": {"help": "output file"},
    "--log": {"help": "refinement log output file (JSONL)"},
    "--policy": {"choices": sorted(_POLICIES)},
    "--workers": {
        "type": int,
        "metavar": "N",
        "help": "N worker processes (default: cores); outputs are byte-identical for any N",
    },
    "--seed": {"type": int},
    "--llm": {"choices": _LLM_MODES},
    # a tuple metavar on a positional breaks argparse's --help
    "x": {"type": float, "nargs": 3, "metavar": "X", "help": "x_conf x_size x_scene in [0, 1]"},
    "--weights": {
        "type": float,
        "nargs": 3,
        "metavar": ("A1", "A2", "A3"),
        "help": "rule weights alpha1-alpha3 (default 1 1 1); the rules always hold together, "
        "so any positive weight gives the same decision and 0 switches its rule off",
    },
    "--labels": {"required": True, "help": "pseudo-label file (JSONL)"},
    "--phi-init": {"dest": "sbc_phi_init", "type": float},
    "--losses": {"required": True, "help": "loss-stream file (JSONL)"},
    "--interval": {"dest": "dbc_interval", "type": int},
    "--top-k": {"dest": "dbc_k", "type": int},
    "--proposals": {"required": True, "help": "proposal file (JSONL)"},
    "--lambda-baol": {"dest": "lambda_baol", "type": float},
    "--k-pro": {"dest": "k_pro", "type": int},
    "--scenes": {"type": int},
    "--corruption": {"type": float},
}

# each subcommand's help and the arguments it reads besides --config; no other is accepted
_COMMANDS = {
    "refine": ("refine a detections file", "--detections --kb --out --log --policy --workers --llm"),
    "solve-psl": ("solve one constraint vector", "x --weights --policy"),
    "balance": ("run the threshold circulation on pseudo labels", "--labels --phi-init --kb --out"),
    "dbc-sim": ("replay a loss stream through the weight scheduler", "--losses --interval --top-k --out"),
    "baol": (
        "compress proposals, assign labels, compute the loss",
        "--proposals --lambda-baol --k-pro --workers",
    ),
    "eval": ("mAP@0.25 of detections against ground truth", "--detections --gt --out"),
    "gen-synthetic": (
        "write a synthetic ground-truth/detections pair",
        "--seed --scenes --corruption --kb --out --gt",
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ovrefine",
        description="Soft-logic refinement of open-vocabulary 3D detections",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in ("--config", *names.split()):
            p.add_argument(name, **_ARGUMENTS[name])
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
                alpha1, alpha2, alpha3 = args.weights
                config = replace(config, alpha1=alpha1, alpha2=alpha2, alpha3=alpha3)
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
    # a ProviderError is a RuntimeError; commonsense is loaded here, not on the way in
    except RuntimeError as exc:
        from .commonsense import ProviderError

        if not isinstance(exc, ProviderError):
            raise
        print(f"provider error: {exc}", file=sys.stderr)
        return 2
    # JSON errors and rejected values are ValueErrors; a missing size prior is
    # a LookupError
    except (OSError, ValueError, LookupError, TypeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
