"""Command-line surface: refinement runs, solver one-shots, balancing
simulations, evaluation, and synthetic-fixture generation.

One binary with subcommands; options come from an optional JSON config file
plus flags, with flags winning. Exit codes: 0 success, 1 input error; any
other error, a custom knowledge provider's among them, propagates.

Each command imports the library layers it runs, when it runs: `baol` never
loads the refine stack (`pipeline`, `commonsense`, `psl`), and loads
`concurrent.futures` only when it starts worker processes, and numpy before
they fork; `refine` and `eval` load no `balancers`. `refine` runs chunks of
its file on worker processes, or on threads with `--llm remote`. The library
is called through its module objects, where the benchmark's tracer wraps it.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
import typing
from dataclasses import dataclass, fields, replace

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
# what `main` reports as input errors: JSON errors and rejected values are
# ValueErrors, and a missing size prior is a LookupError
_INPUT_ERRORS = (OSError, ValueError, LookupError, TypeError)


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
            # a NaN slips past every `value < least` check, an infinity defeats a clamp,
            # and an int beyond the float range overflows where it is used
            if allowed[0] is float and not abs(value) <= sys.float_info.max:
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


def _require_distinct(config: RunConfig, first: str, second: str) -> None:
    """Refuse two output options that name one file, which the second would overwrite."""
    a, b = getattr(config, first), getattr(config, second)
    if a and b and os.path.realpath(a) == os.path.realpath(b):
        raise ValueError(f"--{first} {a} and --{second} {b} name the same file")


def cmd_refine(config: RunConfig) -> int:
    _require(config, "detections", "out")
    _require_distinct(config, "out", "log")
    config.refinement()  # bad options fail before any line is read
    provider = _make_provider(config)
    totals = _refine_in_chunks(config, provider)
    kept, removed, reclassified = (
        sum(counts[decision] for counts in totals) for decision in ("keep", "remove", "reclassify")
    )
    print(f"kept {kept}, removed {removed}, reclassified {reclassified}")
    if config.llm == "remote" and provider.client.failed:
        print(
            f"warning: {provider.client.failed} of {provider.client.requests} LLM requests failed "
            "after every retry: their queries fell back to the knowledge base and their "
            "debates to the offline rule",
            file=sys.stderr,
        )
    return 0


class _Chunk(typing.NamedTuple):
    """What `_refine_chunk` gives back for one chunk of the detections file."""

    ids: list[tuple[str, int]]  # each parsed scene's id and line number
    bad_line: ValueError | None = None  # the first line that does not parse
    out: str = ""  # the chunk's --out lines
    log: str = ""  # its --log lines, if the run writes a log
    counts: tuple[dict[str, int], ...] = ()  # each scene's decision counts


# Scenes per job of `refine`'s workers. Enough solves (about 150 at the
# synthetic workload's density) to amortise a job's round trip to a process.
_CHUNK_SCENES = 32


def _refine_in_chunks(config: RunConfig, provider) -> list[dict[str, int]]:
    """Refine on ``--workers`` processes, each parsing, refining and
    formatting chunks of ``_CHUNK_SCENES`` lines of the file; one worker runs
    the chunks in this process. A remote provider refines them on
    ``2 * llm_max_in_flight`` threads in this process instead, whatever
    ``--workers`` is, so that its answer cache, each-query-once rule and
    bound on requests in flight hold for the whole run, and while a full
    window of threads waits on replies, as many again parse, solve and
    format.

    This process reads the lines, checks the scene ids for repeats in file
    order, and writes both files once every chunk has succeeded. It raises
    what the inline run raises: the first bad line, repeated id or refine
    error, by chunk in file order. Returns each scene's decision counts.
    """
    from . import pipeline, processes

    pool, workers = None, _workers(config)  # worker processes
    if config.llm == "remote":
        # imported here, not with the module, so that static refine does not load it
        from concurrent.futures import ThreadPoolExecutor

        pool, workers = ThreadPoolExecutor, 2 * config.llm_max_in_flight
    path = config.detections
    jobs = ((config, provider, lines) for lines in _chunks(read_lines(path), _CHUNK_SCENES))
    first_line: dict[str, int] = {}
    out, log, totals = [], [], []
    with contextlib.closing(processes.map_in_order(_refine_chunk, jobs, workers, pool)) as chunks:
        for chunk in chunks:
            for scene_id, lineno in chunk.ids:
                pipeline.check_scene_id(first_line, scene_id, path, lineno)
            if chunk.bad_line is not None:
                raise chunk.bad_line
            out.append(chunk.out)
            log.append(chunk.log)
            totals += chunk.counts
    with open(config.out, "w", encoding="utf-8") as fh:
        fh.writelines(out)
    if config.log:
        with open(config.log, "w", encoding="utf-8") as fh:
            fh.writelines(log)
    return totals


def _chunks(lines: typing.Iterator, size: int) -> typing.Iterator[list]:
    """``lines`` in lists of ``size``, the last one shorter."""
    while chunk := list(itertools.islice(lines, size)):
        yield chunk


def _refine_chunk(job: tuple[RunConfig, typing.Any, list[tuple[int, str]]]) -> _Chunk:
    """Parse, refine and format one chunk of the detections file.

    ``job`` is the run's options, the knowledge provider and the chunk's
    numbered lines: all a worker process needs, under any start method.
    Parsing stops at the first line that does not parse, and refining runs
    only if every line parses. A bad line comes back as a value, so that the
    main process checks the ids before it for repeats first; a refine error
    is raised.
    """
    from . import pipeline

    config, provider, lines = job
    records: list[pipeline.SceneRecord] = []
    bad_line = None
    try:
        for lineno, line in lines:
            records.append(parse_line(config.detections, lineno, line, pipeline.scene_record))
    except ValueError as exc:
        bad_line = exc
    ids = [(record.scene_id, lineno) for record, (lineno, _) in zip(records, lines)]
    if bad_line is not None:
        return _Chunk(ids, bad_line)
    results = pipeline.refine_scenes(records, provider, config.refinement())
    logs = [log for _, log in results]
    return _Chunk(
        ids,
        out="".join(pipeline.scene_line(record) for record, _ in results),
        log="".join(map(pipeline.log_line, logs)) if config.log else "",
        counts=tuple(log.counts() for log in logs),
    )


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

    params = dict(
        delta_phi=config.sbc_delta_phi,
        d_bound=config.sbc_d_bound,
        phi_lo=config.sbc_phi_lo,
        phi_hi=config.sbc_phi_hi,
        max_iters=config.sbc_max_iters,
    )
    # bad options fail before any line is read; with no class, only the
    # checks that need none run
    balancers.reflect_filter([], config.phi_clip)
    balancers.SbcState.uniform([], **params)
    kb = _load_kb(config)
    records = balancers.load_pseudo_labels(labels_path)
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

    state = balancers.SbcState.uniform(classes, config.sbc_phi_init, **params)
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

    params = dict(
        update_interval=config.dbc_interval,
        k=config.dbc_k,
        delta_w=config.dbc_delta_w,
        w_lo=config.dbc_w_lo,
        w_hi=config.dbc_w_hi,
    )
    balancers.DbcState.initial([], **params)  # bad options fail before any line is read
    stream = balancers.load_loss_stream(losses_path)
    if not stream:
        raise ValueError("empty loss stream")
    classes = sorted({cls for record in stream for cls in record})
    state = balancers.DbcState.initial(classes, **params)
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
    # balancers is loaded here, geometry with this module and numpy by
    # `_numpy_process_pool`, before any worker process forks, so that the
    # workers inherit all three
    from . import balancers  # noqa: F401

    if config.lambda_baol is None:
        raise ValueError("missing required option --lambda-baol (it has no default)")
    from . import processes

    # read as the scenes are scored, so that no process holds the whole file
    jobs = (
        (proposals_path, index, lineno, line, config)
        for index, (lineno, line) in enumerate(read_lines(proposals_path))
    )
    # one worker, or one scene, runs inline and starts no process; the first
    # bad line, in file order, raises before any scene is printed
    reports = list(
        processes.map_in_order(_baol_scene, jobs, _workers(config), _numpy_process_pool)
    )
    for report in reports:
        print(report)
    return 0


def _numpy_process_pool(workers: int):
    """``processes.process_pool(workers)``, started once numpy is loaded.

    Forked workers inherit numpy from this process, where each would import
    it again; ``map_in_order`` calls this only when it starts a pool, so a
    run without one, an empty file among them, loads no numpy here.
    """
    import numpy  # noqa: F401

    from . import processes

    return processes.process_pool(workers)


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
    lines: dict[str, int] = {}
    predictions = pipeline.load_scenes(config.detections, lines)
    ground_truth = pipeline.load_scenes(config.gt)
    known = {record.scene_id for record in ground_truth}
    for record in predictions:
        if record.scene_id not in known:
            raise ValueError(
                f"{config.detections}:{lines[record.scene_id]}: scene_id {record.scene_id!r} "
                f"is not in the ground truth {config.gt}"
            )
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
    _require_distinct(config, "out", "gt")
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
    # usage mistakes are input errors, exit 1, where argparse would exit 2
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
        "help": "N worker processes (default: cores); refine with the remote LLM runs its "
        "chunks of scenes on 2 x llm_max_in_flight threads in one process instead, at any N; "
        "outputs are byte-identical for any N",
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
        "so any positive weight gives the same decision and 0 switches its rule off; "
        "a weight below about 1e-12 of the largest acts as 0, and weights summing "
        "above 2.247e307 are refused",
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
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
