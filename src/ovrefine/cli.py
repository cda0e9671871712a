"""Command-line surface: refinement runs, solver one-shots, balancing
simulations, evaluation, and synthetic-fixture generation.

One binary with subcommands, each one `_COMMANDS` entry plus its
`cmd_<name>(config, args)`; options come from an optional JSON config file
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
import collections
import contextlib
import itertools
import json
import os
import sys
import typing
from dataclasses import dataclass, fields, replace

# geometry is light; perfbench/tracecli.py wraps soft_nms on this module
from .geometry import ScoredBox, soft_nms
from .jsonl import brief, expect, parse_file, parse_line, read_lines

if typing.TYPE_CHECKING:
    from . import pipeline
    from .commonsense import KnowledgeBase

__all__ = ["RunConfig", "main", "entry_point"]

# the values of psl.SelectionPolicy, named here so that no command loads psl to parse its flags
_POLICIES = ("max-keep-min-recls", "min-keep", "scene-conservative")
_LLM_MODES = ("off", "remote")
# the values a RunConfig field of each type accepts, and their JSON kind: a float takes an int
_ACCEPTS = {str: (str, "a string"), int: (int, "an integer"), float: ((int, float), "a number")}
# psl's bound on the rule weights' sum, named here so that no command loads psl to check it
_MAX_WEIGHT_SUM = sys.float_info.max / 8
# each bounded RunConfig option (or sum of options), in the order checked, with its bound,
# formatted with the options' values, and the test of its value v in the config c
_BOUNDS = (
    ("workers k_pro llm_max_in_flight", "at least 1", lambda v, c: v >= 1),
    ("llm_retries dbc_k", "at least 0", lambda v, c: v >= 0),
    ("dbc_interval sbc_max_iters", "at least 1", lambda v, c: v >= 1),
    ("scenes seed", "at least 0", lambda v, c: v >= 0),
    ("llm_timeout nms_sigma", "a finite number above 0", lambda v, c: v > 0),
    ("sbc_delta_phi dbc_delta_w", "a finite number above 0", lambda v, c: v > 0),
    ("alpha1 alpha2 alpha3 lambda_baol", "a finite number at least 0", lambda v, c: v >= 0),
    ("size_alpha sbc_d_bound", "a finite number at least 0", lambda v, c: v >= 0),
    ("nms_floor corruption", "in [0, 1]", lambda v, c: 0 <= v <= 1),
    ("phi_keep phi_recls phi_clip iou_lo iou_hi", "in [0, 1]", lambda v, c: 0 <= v <= 1),
    ("sbc_phi_lo sbc_phi_hi sbc_phi_init", "in [0, 1]", lambda v, c: 0 <= v <= 1),
    ("phi_size", "in [0, 1)", lambda v, c: 0 <= v < 1),
    # every class's weight starts at 1
    ("dbc_w_lo", "at most 1", lambda v, c: v <= 1),
    ("dbc_w_hi", "at least 1", lambda v, c: v >= 1),
    ("sbc_phi_init", "in [sbc_phi_lo, sbc_phi_hi] = [{sbc_phi_lo}, {sbc_phi_hi}]",
     lambda v, c: c.sbc_phi_lo <= v <= c.sbc_phi_hi),
    ("iou_lo", "below iou_hi = {iou_hi}", lambda v, c: v < c.iou_hi),
    ("alpha1+alpha2+alpha3", f"at most {_MAX_WEIGHT_SUM:.4g}", lambda v, c: v <= _MAX_WEIGHT_SUM),
)
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
            kinds, kind = _ACCEPTS[allowed[0]]
            # JSON true is no number, though bool subclasses int
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ValueError(f"{name} must be {kind}, got {brief(value)}")
            # a NaN slips past every `value < least` check, an infinity defeats a clamp,
            # and an int beyond the float range overflows where it is used
            if allowed[0] is float and not abs(value) <= sys.float_info.max:
                raise ValueError(f"{name} must be a finite number, got {brief(value)}")
        # an empty path would quietly mean no file, or the built-in knowledge base
        for name in ("detections", "kb", "gt", "out", "log"):
            if getattr(self, name) == "":
                raise ValueError(f"{name} must name a file, got an empty string")
        for names, bound, holds in _BOUNDS:
            for name in names.split():
                terms = [getattr(self, key) for key in name.split("+")]
                if None not in terms and not holds(sum(terms), self):
                    values = {key: brief(value) for key, value in vars(self).items()}
                    raise ValueError(
                        f"{name.replace('+', ' + ')} must be {bound.format_map(values)}, "
                        f"got {' + '.join(map(brief, terms))}"
                    )
        for name, allowed in (("policy", sorted(_POLICIES)), ("llm", _LLM_MODES)):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"{name} must be one of {', '.join(allowed)}, got {brief(value)}")

    @classmethod
    def load(cls, path) -> "RunConfig":
        """The options in the JSON config file ``path``; errors are prefixed ``path:``."""

        def from_dict(data) -> RunConfig:
            unknown = set(expect(data, dict, "config")) - {f.name for f in fields(cls)}
            if unknown:
                raise ValueError(f"unknown config keys: {brief(sorted(unknown))}")
            return cls(**data)

        return parse_file(path, from_dict)

    def override(self, args: argparse.Namespace) -> "RunConfig":
        given = {f.name: getattr(args, f.name, None) for f in fields(self)}
        return replace(self, **{name: value for name, value in given.items() if value is not None})

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


def _check_options(command: _Command, config: RunConfig, args: argparse.Namespace) -> None:
    """Refuse, in one pass, a required option not given, a file named by an
    empty string and a file the command writes that is also another file it
    writes or reads, --config among them, which it would overwrite."""
    requires, writes = command.requires.split(), command.writes.split()
    files = [*writes, "--config", *command.reads.split()]
    # --config, --labels, --losses and --proposals are flags only, the others RunConfig fields
    given = {
        flag: getattr(config, flag[2:].replace("-", "_"), getattr(args, flag[2:], None))
        for flag in requires + files
    }
    missing = [flag for flag in requires if given[flag] is None]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join(missing)}")
    for i, first in enumerate(files):
        if given[first] == "":
            raise ValueError(f"{first} must name a file, got an empty string")
        for second in files[i + 1 :] if i < len(writes) else ():
            a, b = given[first], given[second]
            if a and b and os.path.realpath(a) == os.path.realpath(b):
                raise ValueError(f"{first} {a} and {second} {b} name the same file")


def _write_report(path: str | None, data: dict) -> None:
    """``data`` as indented JSON in ``path``, if the run names one."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")


def cmd_refine(config: RunConfig, args: argparse.Namespace) -> int:
    provider = _make_provider(config)
    tally = _refine_in_chunks(config, provider)
    print(f"kept {tally['keep']}, removed {tally['remove']}, reclassified {tally['reclassify']}")
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
    tally: typing.Mapping[str, int] = {}  # the chunk's decision counts


# Scenes per job of `refine`'s workers. Enough solves (about 150 at the
# synthetic workload's density) to amortise a job's round trip to a process.
_CHUNK_SCENES = 32


def _refine_in_chunks(config: RunConfig, provider) -> collections.Counter:
    """Refine on ``--workers`` processes, each parsing, refining and
    formatting chunks of ``_CHUNK_SCENES`` lines of the file; one worker runs
    the chunks in this process. A remote provider refines them on
    ``2 * llm_max_in_flight`` threads in this process instead, whatever
    ``--workers`` is, so that its per-prompt cache and bound on requests in
    flight hold for the whole run, and while a full window of threads waits
    on replies, as many again parse, solve and format.

    This process reads the lines, checks the scene ids for repeats in file
    order, and writes both files once every chunk has succeeded. It raises
    what the inline run raises: the first bad line, repeated id or refine
    error, by chunk in file order. Returns the run's decision counts.
    """
    from . import pipeline, processes

    pool, workers = None, _workers(config)  # worker processes
    if config.llm == "remote":
        # imported here, not with the module, so that static refine does not load it
        from concurrent.futures import ThreadPoolExecutor

        pool, workers = ThreadPoolExecutor, 2 * config.llm_max_in_flight
    path = config.detections
    lines = read_lines(path)
    # lists of _CHUNK_SCENES lines, the last one shorter, until one comes back empty
    chunks = iter(lambda: list(itertools.islice(lines, _CHUNK_SCENES)), [])
    jobs = ((config, provider, chunk) for chunk in chunks)
    first_line: dict[str, int] = {}
    out, log, tally = [], [], collections.Counter()
    with contextlib.closing(processes.map_in_order(_refine_chunk, jobs, workers, pool)) as results:
        for chunk in results:
            for scene_id, lineno in chunk.ids:
                pipeline.check_scene_id(first_line, scene_id, path, lineno)
            if chunk.bad_line is not None:
                raise chunk.bad_line
            out.append(chunk.out)
            log.append(chunk.log)
            tally.update(chunk.tally)
    with open(config.out, "w", encoding="utf-8") as fh:
        fh.writelines(out)
    if config.log:
        with open(config.log, "w", encoding="utf-8") as fh:
            fh.writelines(log)
    return tally


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
        tally=collections.Counter(obj.decision.value for log in logs for obj in log.objects),
    )


def cmd_solve_psl(config: RunConfig, args: argparse.Namespace) -> int:
    from .psl import SelectionPolicy, decide, solve_decisions

    if args.weights is not None:
        alpha1, alpha2, alpha3 = args.weights
        config = replace(config, alpha1=alpha1, alpha2=alpha2, alpha3=alpha3)
    weights = (config.alpha1, config.alpha2, config.alpha3)
    policy = SelectionPolicy(config.policy)
    (solution,) = solve_decisions([tuple(args.x)], weights, policy)
    decision = decide(solution, config.phi_keep, config.phi_recls)
    print(
        f"y_keep={solution.y_keep:.6f} y_recls={solution.y_recls:.6f} "
        f"objective={solution.objective:.6f} decision={decision.value}"
    )
    return 0


def cmd_balance(config: RunConfig, args: argparse.Namespace) -> int:
    from . import balancers

    kb = _load_kb(config)
    pool = [label for labels in balancers.load_pseudo_labels(args.labels) for label in labels]
    pool = balancers.reflect_filter(pool, config.phi_clip)
    classes = sorted({label.label for label in pool} & kb.novel_classes)
    if not classes:
        raise ValueError(f"{args.labels}: no novel-class labels in the pseudo-label file")

    def source(phi_by_class):
        return {
            cls: sum(
                1 for label in pool if label.label == cls and label.confidence >= phi_by_class[cls]
            )
            for cls in phi_by_class
        }

    state = balancers.SbcState.uniform(
        classes, config.sbc_phi_init, delta_phi=config.sbc_delta_phi, d_bound=config.sbc_d_bound,
        phi_lo=config.sbc_phi_lo, phi_hi=config.sbc_phi_hi, max_iters=config.sbc_max_iters,
    )
    final, iterations = balancers.sbc_loop(source, state)
    print(f"converged after {iterations} iteration(s)")
    for cls in classes:
        print(f"phi[{cls}] = {final.phi_by_class[cls]:.4f}")
    phi_by_class = dict(sorted(final.phi_by_class.items()))
    _write_report(config.out, {"iterations": iterations, "phi_by_class": phi_by_class})
    return 0


def cmd_dbc_sim(config: RunConfig, args: argparse.Namespace) -> int:
    from . import balancers

    stream = balancers.load_loss_stream(args.losses)
    # an empty stream names no class either
    classes = sorted({cls for record in stream for cls in record})
    if not classes:
        raise ValueError(f"{args.losses}: no class in the loss stream")
    state = balancers.DbcState.initial(
        classes, update_interval=config.dbc_interval, k=config.dbc_k,
        delta_w=config.dbc_delta_w, w_lo=config.dbc_w_lo, w_hi=config.dbc_w_hi,
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
            fh.writelines(json.dumps(entry) + "\n" for entry in trace)
    return 0


def cmd_baol(config: RunConfig, args: argparse.Namespace) -> int:
    # balancers is loaded here, geometry with this module and numpy by
    # `_numpy_process_pool`, before any worker process forks, so that the
    # workers inherit all three
    from . import balancers, processes  # noqa: F401

    # read as the scenes are scored, so that no process holds the whole file
    jobs = (
        (args.proposals, index, lineno, line, config)
        for index, (lineno, line) in enumerate(read_lines(args.proposals))
    )
    # one worker, or one scene, runs inline and starts no process; the first
    # bad line, in file order, raises before any scene is printed
    reports = list(processes.map_in_order(_baol_scene, jobs, _workers(config), _numpy_process_pool))
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


def cmd_eval(config: RunConfig, args: argparse.Namespace) -> int:
    from . import pipeline

    lines: dict[str, int] = {}
    predictions = pipeline.load_scenes(config.detections, lines)
    ground_truth = pipeline.load_scenes(config.gt)
    known = {record.scene_id for record in ground_truth}
    for record in predictions:
        if record.scene_id not in known:
            raise ValueError(
                f"{config.detections}:{lines[record.scene_id]}: scene_id {brief(record.scene_id)} "
                f"is not in the ground truth {config.gt}"
            )
    report = pipeline.eval_ap25(predictions, ground_truth)
    for label in sorted(report.per_class):
        print(f"AP[{label}] = {report.per_class[label]:.4f}")
    print(f"mAP {report.mean:.4f}")
    _write_report(
        config.out, {"per_class": dict(sorted(report.per_class.items())), "mean": report.mean}
    )
    return 0


def cmd_gen_synthetic(config: RunConfig, args: argparse.Namespace) -> int:
    from . import commonsense, pipeline

    ground_truth, detections = pipeline.generate_synthetic_scenes(
        _load_kb(config),
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
    "--policy": {"help": f"decision policy: one of {', '.join(sorted(_POLICIES))}"},
    "--workers": {
        "type": int,
        "metavar": "N",
        "help": "N worker processes (default: cores); refine with the remote LLM runs its "
        "chunks of scenes on 2 x llm_max_in_flight threads in one process instead, at any N; "
        "outputs are byte-identical for any N",
    },
    "--seed": {"type": int},
    "--llm": {"help": f"LLM mode: one of {', '.join(_LLM_MODES)}"},
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
    "--labels": {"help": "pseudo-label file (JSONL)"},
    "--phi-init": {"dest": "sbc_phi_init", "type": float},
    "--losses": {"help": "loss-stream file (JSONL)"},
    "--interval": {"dest": "dbc_interval", "type": int},
    "--top-k": {"dest": "dbc_k", "type": int},
    "--proposals": {"help": "proposal file (JSONL)"},
    "--lambda-baol": {"dest": "lambda_baol", "type": float},
    "--k-pro": {"dest": "k_pro", "type": int},
    "--scenes": {"type": int},
    "--corruption": {"type": float},
}


class _Command(typing.NamedTuple):
    """One subcommand, run by its ``cmd_<name>``; the fields after ``help`` list arguments."""

    help: str
    arguments: str  # what it reads besides --config; no other argument is accepted
    requires: str = ""  # options it must be given, by flag or config
    writes: str = ""  # files it writes: each must differ from every other file
    reads: str = ""  # files it reads besides --config, which it must not overwrite


_COMMANDS = {
    "refine": _Command(
        "refine a detections file", "--detections --kb --out --log --policy --workers --llm",
        requires="--detections --out", writes="--out --log", reads="--detections --kb",
    ),
    "solve-psl": _Command("solve one constraint vector", "x --weights --policy"),
    "balance": _Command(
        "run the threshold circulation on pseudo labels", "--labels --phi-init --kb --out",
        requires="--labels", writes="--out", reads="--labels --kb",
    ),
    "dbc-sim": _Command(
        "replay a loss stream through the weight scheduler", "--losses --interval --top-k --out",
        requires="--losses", writes="--out", reads="--losses",
    ),
    "baol": _Command(
        "compress proposals, assign labels, compute the loss",
        "--proposals --lambda-baol --k-pro --workers", requires="--proposals --lambda-baol",
        reads="--proposals",
    ),
    "eval": _Command(
        "mAP@0.25 of detections against ground truth", "--detections --gt --out",
        requires="--detections --gt", writes="--out", reads="--detections --gt",
    ),
    "gen-synthetic": _Command(
        "write a synthetic ground-truth/detections pair",
        "--seed --scenes --corruption --kb --out --gt",
        requires="--out --gt", writes="--out --gt", reads="--kb",
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ovrefine",
        description="Soft-logic refinement of open-vocabulary 3D detections",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for argument in ("--config", *command.arguments.split()):
            p.add_argument(argument, **_ARGUMENTS[argument])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        # an empty --config would otherwise mean no config file
        if args.config == "":
            raise ValueError("--config must name a file, got an empty string")
        config = RunConfig.load(args.config) if args.config else RunConfig()
        config = config.override(args)
        # before any other input is read, or any output written
        _check_options(command, config, args)
        # looked up when called, so that a replaced cmd_<name> runs
        return globals()["cmd_" + args.command.replace("-", "_")](config, args)
    except _INPUT_ERRORS as exc:
        # a file that cannot be opened is named like every other refused input
        if isinstance(exc, OSError) and exc.filename is not None:
            exc = f"{exc.filename}: {exc.strerror}"
        print(f"input error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
