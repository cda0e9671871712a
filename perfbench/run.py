"""ovrefine benchmark: seeded workloads run through the CLI a user types.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout. It generates the workload from the seed,
runs timed passes of the CLI (``python3`` with ``src`` on the path, as the
``ovrefine`` console script would) for about ``--seconds`` seconds, checks
every pass's output, and prints one JSON result as its last line.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced passes with passes run under ``tracecli.py`` and reports
the per-layer metrics, the tracing overhead, and a ``--workers 1`` pass for
the refine workloads. Run files, the run record and the span file go to
``perfbench/out/<workload>/``.

Workloads (see WORKLOADS for why each exists):

- ``refine-batch``: 2000 synthetic scenes, static built-in KB, then ``eval``.
- ``refine-remote``: 500 scenes with ``--llm remote`` against the loopback
  stub in ``llm_stub.py`` (20 ms per reply), then ``eval``.
- ``proposals``: ``baol`` over 20 scenes x 1200 proposals.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 7
WORKERS = min(2, os.cpu_count() or 1)
STUB_DELAY = 0.02
SETUP_REPEATS = 9  # empty-input starts of each command per run, at least
COMMAND_TIMEOUT = 150.0  # seconds; a hung command fails the pass instead of the run
LAMBDA_BAOL = "1.0"

# the console script's own body, so each pass starts the CLI the way a user does
CLI = ("-c", "import sys; from ovrefine.cli import entry_point; sys.argv[0] = 'ovrefine'; entry_point()")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenes: int
    tiny_scenes: int
    proposals: int = 0  # proposals per scene; 0 for the refine workloads
    tiny_proposals: int = 0
    remote: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "refine-batch",
            "solver-bound: static-KB refine of 2000 scenes then eval; the solver dominates, geometry runs only in eval",
            scenes=2000,
            tiny_scenes=8,
        ),
        Workload(
            "refine-remote",
            "provider-bound: refine of 500 scenes against a loopback LLM with 20 ms replies, then eval; same solver",
            scenes=500,
            tiny_scenes=8,
            remote=True,
        ),
        Workload(
            "proposals",
            "geometry-bound: baol on 20 scenes x 1200 proposals; iou3d and Soft-NMS dominate, no refine at all",
            scenes=20,
            tiny_scenes=2,
            proposals=1200,
            tiny_proposals=100,
        ),
    )
}

END_TO_END = (
    ("items_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (name, unit); names are <module>.<function>.<stat>
PER_LAYER = (
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.refine.workers1_s", "s"),
    ("cli.refine.workers_n_s", "s"),
    ("cli.refine.workers_n_speedup", "ratio"),
    ("psl.solve.calls", "count"),
    ("psl.solve.self_s", "s"),
    ("psl.solve.mean_us", "us"),
    ("psl.solve.refine_share", "ratio"),
    ("psl.build_decision_rules.self_s", "s"),
    ("psl.decide.self_s", "s"),
    ("commonsense.constraint_vector.self_s", "s"),
    ("commonsense.size_prior.calls", "count"),
    ("commonsense.scene_compatible.calls", "count"),
    ("commonsense.llm.complete.calls", "count"),
    ("commonsense.llm.complete.self_s", "s"),
    ("commonsense.llm.requests", "count"),
    ("commonsense.llm.retries", "count"),
    ("commonsense.llm.in_flight_mean", "count"),
    ("commonsense.llm.in_flight_peak", "count"),
    ("commonsense.llm.distinct_ratio", "ratio"),
    ("commonsense.llm.lookups", "count"),
    ("commonsense.llm.cache_hit_ratio", "ratio"),
    ("pipeline.refine_scenes.s", "s"),
    ("pipeline.refine_scenes.overhead_s", "s"),
    ("pipeline.refine_scene.calls", "count"),
    ("pipeline.refine_scene.s", "s"),
    ("pipeline.refine_scene.p50_ms", "ms"),
    ("pipeline.refine_scene.p99_ms", "ms"),
    ("pipeline.debate.calls", "count"),
    ("pipeline.debate.self_s", "s"),
    ("pipeline.load_scenes.s", "s"),
    ("pipeline.save_scenes.s", "s"),
    ("pipeline.save_logs.s", "s"),
    ("pipeline.eval_ap25.s", "s"),
    ("pipeline.eval_ap25.map25", "mAP"),
    ("pipeline.eval_ap25.map25_unrefined", "mAP"),
    ("pipeline.decisions.keep", "count"),
    ("pipeline.decisions.remove", "count"),
    ("pipeline.decisions.reclassify", "count"),
    ("pipeline.scenes_skipped", "count"),
    ("geometry.iou3d.calls", "count"),
    ("geometry.iou3d.self_s", "s"),
    ("geometry.iou3d.mean_us", "us"),
    ("geometry.soft_nms.calls", "count"),
    ("geometry.soft_nms.self_s", "s"),
    ("balancers.assign_foreground_labels.self_s", "s"),
    ("balancers.baol_compress.self_s", "s"),
    ("balancers.baol_compress.boxes_in", "count"),
    ("balancers.baol_compress.kept_ratio", "ratio"),
    ("trace.untraced_pass_s", "s"),
    ("trace.traced_pass_s", "s"),
    ("trace.overhead_s", "s"),
)

LOOKUPS = frozenset({"commonsense.size_prior", "commonsense.scene_compatible"})


class SetupError(RuntimeError):
    """The benchmark cannot run here; nothing is printed on stdout."""


# --------------------------------------------------------------------------
# Processes


@dataclass
class Proc:
    code: int
    wall: float
    rss_mb: float
    stdout: str
    stderr: str


def cli_env(endpoint: str | None = None) -> dict:
    """The caller's environment minus Python, proxy and LLM settings, plus src."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("PYTHON", "GLRD_LLM_")) and "proxy" not in key.lower()
    }
    env["PYTHONPATH"] = str(SRC)
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    if endpoint:
        env["GLRD_LLM_ENDPOINT"] = endpoint
    return env


def run_cli(args, env, out_dir: Path, tag: str, trace: Path | None = None) -> Proc:
    """Run one CLI command in a fresh process; wall time and that process's peak RSS."""
    if trace is None:
        cmd = [sys.executable, *CLI, *args]
    else:
        cmd = [sys.executable, str(HERE / "tracecli.py"), str(trace), *args]
    stdout_path, stderr_path = out_dir / f"{tag}.stdout", out_dir / f"{tag}.stderr"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        proc.returncode,
        wall,
        usage.ru_maxrss / 1024.0,  # KiB on Linux
        stdout_path.read_text(encoding="utf-8"),
        stderr_path.read_text(encoding="utf-8"),
    )


class Stub:
    """The loopback LLM endpoint, run as its own process for one benchmark run."""

    def __enter__(self) -> "Stub":
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "llm_stub.py"), "--delay", str(STUB_DELAY)],
            stdout=subprocess.PIPE,
            env=cli_env(),
            cwd=ROOT,
            text=True,
        )
        port = self.proc.stdout.readline().strip()
        if not port.isdigit():
            self.__exit__()
            raise SetupError("the LLM stub did not start")
        self.base = f"http://127.0.0.1:{port}"
        self.endpoint = f"{self.base}/generate"
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def _call(self, path: str, data: bytes | None = None) -> dict:
        with self._opener.open(f"{self.base}{path}", data=data, timeout=10) as response:
            return json.loads(response.read())

    def reset(self) -> None:
        self._call("/reset", b"{}")

    def stats(self) -> dict:
        return self._call("/stats")


# --------------------------------------------------------------------------
# Passes


@dataclass
class Pass:
    wall: float
    rss_mb: float
    items: int
    problems: list[str] = field(default_factory=list)
    decisions: dict[str, int] = field(default_factory=dict)
    scenes_skipped: int = 0
    map25: float = 0.0
    stub: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.items if self.problems else 0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _command_problem(name: str, proc: Proc) -> list[str]:
    if proc.code == 0:
        return []
    tail = proc.stderr.strip().splitlines()[-1:] or [""]
    return [f"{name} exited {proc.code}: {tail[0]}"]


def _mean_ap(proc: Proc) -> float | None:
    match = re.search(r"^mAP ([0-9.]+)$", proc.stdout, re.MULTILINE)
    return float(match.group(1)) if match else None


class Bench:
    """One benchmark run: a workload's inputs, its reference outputs and its passes."""

    def __init__(self, workload: Workload, seed: int, tiny: bool, out_dir: Path):
        import gen

        self.workload, self.out = workload, out_dir
        self.scenes = workload.tiny_scenes if tiny else workload.scenes
        self.stub: Stub | None = None
        self.env = cli_env()
        # reference name -> {output name: sha256, or the stub's distinct prompt count}
        self.expected: dict[str, dict] = {}
        if seed == DEFAULT_SEED and not tiny:
            recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
            self.expected["recorded digest"] = recorded[workload.name]
        self.last_digests: dict = {}
        self.n_pro = workload.tiny_proposals if tiny else workload.proposals
        if workload.proposals:
            self.inputs = {"proposals": out_dir / "proposals.jsonl"}
            self.items = gen.write_proposals(seed, self.scenes, self.n_pro, self.inputs["proposals"])
        else:
            self.inputs = {"detections": out_dir / "detections.jsonl", "gt": out_dir / "gt.jsonl"}
            self.items = gen.write_scenes(
                seed, self.scenes, self.inputs["detections"], self.inputs["gt"]
            )
        self.config = out_dir / "config.json"
        self.config.write_text(json.dumps({"llm_max_in_flight": WORKERS}) + "\n", encoding="utf-8")
        self.map25_unrefined = 0.0

    def command(
        self, inputs: dict[str, Path], workers: int = WORKERS, remote: bool = True, prefix: str = ""
    ) -> list[str]:
        if self.workload.proposals:
            return ["baol", "--proposals", str(inputs["proposals"]), "--lambda-baol", LAMBDA_BAOL]
        args = [
            "refine",
            "--detections", str(inputs["detections"]),
            "--out", str(self.out / f"{prefix}refined.jsonl"),
            "--log", str(self.out / f"{prefix}log.jsonl"),
            "--workers", str(workers),
        ]
        if remote and self.workload.remote:
            args += ["--llm", "remote", "--config", str(self.config)]
        return args

    # set-up, untimed apart from setup_s

    def prepare(self) -> None:
        """Reference results every pass is checked against."""
        if self.workload.proposals:
            return
        before = run_cli(
            ["eval", "--detections", str(self.inputs["detections"]), "--gt", str(self.inputs["gt"])],
            self.env, self.out, "eval-unrefined",
        )
        if before.code != 0 or _mean_ap(before) is None:
            raise SetupError(f"eval of the unrefined detections failed: {before.stderr.strip()}")
        self.map25_unrefined = _mean_ap(before)
        if self.workload.remote:
            # the static-KB refine of the same input, which the stub must reproduce
            static = run_cli(self.command(self.inputs, remote=False), self.env, self.out, "static-refine")
            if static.code != 0:
                raise SetupError(f"static reference refine failed: {static.stderr.strip()}")
            self.expected["static refine"] = {
                "out": sha256(self.out / "refined.jsonl"),
                "log": sha256(self.out / "log.jsonl"),
            }

    def empty_commands(self) -> dict[str, list[str]]:
        """Each command of a pass, on empty input files: its start-up alone."""
        empty = self.out / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        main = self.command({key: empty for key in self.inputs}, prefix="empty-")
        commands = {main[0]: main}
        if not self.workload.proposals:
            commands["eval"] = ["eval", "--detections", str(empty), "--gt", str(empty)]
        return commands

    def time_starts(self, starts: dict[str, list[float]]) -> None:
        """Add one empty-input start of each of the pass's commands, each in a fresh process."""
        for name, args in self.empty_commands().items():
            proc = run_cli(args, self.env, self.out, f"empty-{name}")
            if proc.code != 0:
                raise SetupError(f"empty-input {name} failed: {proc.stderr.strip()}")
            starts[name].append(proc.wall)

    # one timed pass

    def run_pass(self, workers: int = WORKERS, trace: Path | None = None) -> Pass:
        if self.workload.proposals:
            return self._proposals_pass(trace)
        return self._refine_pass(workers, trace)

    def _refine_pass(self, workers: int, trace: Path | None) -> Pass:
        refined, log = self.out / "refined.jsonl", self.out / "log.jsonl"
        refined.unlink(missing_ok=True)
        log.unlink(missing_ok=True)
        if self.stub:
            self.stub.reset()
        refine = run_cli(self.command(self.inputs, workers), self.env, self.out, "refine", trace)
        stub = self.stub.stats() if self.stub else {}
        evaluate = run_cli(
            ["eval", "--detections", str(refined), "--gt", str(self.inputs["gt"])],
            self.env, self.out, "eval", trace,
        )
        result = Pass(refine.wall + evaluate.wall, max(refine.rss_mb, evaluate.rss_mb), self.items)
        result.stub = stub
        problems = result.problems
        problems += _command_problem("refine", refine) + _command_problem("eval", evaluate)
        decisions = {"keep": 0, "remove": 0, "reclassify": 0}
        try:
            with open(log, encoding="utf-8") as fh:
                for line in fh:
                    record = json.loads(line)
                    result.scenes_skipped += "error" in record
                    for obj in record["objects"]:
                        decisions[obj["decision"]] += 1
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"refine log unreadable: {exc}")
            return result
        result.decisions = decisions

        summary = re.fullmatch(r"kept (\d+), removed (\d+), reclassified (\d+)", refine.stdout.strip())
        if summary is None or tuple(map(int, summary.groups())) != tuple(decisions.values()):
            problems.append(f"refine summary {refine.stdout.strip()!r} disagrees with the log")
        if sum(decisions.values()) != self.items:
            problems.append(f"{sum(decisions.values())} decisions logged for {self.items} novel detections")
        if result.scenes_skipped:
            problems.append(f"{result.scenes_skipped} scene(s) skipped")
        if self.stub and not stub.get("requests"):
            # the provider falls back to the built-in KB when the endpoint
            # fails, so only the stub's own count shows that it was used
            problems.append("the LLM stub received no request")
        if stub.get("unanswered"):
            problems.append(f"the stub could not answer {stub['unanswered']} prompt(s)")

        result.map25 = _mean_ap(evaluate) or 0.0
        if not result.map25 > self.map25_unrefined:
            problems.append(f"mAP@0.25 {result.map25} not above unrefined {self.map25_unrefined}")
        digests = {"out": sha256(refined), "log": sha256(log)}
        if self.stub:
            digests["distinct_prompts"] = stub.get("distinct_prompts", 0)
        for reference, expected in self.expected.items():
            for key, value in expected.items():
                if digests[key] != value:
                    problems.append(f"refined {key} {digests[key]} differs from the {reference} {value}")
        self.last_digests = digests
        return result

    def _proposals_pass(self, trace: Path | None) -> Pass:
        baol = run_cli(self.command(self.inputs), self.env, self.out, "baol", trace)
        result = Pass(baol.wall, baol.rss_mb, self.items)
        result.problems += _command_problem("baol", baol)
        if result.problems:
            return result
        lines = baol.stdout.splitlines()
        pattern = re.compile(
            r"scene (\d+): kept (\d+)/(\d+) boxes, (\d+) foreground, loss [0-9.]+, (\d+) after soft-nms"
        )
        matches = [pattern.fullmatch(line) for line in lines]
        if len(lines) != self.scenes or not all(
            m and int(m[1]) == i and int(m[3]) == self.n_pro and int(m[5]) <= int(m[2]) <= self.n_pro
            for i, m in enumerate(matches)
        ):
            result.problems.append("baol output does not report every scene's proposals")
        digest = hashlib.sha256(baol.stdout.encode("utf-8")).hexdigest()
        for reference, expected in self.expected.items():
            if expected.get("stdout") != digest:
                result.problems.append(f"baol output {digest} differs from the {reference} {expected}")
        self.last_digests = {"stdout": digest}
        return result


# --------------------------------------------------------------------------
# Traces


def self_times(spans) -> dict[int, int]:
    """Each span's duration minus its direct children's, in ns.

    A span's parent is the innermost open span of its own thread, so this is
    the per-thread self time: threads of a pool add up to more than the wall.
    """
    own = {span_id: end - start for span_id, _parent, _name, _tid, start, end in spans}
    for _span_id, parent, _name, _tid, start, end in spans:
        if parent != -1:
            own[parent] -= end - start
    return own


def covered(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total = reach = 0
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
        reach = max(reach, end)
    return total


def summarise_trace(path: Path) -> tuple[dict, dict]:
    """Per-name calls, inclusive and self seconds, plus boundary counts."""
    layers: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "overhead_s": 0.0, "durations": []}
    )
    counts: dict[str, int] = defaultdict(int)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            spans = record["spans"]
            for key, value in record["counts"].items():
                counts[key] += value
            own = self_times(spans)
            parents = {span[0]: span[1] for span in spans}
            names = {span[0]: span[2] for span in spans}
            served = set()
            scenes = [(span[4], span[5]) for span in spans if span[2] == "pipeline.refine_scene"]
            for span_id, parent, name, _tid, start, end in spans:
                layer = layers[name]
                layer["calls"] += 1
                layer["s"] += (end - start) / 1e9
                layer["self_s"] += own[span_id] / 1e9
                if name == "pipeline.refine_scene":
                    layer["durations"].append((end - start) / 1e6)
                if name == "pipeline.refine_scenes":
                    # time in which no scene is being refined on any thread
                    layer["overhead_s"] += (end - start - covered(scenes)) / 1e9
                if name == "commonsense.llm.complete":
                    while parent != -1 and names[parent] not in LOOKUPS:
                        parent = parents[parent]
                    if parent != -1:
                        served.add(parent)
                if name in LOOKUPS:
                    counts["lookups"] += 1
            counts["lookups_with_request"] += len(served)
    return layers, counts


def layer_metrics(
    layers, counts, traced: Pass, untraced: Pass, workers1: Pass | None, map25_unrefined: float
) -> dict:
    """Every PER_LAYER value for one traced cycle."""
    def get(name, stat):
        return layers[name][stat] if name in layers else 0

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def quantile(values, q):
        if len(values) < 2:
            return values[0] if values else 0.0
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

    stub = traced.stub
    requests = stub.get("requests", 0)
    complete_calls = get("commonsense.llm.complete", "calls")
    refine_scene_ms = get("pipeline.refine_scene", "durations") or []
    values = {
        "cli.main.calls": get("cli.main", "calls"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "cli.refine.workers1_s": workers1.wall if workers1 else 0.0,
        "cli.refine.workers_n_s": untraced.wall if workers1 else 0.0,
        "cli.refine.workers_n_speedup": ratio(workers1.wall, untraced.wall) if workers1 else 0.0,
        "commonsense.llm.requests": requests,
        "commonsense.llm.retries": counts["commonsense.llm.attempts"] - complete_calls,
        "commonsense.llm.in_flight_mean": stub.get("in_flight_mean", 0.0),
        "commonsense.llm.in_flight_peak": stub.get("in_flight_peak", 0),
        "commonsense.llm.distinct_ratio": ratio(stub.get("distinct_prompts", 0), requests),
        "commonsense.llm.lookups": counts["lookups"],
        "commonsense.llm.cache_hit_ratio": ratio(
            counts["lookups"] - counts["lookups_with_request"], counts["lookups"]
        ),
        "psl.solve.mean_us": ratio(get("psl.solve", "self_s"), get("psl.solve", "calls")) * 1e6,
        "psl.solve.refine_share": ratio(get("psl.solve", "self_s"), get("pipeline.refine_scene", "s")),
        "pipeline.refine_scene.p50_ms": quantile(refine_scene_ms, 50),
        "pipeline.refine_scene.p99_ms": quantile(refine_scene_ms, 99),
        "pipeline.eval_ap25.map25": traced.map25,
        "pipeline.eval_ap25.map25_unrefined": map25_unrefined,
        "pipeline.scenes_skipped": traced.scenes_skipped,
        "geometry.iou3d.mean_us": ratio(get("geometry.iou3d", "self_s"), get("geometry.iou3d", "calls"))
        * 1e6,
        "balancers.baol_compress.boxes_in": counts["balancers.baol_compress.boxes_in"],
        "balancers.baol_compress.kept_ratio": ratio(
            counts["balancers.baol_compress.kept"], counts["balancers.baol_compress.boxes_in"]
        ),
        "trace.untraced_pass_s": untraced.wall,
        "trace.traced_pass_s": traced.wall,
        "trace.overhead_s": traced.wall - untraced.wall,
    }
    for decision in ("keep", "remove", "reclassify"):
        values[f"pipeline.decisions.{decision}"] = traced.decisions.get(decision, 0)
    for name, _unit in PER_LAYER:
        if name not in values:
            layer, stat = name.rsplit(".", 1)
            values[name] = get(layer, stat)
    return values


# --------------------------------------------------------------------------
# Reporting


def median(values):
    return statistics.median(values) if values else 0.0


def machine_facts() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def result_line(correct, passes, metrics, units) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": sum(p.items for p in passes),
            "failed": sum(p.failed for p in passes),
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
    )


def report_layers(workload: Workload, cycles: list[dict], passes: list[Pass]):
    """Per-layer metrics: the median over traced cycles; printed one per line."""
    metrics = {name: median([c[name] for c in cycles]) for name, _ in PER_LAYER}
    for name, unit in PER_LAYER:
        print(f"  {name:45s} {metrics[name]:.6g} {unit}")
    if workload.name == "refine-batch":
        share, speedup = metrics["psl.solve.refine_share"], metrics["cli.refine.workers_n_speedup"]
        agrees = share > 0.5 and speedup <= 1.0
        print(f"  baseline picture (psl.solve most of refine, --workers {WORKERS} no faster than 1): "
              f"{'agrees' if agrees else 'DISAGREES'} (share {share:.3f} of pipeline.refine_scene.s, "
              f"workers {WORKERS}/1 speedup {speedup:.3f})")
    if workload.remote:
        print(f"  remote_calls per pass (untraced, --workers 1, traced): "
              f"{[p.stub['requests'] for p in passes]}; commonsense.llm.requests counts the "
              f"traced pass and is checked against the client's HTTP attempts")
    return metrics, dict(PER_LAYER)


def report_end_to_end(workload: Workload, bench: Bench, passes: list[Pass], starts: dict[str, list[float]]):
    """End-to-end metrics, plus the ones kept out of BENCHMARK.json, for a reader."""
    walls = [p.wall for p in passes]
    start_s = {name: median(times) for name, times in starts.items()}
    command = next(iter(starts))  # the pass's main command
    metrics = {
        # a pass runs each command once, so its start-up is set-up, not work
        "items_per_s": bench.items / (median(walls) - sum(start_s.values())),
        "setup_s": start_s[command],
        "peak_rss_mb": median([p.rss_mb for p in passes]),
    }
    for name, unit in END_TO_END:
        print(f"  {name:14s} {metrics[name]:.6g} {unit}")
    attempted, failed = sum(p.items for p in passes), sum(p.failed for p in passes)
    print(f"  {'failed_ratio':14s} {failed / attempted:.6g} ({failed}/{attempted} items)")
    if workload.remote:
        calls = [p.stub.get("requests", 0) for p in passes]
        print(f"  {'remote_calls':14s} {median(calls):g} count (per pass: {calls})")
    if not workload.proposals:
        print(f"  {'map25':14s} {median([p.map25 for p in passes]):.4f} mAP "
              f"(unrefined {bench.map25_unrefined:.4f})")
        print(f"  decisions      {passes[-1].decisions}, scenes skipped {passes[-1].scenes_skipped}")
    print(f"  pass walls     {' '.join(f'{w:.3f}' for w in walls)} s")
    for name, times in starts.items():
        print(f"  {name} starts   {' '.join(f'{t:.3f}' for t in times)} s (median {start_s[name]:.3f})")
    return metrics, dict(END_TO_END)


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    if not (SRC / "ovrefine" / "__init__.py").is_file():
        raise SetupError(f"no package source under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import ovrefine

    if Path(ovrefine.__file__).resolve().parent != SRC / "ovrefine":
        raise SetupError(f"ovrefine imported from {ovrefine.__file__}, not from {SRC}")

    out_dir = OUT / workload.name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    started = time.perf_counter()
    bench = Bench(workload, args.seed, args.tiny, out_dir)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "scenes": bench.scenes,
        "proposals_per_scene": bench.n_pro,
        "items_per_pass": bench.items,
        "workers": WORKERS,
    }

    with Stub() if workload.remote else contextlib.nullcontext() as stub:
        bench.stub = stub
        if stub:
            bench.env = cli_env(stub.endpoint)
        bench.prepare()
        # empty-input starts, interleaved with the passes; the first round is
        # not kept, as it also writes the byte-code caches
        starts: dict[str, list[float]] = defaultdict(list)
        if not args.trace:
            bench.time_starts(defaultdict(list))
        record["generate_and_prepare_s"] = time.perf_counter() - started

        passes: list[Pass] = []
        cycles = []
        durations = []
        start = time.perf_counter()
        # start another pass (or traced cycle) only if it should end in time
        while not durations or time.perf_counter() - start + median(durations) <= args.seconds:
            began = time.perf_counter()
            if not args.trace:
                passes.append(bench.run_pass())
                bench.time_starts(starts)
                durations.append(time.perf_counter() - began)
                continue
            trace_path = out_dir / "trace.jsonl"
            trace_path.unlink(missing_ok=True)
            untraced = bench.run_pass()
            workers1 = None if workload.proposals else bench.run_pass(workers=1)
            traced = bench.run_pass(trace=trace_path)
            passes += [p for p in (untraced, workers1, traced) if p]
            layers, counts = summarise_trace(trace_path)
            cycles.append(layer_metrics(layers, counts, traced, untraced, workers1, bench.map25_unrefined))
            if stub and traced.stub["requests"] != counts["commonsense.llm.attempts"]:
                traced.problems.append("the stub's request count differs from the client's attempts")
            durations.append(time.perf_counter() - began)
        while not args.trace and min(map(len, starts.values())) < SETUP_REPEATS:
            bench.time_starts(starts)

    problems = sorted({problem for p in passes for problem in p.problems})
    correct = not problems
    record["passes"] = [
        {"wall_s": p.wall, "peak_rss_mb": p.rss_mb, "problems": p.problems, "decisions": p.decisions,
         "stub": p.stub, "map25": p.map25}
        for p in passes
    ]
    record["problems"] = problems
    # the last pass's digests; at the default seed digests.json holds the reference
    record["digests"] = bench.last_digests

    print(f"{workload.name}: seed {args.seed}, {bench.scenes} scenes, {bench.items} items per pass, "
          f"{len(passes)} passes, machine {record['machine']['nproc']} cpu {record['machine']['cpu']}")
    print(f"  why: {workload.why}")
    if args.trace:
        metrics, units = report_layers(workload, cycles, passes)
        record["per_layer"], record["cycles"] = metrics, cycles
    else:
        metrics, units = report_end_to_end(workload, bench, passes, starts)
        record["end_to_end"], record["start_s_samples"] = metrics, starts
    checks = ", ".join(["exit codes", "output schema"]
                       + [f"{k} matches" for k in bench.expected]
                       + ([] if workload.proposals else ["map25 above unrefined"]))
    print(f"  checks: {checks}: {'ok' if correct else 'FAILED: ' + '; '.join(problems)}")
    (out_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(result_line(correct, passes, metrics, units))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a few scenes only (smoke check)")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except SetupError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
