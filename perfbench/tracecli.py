"""Run the ovrefine CLI with spans recorded at its layer boundaries.

    python3 perfbench/tracecli.py TRACE_FILE <ovrefine arguments...>

The package is not edited: each public function is replaced, where its
caller looks it up, by a wrapper that records a span (name, start, end,
parent span, thread id). Spans and boundary counters stay in memory and are
appended to TRACE_FILE as one JSON line when the command ends; the exit code
is the command's own.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time


class Tracer:
    """Collects spans per thread; ``wrap`` makes the recording wrappers."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn, count=None):
        spans, ids, local = self.spans, self._ids, self._local
        clock, ident = time.perf_counter_ns, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, ident(), start, end))
            if count is not None:
                for key, value in count(args, result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return wrapper

    def counted(self, name: str, fn):
        """A wrapper that only counts calls, for boundaries inside a span."""
        lock = threading.Lock()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with lock:
                self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path, argv) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            record = {"pid": os.getpid(), "argv": argv, "counts": self.counts, "spans": self.spans}
            fh.write(json.dumps(record) + "\n")


def _compress_counts(args, result):
    return {"balancers.baol_compress.boxes_in": len(args[0].boxes),
            "balancers.baol_compress.kept": len(result.box_indices)}


def install(tracer: Tracer):
    """Wrap every traced function at each place a caller looks it up."""
    from ovrefine import balancers, cli, commonsense, geometry, pipeline

    def patch(name, owner, attr, *more_owners, count=None):
        wrapper = tracer.wrap(name, getattr(owner, attr), count)
        for target in (owner, *more_owners):
            setattr(target, attr, wrapper)

    # pipeline functions the CLI reaches through the module object
    for attr in ("refine_scenes", "refine_scene", "debate", "load_scenes",
                 "save_scenes", "save_logs", "eval_ap25"):
        patch(f"pipeline.{attr}", pipeline, attr)
    # imported by name into pipeline, so wrapped there
    patch("commonsense.constraint_vector", pipeline, "constraint_vector", commonsense)
    for attr in ("build_decision_rules", "solve", "decide"):
        patch(f"psl.{attr}", pipeline, attr)
    iou3d = tracer.wrap("geometry.iou3d", geometry.iou3d)
    for owner in (geometry, pipeline, balancers):
        owner.iou3d = iou3d
    patch("geometry.soft_nms", cli, "soft_nms")
    patch("balancers.baol_compress", balancers, "baol_compress", count=_compress_counts)
    for attr in ("assign_foreground_labels", "baol_loss"):
        patch(f"balancers.{attr}", balancers, attr)
    # provider lookups and LLM calls are methods, looked up on the class
    for cls in (commonsense.StaticKnowledgeProvider, commonsense.RemoteKnowledgeProvider):
        for attr in ("size_prior", "scene_compatible"):
            patch(f"commonsense.{attr}", cls, attr)
    patch("commonsense.llm.complete", commonsense.LlmClient, "complete")
    # each HTTP attempt, counted only, so that LlmClient.complete keeps the
    # wait in its own self time; LlmClient binds its transport when constructed
    commonsense._http_post = tracer.counted("commonsense.llm.attempts", commonsense._http_post)
    return tracer.wrap("cli.main", cli.main)


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    cli_main = install(tracer)
    try:
        return cli_main(argv)
    finally:
        tracer.dump(trace_path, argv)


if __name__ == "__main__":
    sys.exit(main())
