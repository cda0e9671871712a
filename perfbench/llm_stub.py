"""Loopback stand-in for the remote LLM endpoint, answering from the built-in KB.

    python3 perfbench/llm_stub.py [--delay SECONDS]

Prints the OS-chosen port on its first line of standard output, then serves
on 127.0.0.1 until it is terminated:

    POST /generate  {"prompt": str, "max_tokens": int} -> {"text": str}
    GET  /stats     request counters since the last reset
    POST /reset     zero the counters

Replies are deterministic and come after a fixed delay. Size prompts get the
KB ``l*w*h`` triple, scene prompts get Yes/No from KB compatibility (Yes for
unknown scene types), and judge prompts name the candidate the offline judge
would pick from the debaters' stated size fit x scene fit x classification
score. The stub is the benchmark's environment, not the program under test.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ovrefine import default_knowledge_base

_SIZE = re.compile(r"What is the common size of a (.+)\? Answer in the format")
_SCENE = re.compile(r"Is it normal to see a (.+) in a (.+)\?$")
_JUDGE = re.compile(r"Debaters argue for the candidate classes (.+) of an object in a ")
_CASE = r"(?:\. |; ){}: size fit ([0-9]+\.[0-9]+), scene fit ([01]), classification score ([0-9]+\.[0-9]+)"


class Oracle:
    """Maps a prompt to the reply the built-in KB implies."""

    def __init__(self, kb):
        self.kb = kb

    def reply(self, prompt: str) -> str | None:
        match = _SIZE.match(prompt)
        if match:
            prior = self.kb.sizes.get(match.group(1))
            if prior is None:
                return "I do not know."
            return f"{prior.length!r}*{prior.width!r}*{prior.height!r}"
        match = _SCENE.match(prompt)
        if match:
            label, scene_type = match.groups()
            compatible = self.kb.compat.get(scene_type)
            return "Yes." if compatible is None or label in compatible else "No."
        match = _JUDGE.match(prompt)
        if match:
            stated = {}
            for label in match.group(1).split(", "):
                case = re.search(_CASE.format(re.escape(label)), prompt)
                if case is None:
                    return None
                fit, scene, score = float(case[1]), int(case[2]), float(case[3])
                stated[label] = (fit * scene * score, score)
            return min(stated, key=lambda c: (-stated[c][0], -stated[c][1], c))
        return None


class Counters:
    """Request accounting shared by the handler threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.requests = 0
            self.unanswered = 0
            self.prompts: set[str] = set()
            self.in_flight = 0
            self.in_flight_peak = 0
            self.in_flight_sum = 0

    def enter(self, prompt: str) -> None:
        with self._lock:
            self.requests += 1
            self.prompts.add(prompt)
            self.in_flight += 1
            self.in_flight_peak = max(self.in_flight_peak, self.in_flight)
            self.in_flight_sum += self.in_flight

    def leave(self, answered: bool) -> None:
        with self._lock:
            self.in_flight -= 1
            self.unanswered += not answered

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "requests": self.requests,
                "unanswered": self.unanswered,
                "distinct_prompts": len(self.prompts),
                "in_flight_peak": self.in_flight_peak,
                # in-flight count seen by each request on arrival, itself included
                "in_flight_mean": self.in_flight_sum / self.requests if self.requests else 0.0,
            }


def make_handler(oracle: Oracle, counters: Counters, delay: float):
    class Handler(BaseHTTPRequestHandler):
        def _send(self, status: int, body: dict) -> None:
            data = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path == "/stats":
                self._send(200, counters.snapshot())
            else:
                self._send(404, {"error": "not found"})

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            body = self.rfile.read(length)
            if self.path == "/reset":
                counters.reset()
                self._send(200, {})
                return
            if self.path != "/generate":
                self._send(404, {"error": "not found"})
                return
            prompt = str(json.loads(body)["prompt"])
            counters.enter(prompt)
            text = None
            try:
                text = oracle.reply(prompt)
                time.sleep(delay)
                if text is None:
                    self._send(400, {"error": "unrecognised prompt"})
                else:
                    self._send(200, {"text": text})
            finally:
                counters.leave(text is not None)

        def log_message(self, format, *args):
            pass

    return Handler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delay", type=float, default=0.02, help="reply delay, seconds")
    args = parser.parse_args(argv)
    server = ThreadingHTTPServer(
        ("127.0.0.1", 0),
        make_handler(Oracle(default_knowledge_base()), Counters(), args.delay),
    )
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
