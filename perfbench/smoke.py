"""Smoke check of the whole benchmark on tiny inputs.

    python3 perfbench/smoke.py

Runs every workload named in BENCHMARK.json on a few scenes, untraced and
traced, and checks each result line against BENCHMARK.json: its keys, the
metric names and units, and that every check passed. It also checks that
the benchmark refuses to run, printing no result, in a directory that holds
only BENCHMARK.json and the benchmark's own files. It is kept out of the
test suite because it starts many processes; it takes under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def check_result(line: str, metrics: list[dict]) -> list[str]:
    result = json.loads(line)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted {result.get('attempted')!r}")
    if result.get("failed") != 0:
        problems.append(f"failed {result.get('failed')!r}")
    expected = {m["name"]: m["unit"] for m in metrics}
    got = result.get("metrics", {})
    if set(got) != set(expected):
        problems.append(f"metric names differ: {sorted(set(got) ^ set(expected))}")
    for name, entry in got.items():
        if entry.get("unit") != expected.get(name):
            problems.append(f"{name} has unit {entry.get('unit')!r}")
        if not isinstance(entry.get("value"), (int, float)) or isinstance(entry.get("value"), bool):
            problems.append(f"{name} has value {entry.get('value')!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    declared = {w["name"]: w["why"] for w in spec["workloads"]}
    if declared != {name: w.why for name, w in run.WORKLOADS.items()}:
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != list(run.PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")

    for workload in declared:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [*spec["command"], "--workload", workload, "--seed", "3",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            found = check_result(lines[-1], metrics)
            problems += [f"{label}: {p}" for p in found]
            print(f"{label}: {'FAILED' if found else 'ok'}")

    # a directory with the benchmark but without the program
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [*spec["command"], "--workload", next(iter(declared)), "--seed", "3",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without the program: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}")
    else:
        print(f"without the program: exit {proc.returncode}, no result: ok")

    for problem in problems:
        print(f"FAILED: {problem}")
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
