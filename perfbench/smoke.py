#!/usr/bin/env python3
"""Smoke test of the benchmark.

Runs every workload of BENCHMARK.json once at reduced size (``--smoke``)
with ``--trace 0`` and with ``--trace 1``, and asserts that the last
line names every declared metric with its unit and that every output
check passed.  Also asserts that the benchmark fails, without printing
a result, in a directory holding only BENCHMARK.json and perfbench/.
Run from the repository root (40 s on a quiet 2-CPU Xeon):

    python3 perfbench/smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace, smoke=True):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_result(doc, workload, trace) -> list:
    done = run(ROOT, workload, trace)
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr[-2000:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        errors.append(f"output checks failed: {result['failed']} of "
                      f"{result['attempted']}")
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in doc[key]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        errors.append(f"metrics differ from BENCHMARK.json {key}: "
                      f"{sorted(set(got.items()) ^ set(want.items()))}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry.get("value"), (int, float)):
            errors.append(f"{name} has no numeric value")
    if not trace:
        for name, entry in result["metrics"].items():
            if entry["value"] == 0:
                errors.append(f"end-to-end metric {name} reads 0")
    return errors


def check_without_program() -> list:
    """The benchmark must refuse to run without the program's sources."""
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-",
                            dir=os.path.join(ROOT, ".perfbench_out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, "table4-eval", 0, smoke=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    errors = []
    if done.returncode == 0:
        errors.append("exited 0 without the program")
    if '"metrics"' in done.stdout:
        errors.append("printed a result without the program")
    return errors


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    failed = False
    for wl in doc["workloads"]:
        for trace in (0, 1):
            errors = check_result(doc, wl["name"], trace)
            failed |= bool(errors)
            status = "ok" if not errors else "FAIL " + "; ".join(errors)
            print(f"{wl['name']} --trace {trace}: {status}", flush=True)
    errors = check_without_program()
    failed |= bool(errors)
    print("without the program: "
          + ("ok" if not errors else "FAIL " + "; ".join(errors)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
