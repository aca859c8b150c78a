#!/usr/bin/env python3
"""Reduced-size smoke run of the end-to-end benchmark.

    python3 e2e_bench/smoke.py

Runs every workload run.py knows (the ones BENCHMARK.json lists and the
by-hand d75_psi16) untraced and traced at 32,000 packets per run, and
fails unless each run is correct and prints exactly the metrics
BENCHMARK.json names, each with its unit, and each traced run's spans file
loads as trace-event JSON. Takes about a minute after the first build.
"""

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def check(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace),
         "--packets", "32000"],
        stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return [f"exit {proc.returncode}"]
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    errors = []
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append("incorrect result")
    expected = {m["name"]: m["unit"] for m in
                SPEC["end_to_end" if trace == 0 else "per_layer"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        errors.append(f"metrics differ from BENCHMARK.json: "
                      f"{sorted(set(printed.items()) ^ set(expected.items()))}")
    if trace == 1:
        events = json.loads(Path(record["spans"]).read_text())["traceEvents"]
        names = {event["name"] for event in events}
        if not {"core.run", "net.table_gen", "cache.probe"} <= names or any(
                event["ph"] != "X" or event["dur"] < 0 for event in events):
            errors.append("spans file is not the expected trace-event JSON")
    return errors


def main():
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            errors = check(workload, trace)
            print(f"{workload} trace={trace}: {'; '.join(errors) or 'ok'}")
            failures += bool(errors)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
