#!/usr/bin/env python3
"""Builds and runs the end-to-end SPAL benchmark (see README.md).

    python3 e2e_bench/run.py --workload d75_psi16 --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the simulator and the harness from
source (Release) under $CARGO_TARGET_DIR, or .bench_build when it is unset,
then runs one workload. The harness's last stdout line is the result
object; the line before it records the host, the build and the seeds.
Build output goes to stderr. Exits with the harness's status, or 2 when the
sources or the build are missing.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("d75_psi16", "l92_psi4", "churn_psi16", "v6_psi16")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (base if base.is_absolute() else ROOT / base) / "e2e"


def build(out):
    """Configures once, then rebuilds only what changed; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: SPAL sources (src/) not found next to e2e_bench/")
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 4)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "spal_e2e",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
                          check=False).returncode != 0:
            sys.exit(2)
    return out / "spal_e2e"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--table-seed", type=int,
                        help="routing-table seed (default: the paper table's)")
    parser.add_argument("--trace-seed", type=int,
                        help="trace-profile seed (default: profile seed + --seed)")
    parser.add_argument("--update-seed", type=int,
                        help="update-stream seed (default: 7 + --seed)")
    parser.add_argument("--packets", type=int,
                        help="packets per run (default 1600000; smoke runs shrink it)")
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    for flag in ("table_seed", "trace_seed", "update_seed", "packets"):
        value = getattr(args, flag)
        if value is not None:
            command += ["--" + flag.replace("_", "-"), str(value)]
    if args.trace == "1":
        spans = out / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        command += ["--spans", str(spans)]

    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.splitlines()
    if not lines:
        sys.exit(proc.returncode or 2)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("run.py: malformed result line from the harness")
    print("\n".join(lines), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
