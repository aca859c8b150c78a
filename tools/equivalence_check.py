#!/usr/bin/env python3
"""Equivalence gate: do the simulation outputs of this tree match a git ref?

Usage:
    python3 tools/equivalence_check.py <git-ref> [--workdir DIR] [--jobs N]

Exports <git-ref> with `git archive`, builds it and the working tree (as it
is on disk, uncommitted edits included) in Release, and runs on both:

  * the fig-4/5/6 benches at --packets=10000 (CSV on stdout);
  * bench_fig3_sram (trie storage per psi), bench_memaccess (accesses per
    lookup per trie), bench_partitioning (control bits and fragment sizes)
    and bench_ipv6_extension (IPv6 partition, binary-trie storage,
    RouterSim6 and one IPv6 live-update row), which take no flags (CSV on
    stdout);
  * the --packets=2000 --json reports of bench_fault, bench_update --verify
    (default rates and --update-rate=1000), bench_failover,
    bench_loadbalance and bench_scale.

Every output must be byte-identical, except bench_scale's wall-clock fields
build_ms, baseline_ms and speedup, which are masked before comparing. The
script stops at the first difference and names the output, the line and
(for JSON) the path of the first differing field. It then runs the working
tree's `spal_report --check` on every new JSON report and on each checked-in
BENCH_*.json.

Exit status: 0 when everything matches and every check passes, 1 on a
difference or a failed check, 2 on a usage, export or build error. Builds
are kept in --workdir (default: spal-equivalence under the system temp
directory) so a re-run only rebuilds what changed.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

BENCH_TARGETS = [
    "bench_fig3_sram", "bench_fig4_mix", "bench_fig5_cache_size",
    "bench_fig6_scaling", "bench_memaccess", "bench_partitioning",
    "bench_ipv6_extension",
    "bench_fault", "bench_update", "bench_failover", "bench_loadbalance",
    "bench_scale", "spal_report",
]

# (output name, bench binary, extra args, JSON report?)
RUNS = [
    ("fig3.csv", "bench_fig3_sram", [], False),
    ("fig4.csv", "bench_fig4_mix", ["--packets=10000"], False),
    ("fig5.csv", "bench_fig5_cache_size", ["--packets=10000"], False),
    ("fig6.csv", "bench_fig6_scaling", ["--packets=10000"], False),
    ("memaccess.csv", "bench_memaccess", [], False),
    ("partitioning.csv", "bench_partitioning", [], False),
    ("ipv6_extension.csv", "bench_ipv6_extension", [], False),
    ("fault.json", "bench_fault", ["--packets=2000"], True),
    ("update.json", "bench_update", ["--packets=2000", "--verify"], True),
    ("update_rate1000.json", "bench_update",
     ["--packets=2000", "--verify", "--update-rate=1000"], True),
    ("failover.json", "bench_failover", ["--packets=2000"], True),
    ("loadbalance.json", "bench_loadbalance", ["--packets=2000"], True),
    ("scale.json", "bench_scale", ["--packets=2000"], True),
]

# bench_scale's host-timing fields differ from run to run.
WALL_CLOCK = re.compile(r'"(build_ms|baseline_ms|speedup)":[^,}\]]*')


def fail(status, message):
    print(f"equivalence_check: {message}", file=sys.stderr)
    sys.exit(status)


def run(cmd, cwd=None, stdout=None):
    result = subprocess.run(cmd, cwd=cwd, stdout=stdout,
                            stderr=subprocess.PIPE, text=True)
    if result.returncode != 0:
        fail(2, f"`{' '.join(map(str, cmd))}` exited {result.returncode}:\n"
                f"{result.stderr[-2000:]}")
    return result


def export_ref(ref, dest):
    commit = run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"],
                 cwd=REPO, stdout=subprocess.PIPE).stdout.strip()
    stamp = dest / ".exported-commit"
    if stamp.exists() and stamp.read_text() == commit:
        return commit
    if dest.exists():
        run(["rm", "-rf", str(dest)])
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", commit], cwd=REPO,
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        fail(2, f"could not export {ref} ({commit})")
    stamp.write_text(commit)
    return commit


def build(source, build_dir, jobs):
    print(f"building {source} -> {build_dir}", flush=True)
    run(["cmake", "-S", str(source), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"], stdout=subprocess.DEVNULL)
    run(["cmake", "--build", str(build_dir), "-j", str(jobs), "--target",
         *BENCH_TARGETS], stdout=subprocess.DEVNULL)


def run_benches(build_dir, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, bench, args, is_json in RUNS:
        binary = build_dir / "bench" / bench
        out = out_dir / name
        if is_json:
            run([str(binary), *args, f"--json={out}"],
                stdout=subprocess.DEVNULL)
        else:
            with open(out, "w") as handle:
                run([str(binary), *args], stdout=handle)


def first_json_difference(a, b, path="$"):
    """Path and values of the first field where two parsed reports differ."""
    if type(a) is not type(b):
        return path, a, b
    if isinstance(a, dict):
        for key in a:
            if key not in b:
                return f"{path}.{key}", a[key], "<missing>"
            found = first_json_difference(a[key], b[key], f"{path}.{key}")
            if found:
                return found
        for key in b:
            if key not in a:
                return f"{path}.{key}", "<missing>", b[key]
        return None
    if isinstance(a, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_json_difference(x, y, f"{path}[{i}]")
            if found:
                return found
        if len(a) != len(b):
            return f"{path}.length", len(a), len(b)
        return None
    return None if a == b else (path, a, b)


def compare(name, ref_text, new_text, is_json):
    if name == "scale.json":
        ref_text = WALL_CLOCK.sub(r'"\1":null', ref_text)
        new_text = WALL_CLOCK.sub(r'"\1":null', new_text)
    if ref_text == new_text:
        print(f"  identical  {name}")
        return True
    ref_lines = ref_text.splitlines()
    new_lines = new_text.splitlines()
    line = next((i for i, (x, y) in enumerate(zip(ref_lines, new_lines))
                 if x != y), min(len(ref_lines), len(new_lines)))
    print(f"  DIFFERENT  {name}: first difference on line {line + 1}")
    if is_json:
        try:
            found = first_json_difference(json.loads(ref_text),
                                          json.loads(new_text))
        except json.JSONDecodeError:
            found = None
        if found:
            path, old, new = found
            print(f"    at {path}: ref {json.dumps(old)[:200]}"
                  f" vs tree {json.dumps(new)[:200]}")
            return False
    if line < len(ref_lines):
        print(f"    ref : {ref_lines[line][:300]}")
    if line < len(new_lines):
        print(f"    tree: {new_lines[line][:300]}")
    return False


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("ref", help="git ref to compare the working tree with")
    parser.add_argument(
        "--workdir", type=Path,
        default=Path(tempfile.gettempdir()) / "spal-equivalence",
        help="scratch directory for the export and builds")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="parallel build jobs")
    args = parser.parse_args()

    workdir = args.workdir.resolve()
    ref_source = workdir / "ref"
    commit = export_ref(args.ref, ref_source)
    print(f"ref {args.ref} = {commit}")
    build(ref_source, workdir / "ref-build", args.jobs)
    build(REPO, workdir / "tree-build", args.jobs)

    print("running benches", flush=True)
    run_benches(workdir / "ref-build", workdir / "ref-out")
    run_benches(workdir / "tree-build", workdir / "tree-out")

    print(f"comparing the working tree with {args.ref}:")
    for name, _, _, is_json in RUNS:
        ref_text = (workdir / "ref-out" / name).read_text()
        new_text = (workdir / "tree-out" / name).read_text()
        if not compare(name, ref_text, new_text, is_json):
            sys.exit(1)

    print("spal_report --check:")
    spal_report = workdir / "tree-build" / "tools" / "spal_report"
    reports = [workdir / "tree-out" / name
               for name, _, _, is_json in RUNS if is_json]
    reports += sorted(REPO.glob("BENCH_*.json"))
    failed = False
    for report in reports:
        result = subprocess.run([str(spal_report), "--check", str(report)],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        ok = result.returncode == 0
        failed |= not ok
        print(f"  {'pass' if ok else 'FAIL'}  {report.name}")
        if not ok:
            print(result.stdout[-2000:])
    if failed:
        sys.exit(1)
    print("equivalent")


if __name__ == "__main__":
    main()
