#!/usr/bin/env python3
"""Repository benchmark: builds the system from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload content_search --seed 1 \
        --seconds 10 --trace 0

Workloads: content_search, struct_join, edit_mix, remote_fanout. The last
stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}; --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones (and writes a Chrome trace plus metric-registry deltas to
.bench_build/perfbench/traces/).

    python3 perfbench/run.py --selftest

runs each workload once with a deliberately corrupted answer and fails
unless every output check catches it. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "cmake", "sdms_perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

WORKLOADS = ["content_search", "struct_join", "edit_mix", "remote_fanout"]
# (workload, perturbation) pairs of the self-test: each must fail a check.
SELFTEST = [
    ("content_search", "drop_row"),
    ("content_search", "flip_score_bit"),
    ("edit_mix", "revert_edit"),
    ("remote_fanout", "swap_shard_hits"),
]


def build():
    """Configures and builds the benchmark binary; False on failure."""
    cmake_dir = os.path.join(BUILD, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", cmake_dir, "--target", "sdms_perfbench",
         "-j", jobs],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build step failed: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return os.path.exists(BINARY)


def run_binary(workload, seed, seconds, trace, perturb=None):
    """Runs one workload; returns (exit code, stdout lines)."""
    work = os.path.join(BUILD, "work", f"{workload}-{os.getpid()}")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", os.path.join(BUILD, "traces"), "--work-dir", work]
    if perturb:
        cmd += ["--perturb", perturb]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S}s",
              file=sys.stderr)
        return 2, []
    return done.returncode, done.stdout.splitlines()


def last_json(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def compare_with_untraced(workload, seed, lines):
    """Prints the tracing overhead as the difference between this traced
    run's own end-to-end figures and the stored untraced run of the same
    workload and seed."""
    traced = {}
    for line in lines:
        if line.startswith("perfbench: traced_e2e:"):
            for item in line.split(":", 2)[2].split():
                name, _, value = item.partition("=")
                traced[name] = float(value)
    path = os.path.join(BUILD, "results", f"{workload}-seed{seed}-trace0.json")
    try:
        with open(path) as f:
            untraced = json.load(f)["metrics"]
    except (OSError, ValueError, KeyError):
        print("perfbench: tracing overhead: no stored untraced run of this "
              "workload and seed; run it with --trace 0 first")
        return
    parts = []
    for name, value in sorted(traced.items()):
        base = untraced.get(name, {}).get("value")
        if base:
            parts.append(f"{name} {base:.6g} -> {value:.6g} "
                         f"({(value / base - 1) * 100:+.1f}%)")
    print("perfbench: tracing overhead vs untraced run: " + "; ".join(parts))


def store_result(workload, seed, trace, result):
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    path = os.path.join(BUILD, "results",
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as f:
        json.dump(result, f)


def selftest():
    caught = 0
    for workload, perturb in SELFTEST:
        code, lines = run_binary(workload, 1, 2, 0, perturb)
        result = last_json(lines)
        failed_check = (result is not None and result.get("correct") is False
                        and code != 0)
        reasons = [l for l in lines if "check failed" in l][:2]
        print(f"perfbench selftest: {workload} + {perturb}: "
              f"{'caught' if failed_check else 'NOT CAUGHT'}"
              + (f" ({reasons[0].split('check failed: ', 1)[1]})"
                 if reasons else ""))
        caught += failed_check
    code, lines = run_binary("content_search", 1, 2, 0)
    clean = last_json(lines)
    clean_ok = code == 0 and clean is not None and clean.get("correct") is True
    print(f"perfbench selftest: unperturbed content_search: "
          f"{'passes' if clean_ok else 'FAILS'}")
    return 0 if caught == len(SELFTEST) and clean_ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 2
    if args.selftest:
        return selftest()
    code, lines = run_binary(args.workload, args.seed, args.seconds,
                             args.trace)
    result = last_json(lines)
    if result is None:
        for line in lines:
            print(line)
        print("perfbench: the run produced no result", file=sys.stderr)
        return code or 2
    for line in lines[:-1]:
        print(line)
    store_result(args.workload, args.seed, args.trace, result)
    if args.trace == 1:
        compare_with_untraced(args.workload, args.seed, lines)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
