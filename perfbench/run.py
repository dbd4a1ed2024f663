#!/usr/bin/env python3
"""Repository benchmark: builds perfbench_run and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Each call configures and builds perfbench
(CMake, Release) into .bench_build/perfbench; after the first call only
what changed is rebuilt. The workload runs in its own process, so its peak
RSS is its own. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.

Modeled metrics are deterministic per seed. Each run records its modeled
digest under the binary's hash, workload and seed; a later same-seed run
of the same binary that disagrees is reported as incorrect. Exits
nonzero, without a result line, when the build or the workload fails, and
nonzero with "correct": false on an incorrect result.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_run")
DIGESTS = os.path.join(BUILD_DIR, "modeled_digests.json")
BUILD_TIMEOUT_S = 840
RUN_DEADLINE_S = 175  # a call that only runs
FIRST_RUN_DEADLINE_S = 895  # a call that also had to build


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures and builds incrementally. False on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # Configuring every time is cheap once cached, and it refuses a
        # build tree that belongs to another checkout.
        steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"),
                  "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_run", "-j", str(os.cpu_count() or 1)]]
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as error:
                log(f"build step {step[:2]} failed: {error}")
                return False
            if done.returncode != 0:
                log(f"build step {' '.join(step[:2])} exited {done.returncode}")
                return False
    return os.path.exists(BINARY)


def binary_hash():
    digest = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def check_replay(key, modeled_digest):
    """True unless an earlier same-seed run of this binary disagrees."""
    with open(DIGESTS + ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        known = {}
        if os.path.exists(DIGESTS):
            with open(DIGESTS) as f:
                known = json.load(f)
        if key in known:
            return known[key] == modeled_digest
        known[key] = modeled_digest
        with open(DIGESTS + ".tmp", "w") as f:
            json.dump(known, f, indent=1, sort_keys=True)
        os.replace(DIGESTS + ".tmp", DIGESTS)
    return True


def main():
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        log(f"unknown workload {args.workload!r}; one of {workloads}")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    if not build():
        return 1

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.jsonl")]
    elapsed = time.monotonic() - start
    deadline = (RUN_DEADLINE_S if elapsed < RUN_DEADLINE_S / 4
                else FIRST_RUN_DEADLINE_S)
    budget = deadline - elapsed
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=budget, check=False)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {budget:.0f} s")
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"{args.workload} exited {done.returncode} without a result")
        return 1

    metrics = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics or
               metrics[m["name"]]["unit"] != m["unit"]]
    if missing:
        log(f"{args.workload} did not report {missing} in their units")
        return 1
    correct = bool(result["correct"]) and done.returncode == 0
    key = f"{binary_hash()}:{args.workload}:{args.seed}"
    if not check_replay(key, result["modeled_digest"]):
        log(f"modeled digest {result['modeled_digest']} differs from an "
            f"earlier run of {key}: the modeled clock is not deterministic")
        correct = False
    print(f"# modeled digest {result['modeled_digest']} ({key})")
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
