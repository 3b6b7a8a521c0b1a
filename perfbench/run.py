#!/usr/bin/env python3
"""The repository benchmark: builds perfbench and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: peacetime, route_churn, ddos_stress (closed-loop replay into a
2-shard ShardedRuntime; ddos_stress takes eight seeded testbed experiments in
turn and reports the mean of their medians) and live_ingest (open-loop
NetFlow v5 over UDP into an IngestPipeline). --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer table of a separate traced run. The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.

The executable is built from the checkout's sources into .bench_build/
(Release, no sanitizer) on first use and brought up to date on every run.
A watchdog stops a run that outlives its time bound, prints the stuck
threads and reports the run as failed.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
EXECUTABLE = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("peacetime", "route_churn", "ddos_stress", "live_ingest")
# The executable's own watchdog fires at 165 s; this is the backstop for a
# process that cannot even run its watchdog.
RUN_TIMEOUT_S = 172
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the executable; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no InFilter sources under ./src -- run from the root of a checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                timeout=BUILD_TIMEOUT_S, check=False)
        if result.returncode != 0:
            sys.stderr.write(result.stdout.decode(errors="replace")[-4000:])
            fail(f"build step failed: {' '.join(step)}")


def source_stamp():
    """Git commit when the checkout is a repository, else a digest of src/."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                check=False).stdout.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    digest = hashlib.sha256()
    for directory, _, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return {"git_commit": commit or "none (not a git checkout)",
            "src_sha256": digest.hexdigest()[:16]}


def stuck_threads(pid):
    """One line per thread of `pid`: state and kernel wait channel."""
    lines = []
    task_dir = f"/proc/{pid}/task"
    try:
        tids = sorted(os.listdir(task_dir), key=int)
    except OSError:
        return lines
    for tid in tids:
        try:
            with open(f"{task_dir}/{tid}/stat") as handle:
                stat = handle.read()
            with open(f"{task_dir}/{tid}/wchan") as handle:
                wchan = handle.read().strip()
        except OSError:
            continue
        state = stat[stat.rfind(")") + 2]
        lines.append(f"watchdog: thread {tid} state={state} wchan={wchan}")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    print("stamp: " + json.dumps(source_stamp()), flush=True)
    command = [EXECUTABLE, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--trace-dir", os.path.join(".bench_build", "traces")]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        output, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        for line in stuck_threads(process.pid):
            print(line)
        process.send_signal(signal.SIGKILL)
        process.wait()
        print(f"watchdog: perfbench exceeded {RUN_TIMEOUT_S} s and was killed")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 0

    lines = output.decode(errors="replace").splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if result is None and process.returncode == 2:
        fail("perfbench refused the run (see above)")
    if result is None:
        # Crashed or killed before it could report: the run failed.
        print(f"perfbench exited with code {process.returncode} without a result")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
