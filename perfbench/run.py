#!/usr/bin/env python3
"""GraphScape repository benchmark: build, run one workload, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run from the repository root. Builds perfbench/ (Release, from ../src)
into .bench_build/perfbench on first use, runs the requested workload, and
prints every metric by name with its unit. The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "scalar", "scalar_tree.h")):
        log("GraphScape sources (src/) not found next to perfbench/")
        return False
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(len(os.sched_getaffinity(0)))
    for cmd in (configure, ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=local_env()).returncode:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def local_env(**extra):
    """The environment for child processes, with temporary files kept
    inside the checkout."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp, **extra)


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def trace_parses(path):
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        return isinstance(events, list) and len(events) > 0
    except (OSError, ValueError, KeyError, TypeError):
        return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload " + args.workload)
        return 2
    if not build():
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR]
    if args.smoke:
        cmd.append("--smoke")
    env = local_env(PERFBENCH_COMMIT=commit())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log("benchmark exited with code %d" % proc.returncode)
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    # Exactly the metrics BENCHMARK.json names for this mode. A layer the
    # workload never calls did zero work: its per-layer value is 0. An
    # end-to-end metric must always be measured.
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                log("workload did not measure " + m["name"])
                return 1
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            log("%s measured in %s, declared in %s"
                % (m["name"], got["unit"], m["unit"]))
            return 1
        metrics[m["name"]] = got
    correct = bool(result["correct"])
    if args.trace:
        trace_path = os.path.join(WORK_DIR, args.workload, "trace.json")
        if not trace_parses(trace_path):
            log("trace file does not parse: " + trace_path)
            correct = False
    for name, m in metrics.items():
        print("%-34s %-24r %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
