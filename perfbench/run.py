#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload metro-culled|burst-service|sweep-csi \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the simulator and the perfbench
binary from source into .bench_build/ (Release), runs the benchmark's own
helper tests, runs one workload and prints its output; the last line is
the JSON result.  The SimMetrics digest of every (workload, seed, world)
is kept per build in .bench_build/, and a run whose digest of a world
differs from an earlier run of the same build, seed and world is reported
as incorrect; traced and untraced runs are compared on the worlds both
run.  Exits non-zero on any failure, without a result line when the build
or the run cannot complete.
"""
import argparse
import json
import os
import re
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")
DIGESTS = os.path.join(BUILD, "digests.json")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    steps.append([os.path.join(BUILD, "perfbench_tests")])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log(f"step failed: {' '.join(cmd)}")
            return False
    return True


def check_digest(key, digest):
    """True when no earlier run of this build saw another digest for `key`."""
    binary = os.stat(os.path.join(BUILD, "perfbench"))
    build_id = f"{binary.st_mtime_ns}-{binary.st_size}"
    state = {"build": build_id, "digests": {}}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as f:
            old = json.load(f)
        if old.get("build") == build_id:
            state = old
    seen = state["digests"].setdefault(key, digest)
    with open(DIGESTS + ".tmp", "w") as f:
        json.dump(state, f, indent=1, sort_keys=True)
    os.replace(DIGESTS + ".tmp", DIGESTS)
    return seen == digest


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["metro-culled", "burst-service", "sweep-csi"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not build():
        return 3
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", OUT]
    # Own process group, so a timeout also stops the sweep workers it forks.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 4
    lines = stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        log(f"perfbench exited {proc.returncode} without a result")
        return proc.returncode or 5
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
        m = re.match(r"# digest (\S+) seed=(\d+) world=(\d+) fnv1a64=(\w+)$", line)
        if m:
            workload, seed, world, digest = m.groups()
            if not check_digest(f"{workload} {seed} {world}", digest):
                print(f"# FAILED: digest {digest} of world {world} differs from an "
                      "earlier run of this build and seed")
                result["correct"] = False
                result["failed"] += 1
    print(json.dumps(result), flush=True)
    if not result["correct"] or result["failed"]:
        return proc.returncode or 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
