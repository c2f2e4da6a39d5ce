#!/usr/bin/env python3
"""Build and run the LION benchmark.

    python3 lionbench/run.py --workload batch_fleet|serve_mixed|serve_ingest \
        --seed N --seconds S --trace 0|1 [--size full|tiny] [--drop-responses N]

Run from the repository root. The first run configures and builds
lionbench/CMakeLists.txt (the LION libraries, the lion_served daemon and the
`lionbench` harness) in Release mode under .bench_build/ (or under
$CARGO_TARGET_DIR when set); later runs only rebuild what changed. The
harness's own output is passed through: a human-readable table, then one
JSON line {"correct", "attempted", "failed", "metrics"} as the last line.
The exit status is the harness's (0 only when every correctness check
passed); a build failure or a missing source tree exits 2 without a result.
"""

import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("lionbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_root):
    """Configure once, then build the two targets; returns the build dir."""
    build_dir = os.path.join(build_root, "cmake")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_root, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_root, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs,
                      "--target", "lionbench", "lion_served"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                fail("build failed (%s):\n%s" % (" ".join(cmd), tail))
    return build_dir


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["batch_fleet", "serve_mixed", "serve_ingest"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--drop-responses", type=int, default=0)
    args = ap.parse_args()

    for rel in ("src/CMakeLists.txt", "tools/lion_served.cpp"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            fail("LION sources not found (%s is missing); run from a full "
                 "checkout" % rel)
    if shutil.which("cmake") is None:
        fail("cmake not found")

    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build_dir = build(build_root)
    workdir = os.path.join(build_root, "run")
    os.makedirs(workdir, exist_ok=True)

    cmd = [os.path.join(build_dir, "lionbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--size", args.size,
           "--drop-responses", str(args.drop_responses),
           "--served", os.path.join(build_dir, "lion_served"),
           "--workdir", workdir]
    sys.stdout.flush()
    # Own process group, so a timed-out harness takes its lion_served along.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
