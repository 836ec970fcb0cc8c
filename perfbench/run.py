#!/usr/bin/env python3
"""Build and run the fixed-work benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload warm_serve --seed 1 --seconds 15 --trace 0

The script builds the benchmark (perfbench/, a Go module of its own that
uses the repository through a replace directive) and the xtalkd daemon from
source into the build directory (CARGO_TARGET_DIR, default .bench_build),
with the Go build cache, module cache, temporary files and Go's per-user
state all kept inside it. It then runs the benchmark, whose last line of
standard output is the result JSON, and exits with its exit code.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 1
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("TMPDIR", "tmp"),
                     ("HOME", "home"), ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="-mod=mod", GOWORK="off", GOENV="off")

    bin_dir = os.path.join(build, "bin")
    perfbench = os.path.join(bin_dir, "perfbench")
    xtalkd = os.path.join(bin_dir, "xtalkd")
    for out, pkg in ((perfbench, "."), (xtalkd, "xtalk/cmd/xtalkd")):
        try:
            done = subprocess.run([go, "build", "-o", out, pkg], cwd=bench, env=env,
                                  stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: build of %s timed out" % pkg, file=sys.stderr)
            return 1
        if done.returncode != 0:
            print("perfbench: build of %s failed" % pkg, file=sys.stderr)
            return 1

    cmd = [perfbench, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-xtalkd", xtalkd, "-workdir", os.path.join(build, "work")]
    # The benchmark runs in its own process group, so that a run cut off
    # here takes the daemons it started down with it.
    proc = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
