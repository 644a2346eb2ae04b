#!/usr/bin/env python3
"""Builds the wire-level benchmark from source and runs one workload.

    python3 perfbench/run.py --workload sgq_10k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to .bench_build/perfbench
(optimized, see perfbench/CMakeLists.txt); generated inputs and span logs go
to .bench_build/perfbench-data. The benchmark's last stdout line is its
result object; build output goes to stderr. The exit code is the
benchmark's: non-zero when the build fails or any correctness check fails.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175
BUILD_JOBS = "4"


def build():
    """Configures once, then builds incrementally; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "-j", BUILD_JOBS])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write("perfbench: build step failed: %s\n" %
                             " ".join(step))
            return False
    return True


def source_id():
    """The git commit when the checkout is a repository, plus a digest of
    the sources the benchmark builds (src/ and perfbench/)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    ident = "sources-sha256:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, env=env)
        if sha.returncode == 0:
            ident = "git:" + sha.stdout.strip() + " " + ident
    return ident


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the arithmetic self-test")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    if not build():
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "perfbench_arith_test")],
                              cwd=ROOT).returncode

    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--source", source_id()]
    # A SIGTERM to this script ends the benchmark process too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen(command, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
