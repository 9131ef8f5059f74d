#!/usr/bin/env python3
"""Builds and runs the Spear benchmark.

    python3 spearbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 spearbench/run.py --selftest      # the benchmark's own tests

Run it from the root of a checkout.  The first run configures and builds
the benchmark, and the Spear libraries it links, into .bench_build/; later
runs rebuild incrementally.  Build output goes to stderr, so the last line
of stdout is always the benchmark's result object.  A traced run
(--trace 1) writes its spans to .bench_build/traces/.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def log(message):
    print(f"spearbench: {message}", file=sys.stderr, flush=True)


def run_build_step(cmd):
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        log("build failed: " + " ".join(cmd))
        sys.exit(1)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no Spear sources (src/CMakeLists.txt) beside the benchmark")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_build_step(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", BUILD, "--target", *targets,
                    "-j", jobs])


def source_id():
    """The git commit when there is one, else a hash of the measured tree."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return "git:" + sha.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "spearbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def main(argv):
    if argv == ["--selftest"]:
        build(["spearbench_tests"])
        tests = os.path.join(BUILD, "spearbench_tests")
        return subprocess.run([tests], cwd=ROOT).returncode

    build(["spearbench"])
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "spearbench"), *argv, "--root", ROOT,
           "--trace-dir", trace_dir, "--source", source_id()]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
