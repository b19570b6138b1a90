#!/usr/bin/env python3
"""Build and run the persistent-world stack benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first run configures and builds the
library (../src) and the benchmark program into .bench_build/perfbench with
CMake in Release mode; later runs only check that the build is current.
Build output goes to stderr, so the last line of stdout is the program's JSON
result.  The exit status is the program's (0 = every output verified), or 2
when the build fails or the sources are missing.
"""
import fcntl
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "stack_bench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def source_id():
    """A digest of the code that is measured: the library sources and the
    benchmark's own files (so it also names an uncommitted tree)."""
    digest = hashlib.sha1()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()


def build():
    """Configure once, then bring the build up to date (serialized by a lock
    so concurrent runs never build over each other)."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S).returncode != 0:
                return False
    return True


def main():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: library sources not found", file=sys.stderr)
        return 2
    try:
        if not build():
            print("perfbench: build failed", file=sys.stderr)
            return 2
    except (OSError, subprocess.SubprocessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    cmd = [BINARY] + sys.argv[1:] + ["--source", source_id()]
    # Own process group: on a timeout the forked rank processes go too.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
