#!/usr/bin/env python3
"""Daemon benchmark launcher.

Builds the daemon (bin/serve) and the benchmark client (perfbench/main.ml)
from source into .bench_build, then runs one measurement:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a source tree.  The last line of standard output
is the result object; see perfbench/NOTES.md for what it contains.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ("persist-chain", "infer-query", "xml-ingest")
BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def source_rev():
    """The git revision, or a digest of the sources outside git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("bin", "lib", "perfbench"):
        for root, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def run_group(cmd, timeout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: %s timed out after %d s" % (cmd[0], timeout),
              file=sys.stderr)
        return 124


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    for needed in ("dune-project", "bin/serve.ml", "lib"):
        if not os.path.exists(needed):
            print("perfbench: %s not found; run from the root of a source tree"
                  % needed, file=sys.stderr)
            return 2

    build = run_group(["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
                       "bin/serve.exe", "perfbench/main.exe"], BUILD_TIMEOUT_S)
    if build != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    exe = os.path.join(BUILD_DIR, "default")
    return run_group([os.path.join(exe, "perfbench", "main.exe"),
                      "--workload", args.workload,
                      "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace),
                      "--serve", os.path.join(exe, "bin", "serve.exe"),
                      "--work-dir", os.path.join(BUILD_DIR, "perfbench-work-%d" % os.getpid()),
                      "--rev", source_rev()], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
