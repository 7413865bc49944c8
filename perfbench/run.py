#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --anchors

The benchmark binary is built in release mode with cargo (offline) into
$CARGO_TARGET_DIR, or `.bench_build` when that is unset; build output goes
to standard error. The binary's standard output, whose last line is the
JSON result, is passed through unchanged, as is its exit code.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def build():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    built = subprocess.run(cmd, stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit(f"run.py: building the benchmark failed (cargo exit {built.returncode})")
    return os.path.join(target, "release", "perfbench")


def main():
    binary = build()
    ran = subprocess.run([binary] + sys.argv[1:])
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
