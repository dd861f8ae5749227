#!/usr/bin/env python3
"""Builds the socket-to-alarm benchmark from source and runs one workload.

    python3 perfbench/run.py --workload bedside|flaky|backfill \
        --seed N --seconds S --trace 0|1

Run from the root of the repository. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`), and the run's scratch files (archives) to a
directory under it that is removed when the run ends. The last line of
standard output is the run's JSON result; build output goes to stderr.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    # Cargo resolves a relative CARGO_TARGET_DIR against the working
    # directory, so this is the same directory cargo builds into.
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "cs-perfbench")
    work = os.path.join(target, "perfbench-work", str(os.getpid()))
    return subprocess.run([binary, *sys.argv[1:], "--work", work], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
