#!/usr/bin/env python3
"""Build the daemon and the load generator, then run one benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <exec-warm|build-churn|sweep> \
        --seed <n> --seconds <s> --trace <0|1>

Builds `wasabid` from the root workspace and the `perfbench` package in
release mode into $CARGO_TARGET_DIR (default `.bench_build`), then runs
the load generator, which prints the result as the last line of stdout.
Build output goes to stderr. The exit status is the load generator's, or
the failing build's.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", "Cargo.toml", "-p", "wasabi-server", "--bin", "wasabid"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if not os.path.isfile(cmd[cmd.index("--manifest-path") + 1]):
            print(f"run.py: {cmd[cmd.index('--manifest-path') + 1]} not found; "
                  "run from the repository root", file=sys.stderr)
            return 2
        built = subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=root)
        if built.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return built.returncode or 1

    rev = "unknown"
    try:
        probe = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                               capture_output=True, text=True, cwd=root)
        if probe.returncode == 0:
            rev = probe.stdout.strip()
    except OSError:
        pass

    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"),
           "--wasabid", os.path.join(release, "wasabid"),
           "--rev", rev] + sys.argv[1:]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
