#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. The benchmark is built from source
(offline, release profile) into $CARGO_TARGET_DIR, `.bench_build` by default;
build output goes to stderr, so the last line on stdout is the benchmark's
JSON result. A traced run also writes its spans to
<target dir>/perfbench-spans/<workload>-seed<seed>.csv.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def flag(args, name):
    """Value following `name` in `args`, or None."""
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    cmd = [os.path.join(target, "release", "perfbench")] + args
    if flag(args, "--trace") == "1":
        spans = os.path.join(target, "perfbench-spans",
                             f"{flag(args, '--workload')}-seed{flag(args, '--seed')}.csv")
        cmd += ["--spans", spans]
    return subprocess.run(cmd, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
