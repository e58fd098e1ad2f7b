#!/usr/bin/env python3
"""Build and run the fleet benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the `perfbench` package in
release mode into $CARGO_TARGET_DIR (default `.bench_build`), then runs the
binary with the same arguments. The binary's last line of standard output
is the JSON result; build output goes to standard error. The traced run
(`--trace 1`) also writes its spans as JSON Lines under
`<target dir>/perfbench-spans/`.
"""

import os
import signal
import subprocess
import sys


def main():
    # subprocess.run kills and reaps its child when interrupted, so turning
    # SIGTERM into an exception stops the build or the benchmark with us.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join("crates", "core", "Cargo.toml")):
        print("perfbench: run from the repository root; crates/core is missing",
              file=sys.stderr)
        return 2
    manifest = os.path.join(os.path.dirname(os.path.abspath(__file__)), "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)

    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(build, env=env, stdout=sys.stderr).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "perfbench")
    spans = os.path.join(target, "perfbench-spans")
    return subprocess.run([binary, *sys.argv[1:], "--spans-dir", spans], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
