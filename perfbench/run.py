#!/usr/bin/env python3
"""Build the perfbench Go program from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload gcn-collab --seed 1 --seconds 25 --trace 0

Every argument is passed to the program unchanged. The build output,
the Go build cache and config, and the traced run's span files all go
under the directory named by CARGO_TARGET_DIR (default: .bench_build),
relative to the repository root, so nothing is written outside the
checkout.
The program's exit code is returned; a failed build exits with 2 and
prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The program itself finishes within a minute; this is the backstop.
RUN_TIMEOUT_S = 170


def main():
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(ROOT, out)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "mod"),
        # The go command keeps its env file and local telemetry counters
        # under the user config directory; keep those in the checkout too.
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench", "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = [binary, *sys.argv[1:], "--trace-out", os.path.join(out, "perfbench", "traces")]
    try:
        return subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
