#!/usr/bin/env python3
"""Build the perfbench Go program from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload perf-sweep --seed 1 --seconds 20 --trace 0

Every build product (Go build cache, module cache, the binary and the
benchmark's own output files) stays under .bench_build/ in the checkout.
The last line of standard output is the result JSON; see
perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(
        os.path.join(root, "internal")
    ):
        print("perfbench: run from the repository root (no go.mod/internal here)", file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        HOME=os.path.join(build, "home"),
        XDG_CONFIG_HOME=os.path.join(build, "home", ".config"),
        XDG_CACHE_HOME=os.path.join(build, "home", ".cache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOFLAGS="-mod=mod",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=os.path.join(root, "perfbench"), env=env
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    ran = subprocess.run([binary, "-root", root] + sys.argv[1:], cwd=root, env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
