#!/usr/bin/env python3
"""Build the benchmark from the checkout and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload query-skewjoin --seed 1 --seconds 20 --trace 0

The Go program is built from source into .bench_build/ at the root of the
checkout, with every Go cache and config directory kept there too, and
then run with the given arguments. Its standard output passes through
unchanged; the last line is the JSON result. The exit code is non-zero
when the checkout does not hold the engine's sources, the build fails,
the run fails or the run exceeds its time limit.
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    for need in ("go.mod", "hurricane", "internal", os.path.join("perfbench", "go.mod")):
        if not os.path.exists(os.path.join(root, need)):
            print(f"perfbench: {need} not found under {root}: run from the root of a full checkout",
                  file=sys.stderr)
            return 2
    if shutil.which("go") is None:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return 2

    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "go-cache"),
        "GOPATH": os.path.join(out, "go-path"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
    })
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
