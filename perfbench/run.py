#!/usr/bin/env python3
"""Build the benchmark and the driserve binary from source, then run one
workload.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. Everything it builds or writes goes
under .bench_build/ in the checkout (Go build cache included). Standard
output is the benchmark's: metric lines, tables, and as the last line one
JSON object. Build output goes to standard error. A build failure, for
example outside a full checkout, exits non-zero without a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    return env


def build(env):
    """Builds driserve and the benchmark; returns their paths or None."""
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    bin_dir = os.path.join(BUILD, "bin")
    driserve = os.path.join(bin_dir, "driserve")
    bench = os.path.join(bin_dir, "perfbench")
    steps = [
        (ROOT, ["go", "build", "-o", driserve, "./cmd/driserve"]),
        (HERE, ["go", "build", "-o", bench, "."]),
    ]
    for cwd, cmd in steps:
        try:
            rc = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr).returncode
        except OSError as err:
            print(f"run.py: {' '.join(cmd)}: {err}", file=sys.stderr)
            return None
        if rc != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    return driserve, bench


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    built = build(go_env())
    if built is None:
        return 1
    driserve, bench = built
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [bench, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-driserve", driserve, "-workdir", work]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
