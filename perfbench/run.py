#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the repository root.

    python3 perfbench/run.py --workload service_mixed --seed 1 --seconds 25 --trace 0

The Go benchmark (a module of its own in perfbench/, importing the
repository's packages through a replace directive) is built into
.bench_build/ with every Go cache kept there too, so a run writes
nothing outside the checkout. The last line of standard output
is the benchmark's JSON result.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "HOME": os.path.join(BUILD, "home"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "home", ".config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "GOENV": "off",
        "GOTELEMETRY": "off",
    })
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: run from the repository root (no go.mod here)", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(BUILD, "home"), exist_ok=True)
    build = subprocess.run(["go", "build", "-o", BINARY, "."],
                           cwd=os.path.join(ROOT, "perfbench"), env=go_env())
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    run = subprocess.run([BINARY, "-workload", args.workload, "-seed", str(args.seed),
                          "-seconds", str(args.seconds), "-trace", str(args.trace)], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
