#!/usr/bin/env python3
"""Build the Beehive benchmark program from source and run one measurement.

Run from the root of a Beehive source tree:

    python3 perfbench/run.py --workload fig4 --seed 1 --seconds 10 --trace 0

The program (perfbench/perfbench.ml) is built with dune into _build/ and
run with the same arguments. Its last output line, one JSON object with
the keys correct, attempted, failed and metrics, is checked and printed
as the last line of this script's standard output. The script exits
non-zero without a result when the tree cannot be built or the program
fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("fig4", "pipeline")
TARGET = "./perfbench/perfbench.exe"
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 840
# A run overshoots --seconds by at most one episode of a few seconds.
RUN_SLACK_S = 100


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        die("--seconds must be between 1 and 60")
    for needed in ("dune-project", os.path.join("lib", "core", "platform.ml")):
        if not os.path.exists(needed):
            die("run from the root of a Beehive source tree (%s is missing)" % needed)

    # No shared dune cache outside the tree; one simulation domain.
    env = dict(os.environ, DUNE_CACHE="disabled", BEEHIVE_DOMAINS="1")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", TARGET],
            env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if build.returncode != 0:
        die("build failed with exit code %d" % build.returncode)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=args.seconds + RUN_SLACK_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("benchmark did not finish: %s" % e)
    if run.returncode != 0:
        die("benchmark exited with code %d" % run.returncode)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("benchmark printed no result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("malformed result: %s" % lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
