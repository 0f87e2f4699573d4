#!/usr/bin/env python3
"""Build the mediator benchmark from source and run one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The script builds perfbench/perfbench.exe with dune (into _build/), then
runs it with the same arguments. The benchmark's own output passes through
unchanged; its last line is the JSON result. Build output goes to stderr.
The exit status is non-zero when the build fails, when a check inside the
benchmark fails, or when the checkout lacks the sources to build from.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("update_stream", "hybrid_poll", "fed_scatter")
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            print(f"run.py: {needed} not found; run from the root of a "
                  "checkout of the repository", file=sys.stderr)
            return 2
    dune = dune_command()
    if dune is None:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 2

    build = subprocess.run(
        dune + ["build", "--root", ".", "-j", "2", "./perfbench/perfbench.exe"],
        stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1

    # The benchmark forks one child per trial; it runs in its own process
    # group so that a timeout stops the child too.
    run = subprocess.Popen(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        start_new_session=True)
    try:
        return run.wait(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        print("run.py: benchmark stopped before it finished", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
