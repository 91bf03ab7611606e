#!/usr/bin/env python3
"""Build the exploration service and the benchmark from source, then run
one workload of the benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The build output goes to stderr, so the
last line on stdout is the benchmark's result object.  Every inherited
DSE_* variable is dropped and the benchmark's own settings are pinned,
so a stray environment variable cannot move a number.
"""
import os
import subprocess
import sys

# Span tracing off, metrics on; the engine's sweep pool and the
# per-connection pipeline depth fixed to the values the benchmark names.
PINNED = {"DSE_TELEMETRY": "off", "DSE_DOMAINS": "2", "DSE_PIPELINE_DEPTH": "16"}
TARGETS = ["bin/dse.exe", "perfbench/bench.exe"]


def main():
    env = {k: v for k, v in os.environ.items() if not k.startswith("DSE_")}
    env.update(PINNED)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "--display=quiet", *TARGETS],
        stdout=sys.stderr,
        env=env,
        timeout=840,
    )
    if build.returncode != 0:
        print("build failed", file=sys.stderr)
        return build.returncode or 1
    bench = os.path.join("_build", "default", "perfbench", "bench.exe")
    dse = os.path.join("_build", "default", "bin", "dse.exe")
    sys.stdout.flush()
    os.execve(bench, [bench, *sys.argv[1:], "--dse", dse], env)


if __name__ == "__main__":
    sys.exit(main())
