#!/usr/bin/env python3
"""Builds and runs the single-thread benchmark from the repository root.

    python3 perfbench/run.py --workload <fleet-day|enclosure-chaos|net-churn>
                             --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (a cargo package of its own that depends on the
library crates by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it with the same arguments. The last
line of standard output is the result object; build output goes to
standard error. Exits non-zero, without a result, if the build fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["fleet-day", "enclosure-chaos", "net-churn"]
def command_output(cmd, cwd):
    try:
        out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")

    root = HERE.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR") or root / ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    # Not `--locked`: a later change to the library crates' dependencies
    # may update perfbench/Cargo.lock, which resolves offline from paths.
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", str(HERE / "Cargo.toml")],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"], root) or "unknown"
    revision = None
    if (root / ".git").exists():
        revision = command_output(["git", "rev-parse", "HEAD"], root)
    env["PERFBENCH_REVISION"] = revision or "none (not a git checkout)"
    run = subprocess.run(
        [str(target / "release" / "socc-perfbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--trace-dir", str(target / "perfbench-traces")],
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
