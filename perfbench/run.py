#!/usr/bin/env python3
"""Builds the `mrw` binary and the benchmark, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload engine-sweep --seed 1 --seconds 10 --trace 0

Build output goes to stderr; the benchmark's report goes to stdout and
its last line is the JSON result. Builds land in `$CARGO_TARGET_DIR`
(default `.bench_build` under the repository root).
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cargo_build(args, cwd, env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        sys.exit("perfbench: the repository sources are missing next to perfbench/")
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    cargo_build(["-p", "mrw-cli", "--bin", "mrw"], ROOT, env)
    cargo_build(["--manifest-path", str(HERE / "Cargo.toml")], ROOT, env)
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = ""
    cmd = [
        str(target / "release" / "perfbench"),
        "--mrw", str(target / "release" / "mrw"),
        "--work-dir", str(ROOT / ".perfbench"),
        "--rustc", rustc or "unknown",
    ] + sys.argv[1:]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
