#!/usr/bin/env python3
"""Build and run the d2stgnn benchmark.

    python3 perfbench/run.py --workload train --seed 1 --seconds 40 --trace 0

Run from the repository root. Builds two variants of the benchmark
binary from source (release): an untraced one and one with the `trace`
feature (the workspace's `obsv` telemetry), into `$CARGO_TARGET_DIR`
(default `.bench_build`). `--trace 0` runs the untraced binary and passes
its output through. `--trace 1` runs the untraced binary first, then the
traced one with the untraced throughput and MAE, so the traced run can
report its overhead and check that its step replay reproduces the real
loop. Either way the last stdout line is the result object, and the exit
code is the benchmark binary's (non-zero when an output check failed).

Variables starting with `D2_` are removed from the environment so the
host cannot change the thread plan or kernels under the benchmark.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run (both binaries, for --trace 1) must end within 180 s of starting,
# builds excepted: the first run in a checkout compiles both variants.
RUN_BUDGET_S = 175
BUILD_TIMEOUT_S = 840


def build(target_dir, traced):
    """Build one variant; return the binary path."""
    cmd = [
        "cargo", "build", "--release", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--target-dir", target_dir,
    ]
    if traced:
        cmd += ["--features", "trace"]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(target_dir, "release", "perfbench")


def run(binary, argv, env, deadline):
    """Run the benchmark binary; return (exit code, stdout text)."""
    proc = subprocess.run(
        [binary] + argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    return proc.returncode, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["train", "serve_city"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken sizes, for a quick end-to-end check")
    args = parser.parse_args()

    root_target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(root_target):
        root_target = os.path.join(ROOT, root_target)
    env = {k: v for k, v in os.environ.items() if not k.startswith("D2_")}
    try:
        # Both variants every time: the first run in a checkout builds them,
        # later runs only pay cargo's freshness check.
        plain = build(os.path.join(root_target, "perfbench", "untraced"), False)
        traced = build(os.path.join(root_target, "perfbench", "traced"), True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds)] + (["--smoke"] if args.smoke else [])
    try:
        code, out = run(plain, common + ["--trace", "0"], env, deadline)
        if args.trace == "0":
            sys.stdout.write(out)
            return code
        sys.stderr.write(out)
        if code != 0:
            print("perfbench: the untraced run failed; no traced run", file=sys.stderr)
            return code
        metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
        spans = os.path.join(root_target, "perfbench", "spans",
                             f"{args.workload}-seed{args.seed}.jsonl")
        code, out = run(traced, common + [
            "--trace", "1", "--spans-out", spans,
            "--untraced-windows-per-s", repr(metrics["windows_per_s"]["value"]),
            "--untraced-mae", repr(metrics["mae"]["value"]),
        ], env, deadline)
        sys.stdout.write(out)
        return code
    except subprocess.TimeoutExpired:
        print(f"perfbench: the run exceeded {RUN_BUDGET_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
