#!/usr/bin/env python3
"""Build and run the gso-simulcast benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (perfbench/Cargo.toml, release profile,
offline) into $CARGO_TARGET_DIR (default: .bench_build at the repository
root), runs it with the given arguments and relays its output. The last
line of standard output is the JSON result. The metric names in that line
are checked against BENCHMARK.json; any build, run or naming failure exits
non-zero without printing a result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    args = sys.argv[1:]
    traced = "--trace" in args[:-1] and args[args.index("--trace") + 1] == "1"
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    binary = os.path.join(target, "release", "gso-perfbench")
    run = subprocess.run([binary] + args, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        fail(f"benchmark exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("benchmark printed no JSON result")
    for line in lines[:-1]:
        print(line)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}
    if set(result["metrics"]) != expected:
        fail(f"metric names differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ expected)}")
    print(lines[-1])


if __name__ == "__main__":
    main()
