#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the library from ../src) in Release into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
let the build tool confirm it is up to date. Build output goes to stderr,
so the benchmark's own last stdout line stays its JSON result. The
metric names the binary reports are checked against BENCHMARK.json.

Exit status: the benchmark's own, or 3 when the build fails, or 4 when
the reported metrics do not match BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 3

    binary = os.path.join(build_dir, "perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", os.path.join(ROOT, ".bench_out")]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    if proc.returncode != 0 or not lines:
        if lines:
            print(lines[-1])
        return proc.returncode or 1

    result = json.loads(lines[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = "per_layer" if args.trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    if reported != expected:
        print("perfbench: reported metrics do not match BENCHMARK.json "
              f"{section}: {sorted(set(reported) ^ set(expected))}",
              file=sys.stderr)
        return 4
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
