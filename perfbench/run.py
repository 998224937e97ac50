#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The binary (perfbench/perfbench.cc) is compiled together with the libraries
under src/ into .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench) on
the first run and rebuilt incrementally afterwards. Build output and the
binary's progress go to stderr; the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list;
traced runs also leave a Chrome trace-event file under the build directory.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no source tree at {ROOT / 'src'}; nothing to build")
    configure = ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (out / "CMakeCache.txt").is_file():
        configure += ["-G", "Ninja"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(out), "--target", "perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    expected = spec["per_layer" if args.trace else "end_to_end"]

    binary = build(build_dir())
    data_dir = build_dir() / "data"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", str(data_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds * 3 + 60)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    result = json.loads(lines[-1])

    got = result["metrics"]
    if set(got) != {m["name"] for m in expected}:
        fail(f"metrics {sorted(got)} do not match BENCHMARK.json")
    for m in expected:
        if got[m["name"]]["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got[m['name']]['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
