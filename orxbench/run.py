#!/usr/bin/env python3
"""Builds and runs the ORX benchmark.

  python3 orxbench/run.py --workload hot_search --seed 1 --seconds 10 --trace 0
  python3 orxbench/run.py --quick       # every workload at toy size + self-test
  python3 orxbench/run.py --self-test   # the checks must refuse corrupted answers

Run from the root of a checkout. The first call configures and builds
orxbench and orx_serve (Release) into .bench_build/; later calls only
re-check the build. A benchmark run prints, as its last line of standard
output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["hot_search", "cold_search", "feedback_session", "write_mix"]
RUN_LIMIT_S = 175.0


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds the two binaries; returns their paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no ORX source tree at {ROOT}: nothing to build")
        sys.exit(2)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", str(out), "-j", "4", "--target",
                    "orxbench", "orx_serve_bin"],
                   check=True, stdout=sys.stderr, timeout=850)
    return out / "orxbench", out / "orx" / "tools" / "orx_serve"


def run_binary(binary, serve, args, deadline):
    """Runs orxbench; returns (result dict, traced end-to-end dict)."""
    cmd = [str(binary), *args, "--serve-bin", str(serve),
           "--out-dir", str(ROOT / ".bench_runs")]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        log(f"orxbench exited with {proc.returncode}")
        sys.exit(1)
    traced = None
    for line in lines:
        if line.startswith("TRACED_E2E "):
            traced = json.loads(line[len("TRACED_E2E "):])
    return json.loads(lines[-1]), traced


def print_overhead(workload, traced):
    """Prints the traced run's end-to-end numbers beside the last untraced
    run's of the same workload; the difference is the tracing overhead."""
    saved = ROOT / ".bench_runs" / f"last_{workload}.json"
    untraced = json.loads(saved.read_text()) if saved.is_file() else None
    print(f"end-to-end, untraced vs traced ({workload}):")
    for name, metric in traced["metrics"].items():
        base = untraced["metrics"].get(name) if untraced else None
        if base is None:
            print(f"  {name:24s} {'n/a':>12s} {metric['value']:12.4g} "
                  f"{metric['unit']}")
            continue
        change = (metric["value"] / base["value"] - 1.0) * 100.0 \
            if base["value"] else 0.0
        print(f"  {name:24s} {base['value']:12.4g} {metric['value']:12.4g} "
              f"{metric['unit']:8s} {change:+6.1f}%")


def run_one(args, binary, serve, deadline):
    flags = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    result, traced = run_binary(binary, serve, flags, deadline)
    runs = ROOT / ".bench_runs"
    runs.mkdir(exist_ok=True)
    if args.trace:
        print_overhead(args.workload, traced)
    else:
        (runs / f"last_{args.workload}.json").write_text(json.dumps(result))
    print(json.dumps(result), flush=True)


def run_quick(binary, serve):
    ok = subprocess.run([str(binary), "--self-test", "--quick"],
                        cwd=ROOT).returncode == 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            flags = ["--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", str(trace), "--quick"]
            result, _ = run_binary(binary, serve, flags,
                                   time.monotonic() + RUN_LIMIT_S)
            good = result["correct"] and result["failed"] == 0
            ok = ok and good
            print(f"{workload:17s} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"    {name:32s} {metric['value']:12.5g} "
                      f"{metric['unit']}")
    print("quick run: " + ("all checks passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    binary, serve = build()
    if args.self_test:
        return subprocess.run([str(binary), "--self-test"],
                              cwd=ROOT).returncode
    if args.quick:
        return run_quick(binary, serve)
    if args.workload is None:
        parser.error("--workload is required")
    # The build of a fresh checkout has its own allowance; the run proper
    # gets RUN_LIMIT_S from the end of the build.
    run_one(args, binary, serve, time.monotonic() + RUN_LIMIT_S)
    return 0


if __name__ == "__main__":
    sys.exit(main())
