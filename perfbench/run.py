#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The first call configures and builds
perfbench/ (the library from src/ plus the benchmark binary) with CMake
under $CARGO_TARGET_DIR (default .bench_build); later calls reuse that
build. Each workload runs in its own process. Its result object is
checked against the metric lists of BENCHMARK.json and printed as the last
stdout line; a traced run also writes its spans as Chrome-trace JSON under
the build directory.

--smoke is the benchmark's own test: every workload runs for a fraction of
a second, untraced and traced, and must report zero mismatches and zero
failed requests.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rpc_small", "mlp_fused", "durable_sync")
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 0.4


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def out_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    build_dir = os.path.join(out_root(), "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def expected_units(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload process; returns (result object, exit code)."""
    tag = f"{workload}-seed{seed}-{os.getpid()}"
    scratch = os.path.join(out_root(), "runs", tag)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--scratch", scratch]
    if trace:
        traces = os.path.join(out_root(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{tag}.trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    if not lines:
        raise ValueError(f"{workload} exited {proc.returncode} with no result")
    return json.loads(lines[-1]), proc.returncode


def check(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_units(trace)
    if got != want:
        raise ValueError(f"metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(want) - set(got))}, "
                         f"extra {sorted(set(got) - set(want))}, "
                         f"units {[(k, got[k], want[k]) for k in want if k in got and got[k] != want[k]]}")
    for name, m in result["metrics"].items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {name} is not a finite number: {value}")


def smoke(binary):
    for workload in WORKLOADS:
        for trace in (False, True):
            result, code = run_workload(binary, workload, 1, SMOKE_SECONDS,
                                        trace)
            check(result, trace)
            if code != 0 or not result["correct"] or result["failed"] != 0:
                log(f"smoke {workload} trace={int(trace)} FAILED: exit {code}, "
                    f"correct {result['correct']}, failed {result['failed']}")
                return 1
            log(f"smoke {workload} trace={int(trace)}: ok, "
                f"{result['attempted']} attempted, 0 failed, 0 mismatches")
    print(json.dumps({"smoke": "ok", "workloads": list(WORKLOADS)}))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0 or not 0 < args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in (0, 120]")
    try:
        binary = build()
        if args.smoke:
            return smoke(binary)
        result, code = run_workload(binary, args.workload, args.seed,
                                    args.seconds, bool(args.trace))
        check(result, bool(args.trace))
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
